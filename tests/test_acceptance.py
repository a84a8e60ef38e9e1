"""Acceptance gate: ten numbered criteria, one test (and one pass/fail
line in `pytest -v`) per criterion, plus pinned applicable counts for the
bundled checks no criterion reads and for the corpus8 structure checks.

Everything asserts exact counts; the only tolerance anywhere is the
wall-clock bound in criterion 1, pinned at 600 s for a single-shard scan.
The n = 8 corpus at tests/data/nonisomorphic8.g6 is regenerated by
scripts/build_corpus8.py.
"""

import os
import sys
from functools import lru_cache
from itertools import combinations

import pytest

import oracles
from reslab.cli import main
from reslab.degseq import hh_realization, is_graphic, residue, residue_seq
from reslab.graphs import (
    Graph,
    complement,
    degree_sequence,
    enumerate_labeled,
    from_graph6,
    isomorphism_class_count,
    isomorphism_classes,
    to_graph6,
)
from reslab.heuristics import hh_property_vertices, maxine_all, maxine_hh_sizes
from reslab.independence import all_mis, alpha
from reslab.patterns import cycle, f_catalog, find_induced, path
from reslab.verify import (
    CheckId,
    CorpusSource,
    EnumerationSource,
    run_suite,
)

CORPUS8 = os.path.join(os.path.dirname(__file__), "data", "nonisomorphic8.g6")

BUNDLE = [
    CheckId.THM_BM_C4P5,
    CheckId.COROLLARY_F_P5,
    CheckId.HH_DELETION_GIVES_RESIDUE,
    CheckId.REALIZATION_HAS_HH_VERTEX,
    CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI,
    CheckId.ALPHA_LE_2_EDGELESS,
    CheckId.Q_CLIQUES,
    CheckId.THM_STRUCTURE_ALPHA3,
    CheckId.THM_STRUCTURE_ALPHA_GT3,
]


@lru_cache(maxsize=None)
def bundle_reports(n: int):
    """One shared scan of all labeled n-vertex graphs for criteria 2-6."""
    reports = run_suite(EnumerationSource(n), BUNDLE, shards=1)
    return {r.check: r for r in reports}


@lru_cache(maxsize=None)
def corpus_reports():
    """One shared scan of the 12,346-graph corpus for criteria 3-5."""
    checks = [
        CheckId.COROLLARY_F_P5,
        CheckId.THM_STRUCTURE_ALPHA3,
        CheckId.THM_STRUCTURE_ALPHA_GT3,
    ]
    reports = run_suite(CorpusSource(CORPUS8), checks, shards=1)
    return {r.check: r for r in reports}


def announce(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}", file=sys.stderr)


def test_criterion_01_sandwich_all_n7():
    # residue <= min Maxine and max Maxine <= alpha over all 2^21 labeled
    # 7-vertex graphs, zero counterexamples, single shard under 10 minutes
    (rep,) = run_suite(EnumerationSource(7), [CheckId.THM2_SANDWICH], shards=1)
    ok = (
        rep.scanned == 1 << 21
        and rep.applicable == 1 << 21
        and rep.counterexamples == ()
        and rep.elapsed_ms < 600_000
    )
    announce(1, ok, f"sandwich over 2^21 graphs, {rep.elapsed_ms} ms single-shard")
    assert rep.scanned == 1 << 21
    assert rep.applicable == 1 << 21
    assert rep.counterexamples == ()
    assert rep.elapsed_ms < 600_000


def test_criterion_02_c4p5_free_maxine_optimal():
    bad = []
    for n in range(1, 8):
        rep = bundle_reports(n)[CheckId.THM_BM_C4P5]
        assert rep.scanned == 1 << (n * (n - 1) // 2)
        bad.extend(rep.counterexamples)
    announce(2, not bad, f"{{C4,P5}}-free Maxine optimality, n <= 7 ({len(bad)} bad)")
    assert bad == []


def test_criterion_03_family_p5_free_maxine_optimal():
    bad = []
    for n in range(1, 8):
        bad.extend(bundle_reports(n)[CheckId.COROLLARY_F_P5].counterexamples)
    rep8 = corpus_reports()[CheckId.COROLLARY_F_P5]
    assert rep8.scanned == 12346
    assert rep8.skipped_records == 0
    bad.extend(rep8.counterexamples)
    announce(3, not bad, f"{{family,P5}}-free Maxine optimality, n <= 8 ({len(bad)} bad)")
    assert bad == []


def test_criterion_04_structure_alpha3():
    # the check ANDs the un-anchored containment with the anchored
    # pipeline search, so a divergence in either direction is itself a
    # counterexample; zero counterexamples covers both clauses
    bad = []
    applicable = 0
    for n in range(1, 8):
        rep = bundle_reports(n)[CheckId.THM_STRUCTURE_ALPHA3]
        bad.extend(rep.counterexamples)
        applicable += rep.applicable
    rep8 = corpus_reports()[CheckId.THM_STRUCTURE_ALPHA3]
    assert rep8.scanned == 12346
    assert rep8.applicable == 35  # measured on the corpus scan
    bad.extend(rep8.counterexamples)
    applicable += rep8.applicable
    assert applicable > 0  # the statement is exercised, not vacuous
    announce(4, not bad, f"alpha=3 structure, n <= 8 ({applicable} applicable, {len(bad)} bad)")
    assert bad == []


def test_criterion_05_structure_alpha_gt3():
    bad = []
    applicable = 0
    for n in range(1, 8):
        rep = bundle_reports(n)[CheckId.THM_STRUCTURE_ALPHA_GT3]
        bad.extend(rep.counterexamples)
        applicable += rep.applicable
    rep8 = corpus_reports()[CheckId.THM_STRUCTURE_ALPHA_GT3]
    assert rep8.applicable == 35  # measured on the corpus scan
    bad.extend(rep8.counterexamples)
    applicable += rep8.applicable
    assert applicable > 0
    announce(5, not bad, f"alpha>3 structure, n <= 8 ({applicable} applicable, {len(bad)} bad)")
    assert bad == []


def test_criterion_06_hh_property_claims():
    # (a) single lowest-id guided runs across n <= 7 via the bundled scan
    bad = []
    for n in range(1, 8):
        rep = bundle_reports(n)[CheckId.HH_DELETION_GIVES_RESIDUE]
        bad.extend(rep.counterexamples)
        if n <= 4:
            assert rep.applicable == rep.scanned  # no strandings this small
    # (a) exhaustive over every qualifying deletion choice for n <= 6
    for n in range(1, 7):
        for g in enumerate_labeled(n):
            sizes = maxine_hh_sizes(g)
            if not sizes <= {residue(g)}:
                bad.append(to_graph6(g))
    # (b) every graphic sequence of length <= 6 realizes with a
    # non-empty degree-dominating vertex set
    for n in range(1, 7):
        for seq in oracles.brute_graphic_sequences(n):
            g = hh_realization(seq)
            if g.n and not hh_property_vertices(g):
                bad.append(str(seq))
    announce(6, not bad, f"guided-deletion claims ({len(bad)} violations)")
    assert bad == []


# applicable counts per n = 1..7, measured on the bundled scan
SIDE_CHECK_APPLICABLE = {
    CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI: (1, 1, 1, 1, 61, 1261, 68566),
    CheckId.Q_CLIQUES: (0, 0, 1, 0, 0, 540, 9975),
    CheckId.ALPHA_LE_2_EDGELESS: (1, 1, 0, 0, 0, 0, 0),
}


def test_bundle_side_checks_pinned():
    # the bundle's other checks: no counterexample, and exactly as many
    # applicable graphs as measured, so a check cannot go quietly vacuous
    for n in range(1, 8):
        reports = bundle_reports(n)
        rep = reports[CheckId.REALIZATION_HAS_HH_VERTEX]
        assert rep.counterexamples == ()
        assert rep.applicable == rep.scanned == 1 << (n * (n - 1) // 2)
        for check, counts in SIDE_CHECK_APPLICABLE.items():
            assert reports[check].counterexamples == (), (check, n)
            assert reports[check].applicable == counts[n - 1], (check, n)


def test_criterion_07_catalog_soundness(tmp_path):
    # every filtered member up to 10 vertices passes the direct check:
    # max-degree v inside the unique maximum independent set {v,u,w}
    for m in f_catalog(10):
        g = m.graph
        assert m.mdi_verified
        rep = all_mis(g)
        assert rep.sets == (frozenset({0, 1, 2}),)
        assert g.degree(0) == max(g.degree(x) for x in range(g.n))
    # the raw catalog's failures are exactly the two smallest cyclic-core
    # members, and a corpus scan reports them
    raw = f_catalog(10, mdi_filter=False)
    expect_bad = sorted(
        to_graph6(m.graph) for m in raw if m.label in ("A3", "B3")
    )
    assert [m.label for m in raw if not m.mdi_verified] == ["A3", "B3"]
    corpus = tmp_path / "members.g6"
    corpus.write_text("".join(to_graph6(m.graph) + "\n" for m in raw))
    (rep,) = run_suite(
        CorpusSource(str(corpus)), [CheckId.F_MEMBERS_ARE_MDI], shards=1
    )
    ok = rep.scanned == len(raw) and list(rep.counterexamples) == expect_bad
    announce(7, ok, f"catalog soundness, {len(raw)} members, flags A3/B3")
    assert rep.scanned == len(raw)
    assert list(rep.counterexamples) == expect_bad


def dp_alpha(g: Graph) -> int:
    """Independent oracle: subset dynamic program over all 2^n masks."""
    adj = g.adj
    dp = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        b = mask & -mask
        v = b.bit_length() - 1
        skip = dp[mask ^ b]
        take = 1 + dp[mask & ~adj[v] & ~b]
        dp[mask] = take if take > skip else skip
    return dp[-1]


def test_criterion_08_oracle_equivalences():
    # alpha: branch-and-bound vs the subset DP on every labeled graph n <= 7
    for n in range(8):
        for g in enumerate_labeled(n):
            assert alpha(g) == dp_alpha(g), g
    # all_mis vs combinations at the exact size, n <= 6
    for n in range(7):
        for g in enumerate_labeled(n):
            a = alpha(g)
            expect = sorted(
                (frozenset(c) for c in combinations(range(n), a)
                 if oracles.is_independent(g, c)),
                key=sorted,
            )
            assert list(all_mis(g).sets) == expect, g
    # graphicality vs realization existence, length <= 6, entries <= 5
    for k in range(7):
        realizable = oracles.brute_graphic_sequences(k)
        for seq in oracles.nonincreasing_sequences(k, 5):
            assert is_graphic(seq) == (seq in realizable), seq
    # induced-subgraph search vs subset brute force for the fixed pattern
    # set; all labeled hosts to n = 5, then class representatives (the
    # predicate is an isomorphism invariant) for n = 6 and 7
    pats = [
        cycle(4),
        path(5),
        complement(cycle(4)),
        complement(cycle(5)),
        complement(path(4)),
        complement(path(5)),
    ]
    def hosts():
        for n in range(6):
            yield from enumerate_labeled(n)
        for n in (6, 7):
            for m in isomorphism_classes(n):
                yield Graph.from_mask(n, m)
    for g in hosts():
        for pat in pats:
            found = find_induced(g, pat) is not None
            assert found == oracles.brute_induced_exists(g, pat), (g, pat)
    announce(8, True, "alpha / all_mis / graphicality / induced-search oracles agree")


def test_criterion_09_codec():
    assert from_graph6("Bw") == Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert to_graph6(Graph(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    for n in range(8):
        for g in enumerate_labeled(n):
            assert from_graph6(to_graph6(g)) == g
    counts = [isomorphism_class_count(n) for n in range(1, 8)]
    ok = counts == [1, 2, 4, 11, 34, 156, 1044]
    announce(9, ok, f"graph6 round-trip n <= 7; dedup counts {counts}")
    assert counts == [1, 2, 4, 11, 34, 156, 1044]


def test_criterion_10_cli_spot_values(capsys):
    cases = [
        (["residue", "Cl"], "R = 2\n"),  # C4
        (["residue", "DhC"], "R = 2\n"),  # P5
        (["alpha", "DhC"], "alpha = 3\n"),
        (
            ["maxine", "DhC", "--all"],
            "achievable M: {2,3}\nmin M = 2\nmax M = 3\n",
        ),
        (
            ["mdi", "Cl"],
            "alpha = 2\nmaximum independent sets: 2\nmdi vertices: {}\n",
        ),
        (
            ["mdi", "DhC"],
            "alpha = 3\nmaximum independent sets: 1\nmdi vertices: {2}\n",
        ),
    ]
    ok = True
    for argv, want in cases:
        code = main(argv)
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == want
        assert code == 0, argv
        assert out == want, argv
    with capsys.disabled():
        announce(10, ok, "CLI spot values reproduce the frozen examples")
