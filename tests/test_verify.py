"""Check semantics, scanning, sharding determinism, and report schema."""

import json
import multiprocessing
import os
import random
import tracemalloc
from collections import Counter
from itertools import chain

import pytest

import oracles
from reslab import facts, independence, levels, tablefacts, verify
from reslab.graphs import ENUM_CAP, Graph, _graph6_mask, _pairs, from_graph6, to_graph6
from reslab.heuristics import NoHHVertexError, maxine_hh
from reslab.patterns import (
    _has_p5_star,
    complete,
    cycle,
    empty,
    f_catalog,
    find_induced,
    gen_f_member,
    path,
)
from reslab.verify import (
    CHECK_DESCRIPTIONS,
    CheckId,
    CorpusSource,
    EnumerationSource,
    Verdict,
    VerifyReport,
    check_one,
    hunt,
    run_suite,
)

P5 = path(5)
C4 = cycle(4)
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
FORK = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])  # no HH vertex

ALL_CHECKS = list(CheckId)
CORPUS8 = os.path.join(os.path.dirname(__file__), "data", "nonisomorphic8.g6")
THEOREM_CHECKS = [c for c in ALL_CHECKS if c is not CheckId.F_MEMBERS_ARE_MDI]
# GraphFacts.flags bits: C4, P5, a filtered catalog member, a raw member
FLAG_BITS = (
    facts._C4_FLAG,
    facts._P5_FLAG,
    facts._MEMBER_FLAG,
    facts._RAW_MEMBER_FLAG,
)


def flag_bits(f) -> tuple[bool, ...]:
    return tuple(bool(f.flags & bit) for bit in FLAG_BITS)


def corpus_facts_class(n: int) -> type:
    """The facts class a corpus record with n vertices is scanned with."""
    if n < 7:
        return tablefacts._LayerFacts
    return tablefacts._FlagFacts if n == 8 else verify.GraphFacts


class TestCheckIds:
    def test_published_ids_complete(self):
        assert {c.value for c in CheckId} == {
            "thm1_residue_le_alpha",
            "thm2_sandwich",
            "hh_deletion_gives_residue",
            "realization_has_hh_vertex",
            "thm_bm_c4p5",
            "lemma_reductions_preserve_mdi",
            "alpha_le_2_edgeless",
            "q_cliques",
            "thm_structure_alpha3",
            "thm_structure_alpha_gt3",
            "corollary_f_p5",
            "f_members_are_mdi",
        }

    def test_every_check_described(self):
        assert set(CHECK_DESCRIPTIONS) == set(CheckId)

    def test_string_names_accepted(self):
        assert check_one(P5, "thm1_residue_le_alpha") is Verdict.PASS
        with pytest.raises(ValueError):
            check_one(P5, "no_such_check")


class TestCheckOne:
    def test_thm1_and_thm2(self):
        for g in (P5, C4, K3, Graph(0), FORK):
            assert check_one(g, CheckId.THM1_RESIDUE_LE_ALPHA) is Verdict.PASS
            assert check_one(g, CheckId.THM2_SANDWICH) is Verdict.PASS

    def test_hh_deletion(self):
        assert check_one(P5, CheckId.HH_DELETION_GIVES_RESIDUE) is Verdict.PASS
        assert check_one(C4, CheckId.HH_DELETION_GIVES_RESIDUE) is Verdict.PASS
        # stranded run: no degree-dominating vertex to delete
        assert check_one(FORK, CheckId.HH_DELETION_GIVES_RESIDUE) is Verdict.NOT_APPLICABLE

    def test_realization(self):
        assert check_one(FORK, CheckId.REALIZATION_HAS_HH_VERTEX) is Verdict.PASS
        assert check_one(Graph(0), CheckId.REALIZATION_HAS_HH_VERTEX) is Verdict.NOT_APPLICABLE

    def test_thm_bm_applicability(self):
        assert check_one(C4, CheckId.THM_BM_C4P5) is Verdict.NOT_APPLICABLE
        assert check_one(P5, CheckId.THM_BM_C4P5) is Verdict.NOT_APPLICABLE
        assert check_one(K3, CheckId.THM_BM_C4P5) is Verdict.PASS
        assert check_one(Graph(4, [(0, 1), (0, 2), (0, 3)]), CheckId.THM_BM_C4P5) is Verdict.PASS

    def test_corollary_applicability(self):
        # C4 is allowed here (only 5-paths and catalog members are excluded)
        assert check_one(C4, CheckId.COROLLARY_F_P5) is Verdict.PASS
        assert check_one(P5, CheckId.COROLLARY_F_P5) is Verdict.NOT_APPLICABLE
        # a catalog member contains itself
        a4 = gen_f_member("A", 4).graph
        assert check_one(a4, CheckId.COROLLARY_F_P5) is Verdict.NOT_APPLICABLE

    def test_lemma_reductions(self):
        assert check_one(P5, CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI) is Verdict.PASS
        assert check_one(C4, CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI) is Verdict.NOT_APPLICABLE
        multi = Graph(7, [(0, 4), (0, 6), (1, 4), (1, 5), (2, 3)])
        assert check_one(multi, CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI) is Verdict.PASS

    def test_lemma_reductions_fail_path(self, monkeypatch):
        # a host past the all-MIS cap raises instead of failing
        with pytest.raises(ValueError, match="limited to n <= 32"):
            check_one(empty(40), CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI)
        # a reduced graph with two maximum independent sets is a
        # counterexample, not an error
        monkeypatch.setattr(facts, "_reduction_pipeline", lambda g, v, a: (C4, 0))
        assert check_one(P5, CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI) is Verdict.FAIL

    def test_alpha_le2(self):
        assert check_one(Graph(1), CheckId.ALPHA_LE_2_EDGELESS) is Verdict.PASS
        assert check_one(Graph(2), CheckId.ALPHA_LE_2_EDGELESS) is Verdict.PASS
        assert check_one(Graph(2, [(0, 1)]), CheckId.ALPHA_LE_2_EDGELESS) is Verdict.NOT_APPLICABLE
        assert check_one(P5, CheckId.ALPHA_LE_2_EDGELESS) is Verdict.NOT_APPLICABLE

    def test_q_cliques(self):
        c3o = gen_f_member("C", 3, "opposite").graph
        assert check_one(c3o, CheckId.Q_CLIQUES) is Verdict.PASS
        # P5 has an induced 5-path centered on its qualifying vertex, so
        # it is excluded rather than reported as a failure
        assert check_one(P5, CheckId.Q_CLIQUES) is Verdict.NOT_APPLICABLE
        assert check_one(C4, CheckId.Q_CLIQUES) is Verdict.NOT_APPLICABLE

    def test_q_cliques_fail_path(self, monkeypatch):
        # the path u-a-v-b-w, v = 0: its one maximum independent set is
        # {v, u, w} = {0, 1, 2}, and q = {a, b} = {3, 4} is not a clique
        reduced = Graph(5, [(1, 3), (3, 0), (0, 4), (4, 2)])
        monkeypatch.setattr(facts, "_reduction_pipeline", lambda g, v, a: (reduced, 0))
        c3o = gen_f_member("C", 3, "opposite").graph
        assert check_one(c3o, CheckId.Q_CLIQUES) is Verdict.FAIL

    def test_structure_alpha3(self):
        c3o = gen_f_member("C", 3, "opposite").graph
        assert check_one(c3o, CheckId.THM_STRUCTURE_ALPHA3) is Verdict.PASS
        assert check_one(gen_f_member("A", 4).graph, CheckId.THM_STRUCTURE_ALPHA3) is Verdict.PASS
        assert check_one(empty(3), CheckId.THM_STRUCTURE_ALPHA3) is Verdict.PASS
        assert check_one(P5, CheckId.THM_STRUCTURE_ALPHA3) is Verdict.NOT_APPLICABLE
        assert check_one(K3, CheckId.THM_STRUCTURE_ALPHA3) is Verdict.NOT_APPLICABLE

    def test_structure_gt3(self):
        assert check_one(empty(4), CheckId.THM_STRUCTURE_ALPHA_GT3) is Verdict.PASS
        assert check_one(path(7), CheckId.THM_STRUCTURE_ALPHA_GT3) is Verdict.NOT_APPLICABLE
        assert check_one(P5, CheckId.THM_STRUCTURE_ALPHA_GT3) is Verdict.NOT_APPLICABLE
        # its induced 5-paths center on 1 or 6, neither of them MDI (4, 5)
        p5_off_mdi = Graph(
            8,
            [(0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5)],
        )
        assert check_one(p5_off_mdi, CheckId.THM_STRUCTURE_ALPHA_GT3) is Verdict.PASS

    def test_f_members(self):
        assert check_one(gen_f_member("A", 4).graph, CheckId.F_MEMBERS_ARE_MDI) is Verdict.PASS
        assert check_one(gen_f_member("A", 3).graph, CheckId.F_MEMBERS_ARE_MDI) is Verdict.FAIL
        assert check_one(C4, CheckId.F_MEMBERS_ARE_MDI) is Verdict.FAIL
        assert check_one(Graph(0), CheckId.F_MEMBERS_ARE_MDI) is Verdict.NOT_APPLICABLE


class TestRunSuite:
    def test_enumeration_scan_counts(self):
        reports = run_suite(EnumerationSource(4), [CheckId.THM2_SANDWICH], shards=1)
        (rep,) = reports
        assert rep.scanned == 64
        assert rep.applicable == 64
        assert rep.counterexamples == ()
        assert rep.skipped_records == 0
        assert rep.source == "enumeration(n=4)"

    def test_theorem_checks_clean_on_n4(self):
        reports = run_suite(EnumerationSource(4), THEOREM_CHECKS, shards=1)
        assert [r.check for r in reports] == THEOREM_CHECKS
        for rep in reports:
            assert rep.counterexamples == (), rep.check
            assert rep.scanned == 64

    def test_f_members_counterexamples_sorted(self):
        (rep,) = run_suite(EnumerationSource(3), [CheckId.F_MEMBERS_ARE_MDI], shards=1)
        assert rep.scanned == 8 and rep.applicable == 8
        assert list(rep.counterexamples) == ["BG", "BO", "BW", "B_", "Bg", "Bo", "Bw"]

    def test_shard_count_does_not_change_reports(self):
        checks = [CheckId.THM2_SANDWICH, CheckId.F_MEMBERS_ARE_MDI]
        base = run_suite(EnumerationSource(5), checks, shards=1)
        for shards in (2, 3, 8):
            got = run_suite(EnumerationSource(5), checks, shards=shards)
            for a, b in zip(base, got):
                da, db = a.to_dict(), b.to_dict()
                da.pop("elapsed_ms"), db.pop("elapsed_ms")
                assert da == db

    def test_shards_exceeding_graphs(self):
        (rep,) = run_suite(EnumerationSource(1), [CheckId.THM1_RESIDUE_LE_ALPHA], shards=16)
        assert rep.scanned == 1

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            run_suite(EnumerationSource(3), [CheckId.THM2_SANDWICH], shards=0)

    def test_no_checks_reads_no_source(self):
        class Unreadable(EnumerationSource):
            def chunks(self, shards):
                raise AssertionError("source read")

        assert run_suite(Unreadable(6), [], shards=4) == []
        with pytest.raises(ValueError):
            run_suite(Unreadable(6), [], shards=0)
        with pytest.raises(TypeError):
            run_suite("corpus.g6", [])

    def test_repeated_check_rejected(self):
        # counted once per repeat, it would report 16 applicable of 8 scanned
        checks = [CheckId.THM2_SANDWICH, "thm1_residue_le_alpha"] * 2
        with pytest.raises(ValueError, match="check thm1_residue_le_alpha given more"):
            run_suite(EnumerationSource(3), checks[1:], shards=1)
        with pytest.raises(ValueError, match="check thm2_sandwich given more"):
            run_suite(EnumerationSource(3), checks, shards=1)

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # a stand-in pool that records its size and maps in this process
        opened = []

        class RecordingPool:
            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                opened.append(len(payloads))
                return [fn(p) for p in payloads]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        checks = [CheckId.THM2_SANDWICH, CheckId.F_MEMBERS_ARE_MDI]
        got = run_suite(EnumerationSource(5), checks, shards=5000)
        assert opened == [3, 1024]  # 3 processes, one chunk per graph
        base = run_suite(EnumerationSource(5), checks, shards=1)
        for a, b in zip(base, got):
            da, db = a.to_dict(), b.to_dict()
            da.pop("elapsed_ms"), db.pop("elapsed_ms")
            assert da == db
        opened.clear()
        run_suite(EnumerationSource(5), checks, shards=2)
        assert opened == [2, 2]
        opened.clear()
        run_suite(EnumerationSource(5), checks)  # default: one shard per core
        assert opened == [3, 3]

    def test_absurd_shard_count_capped(self, monkeypatch):
        # one chunk per graph would be 2**21 payloads at n = 7
        chunks = EnumerationSource(7).chunks(10**9)
        assert 1024 <= len(chunks) <= 4096
        assert chunks[0][0] == 0 and chunks[-1][1] == 1 << 21
        assert all(lo < hi == nxt for (lo, hi), (nxt, _) in zip(chunks, chunks[1:]))
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        base = run_suite(EnumerationSource(4), ALL_CHECKS, shards=1)
        got = run_suite(EnumerationSource(4), ALL_CHECKS, shards=10**9)
        for a, b in zip(base, got):
            da, db = a.to_dict(), b.to_dict()
            da.pop("elapsed_ms"), db.pop("elapsed_ms")
            assert da == db

    def test_unknown_source(self):
        with pytest.raises(TypeError):
            run_suite(object(), [CheckId.THM2_SANDWICH], shards=1)

    @pytest.mark.parametrize("n", [-1, ENUM_CAP + 1])
    def test_enumeration_size_checked(self, n):
        # unchecked, n = -1 recurses without end and n = 9 allocates 4 * 9**9 bytes
        message = rf"0\.\.{ENUM_CAP} vertices, got {n}"
        with pytest.raises(ValueError, match=message):
            run_suite(EnumerationSource(n), [CheckId.THM2_SANDWICH], shards=1)
        with pytest.raises(ValueError, match=message):
            hunt(EnumerationSource(n), CheckId.THM2_SANDWICH, 1)

    def test_enumeration_size_bounds_kept(self):
        (rep,) = run_suite(EnumerationSource(0), [CheckId.THM2_SANDWICH], shards=1)
        assert rep.scanned == rep.applicable == 1
        assert EnumerationSource(ENUM_CAP).describe() == f"enumeration(n={ENUM_CAP})"


class TestLayerTables:
    """Labeled scans read their facts from tables over the graphs one
    vertex smaller; the per-graph GraphFacts is the reference."""

    @staticmethod
    def assert_matches_per_graph(f):
        ref = verify.GraphFacts(Graph.from_mask(f.n, f.mask))
        got = (
            f.alpha,
            f.maxine_sizes,
            f.residue,
            f.mdi_mask,
            f.degrees,
            f.edge_count,
            *flag_bits(f),
            f.hh_size,
        )
        want = (
            ref.alpha,
            ref.maxine_sizes,
            ref.residue,
            ref.mdi_mask,
            ref.degrees,
            ref.edge_count,
            *flag_bits(ref),
            ref.hh_size,
        )
        assert got == want, (f.n, f.mask)

    def test_every_labeled_graph_up_to_n6(self):
        for n in range(7):
            total = 1 << (n * (n - 1) // 2)
            masks = []
            for f in tablefacts._layer_facts(n, 0, total):
                self.assert_matches_per_graph(f)
                masks.append(f.mask)
            assert masks == list(range(total))

    def test_seeded_sample_n7(self):
        for mask in random.Random(2024).sample(range(1 << 21), 1 << 12):
            (f,) = tablefacts._layer_facts(7, mask, mask + 1)
            assert f.mask == mask
            self.assert_matches_per_graph(f)

    def test_level_tables_match_per_graph(self):
        # the tables the scans read one vertex down, built by their own
        # walk, on every mask
        for k in range(7):
            alphas, sizes = levels._level(k)
            hh = levels._hh_level(k)
            flags = levels._flag_level(k)
            total = 1 << (k * (k - 1) // 2)
            assert len(alphas) == len(sizes) == len(hh) == len(flags) == total
            for mask in range(total):
                ref = verify.GraphFacts(Graph.from_mask(k, mask))
                want_hh = 0 if ref.hh_size is None else ref.hh_size + 1
                got = (alphas[mask], sizes[mask], hh[mask], flags[mask])
                want = (ref.alpha, ref.maxine_sizes, want_hh, ref.flags)
                assert got == want, (k, mask)

    def test_seven_vertex_flag_level(self):
        # labeled n = 8 scans read _flag_level(7), 2**21 entries; it is
        # built from the level below without a Python int per mask
        levels._flag_level.cache_clear()
        levels._flag_level(6)
        levels._relabeled_flags(7)
        tracemalloc.start()
        try:
            flags = levels._flag_level(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20
        assert len(flags) == 1 << 21
        rng = random.Random(7)
        for mask in rng.sample(range(1 << 21), 4096):
            assert flags[mask] == verify.GraphFacts(Graph.from_mask(7, mask)).flags, mask

    def test_p5_star_reads_the_p5_bit(self):
        # table facts search for a P5 centred on an MDI vertex only on a
        # host that holds a P5 at all
        with open(CORPUS8) as fh:
            records = [_graph6_mask(line.strip()) for line in fh if line.strip()]
        hosts = chain(
            (f for n in range(7) for f in tablefacts._layer_facts(n, 0, 1 << len(_pairs(n)))),
            (tablefacts._corpus_facts(n, mask) for n, mask in records),
        )
        seen = Counter()
        for f in hosts:
            if f.mdi_mask:
                got = f.p5_star
                assert got == _has_p5_star(f.graph, f.mdi_mask), to_graph6(f.graph)
                seen[bool(f.p5), got] += 1
        assert seen.keys() == {(False, False), (True, False), (True, True)}

    @staticmethod
    def layer_hh_size(g: Graph) -> int | None:
        mask = g.mask()
        (f,) = tablefacts._layer_facts(g.n, mask, mask + 1)
        return f.hh_size

    def test_sandwich_scan_allocates_no_bands(self):
        levels._degree_classes.cache_clear()
        run_suite(EnumerationSource(5), [CheckId.THM2_SANDWICH], shards=1)
        assert "bands" not in vars(levels._degree_classes(5))
        run_suite(EnumerationSource(5), [CheckId.HH_DELETION_GIVES_RESIDUE], shards=1)
        assert len(levels._degree_classes(5).bands) == 5**5

    def test_band_tie_at_theta_still_dominates(self):
        # P3 3-0-4 plus the edge 12: top = 2 and theta = 1, and vertices
        # 1 and 2 tie with 0's neighbours at degree 1; 0 is the only vertex
        # that dominates, so refusing it would strand the run
        g = Graph(5, [(0, 3), (0, 4), (1, 2)])
        assert maxine_hh(g).deletions == (0, 1)
        assert self.layer_hh_size(g) == 3

    def test_band_vertex_above_theta_outside_neighbourhood(self):
        # K_{2,3}: top = 3 and theta = 2; N(0) lies in GE, but 1 is above
        # theta and misses it, so neither 0 nor 1 dominates (deleting 0
        # would end at 3 survivors)
        g = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        with pytest.raises(NoHHVertexError):
            maxine_hh(g)
        assert self.layer_hh_size(g) is None

    @staticmethod
    def count_builds(monkeypatch) -> list:
        """Record every Graph built from now on."""
        built = []
        make, init = Graph._make.__func__, Graph.__init__

        def counting_make(cls, n, adj):
            built.append(n)
            return make(cls, n, adj)

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "_make", classmethod(counting_make))
        monkeypatch.setattr(Graph, "__init__", counting_init)
        return built

    def test_sandwich_scan_builds_no_graph(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        (rep,) = run_suite(EnumerationSource(5), [CheckId.THM2_SANDWICH], shards=1)
        assert rep.scanned == rep.applicable == 1024
        assert rep.counterexamples == ()
        assert built == []
        assert Graph.from_mask(3, 1) == Graph(3, [(0, 1)])  # counting works
        assert len(built) == 2

    def test_guided_and_forbidden_checks_build_no_graph(self, monkeypatch):
        checks = [
            CheckId.THM1_RESIDUE_LE_ALPHA,
            CheckId.THM2_SANDWICH,
            CheckId.HH_DELETION_GIVES_RESIDUE,
            CheckId.THM_BM_C4P5,
            CheckId.COROLLARY_F_P5,
        ]
        facts._catalog_upto(6)  # the catalog's own graphs, built once
        built = self.count_builds(monkeypatch)
        reports = run_suite(EnumerationSource(6), checks, shards=1)
        assert [r.applicable for r in reports] == [32768, 32768, 25198, 14338, 24428]
        assert all(r.counterexamples == () for r in reports)
        assert built == []

    def test_reduction_checks_enumerate_each_stage_once(self, monkeypatch):
        # the n = 6 scan reduces 1,446 (graph, MDI vertex) pairs; each pair
        # lists the maximum independent sets of the host, of the first
        # reduction and of the final graph once, whichever checks read them
        calls = []
        all_mis_masks = independence._all_mis_masks

        def counting(g, *args):
            calls.append(g.n)
            return all_mis_masks(g, *args)

        monkeypatch.setattr(independence, "_all_mis_masks", counting)
        checks = [
            CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI,
            CheckId.Q_CLIQUES,
            CheckId.THM_STRUCTURE_ALPHA3,
        ]
        reports = run_suite(EnumerationSource(6), checks, shards=1)
        assert [r.applicable for r in reports] == [1261, 540, 540]
        assert all(r.counterexamples == () for r in reports)
        assert len(calls) == 3 * 1446 == 4338

    def test_reduction_checks_reuse_alpha_and_skip_copies(self, monkeypatch):
        # the scan's alpha serves every stage, and at n <= 6 both
        # reductions keep every vertex, so no stage copies the graph
        facts._catalog_upto(6)  # its members' own MDI tests, once
        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(independence, "alpha", counting("alpha", independence.alpha))
        monkeypatch.setattr(independence, "induced", counting("induced", independence.induced))
        checks = [
            CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI,
            CheckId.Q_CLIQUES,
            CheckId.THM_STRUCTURE_ALPHA3,
        ]
        reports = run_suite(EnumerationSource(6), checks, shards=1)
        assert [r.applicable for r in reports] == [1261, 540, 540]
        assert calls == []
        independence.reduction_pipeline(P5, 2)  # counting works
        assert calls == ["alpha"]


class TestCorpusFlags:
    """Corpus records with at most 8 vertices read C4, P5, catalog
    members, alpha, the Maxine sizes and the MDI mask from the labeled
    tables; the searches of GraphFacts are the reference."""

    @staticmethod
    def flags(f):
        return flag_bits(f)

    @staticmethod
    def levels(f):
        return f.alpha, f.maxine_sizes, f.mdi_mask

    def assert_matches_search(self, g):
        """Check the flags, levels, degrees, residue and guided run; return
        the flags, which unlike the MDI mask and the guided run, whose
        ties are broken by the labeling, a relabeling keeps."""
        f = tablefacts._corpus_facts(g.n, g.mask())
        assert type(f) is corpus_facts_class(g.n)
        ref = verify.GraphFacts(g)
        got = self.flags(f)
        assert got == self.flags(ref), to_graph6(g)
        assert self.levels(f) == self.levels(ref), to_graph6(g)
        assert (f.degrees, f.residue) == (ref.degrees, ref.residue), to_graph6(g)
        assert f.hh_size == ref.hh_size, to_graph6(g)
        return got

    def test_every_corpus8_record(self):
        with open(CORPUS8) as fh:
            graphs = [from_graph6(line) for line in fh if line.strip()]
        assert len(graphs) == 12346
        hits = [self.assert_matches_search(g) for g in graphs]
        # every flag is seen both set and clear
        assert all(0 < sum(col) < len(hits) for col in zip(*hits))

    def test_every_labeled_graph_up_to_n6_and_sample_n7(self):
        for n in range(7):
            for mask in range(1 << (n * (n - 1) // 2)):
                self.assert_matches_search(Graph.from_mask(n, mask))
        for mask in random.Random(2027).sample(range(1 << 21), 1 << 12):
            self.assert_matches_search(Graph.from_mask(7, mask))

    def test_seeded_sample_n8_and_edgeless(self):
        for mask in random.Random(2028).sample(range(1 << 28), 1 << 12):
            self.assert_matches_search(Graph.from_mask(8, mask))
        for n in range(ENUM_CAP + 1):
            f = tablefacts._corpus_facts(n, 0)
            assert self.levels(f) == (n, 1 << n, (1 << n) - 1)

    def test_bundle_reads_no_exact_search(self, monkeypatch, tmp_path):
        # records with at most 8 vertices take their alpha, MDI mask,
        # Maxine sizes, degrees and guided run from the tables and degree
        # vectors; larger ones still search
        calls = []

        def count(name):
            fn = getattr(facts, name)

            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(facts, name, wrapped)

        searches = ("_alpha_mask", "_maxine_sizes", "_mdi_mask", "degree_sequence", "maxine_hh")
        for name in searches:
            count(name)
        reports = run_suite(CorpusSource(CORPUS8), THEOREM_CHECKS, shards=1)
        assert all(r.scanned == 12346 and r.counterexamples == () for r in reports)
        assert calls == []
        corpus = tmp_path / "nine.g6"
        corpus.write_text(to_graph6(cycle(8)) + "\n" + to_graph6(cycle(9)) + "\n")
        run_suite(CorpusSource(str(corpus)), THEOREM_CHECKS, shards=1)
        assert sorted(calls) == list(searches)

    def test_induced_subgraphs_unpacked(self):
        # the packed chunk lookups give G - v at v and G - v - x at the
        # position of the pair (x, v) in pair_order(8)
        def without(g, gone):
            at = {v: i for i, v in enumerate(v for v in range(g.n) if v not in gone)}
            edges = [(at[a], at[b]) for a, b in g.edges() if a in at and b in at]
            return Graph(len(at), edges).mask()

        masks = random.Random(2029).sample(range(1 << 28), 300) + [0, (1 << 28) - 1]
        for mask in masks:
            g = Graph.from_mask(8, mask)
            f = tablefacts._FlagFacts(8, mask)
            assert list(f.deletions) == [without(g, {v}) for v in range(8)], mask
            want = [without(g, {x, v}) for v in range(8) for x in range(v)]
            assert list(f.sixes) == want, mask

    def test_relabeled_corpus8_records(self):
        rng = random.Random(10)
        with open(CORPUS8) as fh:
            records = [line.strip() for line in fh if line.strip()]
        for record in rng.sample(records, 400):
            g = from_graph6(record)
            base = self.assert_matches_search(g)
            for _ in range(3):
                perm = rng.sample(range(g.n), g.n)
                h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
                assert self.assert_matches_search(h) == base, (record, perm)

    def test_facts_class_follows_vertex_count(self):
        # the labeled tables up to 6 vertices, two deletions into the
        # 6-vertex tables at 8, the per-graph searches at 7 and beyond 8
        want = {n: tablefacts._LayerFacts for n in range(7)}
        want.update({7: verify.GraphFacts, 8: tablefacts._FlagFacts})
        want.update({9: verify.GraphFacts, 12: verify.GraphFacts})
        for n, cls in want.items():
            assert corpus_facts_class(n) is cls, n
            for g in (empty(n), complete(n)):
                f = tablefacts._corpus_facts(g.n, g.mask())
                assert type(f) is cls, n
                assert f.graph == g, n  # counterexamples echo the record

    def test_labeled_path_matches_per_graph(self):
        # every fact the labeled scan is held to, the guided run included
        for n in range(7):
            for mask in range(1 << (n * (n - 1) // 2)):
                f = tablefacts._corpus_facts(n, mask)
                TestLayerTables.assert_matches_per_graph(f)

    def test_flags_search_builds_the_catalog_once(self, monkeypatch):
        # a 9-vertex host holding C4 is searched for the members of 6 to 9
        # vertices from one catalog build for its own size
        builds = []

        def counting(n, mdi_filter=True):
            builds.append((n, mdi_filter))
            return f_catalog(n, mdi_filter)

        monkeypatch.setattr(facts, "f_catalog", counting)
        facts._catalog_upto.cache_clear()
        facts._flagged_patterns.cache_clear()
        f = verify.GraphFacts(gen_f_member("C", 6, "opposite").graph)
        assert f.flags & facts._C4_FLAG and f.flags & facts._RAW_MEMBER_FLAG
        assert builds == [(9, False)]

    @pytest.mark.parametrize(
        "g, check, want",
        [
            (gen_f_member("C", 6, "opposite").graph, "thm_bm_c4p5", [C4]),
            (cycle(9), "thm_bm_c4p5", [C4, P5]),
            (cycle(9), "corollary_f_p5", [P5]),
        ],
    )
    def test_c4_p5_checks_stop_at_first_hit(self, monkeypatch, g, check, want):
        # thm_bm and the corollary read the C4 and P5 bits alone, so the
        # per-graph path stops at the first pattern found, with no catalog
        searched = []

        def counting(host, pattern, **kwargs):
            searched.append(pattern)
            return find_induced(host, pattern, **kwargs)

        def no_catalog(*args):
            raise AssertionError("catalog built")

        monkeypatch.setattr(facts, "find_induced", counting)
        monkeypatch.setattr(facts, "f_catalog", no_catalog)
        facts._catalog_upto.cache_clear()
        facts._flagged_patterns.cache_clear()
        assert check_one(g, check) is Verdict.NOT_APPLICABLE
        assert searched == want

    def test_records_over_eight_vertices_search(self):
        assert type(tablefacts._corpus_facts(9, 0)) is verify.GraphFacts
        (rep,) = run_suite(CorpusSource(CORPUS8), [CheckId.THM_BM_C4P5], shards=1)
        assert rep.applicable == 1267  # the {C4, P5}-free classes on 8 vertices


class TestCorpusSource:
    def make_corpus(self, tmp_path, lines):
        p = tmp_path / "corpus.g6"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_scan_with_skips(self, tmp_path, capsys):
        p = self.make_corpus(
            tmp_path,
            ["Bw", "", "not graph6!", "Cl", ">>graph6<<C?", "D", "  DQo  "],
        )
        (rep,) = run_suite(CorpusSource(p), [CheckId.THM1_RESIDUE_LE_ALPHA], shards=2)
        assert rep.scanned == 4  # Bw, Cl, header record, DQo
        assert rep.skipped_records == 2  # malformed text + truncated record
        assert rep.source == f"corpus({p})"
        err = capsys.readouterr().err
        assert ":3: skipping record" in err
        assert ":6: skipping record" in err

    def test_skips_identical_across_shards(self, tmp_path, capsys):
        lines = ["Bw", "bad!", "Cl", "", "D", "DQo", "C~", "Cx", "E", "Dh?"]
        p = self.make_corpus(tmp_path, lines)
        checks = [CheckId.THM1_RESIDUE_LE_ALPHA, CheckId.F_MEMBERS_ARE_MDI]
        outputs = []
        for shards in (1, 2, 3, 9, 10**9):
            reports = run_suite(CorpusSource(p), checks, shards=shards)
            dicts = [r.to_dict() for r in reports]
            for d in dicts:
                d.pop("elapsed_ms")
            outputs.append((dicts, capsys.readouterr().err))
        dicts, err = outputs[0]
        assert dicts[0]["scanned"] == 6 and dicts[0]["skipped_records"] == 3
        assert [line.split(":")[2] for line in err.splitlines()] == ["2", "5", "9"]
        assert all(out == outputs[0] for out in outputs)

    def test_counterexamples_echo_input_graphs(self, tmp_path):
        a3 = gen_f_member("A", 3)
        a4 = gen_f_member("A", 4)
        b3 = gen_f_member("B", 3)
        p = self.make_corpus(
            tmp_path, [to_graph6(m.graph) for m in (a3, a4, b3)]
        )
        (rep,) = run_suite(CorpusSource(p), [CheckId.F_MEMBERS_ARE_MDI], shards=1)
        assert rep.scanned == 3 and rep.applicable == 3
        assert sorted(rep.counterexamples) == sorted(
            [to_graph6(a3.graph), to_graph6(b3.graph)]
        )

    def test_records_over_vertex_limit_skipped(self, tmp_path, capsys):
        big = to_graph6(empty(40))
        p = self.make_corpus(tmp_path, ["Bw", big, "DhC", to_graph6(empty(32))])
        check = CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI
        (rep,) = run_suite(CorpusSource(p), [check], shards=2)
        assert rep.scanned == 3 and rep.skipped_records == 1
        assert rep.applicable == 2 and rep.counterexamples == ()
        err = capsys.readouterr().err
        assert err == f"warning: {p}:2: skipping record: 40 vertices, limit 32\n"
        assert hunt(CorpusSource(p), check, stop_after=1) == []
        assert capsys.readouterr().err == err

    def test_empty_corpus(self, tmp_path):
        p = self.make_corpus(tmp_path, [""])
        (rep,) = run_suite(CorpusSource(p), [CheckId.THM2_SANDWICH], shards=4)
        assert rep.scanned == 0 and rep.applicable == 0

    def test_chunks_are_record_spans(self):
        source = CorpusSource(CORPUS8)
        assert source.chunks(1) == [(0, 12346, 0, 1)]
        assert [c[:2] for c in source.chunks(2)] == [(0, 6173), (6173, 12346)]
        spans = source.chunks(10**9)
        assert len(spans) <= 4096
        assert spans[0][0] == 0 and spans[-1][1] == 12346
        assert all(c[0] < c[1] == nxt[0] for c, nxt in zip(spans, spans[1:]))
        with open(CORPUS8) as fh:
            records = [line.strip() for line in fh if line.strip()]
        for chunk in source.chunks(2) + spans[:2] + spans[-2:]:
            lo, hi, _, lineno = chunk
            assert lineno == lo + 1  # corpus8 has no blank lines
            skipped = []
            got = [to_graph6(f.graph) for f in source.facts(chunk, skipped)]
            assert got == records[lo:hi] and skipped == []

    def test_chunks_read_each_record_once(self, monkeypatch):
        # each chunk seeks to its first record instead of reading up to it
        source = CorpusSource(CORPUS8)
        chunks = source.chunks(10**9)
        read = 0
        real = verify._corpus_records

        def counting(*args):
            nonlocal read
            for item in real(*args):
                read += 1
                yield item

        monkeypatch.setattr(verify, "_corpus_records", counting)
        assert sum(sum(1 for _ in source.facts(c, [])) for c in chunks) == 12346
        assert read == 12346

    def test_crlf_and_cr_line_ends(self, tmp_path, capsys):
        p = tmp_path / "corpus.g6"
        p.write_bytes(b"Bw\r\nbad!\r\n\r\nCl\rD\nDQo\r\n?!\rC~\r\n")
        checks = [CheckId.THM1_RESIDUE_LE_ALPHA, CheckId.F_MEMBERS_ARE_MDI]
        outputs = []
        for shards in (1, 2, 3, 10**9):
            reports = run_suite(CorpusSource(str(p)), checks, shards=shards)
            dicts = [r.to_dict() for r in reports]
            for d in dicts:
                d.pop("elapsed_ms")
            outputs.append((dicts, capsys.readouterr().err))
        dicts, err = outputs[0]
        assert dicts[0]["scanned"] == 4 and dicts[0]["skipped_records"] == 3
        assert [line.split(":")[2] for line in err.splitlines()] == ["2", "5", "7"]
        assert all(out == outputs[0] for out in outputs)

    def test_spans_count_records_not_lines(self, tmp_path, capsys):
        lines = ["", "Bw", "  ", "bad!", "Cl", to_graph6(empty(40)), "", "D", "DQo"]
        p = self.make_corpus(tmp_path, lines)
        source = CorpusSource(p)
        assert source.chunks(1) == [(0, 6, 0, 1)]
        first, second = source.chunks(2)
        assert first[:2] == (0, 3) and second[:2] == (3, 6)
        assert second[3] == 6  # record 3 is on line 6
        skipped = []
        got = [to_graph6(f.graph) for f in source.facts(second, skipped)]
        assert got == ["DQo"]
        truncated = "record truncated: expected 2 payload bytes, got 0 (byte offset 1)"
        assert skipped == [(6, "40 vertices, limit 32"), (8, truncated)]
        checks = [CheckId.THM2_SANDWICH, CheckId.THM_BM_C4P5]
        outputs = []
        for shards in (1, 2):
            dicts = [r.to_dict() for r in run_suite(source, checks, shards=shards)]
            for d in dicts:
                d.pop("elapsed_ms")
            outputs.append((dicts, capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        assert [line.split(":")[2] for line in outputs[0][1].splitlines()] == ["4", "6", "8"]

    def test_long_line_read_in_bounded_pieces(self, tmp_path, capsys):
        # a line over the limit is one skipped record, dropped without
        # being held whole; the line numbers after it stay right
        p = self.make_corpus(tmp_path, ["Bw", "?" * (4 << 20), "Cl", "bad!"])
        check = CheckId.THM1_RESIDUE_LE_ALPHA
        tracemalloc.start()
        try:
            (rep,) = run_suite(CorpusSource(p), [check], shards=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert rep.scanned == 2 and rep.skipped_records == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"warning: {p}:2: skipping record: line longer than 1024 characters",
            f"warning: {p}:4: skipping record: record truncated: "
            "expected 100 payload bytes, got 3 (byte offset 4)",
        ]
        # the second chunk starts at Cl, past the long line
        assert [c[2:] for c in CorpusSource(p).chunks(2)] == [(0, 1), (3 + (4 << 20) + 1, 3)]
        (two,) = run_suite(CorpusSource(p), [check], shards=2)
        assert (two.scanned, two.skipped_records) == (2, 2)
        assert capsys.readouterr().err == err

    def test_line_limit_boundary(self, tmp_path, capsys):
        # 1024 characters before the line end are read; 1025 are not
        p = self.make_corpus(tmp_path, ["?" + " " * 1023, "?" + " " * 1024])
        (rep,) = run_suite(CorpusSource(p), [CheckId.THM2_SANDWICH], shards=1)
        assert rep.scanned == 1 and rep.skipped_records == 1
        assert ":2: skipping record: line longer than 1024" in capsys.readouterr().err

    def test_hunt_warns_only_about_records_read(self, tmp_path, capsys):
        a3 = to_graph6(gen_f_member("A", 3).graph)  # fails f_members_are_mdi
        p = self.make_corpus(tmp_path, [a3, "bad!", a3])
        check = CheckId.F_MEMBERS_ARE_MDI
        assert hunt(CorpusSource(p), check, stop_after=1) == [a3]
        assert capsys.readouterr().err == ""
        assert hunt(CorpusSource(p), check, stop_after=2) == [a3, a3]
        assert ":2: skipping record" in capsys.readouterr().err


class TestRelabeling:
    def test_verdicts_survive_relabeling(self):
        """Corpus scans see one labeling per class, so a verdict must not
        depend on it.  The one exception is where the guided run of
        hh_deletion_gives_residue strands: it breaks ties by lowest id, so
        another labeling may complete it (NOT_APPLICABLE becomes PASS)."""
        hh = CheckId.HH_DELETION_GIVES_RESIDUE

        def verdicts(g):
            facts = verify.GraphFacts(g)
            return {c: verify._CHECKS[c](facts) for c in CheckId}

        rng = random.Random(8)
        with open(CORPUS8) as fh:
            records = [line.strip() for line in fh if line.strip()]
        for record in rng.sample(records, 400):
            g = from_graph6(record)
            base = verdicts(g)
            for _ in range(3):
                perm = rng.sample(range(g.n), g.n)
                got = verdicts(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
                assert Verdict.FAIL not in (base[hh], got[hh]), record
                got[hh] = base[hh]
                assert got == base, (record, perm)


class TestRelabeledFlags:
    def test_orbits_match_every_permutation(self):
        # the flagged patterns' relabelings, walked as orbits under the
        # adjacent transpositions, against the image under each of the k!
        # permutations
        for k in range(8):
            want: dict[int, int] = {}
            for g, flag, _ in facts._spanning_patterns(k):
                for mask in oracles.brute_relabelings(g):
                    want[mask] = want.get(mask, 0) | flag
            assert levels._relabeled_flags(k) == want, k
        assert len(want) == 5145


class TestReportSchema:
    def test_key_order_and_roundtrip(self):
        (rep,) = run_suite(EnumerationSource(3), [CheckId.THM2_SANDWICH], shards=1)
        d = rep.to_dict()
        assert list(d) == [
            "check",
            "source",
            "scanned",
            "applicable",
            "counterexamples",
            "skipped_records",
            "elapsed_ms",
            "tool_version",
        ]
        assert d["check"] == "thm2_sandwich"
        assert isinstance(d["elapsed_ms"], int)
        text = rep.to_json()
        assert text.endswith("\n")
        assert json.loads(text) == d

    def test_tool_version_matches_package(self):
        import reslab

        (rep,) = run_suite(EnumerationSource(1), [CheckId.THM1_RESIDUE_LE_ALPHA], shards=1)
        assert rep.to_dict()["tool_version"] == reslab.__version__


class TestHunt:
    def test_stops_early_in_scan_order(self):
        found = hunt(EnumerationSource(3), CheckId.F_MEMBERS_ARE_MDI, stop_after=2)
        assert found == ["B_", "BO"]  # first two labeled single-edge graphs
        found = hunt(EnumerationSource(3), CheckId.F_MEMBERS_ARE_MDI, stop_after=1)
        assert found == ["B_"]

    def test_exhausts_when_not_enough_failures(self):
        found = hunt(EnumerationSource(3), CheckId.THM2_SANDWICH, stop_after=5)
        assert found == []

    def test_corpus_hunt(self, tmp_path):
        p = tmp_path / "members.g6"
        labels = [("A", 3, None), ("B", 3, None), ("A", 4, None), ("C", 3, "same")]
        p.write_text(
            "\n".join(to_graph6(gen_f_member(k, n, v).graph) for k, n, v in labels)
            + "\n"
        )
        found = hunt(CorpusSource(str(p)), CheckId.F_MEMBERS_ARE_MDI, stop_after=10)
        assert found == [
            to_graph6(gen_f_member("A", 3).graph),
            to_graph6(gen_f_member("B", 3).graph),
        ]

    def test_replay_counterexample(self):
        # a reported record feeds straight back into the same check
        found = hunt(EnumerationSource(3), CheckId.F_MEMBERS_ARE_MDI, stop_after=1)
        g = from_graph6(found[0])
        assert check_one(g, CheckId.F_MEMBERS_ARE_MDI) is Verdict.FAIL

    def test_stop_after_validation(self):
        with pytest.raises(ValueError):
            hunt(EnumerationSource(3), CheckId.THM2_SANDWICH, stop_after=0)


class TestVerifyReportType:
    def test_frozen(self):
        rep = VerifyReport(
            check=CheckId.THM2_SANDWICH,
            source="enumeration(n=1)",
            scanned=1,
            applicable=1,
            counterexamples=(),
            skipped_records=0,
            elapsed_ms=0,
        )
        with pytest.raises(AttributeError):
            rep.scanned = 5
