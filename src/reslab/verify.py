"""Exhaustive verification harness.

Each check id names one predicate over a single graph with an explicit
applicability filter; a scan runs the predicate over every graph of a
source (full labeled enumeration, or a graph6 corpus file) and reports the
failures as counterexamples.  Scans shard deterministically: the merged
report is identical whatever the shard count.
"""

from __future__ import annotations

import enum
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool

from ._version import __version__
from .degseq import hh_realization, residue_seq
from .graphs import (
    Graph,
    _enum_range,
    degree_sequence,
    from_graph6,
    pair_order,
    to_graph6,
)
from .heuristics import (
    MAXINE_ALL_CAP,
    NoHHVertexError,
    _hh_vertices_mask,
    _maxine_sizes_mask,
    maxine_hh,
)
from .independence import (
    ALL_MIS_CAP,
    _alpha_mask,
    _mdi_mask,
    _unique_mis_mask,
    all_mis,
    partition_neighborhood,
    reduction_pipeline,
)
from .patterns import _P5, _has_p5_star, cycle, f_catalog, find_induced


class CheckId(str, enum.Enum):
    THM1_RESIDUE_LE_ALPHA = "thm1_residue_le_alpha"
    THM2_SANDWICH = "thm2_sandwich"
    HH_DELETION_GIVES_RESIDUE = "hh_deletion_gives_residue"
    REALIZATION_HAS_HH_VERTEX = "realization_has_hh_vertex"
    THM_BM_C4P5 = "thm_bm_c4p5"
    LEMMA_REDUCTIONS_PRESERVE_MDI = "lemma_reductions_preserve_mdi"
    ALPHA_LE_2_EDGELESS = "alpha_le_2_edgeless"
    Q_CLIQUES = "q_cliques"
    THM_STRUCTURE_ALPHA3 = "thm_structure_alpha3"
    THM_STRUCTURE_ALPHA_GT3 = "thm_structure_alpha_gt3"
    COROLLARY_F_P5 = "corollary_f_p5"
    F_MEMBERS_ARE_MDI = "f_members_are_mdi"


CHECK_DESCRIPTIONS = {
    CheckId.THM1_RESIDUE_LE_ALPHA: "residue is at most the independence number",
    CheckId.THM2_SANDWICH: "residue <= every Maxine outcome <= independence number",
    CheckId.HH_DELETION_GIVES_RESIDUE: "degree-dominating deletions end at exactly residue survivors",
    CheckId.REALIZATION_HAS_HH_VERTEX: "some realization of the degree sequence has a degree-dominating vertex",
    CheckId.THM_BM_C4P5: "on {C4,P5}-free graphs every Maxine outcome is maximum",
    CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI: "both reductions keep the vertex max-degree in every maximum independent set",
    CheckId.ALPHA_LE_2_EDGELESS: "an independence-dominating vertex with alpha <= 2 forces an edgeless graph",
    CheckId.Q_CLIQUES: "after reduction the one-sided neighbor classes (and their union) are cliques",
    CheckId.THM_STRUCTURE_ALPHA3: "alpha = 3 hosts contain a catalog member (anchored and un-anchored agree)",
    CheckId.THM_STRUCTURE_ALPHA_GT3: "alpha > 3 hosts contain a catalog member",
    CheckId.COROLLARY_F_P5: "on {family,P5}-free graphs every Maxine outcome is maximum",
    CheckId.F_MEMBERS_ARE_MDI: "graph has a max-degree vertex in every maximum independent set",
}


class Verdict(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


_C4 = cycle(4)


@lru_cache(maxsize=4096)
def _residue_of_sequence(seq: tuple[int, ...]) -> int:
    return residue_seq(seq)


@lru_cache(maxsize=4096)
def _sequence_realization_has_hh_vertex(seq: tuple[int, ...]) -> bool:
    g = hh_realization(seq)
    if g.n == 0:
        return False
    return bool(_hh_vertices_mask(g.adj, (1 << g.n) - 1))


@lru_cache(maxsize=64)
def _catalog_upto(n: int, filtered: bool) -> tuple:
    if n < 6:
        return ()
    return tuple(f_catalog(n, mdi_filter=filtered))


class _lazy:
    """Compute-once attribute, like functools.cached_property without the
    lock that Python 3.11 takes on every first access."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class GraphFacts:
    """Per-graph lazy cache shared by all checks in a scan."""

    def __init__(self, g: Graph):
        self.graph = g
        self._patterns: dict[Graph, bool] = {}
        self._pipelines: dict[int, tuple[Graph, int]] = {}

    @_lazy
    def full_mask(self) -> int:
        return (1 << self.graph.n) - 1

    @_lazy
    def residue(self) -> int:
        return _residue_of_sequence(degree_sequence(self.graph))

    @_lazy
    def alpha(self) -> int:
        return _alpha_mask(self.graph.adj, self.full_mask)

    @_lazy
    def maxine_sizes(self) -> int:
        return _maxine_sizes_mask(self.graph.adj, self.full_mask, {})

    @property
    def maxine_min(self) -> int:
        s = self.maxine_sizes
        return (s & -s).bit_length() - 1

    @property
    def maxine_max(self) -> int:
        return self.maxine_sizes.bit_length() - 1

    @_lazy
    def mdi_mask(self) -> int:
        return _mdi_mask(self.graph.adj, self.graph.n, self.alpha)

    @_lazy
    def edge_count(self) -> int:
        return self.graph.edge_count

    @_lazy
    def p5_star(self) -> bool:
        return _has_p5_star(self.graph, self.mdi_mask)

    def has_pattern(self, pattern: Graph) -> bool:
        hit = self._patterns.get(pattern)
        if hit is None:
            hit = find_induced(self.graph, pattern) is not None
            self._patterns[pattern] = hit
        return hit

    def pipeline(self, v: int) -> tuple[Graph, int]:
        out = self._pipelines.get(v)
        if out is None:
            out = reduction_pipeline(self.graph, v)
            self._pipelines[v] = out
        return out


def _passfail(ok: bool) -> Verdict:
    return Verdict.PASS if ok else Verdict.FAIL


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _is_clique(g: Graph, vertices) -> bool:
    vs = list(vertices)
    return all(g.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :])


def _ck_thm1(f: GraphFacts) -> Verdict:
    return _passfail(f.residue <= f.alpha)


def _ck_thm2(f: GraphFacts) -> Verdict:
    return _passfail(f.residue <= f.maxine_min and f.maxine_max <= f.alpha)


def _ck_hh_deletion(f: GraphFacts) -> Verdict:
    try:
        out = maxine_hh(f.graph)
    except NoHHVertexError:
        return Verdict.NOT_APPLICABLE
    return _passfail(out.size == f.residue)


def _ck_realization(f: GraphFacts) -> Verdict:
    if f.graph.n == 0:
        return Verdict.NOT_APPLICABLE
    return _passfail(
        _sequence_realization_has_hh_vertex(degree_sequence(f.graph))
    )


def _ck_thm_bm(f: GraphFacts) -> Verdict:
    if f.has_pattern(_C4) or f.has_pattern(_P5):
        return Verdict.NOT_APPLICABLE
    return _passfail(f.maxine_min == f.alpha)


def _ck_corollary(f: GraphFacts) -> Verdict:
    if f.has_pattern(_P5):
        return Verdict.NOT_APPLICABLE
    for m in _catalog_upto(f.graph.n, True):
        if f.has_pattern(m.graph):
            return Verdict.NOT_APPLICABLE
    return _passfail(f.maxine_min == f.alpha)


def _ck_lemma_reductions(f: GraphFacts) -> Verdict:
    if f.graph.n == 0 or not f.mdi_mask:
        return Verdict.NOT_APPLICABLE
    for v in _bits(f.mdi_mask):
        # with a unique MIS, lying in every MIS means lying in that one
        try:
            _unique_mis_mask(*f.pipeline(v))
        except ValueError:
            if f.graph.n > ALL_MIS_CAP:
                raise  # too large to reduce, not a counterexample
            return Verdict.FAIL
    return Verdict.PASS


def _ck_alpha_le2(f: GraphFacts) -> Verdict:
    if f.graph.n == 0 or not f.mdi_mask or f.alpha > 2:
        return Verdict.NOT_APPLICABLE
    return _passfail(f.edge_count == 0)


def _ck_q_cliques(f: GraphFacts) -> Verdict:
    if not f.mdi_mask or f.alpha != 3 or f.p5_star:
        return Verdict.NOT_APPLICABLE
    for v in _bits(f.mdi_mask):
        g2, v2 = f.pipeline(v)
        part = partition_neighborhood(g2, v2)
        if not (
            _is_clique(g2, part.q_u)
            and _is_clique(g2, part.q_w)
            and _is_clique(g2, part.q)
        ):
            return Verdict.FAIL
    return Verdict.PASS


def _anchored_member_found(g2: Graph, v2: int) -> bool:
    """Locate a catalog member in the reduced graph with roles pinned:
    v at the reduced vertex, u/w on the remaining independent pair."""
    if g2.degree(v2) == 0:
        return True  # nothing around v: the containment claim is vacuous
    rep = all_mis(g2)
    others = sorted(rep.sets[0] - {v2})
    if len(others) != 2:
        return False
    a, b = others
    for m in _catalog_upto(g2.n, False):
        for ux, wx in ((a, b), (b, a)):
            anchor = {m.v_vertex: v2, m.u_vertex: ux, m.w_vertex: wx}
            if find_induced(g2, m.graph, anchor=anchor) is not None:
                return True
    return False


def _ck_structure_a3(f: GraphFacts) -> Verdict:
    if not f.mdi_mask or f.alpha != 3 or f.p5_star:
        return Verdict.NOT_APPLICABLE
    if f.edge_count == 0:
        return Verdict.PASS  # bare independent set: nothing to locate
    unanchored = any(
        f.has_pattern(m.graph) for m in _catalog_upto(f.graph.n, False)
    )
    anchored = all(
        _anchored_member_found(*f.pipeline(v)) for v in _bits(f.mdi_mask)
    )
    return _passfail(unanchored and anchored)


def _ck_structure_gt3(f: GraphFacts) -> Verdict:
    if not f.mdi_mask or f.alpha <= 3 or f.p5_star:
        return Verdict.NOT_APPLICABLE
    if f.edge_count == 0:
        return Verdict.PASS
    return _passfail(
        any(f.has_pattern(m.graph) for m in _catalog_upto(f.graph.n, False))
    )


def _ck_f_members(f: GraphFacts) -> Verdict:
    if f.graph.n == 0:
        return Verdict.NOT_APPLICABLE
    return _passfail(bool(f.mdi_mask))


_CHECKS = {
    CheckId.THM1_RESIDUE_LE_ALPHA: _ck_thm1,
    CheckId.THM2_SANDWICH: _ck_thm2,
    CheckId.HH_DELETION_GIVES_RESIDUE: _ck_hh_deletion,
    CheckId.REALIZATION_HAS_HH_VERTEX: _ck_realization,
    CheckId.THM_BM_C4P5: _ck_thm_bm,
    CheckId.LEMMA_REDUCTIONS_PRESERVE_MDI: _ck_lemma_reductions,
    CheckId.ALPHA_LE_2_EDGELESS: _ck_alpha_le2,
    CheckId.Q_CLIQUES: _ck_q_cliques,
    CheckId.THM_STRUCTURE_ALPHA3: _ck_structure_a3,
    CheckId.THM_STRUCTURE_ALPHA_GT3: _ck_structure_gt3,
    CheckId.COROLLARY_F_P5: _ck_corollary,
    CheckId.F_MEMBERS_ARE_MDI: _ck_f_members,
}


def check_one(g: Graph, check: CheckId | str) -> Verdict:
    """Run a single check against a single graph."""
    return _CHECKS[CheckId(check)](GraphFacts(g))


@dataclass(frozen=True)
class EnumerationSource:
    """All labeled graphs on n vertices, edge-mask counting order."""

    n: int

    def describe(self) -> str:
        return f"enumeration(n={self.n})"


@dataclass(frozen=True)
class CorpusSource:
    """graph6 records, one per line; blank lines ignored."""

    path: str

    def describe(self) -> str:
        return f"corpus({self.path})"


@dataclass(frozen=True)
class VerifyReport:
    check: CheckId
    source: str
    scanned: int
    applicable: int
    counterexamples: tuple[str, ...]
    skipped_records: int
    elapsed_ms: int

    def to_dict(self) -> dict:
        return {
            "check": self.check.value,
            "source": self.source,
            "scanned": self.scanned,
            "applicable": self.applicable,
            "counterexamples": list(self.counterexamples),
            "skipped_records": self.skipped_records,
            "elapsed_ms": self.elapsed_ms,
            "tool_version": __version__,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _read_corpus(path: str) -> list[tuple[int, str]]:
    """(lineno, record) for every non-blank line of a file, undecoded."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return [
            (lineno, text)
            for lineno, line in enumerate(fh, start=1)
            if (text := line.strip())
        ]


def _decode(records, skipped: list):
    """Yield the graph of each record, decoding it once; append
    (lineno, message) to `skipped` for each malformed one and for each
    with more vertices than the exact searches are capped at."""
    for lineno, text in records:
        try:
            g = from_graph6(text)
        except ValueError as exc:
            skipped.append((lineno, str(exc)))
            continue
        if g.n > MAXINE_ALL_CAP:
            skipped.append((lineno, f"{g.n} vertices, limit {MAXINE_ALL_CAP}"))
            continue
        yield g


def _warn_skipped(path: str, skipped) -> None:
    for lineno, message in skipped:
        print(
            f"warning: {path}:{lineno}: skipping record: {message}",
            file=sys.stderr,
        )


def _scan_chunk(payload):
    kind, data, check_values = payload
    checks = [CheckId(c) for c in check_values]
    applicable = {c: 0 for c in checks}
    fails: dict[CheckId, list[str]] = {c: [] for c in checks}
    skipped: list[tuple[int, str]] = []
    scanned = 0
    if kind == "enum":
        n, lo, hi = data
        graphs = _enum_range(n, lo, hi)
    else:
        graphs = _decode(data, skipped)
    for g in graphs:
        scanned += 1
        facts = GraphFacts(g)
        for c in checks:
            verdict = _CHECKS[c](facts)
            if verdict is Verdict.NOT_APPLICABLE:
                continue
            applicable[c] += 1
            if verdict is Verdict.FAIL:
                fails[c].append(to_graph6(g))
    return scanned, applicable, fails, skipped


def _chunk_payloads(source, checks, shards: int):
    values = [c.value for c in checks]
    payloads = []
    if isinstance(source, EnumerationSource):
        total = 1 << len(pair_order(source.n))
        shards = max(1, min(shards, total))
        step = (total + shards - 1) // shards
        for lo in range(0, total, step):
            payloads.append(("enum", (source.n, lo, min(lo + step, total)), values))
    elif isinstance(source, CorpusSource):
        # records are validated where they are decoded, in _scan_chunk
        records = _read_corpus(source.path)
        if not records:
            payloads.append(("corpus", [], values))
        else:
            shards = max(1, min(shards, len(records)))
            step = (len(records) + shards - 1) // shards
            for lo in range(0, len(records), step):
                payloads.append(("corpus", records[lo : lo + step], values))
    else:
        raise TypeError(f"unknown source {source!r}")
    return payloads


def run_suite(source, checks, shards: int | None = None) -> list[VerifyReport]:
    """Scan a source once, evaluating every requested check per graph.

    The per-graph fact cache is shared across checks, so bundling checks
    is much cheaper than separate scans.  Reports come back in the order
    the checks were given; counterexample lists are sorted, and the same
    whatever the shard count.
    """
    check_list = [CheckId(c) for c in checks]
    workers = os.cpu_count() or 1
    if shards is None:
        shards = workers
    if shards < 1:
        raise ValueError("shards must be >= 1")
    t0 = time.perf_counter()
    payloads = _chunk_payloads(source, check_list, shards)
    if len(payloads) == 1:
        partials = [_scan_chunk(payloads[0])]
    else:
        # shards are chunks of work; never more processes than cores
        with Pool(processes=min(len(payloads), workers)) as pool:
            partials = pool.map(_scan_chunk, payloads)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    bad = [entry for p in partials for entry in p[3]]
    if bad:
        _warn_skipped(source.path, bad)
    reports = []
    for c in check_list:
        scanned = sum(p[0] for p in partials)
        applicable = sum(p[1][c] for p in partials)
        fails: list[str] = []
        for p in partials:
            fails.extend(p[2][c])
        reports.append(
            VerifyReport(
                check=c,
                source=source.describe(),
                scanned=scanned,
                applicable=applicable,
                counterexamples=tuple(sorted(fails)),
                skipped_records=len(bad),
                elapsed_ms=elapsed_ms,
            )
        )
    return reports


def hunt(source, check: CheckId | str, stop_after: int) -> list[str]:
    """First `stop_after` failing graphs in deterministic scan order."""
    cid = CheckId(check)
    if stop_after < 1:
        raise ValueError("stop_after must be >= 1")
    found: list[str] = []
    if isinstance(source, EnumerationSource):
        graphs = _enum_range(source.n, 0, 1 << len(pair_order(source.n)))
    elif isinstance(source, CorpusSource):
        bad: list[tuple[int, str]] = []
        graphs = list(_decode(_read_corpus(source.path), bad))
        _warn_skipped(source.path, bad)
    else:
        raise TypeError(f"unknown source {source!r}")
    for g in graphs:
        if _CHECKS[cid](GraphFacts(g)) is Verdict.FAIL:
            found.append(to_graph6(g))
            if len(found) >= stop_after:
                break
    return found
