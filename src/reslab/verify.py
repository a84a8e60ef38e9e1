"""Exhaustive verification harness.

Each check id names one predicate over a single graph with an explicit
applicability filter; a scan runs the predicate over every graph of a
source (full labeled enumeration, or a graph6 corpus file) and reports the
failures as counterexamples.  Scans shard deterministically: the merged
report is identical whatever the shard count.
"""

from __future__ import annotations

import enum
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import islice, starmap

from ._version import __version__
from .facts import (
    _MEMBER_FLAG,
    _RAW_MEMBER_FLAG,
    GraphFacts,
    _catalog_upto,
    _sequence_realization_has_hh_vertex,
)
from .graphs import ENUM_CAP, Graph, _bits, _graph6_mask, _pairs, to_graph6
from .heuristics import MAXINE_ALL_CAP
from .independence import ALL_MIS_CAP
from .patterns import find_induced
from .tablefacts import _corpus_facts, _layer_facts


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


# reading an enum member goes through a descriptor (about 0.1 us), so the
# checks, each run once per scanned graph, return these names instead
_PASS, _FAIL, _NOT_APPLICABLE = Verdict.PASS, Verdict.FAIL, Verdict.NOT_APPLICABLE


def _passfail(ok: bool) -> Verdict:
    return _PASS if ok else _FAIL


def _ck_thm1(f: GraphFacts) -> Verdict:
    return _passfail(f.residue <= f.alpha)


def _ck_thm2(f: GraphFacts) -> Verdict:
    return _passfail(f.residue <= f.maxine_min and f.maxine_max <= f.alpha)


def _ck_hh_deletion(f: GraphFacts) -> Verdict:
    if f.hh_size is None:
        return _NOT_APPLICABLE
    return _passfail(f.hh_size == f.residue)


def _ck_realization(f: GraphFacts) -> Verdict:
    if f.n == 0:
        return _NOT_APPLICABLE
    return _passfail(_sequence_realization_has_hh_vertex(f.degrees))


def _ck_thm_bm(f: GraphFacts) -> Verdict:
    if f.c4 or f.p5:
        return _NOT_APPLICABLE
    return _passfail(f.maxine_min == f.alpha)


def _ck_corollary(f: GraphFacts) -> Verdict:
    if f.p5 or f.flags & _MEMBER_FLAG:
        return _NOT_APPLICABLE
    return _passfail(f.maxine_min == f.alpha)


def _ck_lemma_reductions(f: GraphFacts) -> Verdict:
    if f.n == 0 or not f.mdi_mask:
        return _NOT_APPLICABLE
    for v in _bits(f.mdi_mask):
        # with a unique MIS, lying in every MIS means lying in that one
        try:
            f.pipeline(v)
        except ValueError:
            if f.n > ALL_MIS_CAP:
                raise  # too large to reduce, not a counterexample
            return _FAIL
    return _PASS


def _ck_alpha_le2(f: GraphFacts) -> Verdict:
    if f.n == 0 or not f.mdi_mask or f.alpha > 2:
        return _NOT_APPLICABLE
    return _passfail(f.edge_count == 0)


def _ck_q_cliques(f: GraphFacts) -> Verdict:
    if not f.mdi_mask or f.alpha != 3 or f.p5_star:
        return _NOT_APPLICABLE
    for v in _bits(f.mdi_mask):
        g2, v2, iset = f.pipeline(v)
        adj = g2.adj
        u, w = _bits(iset ^ 1 << v2)
        # the neighbours of v2 that see exactly one of u, w; the one-sided
        # classes q_u and q_w lie inside q, so q being a clique settles all three
        q = adj[v2] & (adj[u] ^ adj[w])
        if any(q & ~adj[x] != 1 << x for x in _bits(q)):
            return _FAIL
    return _PASS


def _anchored_member_found(g2: Graph, v2: int, iset: int) -> bool:
    """Locate a catalog member in the reduced graph with roles pinned:
    v at the reduced vertex, u/w on the remaining independent pair of
    `iset`, its maximum independent set."""
    if g2.degree(v2) == 0:
        return True  # nothing around v: the containment claim is vacuous
    others = list(_bits(iset ^ 1 << v2))
    if len(others) != 2:
        return False
    a, b = others
    for m in _catalog_upto(g2.n):
        for ux, wx in ((a, b), (b, a)):
            anchor = {m.v_vertex: v2, m.u_vertex: ux, m.w_vertex: wx}
            if find_induced(g2, m.graph, anchor=anchor) is not None:
                return True
    return False


def _ck_structure_a3(f: GraphFacts) -> Verdict:
    if not f.mdi_mask or f.alpha != 3 or f.p5_star:
        return _NOT_APPLICABLE
    if f.edge_count == 0:
        return _PASS  # bare independent set: nothing to locate
    anchored = all(
        _anchored_member_found(*f.pipeline(v)) for v in _bits(f.mdi_mask)
    )
    return _passfail(bool(f.flags & _RAW_MEMBER_FLAG) and anchored)


def _ck_structure_gt3(f: GraphFacts) -> Verdict:
    if not f.mdi_mask or f.alpha <= 3 or f.p5_star:
        return _NOT_APPLICABLE
    if f.edge_count == 0:
        return _PASS
    return _passfail(bool(f.flags & _RAW_MEMBER_FLAG))


def _ck_f_members(f: GraphFacts) -> Verdict:
    if f.n == 0:
        return _NOT_APPLICABLE
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


# Each source splits itself into picklable chunks, chunks(shards), and
# iterates the facts of one chunk, facts(chunk, skipped), appending
# (lineno, message) to `skipped` for each record it has to pass over.
@dataclass(frozen=True)
class EnumerationSource:
    """All labeled graphs on n vertices, edge-mask counting order."""

    n: int

    def __post_init__(self):
        if not 0 <= self.n <= ENUM_CAP:
            raise ValueError(
                f"enumeration limited to 0..{ENUM_CAP} vertices, got {self.n}"
            )

    def describe(self) -> str:
        return f"enumeration(n={self.n})"

    def chunks(self, shards: int) -> list[tuple[int, int]]:
        return _spans(1 << len(_pairs(self.n)), shards)

    def facts(self, chunk: tuple[int, int], skipped: list):
        return _layer_facts(self.n, *chunk)


@dataclass(frozen=True)
class CorpusSource:
    """graph6 records, one per line; blank lines ignored."""

    path: str

    def describe(self) -> str:
        return f"corpus({self.path})"

    def chunks(self, shards: int) -> list[tuple[int, int, int, int]]:
        """(lo, hi, pos, lineno): records lo..hi-1, read from seek
        position pos on, whose line is numbered lineno; records are
        decoded and validated in facts()."""
        spans = _spans(sum(1 for _ in _corpus_records(self.path)), shards)
        starts = _seek_points(self.path, [lo for lo, _ in spans])
        return [(*span, *start) for span, start in zip(spans, starts)]

    def facts(self, chunk: tuple[int, int, int, int], skipped: list):
        lo, hi, pos, lineno = chunk
        records = islice(_corpus_records(self.path, pos, lineno), hi - lo)
        return starmap(_corpus_facts, _decode(records, skipped))


_SOURCES = (EnumerationSource, CorpusSource)
# at most this many chunks per scan, whatever the shard count asked for
_MAX_CHUNKS = 4096


def _spans(total: int, shards: int) -> list[tuple[int, int]]:
    """Split 0..total-1 into at most `shards` (and _MAX_CHUNKS) contiguous
    spans of equal length but the last; one empty span when total is 0."""
    shards = max(1, min(shards, total, _MAX_CHUNKS))
    step = max(1, -(-total // shards))
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)] or [(0, 0)]


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
        import json  # its only user; `import reslab` does not pay for it

        return json.dumps(self.to_dict(), indent=2) + "\n"


# characters read of a corpus line; the longest graph6 record accepted,
# 62 vertices with its header, has 327
_LINE_LIMIT = 1024


def _records(fh, lineno: int):
    """(lineno, record) for every non-blank line of the open file fh, the
    first numbered lineno, undecoded, read as the caller iterates.  A line
    longer than _LINE_LIMIT is one record, None, whose rest is dropped in
    reads of bounded length instead of held whole."""
    read = partial(fh.readline, _LINE_LIMIT + 1)
    for lineno, line in enumerate(iter(read, ""), start=lineno):
        if len(line) > _LINE_LIMIT and line[-1] != "\n":
            while (rest := read()) and rest[-1] != "\n":
                pass
            yield lineno, None
        elif text := line.strip():
            yield lineno, text


def _corpus_records(path: str, pos: int = 0, lineno: int = 1):
    """_records of a file from seek position pos on."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        fh.seek(pos)
        yield from _records(fh, lineno)


def _seek_points(path: str, starts: list[int]) -> list[tuple[int, int]]:
    """(seek position, line number) from which record i is the first
    read, for each record index i of the ascending `starts`; reads the
    file only up to the last of them, so not at all for [0]."""
    out = []
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        records = _records(fh, 1)
        seen, lineno = 0, 1
        for target in starts:
            for last, _ in islice(records, target - seen):
                lineno = last + 1
            seen = target
            out.append((fh.tell(), lineno))
    return out


def _decode(records, skipped: list):
    """Yield the (n, edge mask) of each record, decoding it once; append
    (lineno, message) to `skipped` for each over-long or malformed one and
    for each with more vertices than the exact searches are capped at."""
    for lineno, text in records:
        if text is None:
            skipped.append((lineno, f"line longer than {_LINE_LIMIT} characters"))
            continue
        try:
            n, mask = _graph6_mask(text)
        except ValueError as exc:
            skipped.append((lineno, str(exc)))
            continue
        if n > MAXINE_ALL_CAP:
            skipped.append((lineno, f"{n} vertices, limit {MAXINE_ALL_CAP}"))
            continue
        yield n, mask


def _scan_chunk(source, chunk, checks, stop_after=None):
    """Scan one chunk; stop early once a check has `stop_after` failures.
    Applicable counts and failures come back by position in `checks`."""
    fns = [_CHECKS[c] for c in checks]
    applicable = [0] * len(fns)
    fails: list[list[str]] = [[] for _ in fns]
    skipped: list[tuple[int, str]] = []
    scanned = 0
    not_applicable, fail = _NOT_APPLICABLE, _FAIL
    for facts in source.facts(chunk, skipped):
        scanned += 1
        for i, fn in enumerate(fns):
            verdict = fn(facts)
            if verdict is not_applicable:
                continue
            applicable[i] += 1
            if verdict is fail:
                fails[i].append(to_graph6(facts.graph))
                if len(fails[i]) == stop_after:
                    return scanned, applicable, fails, skipped
    return scanned, applicable, fails, skipped


def _scan(source, checks, shards: int, stop_after=None):
    """Per-chunk results of scanning `source`, plus every skipped record,
    which is also warned about on stderr."""
    if not isinstance(source, _SOURCES):
        raise TypeError(f"unknown source {source!r}")
    if not checks:
        return [], []  # nothing to evaluate: the source is not read
    chunks = source.chunks(shards)
    if len(chunks) == 1:
        partials = [_scan_chunk(source, chunks[0], checks, stop_after)]
    else:
        # shards are chunks of work; never more processes than cores
        from multiprocessing import Pool  # only a sharded scan pays its import

        scan = partial(_scan_chunk, source, checks=checks, stop_after=stop_after)
        with Pool(processes=min(len(chunks), os.cpu_count() or 1)) as pool:
            partials = pool.map(scan, chunks)
    bad = [entry for p in partials for entry in p[3]]
    for lineno, message in bad:  # only corpus records are ever skipped
        print(
            f"warning: {source.path}:{lineno}: skipping record: {message}",
            file=sys.stderr,
        )
    return partials, bad


def run_suite(source, checks, shards: int | None = None) -> list[VerifyReport]:
    """Scan a source once, evaluating every requested check per graph.

    The per-graph fact cache is shared across checks, so bundling checks
    is much cheaper than separate scans.  Reports come back in the order
    the checks were given; counterexample lists are sorted, and the same
    whatever the shard count.
    """
    check_list = [CheckId(c) for c in checks]
    if shards is None:
        shards = os.cpu_count() or 1
    if shards < 1:
        raise ValueError("shards must be >= 1")
    for i, c in enumerate(check_list):
        if c in check_list[:i]:
            raise ValueError(f"check {c.value} given more than once")
    t0 = time.perf_counter()
    partials, bad = _scan(source, check_list, shards)
    elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
    scanned = sum(p[0] for p in partials)
    return [
        VerifyReport(
            check=c,
            source=source.describe(),
            scanned=scanned,
            applicable=sum(p[1][i] for p in partials),
            counterexamples=tuple(sorted(x for p in partials for x in p[2][i])),
            skipped_records=len(bad),
            elapsed_ms=elapsed_ms,
        )
        for i, c in enumerate(check_list)
    ]


def hunt(source, check: CheckId | str, stop_after: int) -> list[str]:
    """First `stop_after` failing graphs in deterministic scan order.

    Corpus records are decoded as the scan reaches them, so a hunt that
    stops early warns only about the malformed records it has read.
    """
    cid = CheckId(check)
    if stop_after < 1:
        raise ValueError("stop_after must be >= 1")
    (part,), _ = _scan(source, [cid], 1, stop_after)
    return part[2][0]
