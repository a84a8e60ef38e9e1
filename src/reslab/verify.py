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
from array import array
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from itertools import islice, starmap

from ._version import __version__
from .degseq import hh_realization, residue_seq
from .graphs import (
    ENUM_CAP,
    Graph,
    _bits,
    _graph6_mask,
    _pairs,
    _perm_edge_tables,
    degree_sequence,
    to_graph6,
)
from .heuristics import (
    MAXINE_ALL_CAP,
    NoHHVertexError,
    _hh_vertices_mask,
    _maxine_sizes,
    maxine_hh,
)
from .independence import (
    ALL_MIS_CAP,
    _alpha_mask,
    _mdi_mask,
    _reduction_pipeline,
    _unique_mis_mask,
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


# reading an enum member goes through a descriptor (about 0.1 us), so the
# checks, each run once per scanned graph, return these names instead
_PASS, _FAIL, _NOT_APPLICABLE = Verdict.PASS, Verdict.FAIL, Verdict.NOT_APPLICABLE


_C4 = cycle(4)
# bits of GraphFacts.flags
_C4_FLAG, _P5_FLAG, _MEMBER_FLAG, _RAW_MEMBER_FLAG = 1, 2, 4, 8
# (pattern, flag, edge count) of the flagged patterns outside the catalog
_C4_ENTRY, _P5_ENTRY = (_C4, _C4_FLAG, 4), (_P5, _P5_FLAG, 4)


@lru_cache(maxsize=4096)
def _residue_of_sequence(seq: tuple[int, ...]) -> int:
    return residue_seq(seq)


@lru_cache(maxsize=4096)
def _sequence_realization_has_hh_vertex(seq: tuple[int, ...]) -> bool:
    g = hh_realization(seq)
    if g.n == 0:
        return False
    return bool(_hh_vertices_mask(g.adj, (1 << g.n) - 1)[1])


@lru_cache(maxsize=64)
def _catalog_upto(n: int) -> tuple:
    """The raw catalog members with at most n vertices, each relabeled v,
    core, u, w.  Every vertex after v then has an earlier neighbour, so an
    induced search draws its candidates from neighbourhoods instead of
    from the many independent triples of a sparse host."""
    if n < 6:
        return ()
    members = []
    for m in f_catalog(n, mdi_filter=False):
        order = (m.v_vertex, *m.core_vertices, m.u_vertex, m.w_vertex)
        new = {x: i for i, x in enumerate(order)}
        g = Graph(m.graph.n, [(new[a], new[b]) for a, b in m.graph.edges()])
        roles = {new[x]: role for x, role in m.roles.items()}
        members.append(replace(m, graph=g, roles=roles))
    return tuple(members)


@lru_cache(maxsize=64)
def _flagged_patterns(n: int) -> tuple[tuple[Graph, int, int], ...]:
    """(pattern, flag, edge count) of C4, P5 and then the catalog members
    with at most n vertices, from one catalog build; a member is flagged
    raw and, if it passes its own MDI test, filtered."""
    members = [
        (m.graph, _RAW_MEMBER_FLAG | (_MEMBER_FLAG if m.mdi_verified else 0))
        for m in _catalog_upto(n)
    ]
    return (_C4_ENTRY, _P5_ENTRY, *((g, flag, g.edge_count) for g, flag in members))


@lru_cache(maxsize=None)
def _spanning_patterns(k: int) -> tuple[tuple[Graph, int, int], ...]:
    """The _flagged_patterns(k) with exactly k vertices."""
    return tuple(p for p in _flagged_patterns(k) if p[0].n == k)


def _searched_flags(g: Graph, patterns, out: int = 0) -> int:
    """`out` with the flag added of each (pattern, flag, edge count) of
    `patterns` that g holds induced.  A flag already set is not searched
    for again, nor a pattern with as many vertices as g and another edge
    count, which cannot be a relabeling of g."""
    edges = g.edge_count
    for pattern, flag, pattern_edges in patterns:
        if (
            flag & ~out
            and (pattern.n < g.n or pattern_edges == edges)
            and find_induced(g, pattern) is not None
        ):
            out |= flag
    return out


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
        self.n = g.n
        self.graph = g
        self._pipelines: dict[int, tuple[Graph, int, int]] = {}

    @_lazy
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @_lazy
    def degrees(self) -> tuple[int, ...]:
        return degree_sequence(self.graph)

    @_lazy
    def residue(self) -> int:
        return _residue_of_sequence(self.degrees)

    @_lazy
    def alpha(self) -> int:
        return _alpha_mask(self.graph.adj, self.full_mask)

    @_lazy
    def maxine_sizes(self) -> int:
        return _maxine_sizes(self.graph.adj, self.full_mask)

    @property
    def maxine_min(self) -> int:
        s = self.maxine_sizes
        return (s & -s).bit_length() - 1

    @property
    def maxine_max(self) -> int:
        return self.maxine_sizes.bit_length() - 1

    @_lazy
    def mdi_mask(self) -> int:
        return _mdi_mask(self.graph.adj, self.n, self.alpha)

    @_lazy
    def edge_count(self) -> int:
        return self.graph.edge_count

    @_lazy
    def p5_star(self) -> bool:
        return _has_p5_star(self.graph, self.mdi_mask)

    @_lazy
    def hh_size(self) -> int | None:
        """Survivor count of the guided run (maxine_hh); None if it strands."""
        try:
            return maxine_hh(self.graph).size
        except NoHHVertexError:
            return None

    @_lazy
    def c4(self) -> int:
        """The C4 bit of flags, searched without the catalog; _MaskFacts
        reads it, and the P5 bit, from its flags byte."""
        return _searched_flags(self.graph, [_C4_ENTRY])

    @_lazy
    def p5(self) -> int:
        return _searched_flags(self.graph, [_P5_ENTRY])

    @_lazy
    def flags(self) -> int:
        """Which of C4, P5, a filtered catalog member and a raw member
        G holds induced, as the bits _C4_FLAG .. _RAW_MEMBER_FLAG.

        Every member holds an induced C4 (u and v are non-adjacent with
        two non-adjacent common neighbours in the core), so a C4-free
        host is answered without a catalog search.
        """
        out = self.c4 | self.p5
        if out & _C4_FLAG:
            out = _searched_flags(self.graph, _flagged_patterns(self.n)[2:], out)
        return out

    def pipeline(self, v: int) -> tuple[Graph, int, int]:
        """(g2, v2, iset): the reduced graph, where v lands in it, and its
        one maximum independent set as a bitmask; ValueError if the
        reductions do not leave exactly one such set holding max-degree v2."""
        out = self._pipelines.get(v)
        if out is None:
            # both reductions keep alpha, so the host's serves every stage
            g2, v2 = _reduction_pipeline(self.graph, v, self.alpha)
            out = self._pipelines[v] = (g2, v2, _unique_mis_mask(g2, v2, self.alpha))
        return out


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


# Labeled scans: each graph's facts are read from tables over the labeled
# graphs one vertex smaller.  With G - v relabeled densely:
#   alpha(G) = max(alpha(G - u), alpha(G - w)) for any edge uw, since a
#   maximum independent set misses u or w;
#   the Maxine sizes are the union of those of G - v over the max-degree
#   v: the one-vertex form of the recurrence, where heuristics deletes a
#   whole phase of max-degree vertices per step;
#   v is MDI iff it has maximum degree and alpha(G - v) < alpha(G);
#   the guided run (maxine_hh) ends as that of G - v* does, v* its first
#   deletion, since G - v keeps the vertex order that breaks ties;
#   v* is the lowest max-degree v with GT - v <= N(v) <= GE, where, top
#   the maximum degree, seq the sorted degrees and theta = seq[top], GE
#   holds the vertices of degree >= theta and GT those of degree > theta:
#   N(v) is a top-subset of the other vertices, and its degrees sum to
#   the top largest of theirs, seq[1..top], only when they are those
#   degrees, i.e. it holds every other vertex above theta and none below;
#   an induced C4, P5 or catalog member with fewer vertices than G misses
#   some v, so it lies in G - v; one with as many is a relabeling of G.
# An edgeless graph on k vertices has alpha = k, Maxine size {k}, every
# vertex MDI, and a guided run that deletes nothing.  Corpus records with
# at most 6 vertices are scanned as the labeled graph of their edge mask.
# An 8-vertex record reads C4, P5 and catalog-member presence from the
# same flag tables through its 6- and 7-vertex induced subgraphs, and
# alpha, the Maxine sizes and the MDI mask through two deletions into
# _level(6), the degrees of G - v being those of G less v's row.

_CHUNK = 7  # edge-mask bits per lookup
_CHUNK_MASK = (1 << _CHUNK) - 1


@lru_cache(maxsize=None)
def _chunk_tables(n: int):
    """Lookups over the 7-bit chunks of an n-vertex edge mask.

    deg[c][x] is the degree vector, packed base n (vertex v's degree is
    the digit of n**v), of the edges that chunk c holds when its bits
    read x.  sub[v][c][x] is the mask of those edges over
    pair_order(n - 1) once v is deleted and the vertices above v move
    down by one.
    """
    pairs = _pairs(n)
    spans = [pairs[i : i + _CHUNK] for i in range(0, len(pairs), _CHUNK)] or [()]

    def table(weight):
        # weight(i, j): what edge (i, j) adds to an entry when its bit is set
        out = []
        for span in spans:
            row = [0]
            for i, j in span:
                w = weight(i, j)
                row += [r + w for r in row]
            out.append(row)
        return out

    def kept_edge(v):
        def weight(i, j):
            if v in (i, j):
                return 0
            i, j = i - (i > v), j - (j > v)
            return 1 << (j * (j - 1) // 2 + i)

        return weight

    return (
        table(lambda i, j: n**i + n**j),
        [table(kept_edge(v)) for v in range(n)],
    )


@lru_cache(maxsize=None)
def _stars(n: int) -> list[list[int]]:
    """stars[v][s] is the edge mask, over pair_order(n), of the edges
    joining v to the vertices of the vertex mask s."""
    out = []
    for v in range(n):
        row = [0]
        for u in range(n):
            i, j = min(u, v), max(u, v)
            edge = 1 << (j * (j - 1) // 2 + i) if u != v else 0
            row += [r | edge for r in row]
        out.append(row)
    return out


class _DegreeClasses:
    """Degree vectors of n-vertex graphs, packed base n (see
    _chunk_tables), grouped by (max-degree vertices, sorted degrees);
    each class also carries the residue.  Classes are found as a scan
    meets their vectors.  Only the guided run reads a vector's band,
    GE | GT << 8 as the "Labeled scans" comment defines them, so the
    band array is allocated, and each band found, on first use."""

    def __init__(self, n: int):
        self.n = n
        self.ids = array("I", bytes(4 * n**n))  # 0: vector not met yet
        self.classes: list = [None]
        self._index: dict = {}

    @_lazy
    def bands(self) -> array:
        return array("H", bytes(2 * self.n**self.n))  # 0: band not found yet

    def band(self, packed: int, seq: tuple[int, ...]) -> int:
        """Find and store the band of a degree vector whose sorted degrees
        are seq, with top = seq[0] >= 1; GE holds the max-degree vertices,
        so no band is 0."""
        n, theta = self.n, seq[seq[0]]
        ge = gt = 0
        rest = packed
        for v in range(n):
            d = rest % n  # v's degree
            rest //= n
            ge |= (d >= theta) << v
            gt |= (d > theta) << v
        self.bands[packed] = out = ge | gt << 8
        return out

    def add(self, packed: int) -> int:
        n = self.n
        degs = [packed // n**v % n for v in range(n)]
        top = max(degs, default=0)
        seq = tuple(sorted(degs, reverse=True))
        key = (tuple(v for v in range(n) if degs[v] == top), seq)
        cid = self._index.get(key)
        if cid is None:
            cid = self._index[key] = len(self.classes)
            self.classes.append(key + (_residue_of_sequence(seq),))
        self.ids[packed] = cid
        return cid


_degree_classes = lru_cache(maxsize=None)(_DegreeClasses)


def _all_masks(k: int):
    return _layer_facts(k, 0, 1 << len(_pairs(k)))


@lru_cache(maxsize=None)
def _level(k: int) -> tuple[bytearray, bytearray]:
    """alpha and Maxine size bitmask of every labeled k-vertex graph,
    indexed by edge mask; bytes suffice for k <= 7 (ENUM_CAP - 1)."""
    alphas = bytearray()
    sizes = bytearray()
    for f in _all_masks(k):
        alphas.append(f.alpha)
        sizes.append(f.maxine_sizes)
    return alphas, sizes


@lru_cache(maxsize=None)
def _hh_level(k: int) -> bytearray:
    """Guided-run outcome of every labeled k-vertex graph, by edge mask:
    0 when the run strands, else the survivor count + 1."""
    return bytearray(0 if f.hh_size is None else f.hh_size + 1 for f in _all_masks(k))


@lru_cache(maxsize=None)
def _flag_level(k: int) -> bytearray:
    """The flags of every labeled k-vertex graph, by edge mask: the
    OR of the entries one level down over the deletions G - v, plus the
    relabeling bit of a pattern with exactly k vertices."""
    flags = [0] * (1 << len(_pairs(k)))
    for mask, flag in _relabeled_flags(k).items():
        flags[mask] = flag
    if k:
        below = _flag_level(k - 1)
        for rows in _chunk_tables(k)[1]:
            subs = [0]  # becomes the edge mask of G - v for every mask
            for row in rows:
                subs = [s | r for r in row for s in subs]
            flags = [f | below[s] for f, s in zip(flags, subs)]
    return bytearray(flags)


@lru_cache(maxsize=None)
def _relabeled_flags(k: int) -> dict[int, int]:
    """Flags of the k-vertex edge masks that relabel a flagged pattern
    with exactly k vertices, OR-ed over those patterns."""
    patterns = [(list(_bits(g.mask())), flag) for g, flag, _ in _spanning_patterns(k)]
    out: dict[int, int] = {}
    for table in _perm_edge_tables(k):
        for bits, flag in patterns:
            image = 0
            for b in bits:
                image |= 1 << table[b]
            out[image] = out.get(image, 0) | flag
    return out


class _MaskFacts(GraphFacts):
    """GraphFacts of a graph given by its edge mask over pair_order(n),
    whose C4 and P5 bits are read from its flags byte; `graph` is built
    only when a check asks for it."""

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask
        self._pipelines = {}

    @_lazy
    def graph(self) -> Graph:
        return Graph.from_mask(self.n, self.mask)

    @_lazy
    def edge_count(self) -> int:
        return self.mask.bit_count()

    c4 = property(lambda self: self.flags & _C4_FLAG)
    p5 = property(lambda self: self.flags & _P5_FLAG)


# _SIX_INDEX[v][x]: the index into _FlagFacts.sixes of G - v - x, for x a
# vertex of G - v
_SIX_INDEX = [
    [x * (x + 1) // 2 + v if x >= v else v * (v - 1) // 2 + x for x in range(7)]
    for v in range(8)
]


class _FlagFacts(_MaskFacts):
    """Facts of an 8-vertex graph, read from the 6-vertex tables through
    its induced subgraphs instead of searched: alpha, the Maxine sizes
    and the MDI mask from _level(6), and C4, P5 and catalog-member
    presence from the flags byte."""

    @_lazy
    def deletions(self) -> list[int]:
        """The edge mask of G - v for each vertex v, over pair_order(7)."""
        mask = self.mask  # the four 7-bit chunks of the 28-bit mask
        x0, x1, x2, x3 = mask & 127, mask >> 7 & 127, mask >> 14 & 127, mask >> 21
        return [a[x0] | b[x1] | c[x2] | d[x3] for a, b, c, d in _chunk_tables(8)[1]]

    @_lazy
    def sixes(self) -> list[int]:
        """The edge masks of the 6-vertex induced subgraphs, each once:
        G - v - x for the pair (v, x) at its position in pair_order(8)."""
        sub7 = _chunk_tables(7)[1]
        ys = [(m & 127, m >> 7 & 127, m >> 14) for m in self.deletions]
        return [
            a[y0] | b[y1] | c[y2]
            for x, (y0, y1, y2) in enumerate(ys)
            for a, b, c in sub7[:x]
        ]

    @_lazy
    def flags(self) -> int:
        """Each 7-vertex induced subgraph gives its relabeling bit, and
        each 6-vertex one its _flag_level(6) entry.  An 8-vertex member
        can only be a relabeling of G, so it is searched for only when its
        edge count is G's."""
        seven, six = _relabeled_flags(7), _flag_level(6)
        out = 0
        for m in self.deletions:
            out |= seven.get(m, 0)
        for m in self.sixes:
            out |= six[m]
        if out & _C4_FLAG:  # every catalog member holds an induced C4
            out = _searched_flags(self.graph, _spanning_patterns(8), out)
        return out

    @_lazy
    def _levels(self) -> tuple[int, int, int]:
        """(alpha, Maxine sizes, MDI mask) by the rules of the "Labeled
        scans" comment, from alpha and the sizes of each G - v, each read
        through a second deletion into _level(6)."""
        n, mask = self.n, self.mask
        if not mask:
            return n, 1 << n, (1 << n) - 1
        adj = self.graph.adj
        degs = [a.bit_count() for a in adj]
        alphas, sizes = _level(6)
        sevens, sixes, pairs7 = self.deletions, self.sixes, _pairs(7)

        def alpha_of(v):  # through an edge of G - v
            m = sevens[v]
            if not m:
                return 7
            index = _SIX_INDEX[v]
            a, b = pairs7[(m & -m).bit_length() - 1]
            return max(alphas[sixes[index[a]]], alphas[sixes[index[b]]])

        def sizes_of(v):  # degrees of G - v: those of G less v's row
            if not sevens[v]:
                return 1 << 7
            row, index, out = adj[v], _SIX_INDEX[v], 0
            sub = [d - (row >> x & 1) for x, d in enumerate(degs) if x != v]
            top = max(sub)
            for x, d in enumerate(sub):
                if d == top:
                    out |= sizes[sixes[index[x]]]
            return out

        u, w = _pairs(n)[(mask & -mask).bit_length() - 1]
        alpha = max(alpha_of(u), alpha_of(w))
        top = max(degs)
        got = mdi = 0
        for v, d in enumerate(degs):
            if d == top:
                got |= sizes_of(v)
                if alpha_of(v) < alpha:
                    mdi |= 1 << v
        return alpha, got, mdi

    @_lazy
    def alpha(self) -> int:
        return self._levels[0]

    @_lazy
    def maxine_sizes(self) -> int:
        return self._levels[1]

    @_lazy
    def mdi_mask(self) -> int:
        return self._levels[2]


def _corpus_facts(n: int, mask: int) -> GraphFacts:
    """The facts of a corpus record's edge mask, by the path its vertex
    count takes: the labeled tables up to 6 vertices, _FlagFacts at 8 and
    the per-graph searches of GraphFacts otherwise, which at 7 beat
    building the 7-vertex tables even on a corpus of all 1,044 classes."""
    if n < ENUM_CAP - 1:
        return next(_layer_facts(n, mask, mask + 1))
    return _FlagFacts(n, mask) if n == ENUM_CAP else GraphFacts(Graph.from_mask(n, mask))


class _LayerFacts(_MaskFacts):
    """Facts of a labeled graph, seeded from the tables."""

    def __init__(self, n, mask, alpha, sizes, mdi, degclass, high_subs, packed):
        # sets _MaskFacts' fields itself: one call less per labeled graph
        self.n = n
        self.mask = mask
        self.alpha = alpha
        self.maxine_sizes = sizes
        self.mdi_mask = mdi
        self.degrees = degclass[1]
        self.residue = degclass[2]
        self._tops = degclass[0]
        self._high_subs = high_subs
        self._packed = packed  # degree vector, see _chunk_tables
        self._pipelines = {}

    @_lazy
    def hh_size(self) -> int | None:
        n, mask = self.n, self.mask
        if not mask:
            return n
        classes = _degree_classes(n)
        band = classes.bands[self._packed] or classes.band(self._packed, self.degrees)
        below, above = ((1 << n) - 1) ^ (band & 255), band >> 8
        stars = _stars(n)
        for v in self._tops:
            star = stars[v]
            # v dominates iff it sees every vertex above theta and none below
            if not mask & star[below] and mask & star[above] == star[above]:
                sub = _chunk_tables(n)[1][v][0][mask & _CHUNK_MASK]
                code = _hh_level(n - 1)[self._high_subs[v] | sub]
                return code - 1 if code else None
        return None

    @_lazy
    def flags(self) -> int:
        n = self.n
        out = _relabeled_flags(n).get(self.mask, 0)
        if n:
            table = _flag_level(n - 1)
            x = self.mask & _CHUNK_MASK
            for high, sub in zip(self._high_subs, _chunk_tables(n)[1]):
                out |= table[high | sub[0][x]]
        return out


def _layer_facts(n: int, lo: int, hi: int):
    """Facts of the labeled n-vertex graphs with edge masks lo..hi-1, in
    counting order.  The low 7 mask bits vary fastest, so the chunk
    lookups of the higher bits are made once per 128 graphs."""
    pairs = _pairs(n)
    deg, sub = _chunk_tables(n)
    alphas, sizes = _level(n - 1) if n else (None, None)
    degree_classes = _degree_classes(n)
    ids, classes = degree_classes.ids, degree_classes.classes
    low_deg = deg[0]
    low_sub = [s[0] for s in sub]
    edgeless = (n, 1 << n, (1 << n) - 1)
    for high in range(lo >> _CHUNK, ((hi - 1) >> _CHUNK) + 1):
        high_deg = 0
        high_subs = [0] * n
        for c in range(1, len(deg)):
            x = high >> _CHUNK * (c - 1) & _CHUNK_MASK
            high_deg += deg[c][x]
            for v in range(n):
                high_subs[v] |= sub[v][c][x]
        base = high << _CHUNK
        for x in range(max(lo - base, 0), min(hi - base, 1 << _CHUNK)):
            mask = base | x
            packed = high_deg + low_deg[x]
            degclass = classes[ids[packed] or degree_classes.add(packed)]
            if mask:
                low = mask & -mask
                u, w = pairs[low.bit_length() - 1]
                a = alphas[high_subs[u] | low_sub[u][x]]
                b = alphas[high_subs[w] | low_sub[w][x]]
                alpha = a if a > b else b
                size_mask = mdi = 0
                for v in degclass[0]:
                    s = high_subs[v] | low_sub[v][x]
                    size_mask |= sizes[s]
                    if alphas[s] < alpha:
                        mdi |= 1 << v
                yield _LayerFacts(
                    n, mask, alpha, size_mask, mdi, degclass, high_subs, packed
                )
            else:
                yield _LayerFacts(n, 0, *edgeless, degclass, high_subs, packed)


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
