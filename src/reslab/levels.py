"""Tables over every labeled graph with k vertices, by edge mask, each
built from the table one vertex smaller."""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from struct import unpack

from .facts import _lazy, _residue_of_sequence, _spanning_patterns
from .graphs import _pairs


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
# An 8-vertex record finds, in one pass when it is read, the edge masks of
# each G - v and G - v - x (all of either from one packed lookup per
# chunk), its degrees (v has |E(G)| - |E(G - v)|) and, through two
# deletions into _level(6), alpha, the Maxine sizes and the MDI mask.  It
# reads C4, P5 and catalog-member presence from the same flag tables
# through its 6- and 7-vertex induced subgraphs, the 7-vertex relabelings
# of a pattern being its orbit under the adjacent transpositions, which
# generate every permutation.  Its guided run takes two steps by the band
# rule, v* in G and w* in G - v*, on the degree vectors the chunk tables
# give, and ends as that of G - v* - w* does in _hh_level(6); it deletes
# nothing once no edge is left, and strands if a step finds no dominating
# vertex.

_CHUNK = 7  # edge-mask bits per lookup
_CHUNK_MASK = (1 << _CHUNK) - 1


def _chunk_table(n: int, weight) -> list[list[int]]:
    """out[c][x]: the sum of weight(i, j) over the edges (i, j) that
    chunk c of an n-vertex edge mask holds when its bits read x."""
    pairs = _pairs(n)
    out = []
    for lo in range(0, max(len(pairs), 1), _CHUNK):
        row = [0]
        for i, j in pairs[lo : lo + _CHUNK]:
            w = weight(i, j)
            row += [r + w for r in row]
        out.append(row)
    return out


def _edge_bit(i: int, j: int) -> int:
    """The bit of edge (i, j) in a pair_order edge mask."""
    if i > j:
        i, j = j, i
    return 1 << (j * (j - 1) // 2 + i)


def _kept_bit(gone, i: int, j: int) -> int:
    """The bit of edge (i, j) once the vertices of `gone` are deleted and
    those above them move down; 0 if the edge meets one of them."""
    if i in gone or j in gone:
        return 0
    return _edge_bit(i - sum(i > g for g in gone), j - sum(j > g for g in gone))


@lru_cache(maxsize=None)
def _chunk_tables(n: int):
    """Lookups over the 7-bit chunks of an n-vertex edge mask.

    deg[c][x] is the degree vector, packed base n (vertex v's degree is
    the digit of n**v), of the edges that chunk c holds when its bits
    read x.  sub[v][c][x] is the mask of those edges over
    pair_order(n - 1) once v is deleted and the vertices above v move
    down by one.
    """
    return (
        _chunk_table(n, lambda i, j: n**i + n**j),
        [_chunk_table(n, partial(_kept_bit, (v,))) for v in range(n)],
    )


@lru_cache(maxsize=None)
def _stars(n: int) -> list[list[int]]:
    """stars[v][s] is the edge mask, over pair_order(n), of the edges
    joining v to the vertices of the vertex mask s."""
    out = []
    for v in range(n):
        row = [0]
        for u in range(n):
            edge = _edge_bit(u, v) if u != v else 0
            row += [r | edge for r in row]
        out.append(row)
    return out


def _unpacked(n: int, packed: int) -> list[int]:
    """The degree of each vertex, from a degree vector packed base n."""
    degs = []
    for _ in range(n):
        packed, d = divmod(packed, n)
        degs.append(d)
    return degs


def _degree_class(degs: list[int]) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(max-degree vertices, band, sorted degrees) of the degrees of the
    vertices in order, the band being GE | GT << 8 as the "Labeled scans"
    comment defines them; GE holds the max-degree vertices."""
    seq = tuple(sorted(degs, reverse=True))
    top, theta = (seq[0], seq[seq[0]]) if seq else (0, 0)
    tops, ge, gt = [], 0, 0
    for v, d in enumerate(degs):
        if d >= theta:
            ge |= 1 << v
            gt |= (d > theta) << v
            if d == top:
                tops.append(v)
    return tuple(tops), ge | gt << 8, seq


def _dominating(n: int, mask: int, tops, band: int) -> int | None:
    """The guided run's first deletion in an n-vertex graph with an edge,
    given by its edge mask and its degree vector's tops and band; None if
    no vertex dominates, so that the run strands."""
    below, above = ((1 << n) - 1) ^ (band & 255), band >> 8
    stars = _stars(n)
    for v in tops:
        star = stars[v]
        # v dominates iff it sees every vertex above theta and none below
        if not mask & star[below] and mask & star[above] == star[above]:
            return v
    return None


class _DegreeClasses:
    """Degree vectors of n-vertex graphs, packed base n, grouped by
    (max-degree vertices, sorted degrees); each class also carries the
    residue.  Classes are found as a scan meets their vectors.  Only the
    guided run reads a vector's band, so the band array is allocated,
    and each band found, on first use."""

    def __init__(self, n: int):
        self.n = n
        self.ids = array("I", bytes(4 * n**n))  # 0: vector not met yet
        self.classes: list = [None]
        self._index: dict = {}

    @_lazy
    def bands(self) -> array:
        return array("H", bytes(2 * self.n**self.n))  # 0: band not found yet

    def band(self, packed: int) -> int:
        self.bands[packed] = out = _degree_class(_unpacked(self.n, packed))[1]
        return out

    def add(self, packed: int) -> int:
        tops, _, seq = _degree_class(_unpacked(self.n, packed))
        cid = self._index.get((tops, seq))
        if cid is None:
            cid = self._index[tops, seq] = len(self.classes)
            self.classes.append((tops, seq, _residue_of_sequence(seq)))
        self.ids[packed] = cid
        return cid


_degree_classes = lru_cache(maxsize=None)(_DegreeClasses)


def _blocks(n: int, lo: int, hi: int):
    """The n-vertex edge masks lo..hi-1 as runs (base, xs, high_deg,
    high_subs) of the masks base | x, x in xs, which share the chunk
    lookups of the bits above the low 7: their degree vector and
    high_subs[v], their edge mask of G - v."""
    deg, sub = _chunk_tables(n)
    for high in range(lo >> _CHUNK, ((hi - 1) >> _CHUNK) + 1):
        high_deg = 0
        high_subs = [0] * n
        for c in range(1, len(deg)):
            x = high >> _CHUNK * (c - 1) & _CHUNK_MASK
            high_deg += deg[c][x]
            for v in range(n):
                high_subs[v] |= sub[v][c][x]
        base = high << _CHUNK
        xs = range(max(lo - base, 0), min(hi - base, 1 << _CHUNK))
        yield base, xs, high_deg, high_subs


@lru_cache(maxsize=None)
def _level(k: int) -> tuple[bytearray, bytearray]:
    """alpha and Maxine size bitmask of every labeled k-vertex graph,
    indexed by edge mask; bytes suffice for k <= 7 (ENUM_CAP - 1)."""
    alphas, sizes = bytearray([k]), bytearray([1 << k])  # the edgeless graph
    below_alphas, below_sizes = _level(k - 1) if k else (None, None)
    pairs, (deg, sub), classes = _pairs(k), _chunk_tables(k), _degree_classes(k)
    low_sub = [s[0] for s in sub]
    for base, xs, high_deg, high_subs in _blocks(k, 1, 1 << len(pairs)):
        for x in xs:
            mask = base | x
            u, w = pairs[(mask & -mask).bit_length() - 1]
            a = below_alphas[high_subs[u] | low_sub[u][x]]
            b = below_alphas[high_subs[w] | low_sub[w][x]]
            alphas.append(a if a > b else b)
            packed = high_deg + deg[0][x]
            size_mask = 0
            for v in classes.classes[classes.ids[packed] or classes.add(packed)][0]:
                size_mask |= below_sizes[high_subs[v] | low_sub[v][x]]
            sizes.append(size_mask)
    return alphas, sizes


@lru_cache(maxsize=None)
def _hh_level(k: int) -> bytearray:
    """Guided-run outcome of every labeled k-vertex graph, by edge mask:
    0 when the run strands, else the survivor count + 1."""
    out = bytearray([k + 1])  # the edgeless graph deletes nothing
    below = _hh_level(k - 1) if k else None
    (deg, sub), classes = _chunk_tables(k), _degree_classes(k)
    low_sub = [s[0] for s in sub]
    for base, xs, high_deg, high_subs in _blocks(k, 1, 1 << len(_pairs(k))):
        for x in xs:
            packed = high_deg + deg[0][x]
            tops = classes.classes[classes.ids[packed] or classes.add(packed)][0]
            band = classes.bands[packed] or classes.band(packed)
            v = _dominating(k, base | x, tops, band)
            out.append(0 if v is None else below[high_subs[v] | low_sub[v][x]])
    return out


def _spread(table: bytes, p: int) -> bytes:
    """The table indexed by masks one bit longer, with a bit inserted at
    position p that its entries do not depend on: each run of 2**p
    entries twice, copied by whichever of runs or strides is fewer."""
    step = 1 << p
    if step * step > len(table):
        runs = [table[i : i + step] for i in range(0, len(table), step)]
        return b"".join(twice for run in runs for twice in (run, run))
    out = bytearray(2 * len(table))
    for i in range(step):
        out[i :: 2 * step] = out[step + i :: 2 * step] = table[i::step]
    return out


@lru_cache(maxsize=None)
def _flag_level(k: int) -> bytearray:
    """The flags of every labeled k-vertex graph, by edge mask: the
    OR of the entries one level down over the deletions G - v, plus the
    relabeling bit of a pattern with exactly k vertices.  The edge mask
    of G - v is that of G with the bits of v's edges taken out, so the
    level below, spread over those bits, holds the entry of G - v for
    every G; the entries are bytes, so OR-ing the spread levels read as
    integers ORs them entry by entry."""
    size = 1 << len(_pairs(k))
    flags = bytearray(size)
    for mask, flag in _relabeled_flags(k).items():
        flags[mask] = flag
    if k:
        out = int.from_bytes(flags, "little")
        for v in range(k):
            entries = _flag_level(k - 1)
            for u in range(k):  # v's edge bits, lowest first
                if u != v:
                    entries = _spread(entries, _edge_bit(u, v).bit_length() - 1)
            out |= int.from_bytes(entries, "little")
        flags = bytearray(out.to_bytes(size, "little"))
    return flags


@lru_cache(maxsize=None)
def _relabeled_flags(k: int) -> dict[int, int]:
    """Flags of the k-vertex edge masks that relabel a flagged pattern
    with exactly k vertices, OR-ed over those patterns.  Each pattern's
    relabelings are its orbit under the adjacent transpositions (t, t + 1),
    which generate every permutation; the chunk tables give a mask's
    images under all of them at once, 32 bits apart, which holds k <= 8."""
    ts = range(k - 1)

    def images(i, j):  # where edge (i, j) goes under each (t, t + 1)
        out = 0
        for t in ts:
            move = {t: t + 1, t + 1: t}
            out |= _edge_bit(move.get(i, i), move.get(j, j)) << 32 * t
        return out

    swaps, shifts = _chunk_table(k, images), range(0, len(_pairs(k)), _CHUNK)
    fmt, size = f"<{len(ts)}I", 4 * len(ts)
    out: dict[int, int] = {}
    for g, flag, _ in _spanning_patterns(k):
        orbit = new = {g.mask()}
        while new:
            # a relabeling moves each edge bit to its own place, so the
            # chunks' images are disjoint and add up to the image
            xss = ([m >> c & _CHUNK_MASK for c in shifts] for m in new)
            packed = [sum(map(list.__getitem__, swaps, xs)) for xs in xss]
            new = {i for p in packed for i in unpack(fmt, p.to_bytes(size, "little"))}
            new -= orbit
            orbit |= new
        for m in orbit:
            out[m] = out.get(m, 0) | flag
    return out
