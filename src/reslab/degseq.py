"""Havel-Hakimi machinery: graphicality, elimination traces, and residue.

One elimination step removes the largest entry d1 and subtracts 1 from the
next d1 entries; a sequence is graphic exactly when iterating this reaches
the all-zero sequence.  The residue of a sequence (and of a graph, via its
degree sequence) is the number of zeros that remain at termination.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .graphs import Graph, degree_sequence


class NonGraphicError(ValueError):
    """Raised when a sequence fails Havel-Hakimi; `step` is the failing round."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (at step {step})")
        self.step = step


def normalized(entries) -> tuple[int, ...]:
    """Sort non-increasing, validating entries are non-negative ints."""
    try:
        seq = tuple(operator.index(d) for d in entries)
    except TypeError:
        raise ValueError("degree entries must be integers")
    if any(d < 0 for d in seq):
        raise ValueError("degree entries must be non-negative")
    return tuple(sorted(seq, reverse=True))


def parse_degree_sequence(text: str) -> tuple[int, ...]:
    """Parse comma- or whitespace-separated degrees; sorted on the way in."""
    tokens = [t for t in text.replace(",", " ").split() if t]
    try:
        entries = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"degree sequence {text!r} contains a non-integer token")
    if any(d < 0 for d in entries):
        raise ValueError(f"degree sequence {text!r} contains a negative entry")
    return normalized(entries)


def hh_step(seq: tuple[int, ...], _step: int = 0) -> tuple[int, ...]:
    """One Havel-Hakimi reduction of a non-increasing sequence.

    Removes the first entry d1 and decrements the next d1 entries, then
    re-sorts (stable, descending).  Raises NonGraphicError when d1 exceeds
    the remaining length or a decrement would go negative.
    """
    d = normalized(seq)
    if not d or d[0] == 0:
        raise ValueError("hh_step needs a sequence with a positive maximum")
    return _hh_step(d, _step)


def _hh_step(d: tuple[int, ...], step: int) -> tuple[int, ...]:
    """hh_step on a sorted sequence with a positive maximum, unchecked."""
    d1, rest = d[0], list(d[1:])
    if d1 > len(rest):
        raise NonGraphicError(f"entry {d1} exceeds remaining length {len(rest)}", step)
    if rest[d1 - 1] == 0:  # the smallest of the entries decremented
        raise NonGraphicError("decrement drives an entry negative", step)
    for i in range(d1):
        rest[i] -= 1
    rest.sort(reverse=True)
    return tuple(rest)


@dataclass(frozen=True)
class HHTrace:
    """Full elimination trace: every intermediate sequence, first to last."""

    steps: tuple[tuple[int, ...], ...]

    @property
    def terminal(self) -> tuple[int, ...]:
        return self.steps[-1]

    @property
    def terminal_zero_count(self) -> int:
        return len(self.terminal)


def hh_trace(entries) -> HHTrace:
    """Run Havel-Hakimi to the all-zero terminal sequence.

    Raises NonGraphicError (carrying the failing step index) when the
    input is not graphic.  The empty sequence is graphic with an empty
    terminal, residue 0.
    """
    seq = normalized(entries)
    steps = [seq]
    k = 0
    while seq and seq[0] > 0:
        seq = _hh_step(seq, k)
        steps.append(seq)
        k += 1
    return HHTrace(tuple(steps))


def is_graphic(entries) -> bool:
    try:
        hh_trace(entries)
    except NonGraphicError:
        return False
    return True


def residue_seq(entries) -> int:
    """Number of terminal zeros under Havel-Hakimi elimination."""
    return hh_trace(entries).terminal_zero_count


def residue(g: Graph) -> int:
    """Residue of a graph: residue_seq of its degree sequence."""
    return residue_seq(degree_sequence(g))


def hh_realization(entries) -> Graph:
    """Build one concrete graph realizing a graphic sequence.

    Mirrors the elimination order: the highest-residual vertex is wired to
    the next-largest residuals (ties by lower vertex id), exactly the edge
    choices hh_step accounts for, so this succeeds iff is_graphic holds.
    The first vertex processed ends up max-degree with its neighborhood
    dominating the non-neighborhood degrees.
    """
    seq = normalized(entries)
    n = len(seq)
    residual = list(seq)
    adj = [0] * n
    step = 0
    while any(residual):
        # stable, so ties keep the lower vertex id first
        order = sorted(range(n), key=residual.__getitem__, reverse=True)
        v0 = order[0]
        r0 = residual[v0]
        targets = [v for v in order[1:] if not adj[v0] >> v & 1]
        if r0 > len(targets):
            raise NonGraphicError(
                f"entry {r0} exceeds remaining attachable vertices", step
            )
        residual[v0] = 0
        for v in targets[:r0]:
            residual[v] -= 1
            if residual[v] < 0:
                raise NonGraphicError("decrement drives an entry negative", step)
            adj[v0] |= 1 << v
            adj[v] |= 1 << v0
        step += 1
    return Graph._make(n, tuple(adj))
