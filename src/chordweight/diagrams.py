"""Chord diagrams on an oriented circle, up to rotation.

A diagram with n chords is stored as a fixed-point-free involution of the
endpoint positions 0..2n-1, read counterclockwise around the circle.
Instances are always kept in canonical form: among the 2n rotations of the
position labels, the one whose first-occurrence chord labelling reads
lexicographically smallest.  Rotations only; the circle is oriented, so a
reflected diagram is a different diagram.

The gap sequence g[p] = (matching[p] - p) mod 2n shifts cyclically when
the diagram is rotated, so its least rotation is a second invariant of the
rotation class.  The enumerator generates exactly these least rotations,
one per class, by an orderly search over gap sequences in the manner of
Sawada (SIAM J. Discrete Math. 15, 2002), so no other matching is built.
Gap sequences are never shown to users; codes, matchings and the sort
order come from the canonical form above.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .formal import FormalSum
from .frozen import Frozen
from .work import charge_work

ENUMERATION_CAP = 8
# chord labels of a code, in increasing order so that codes sort as label sequences
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _check_involution(matching: tuple) -> None:
    m = len(matching)
    if m % 2 != 0:
        raise ValueError("matching must have even length")
    for i, j in enumerate(matching):
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < m:
            raise ValueError(f"matching[{i}]={j!r} is not a position in 0..{m - 1}")
        if j == i:
            raise ValueError(f"endpoint {i} is paired with itself")
        if matching[j] != i:
            raise ValueError(f"matching is not an involution at position {i}")


def _label_sequence(matching: Sequence[int], start: int) -> tuple:
    """Chord labels in first-occurrence order, walking the circle from start."""
    m = len(matching)
    label_of = {}
    seq = []
    nxt = 0
    for k in range(m):
        pos = (start + k) % m
        partner = matching[pos]
        if partner in label_of:
            seq.append(label_of[partner])
        else:
            label_of[pos] = nxt
            seq.append(nxt)
            nxt += 1
    return tuple(seq)


def _matching_from_labels(seq: Sequence[int]) -> tuple:
    first: dict = {}
    matching = [0] * len(seq)
    for i, lab in enumerate(seq):
        if lab in first:
            j = first.pop(lab)
            matching[i] = j
            matching[j] = i
        else:
            first[lab] = i
    return tuple(matching)


class ChordDiagram(Frozen):
    """A canonical chord diagram; construction canonicalizes and validates."""

    _fields = ("matching",)

    def __init__(self, matching: tuple = ()):
        object.__setattr__(self, "matching", matching)
        self.__post_init__()

    def __post_init__(self):
        """Canonicalize and validate; a method of its own so it can be timed by name."""
        matching = tuple(self.matching)
        _check_involution(matching)
        if matching:
            best = min(_label_sequence(matching, s) for s in range(len(matching)))
            matching = _matching_from_labels(best)
        object.__setattr__(self, "matching", matching)

    # Diagrams key every formal sum, so equality and hashing skip the
    # generic field walk of Frozen; the results are the same.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matching == other.matching

    def __hash__(self):
        return hash((self.matching,))

    @classmethod
    def from_code(cls, code: str) -> "ChordDiagram":
        """Parse a first-occurrence label code such as "ABAB"."""
        code = code.strip()
        positions: dict = {}
        for i, ch in enumerate(code):
            positions.setdefault(ch, []).append(i)
        for ch, occ in positions.items():
            if len(occ) != 2:
                raise ValueError(
                    f"label {ch!r} appears {len(occ)} times; each chord label "
                    "must appear exactly twice"
                )
        matching = [0] * len(code)
        for a, b in positions.values():
            matching[a] = b
            matching[b] = a
        return cls(tuple(matching))

    @property
    def n(self) -> int:
        return len(self.matching) // 2

    @cached_property
    def code(self) -> str:
        """The canonical label code; empty string for the bare circle."""
        if self.n > len(_LETTERS):
            raise ValueError(f"a code labels at most {len(_LETTERS)} chords, "
                             f"this diagram has {self.n}")
        seq = _label_sequence(self.matching, 0)
        return "".join(_LETTERS[k] for k in seq)

    @property
    def chords(self) -> tuple:
        """Endpoint pairs (p, q) with p < q, ordered by first endpoint."""
        return tuple(
            (p, q) for p, q in enumerate(self.matching) if q > p
        )

    @property
    def has_isolated_chord(self) -> bool:
        """True if some chord has cyclically adjacent endpoints."""
        m = len(self.matching)
        return any((p + 1) % m == q or (q + 1) % m == p for p, q in self.chords)

    def __lt__(self, other):
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        # The label sequence orders as the code does (_LETTERS rises in code
        # point) and exists past 52 chords, where the code does not.
        return ((self.n, _label_sequence(self.matching, 0))
                < (other.n, _label_sequence(other.matching, 0)))

    def __repr__(self):
        if self.n > len(_LETTERS):  # no code: the field repr of Frozen
            return super().__repr__()
        return f"ChordDiagram({self.code!r})"


def charge_enumeration(n: int) -> None:
    """Charge the predicted cost of degree n against the work bound.

    The cost is classes x (2n)^2, with about (2n-1)!!/(2n) rotation
    classes, each canonicalized.  It bounds the 4T rows too: a class that
    generates rows gets one slot table of length 2n per isolated chord,
    at most n * 2n steps.  Framed rank takes every class as a generator,
    unframed rank only those with exactly one isolated chord.
    """
    work = 2 * n
    for k in range(1, 2 * n, 2):
        work *= k
    charge_work(work, f"degree {n} needs about (2n-1)!!/(2n) classes x (2n)^2 = "
                f"{work} steps")


def _least_gap_rotations(n: int) -> list:
    """The least rotation of the gap sequence of every n-chord class, once each.

    A depth-first search fills g[0], g[1], ... in turn.  Choosing g[t] = v
    pairs position t with t + v, which fixes g[t + v] = 2n - v; the
    positions before t are all paired, so v < 2n - t.  A prefix is extended
    only while it is a prenecklace, tested as in the FKM algorithm: with
    ``period`` the length of its longest Lyndon prefix, g[t] >= g[t - period],
    and the period becomes t + 1 when the inequality is strict.  A full
    sequence whose length is a multiple of its period is a necklace, the
    least of its rotations, and every rotation class has exactly one.  n is
    checked and its cost charged first (``charge_enumeration``).
    """
    if n < 0:
        raise ValueError("chord count must be non-negative")
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {ENUMERATION_CAP}")
    charge_enumeration(n)
    m = 2 * n
    gaps = [0] * m
    found = []

    def extend(t: int, period: int) -> None:
        if t == m:
            if m % period == 0:
                found.append(tuple(gaps))
            return
        least = gaps[t - period]
        v = gaps[t]
        if v:  # fixed by the chord from an earlier position
            if v >= least:
                extend(t + 1, period if v == least else t + 1)
            return
        for v in range(max(least, 1), m - t):
            if not gaps[t + v]:
                gaps[t], gaps[t + v] = v, m - v
                extend(t + 1, period if v == least else t + 1)
                gaps[t + v] = 0
        gaps[t] = 0

    extend(0, 1)
    return found


def enumerate_diagrams(n: int) -> tuple:
    """All canonical diagrams with n chords, sorted by code.

    Each rotation class is generated once, as its least gap rotation (see
    ``_least_gap_rotations``, which checks n and charges its cost), and
    canonicalized; nothing is deduplicated.
    """
    m = 2 * n
    return tuple(sorted(
        (ChordDiagram(tuple([(p + v) % m for p, v in enumerate(gaps)]))
         for gaps in _least_gap_rotations(n)),
        key=lambda diagram: _label_sequence(diagram.matching, 0),  # the order of __lt__
    ))


def _arc_paths(diagram: ChordDiagram) -> tuple:
    """The circle arcs as paths between half-edges, numbered chord by chord.

    Chord k of ``chords``, (p, q), has half-edges in(p) = 4k, out(p) =
    4k+1, in(q) = 4k+2 and out(q) = 4k+3.  The arc from endpoint r to r+1
    mod 2n joins out(r) to in(r+1), and entry h is the other end of the
    path that ends at h.
    """
    half = {}
    for k, (p, q) in enumerate(diagram.chords):
        half[p], half[q] = 4 * k, 4 * k + 2
    m = len(diagram.matching)
    ends = [0] * (2 * m)
    for r in range(m):
        out, nxt = half[r] + 1, half[(r + 1) % m]
        ends[out], ends[nxt] = nxt, out
    return tuple(ends)


# The joins of a chord's half-edges 0..3 under each sign: +1 (pass-through)
# joins in(p)-out(q) and in(q)-out(p), -1 (cap-cup) in(p)-in(q) and out(p)-out(q).
_JOINS = {1: ((0, 3), (2, 1)), -1: ((0, 2), (1, 3))}


def _smooth_first(ends: tuple, sign: int) -> tuple:
    """Smooth the chord of half-edges 0..3 of ``ends``: (cycles closed, ends left).

    A join of the two ends of one path closes a cycle; any other join
    links two paths into one.  The chord's half-edges are then
    no longer path ends, so they are dropped and the rest renumbered from 0.
    """
    ends = list(ends)
    closed = 0
    for x, y in _JOINS[sign]:
        a, b = ends[x], ends[y]
        if a == y:
            closed += 1
        else:
            ends[a], ends[b] = b, a
    return closed, tuple(h - 4 for h in ends[4:])


def smooth_components(diagram: ChordDiagram, signs: Sequence[int]) -> int:
    """Number of circles after replacing every chord by its smoothing.

    ``signs`` holds +1 (pass-through) or -1 (cap-cup) for each chord, in
    the order of ``chords``; each is smoothed by ``_smooth_first``.  Every
    cycle closes exactly once, at its last join.  The bare circle has no
    half-edges and is one circle.
    """
    signs = tuple(signs)
    for k, s in enumerate(signs):
        if s not in (1, -1):
            raise ValueError(f"sign for chord {k} must be +1 or -1, got {s!r}")
    if len(signs) != diagram.n:
        raise ValueError(f"got {len(signs)} signs for a {diagram.n}-chord diagram")
    if not signs:
        return 1
    ends = _arc_paths(diagram)
    circles = 0
    for sign in signs:
        closed, ends = _smooth_first(ends, sign)
        circles += closed
    return circles


def smoothing_tally(diagram: ChordDiagram) -> dict:
    """{c: signed number of smoothings with c circles} over all 2^n sign choices.

    A smoothing counts -1 when it has an odd number of -1 chords.  The
    chords are smoothed one at a time, in order of first endpoint, into a
    frontier: a dict from the pairing of the half-edges still open (path
    ends) to the tally {cycles closed so far: signed count} of the partial
    smoothings that leave that pairing.  Merging them is exact: the later
    joins touch only open half-edges, so which of them close cycles
    depends on the pairing alone, and every smoothing in one entry gains
    the same cycles from each later choice of signs.  The work follows the
    number of distinct pairings, at most 2^k after k chords, so the 2^n
    charge of ``yamada_weight`` is an upper bound on the states formed.
    When every chord is smoothed, only the empty pairing is left.
    """
    if not diagram.n:
        return {1: 1}
    frontier = {_arc_paths(diagram): {0: 1}}
    for _ in range(diagram.n):
        merged = {}
        for ends, tally in frontier.items():
            for sign in (1, -1):
                closed, after = _smooth_first(ends, sign)
                into = merged.setdefault(after, {})
                for c, k in tally.items():
                    into[c + closed] = into.get(c + closed, 0) + sign * k
        frontier = merged
    return frontier[()]


def product(d1: ChordDiagram, d2: ChordDiagram, cut1: int, cut2: int) -> ChordDiagram:
    """Connected sum: splice d2's circle into d1 at the given cut arcs.

    Arc index j means the gap just before endpoint j; valid values are
    0..2n inclusive (2n wraps to 0).  The result depends on the cuts only
    up to the span of 4T relations.
    """
    m1, m2 = len(d1.matching), len(d2.matching)
    for cut, m, which in ((cut1, m1, "cut1"), (cut2, m2, "cut2")):
        if not isinstance(cut, int) or not 0 <= cut <= m:
            raise ValueError(f"{which}={cut!r} is not an arc index in 0..{m}")
    c1 = cut1 % m1 if m1 else 0
    c2 = cut2 % m2 if m2 else 0
    matching = [0] * (m1 + m2)
    for i in range(m1):
        partner = d1.matching[(c1 + i) % m1]
        matching[i] = (partner - c1) % m1
    for j in range(m2):
        partner = d2.matching[(c2 + j) % m2]
        matching[m1 + j] = m1 + (partner - c2) % m2
    return ChordDiagram(tuple(matching))


def restrict(diagram: ChordDiagram, chord_ids: Iterable[int]) -> ChordDiagram:
    """Sub-diagram on a subset of chords, closing up the circle."""
    wanted = set(chord_ids)
    chords = diagram.chords
    for k in wanted:
        if not 0 <= k < len(chords):
            raise ValueError(f"no chord with index {k}")
    keep = sorted(p for k in wanted for p in chords[k])
    pos = {old: new for new, old in enumerate(keep)}
    matching = [0] * len(keep)
    for k in wanted:
        p, q = chords[k]
        matching[pos[p]] = pos[q]
        matching[pos[q]] = pos[p]
    return ChordDiagram(tuple(matching))


def coproduct(diagram: ChordDiagram) -> FormalSum:
    """Sum of (sub-diagram, complementary sub-diagram) over chord subsets."""
    n = diagram.n
    total = FormalSum()
    for mask in range(1 << n):
        left = [k for k in range(n) if mask >> k & 1]
        right = [k for k in range(n) if not mask >> k & 1]
        pair = (restrict(diagram, left), restrict(diagram, right))
        total = total + FormalSum.single(pair)
    return total
