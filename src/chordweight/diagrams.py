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

from functools import cached_property
from typing import Iterable, Sequence

from .formal import FormalSum
from .frozen import Frozen
from .work import charge_work

ENUMERATION_CAP = 8
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"  # chord labels of a code


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
        return (self.n, self.code) < (other.n, other.code)

    def __repr__(self):
        return f"ChordDiagram({self.code!r})"


def charge_enumeration(n: int) -> None:
    """Charge the predicted cost of degree n against the work bound.

    The cost is classes x (2n)^2, with about (2n-1)!!/(2n) rotation
    classes, each canonicalized and given 4T slot tables of length 2n.
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
        ChordDiagram(tuple([(p + v) % m for p, v in enumerate(gaps)]))
        for gaps in _least_gap_rotations(n)
    ))


def _smoothing_tables(diagram: ChordDiagram):
    """Partner tables of the half-edges in(p) = 2p and out(p) = 2p+1.

    ``arc[h]`` is h's partner along the circle, fixed for every smoothing:
    out(p) and in(p+1 mod 2n).  ``joins[k][s]`` is the two pairs of
    half-edges that chord k joins under sign s.
    """
    m = len(diagram.matching)
    arc = [0] * (2 * m)
    for p in range(m):
        out, nxt = 2 * p + 1, 2 * ((p + 1) % m)
        arc[out], arc[nxt] = nxt, out
    joins = [{1: ((2 * p, 2 * q + 1), (2 * q, 2 * p + 1)),
              -1: ((2 * p, 2 * q), (2 * p + 1, 2 * q + 1))}
             for p, q in diagram.chords]
    return arc, joins


def _join(chord: list, pairs) -> None:
    for x, y in pairs:
        chord[x], chord[y] = y, x


def _count_cycles(arc: list, chord: list) -> int:
    """Cycles of the graph whose edges are the arc and chord partners.

    Every half-edge has exactly one partner of each kind, so the graph is
    a disjoint union of cycles alternating the two; every cycle meets an
    in half-edge.  The bare circle has no half-edges and is one cycle.
    """
    if not arc:
        return 1
    seen = bytearray(len(arc))
    cycles = 0
    for start in range(0, len(arc), 2):
        if not seen[start]:
            cycles += 1
            h = start
            while not seen[h]:
                seen[h] = 1
                h = arc[h]
                seen[h] = 1
                h = chord[h]
    return cycles


def smooth_components(diagram: ChordDiagram, signs: Sequence[int]) -> int:
    """Number of circles after replacing every chord by its smoothing.

    ``signs`` holds +1 (pass-through) or -1 (cap-cup) for each chord.

    Each endpoint p splits into half-edges in(p) and out(p); circle arcs
    join out(k) to in(k+1 mod 2n).  A +1 chord (p,q) joins in(p)-out(q) and
    in(q)-out(p); a -1 chord joins in(p)-in(q) and out(p)-out(q).
    """
    signs = tuple(signs)
    for k, s in enumerate(signs):
        if s not in (1, -1):
            raise ValueError(f"sign for chord {k} must be +1 or -1, got {s!r}")
    if len(signs) != diagram.n:
        raise ValueError(f"got {len(signs)} signs for a {diagram.n}-chord diagram")
    arc, joins = _smoothing_tables(diagram)
    chord = [0] * len(arc)
    for pairs, sign in zip(joins, signs):
        _join(chord, pairs[sign])
    return _count_cycles(arc, chord)


def smoothing_tally(diagram: ChordDiagram) -> dict:
    """{c: signed number of smoothings with c circles} over all 2^n sign choices.

    A smoothing counts -1 when it has an odd number of -1 chords.  The
    smoothings are visited in Gray-code order, so each one differs from
    the last in one chord: its two joins change and the sign flips.
    """
    arc, joins = _smoothing_tables(diagram)
    chord = [0] * len(arc)
    for pairs in joins:
        _join(chord, pairs[1])
    signs = [1] * len(joins)
    tally = {_count_cycles(arc, chord): 1}
    parity = 1
    for g in range(1, 1 << len(joins)):
        k = (g & -g).bit_length() - 1
        signs[k] = -signs[k]
        parity = -parity
        _join(chord, joins[k][signs[k]])
        c = _count_cycles(arc, chord)
        tally[c] = tally.get(c, 0) + parity
    return tally


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
