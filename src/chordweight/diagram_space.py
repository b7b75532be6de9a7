"""Relation vectors on the rational span of chord diagrams.

Generates the four-term (4T) and isolated-chord (1T) relation vectors in
each degree, computes quotient dimensions by exact sparse elimination, and
decides membership in the relation span.  Rank columns are rotation
classes.  A term is found by one dict lookup of its raw matching's gaps,
as bytes (each gap is below 2n <= 16), in an index of every rotation of
every class.  Each 4T relation is generated once, from a matching whose
moving chord is isolated, its terms read from a slot table that walks that
endpoint around the circle by adjacent swaps.  Framed columns are the
canonical basis.  Unframed columns are the classes as generated (rank
ignores column order), so no diagram is built, less those with an
isolated chord, which 1T kills.  As A = A^r (x) Q[theta] (Bar-Natan,
Topology 34, 1995), ``dims`` sums unframed_j over j <= n for framed_n.
"""

from __future__ import annotations

from .diagrams import ChordDiagram, _least_gap_rotations, enumerate_diagrams
from .formal import FormalSum
from .frozen import Frozen
from .linalg import in_row_span, sparse_rank

KINDS = ("framed", "unframed")


class RelationSet(Frozen):
    """Homogeneous relation vectors in a fixed degree."""

    _fields = ("n", "kind", "vectors")

    def __init__(self, n: int, kind: str, vectors: tuple):
        self._set(n, kind, vectors)

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


def _reinsert(matching: tuple, moving: int, seq: list, slot: int) -> tuple:
    """The raw matching after endpoint `moving` is put at `slot` of `seq`."""
    order = seq[:slot] + [moving] + seq[slot:]
    pos = [0] * len(order)
    for i, token in enumerate(order):
        pos[token] = i
    return tuple([pos[matching[token]] for token in order])


def four_term_vector(diagram: ChordDiagram, moving_chord: int, fixed_chord: int,
                     endpoint: int) -> FormalSum:
    """One 4T relation vector.

    The chosen endpoint of the moving chord is removed from the circle and
    re-inserted immediately before / after each endpoint of the fixed chord;
    the four diagrams are signed +, -, +, - in that order.  Any weight
    system kills the result.
    """
    chords = diagram.chords
    for which, k in (("moving", moving_chord), ("fixed", fixed_chord)):
        if not 0 <= k < len(chords):
            raise ValueError(f"{which} chord index {k} out of range")
    if moving_chord == fixed_chord:
        raise ValueError("the moving and fixed chords must differ")
    if endpoint not in (0, 1):
        raise ValueError(f"endpoint must be 0 or 1, got {endpoint!r}")
    p = chords[moving_chord][endpoint]
    seq = [x for x in range(2 * diagram.n) if x != p]
    terms = []
    for anchor in chords[fixed_chord]:
        at = seq.index(anchor)
        terms.append((ChordDiagram(_reinsert(diagram.matching, p, seq, at)), 1))
        terms.append((ChordDiagram(_reinsert(diagram.matching, p, seq, at + 1)), -1))
    return FormalSum(terms)


def _gaps(matching) -> list:
    """g[p] = (matching[p] - p) mod 2n; rotating the diagram rotates it."""
    m = len(matching)
    return [(q - p) % m for p, q in enumerate(matching)]


def _class_index(classes) -> dict:
    """{bytes of each rotation of each gap sequence in classes: its position}."""
    index = {}
    for i, gaps in enumerate(classes):
        for r in range(len(gaps) or 1):
            index[bytes(gaps[r:] + gaps[:r])] = i
    return index


def _slot_table(matching: tuple, p: int, index: dict) -> list:
    """slots[t]: class index of ``_reinsert(matching, p, seq, t)``.

    seq is the circle without p.  The walk starts from the diagram itself,
    where p sits at slot p just after its partner, and moves p forward
    around the circle, one position at a time, through every other slot
    until it is just before its partner.  Each move swaps p with the
    endpoint after it, which is never p's partner, so only the gaps at
    those two positions and at their two partners change.  Slots 0 and
    2n - 1 are the same place on the circle.
    """
    m = len(matching)
    gaps = _gaps(matching)
    slots = [0] * m
    slots[p % (m - 1)] = index[bytes(gaps)]
    i = p
    for t in range(p + 1, p + m - 1):
        j = i + 1 if i + 1 < m else 0
        a = (i + gaps[i]) % m  # p's partner
        b = (j + gaps[j]) % m  # the partner of the endpoint after p
        gaps[i], gaps[j] = (b - i) % m, (a - j) % m
        gaps[a], gaps[b] = (j - a) % m, (i - b) % m
        slots[t % (m - 1)] = index[bytes(gaps)]
        i = j
    slots[m - 1] = slots[0]
    return slots


def _four_term_rows(matchings, index: dict) -> list:
    """Distinct nonzero 4T rows {class index: int} over degree-n matchings.

    matchings holds one matching of each rotation class, and index is
    ``_class_index`` of their gap sequences.  A row re-inserts the moving
    endpoint p beside the endpoints of the fixed chord, so it depends only
    on the fixed chord and the configuration: the circle without p, holding
    n - 1 chords and p's partner q.  Putting p back directly after q gives
    a diagram, a rotation of one in matchings, whose moving chord
    (q, q + 1 mod 2n) is isolated.  So every row is built from a matching,
    one isolated chord with p = q + 1 moving, and another chord as the
    fixed one: one slot table per isolated chord.  Configurations with
    rotational symmetry still repeat, so rows are deduplicated on their
    sorted items, in order of first appearance.  Columns -1 are left out.
    """
    rows: dict = {}
    for matching in matchings:
        m = len(matching)
        for q in range(m):
            p = (q + 1) % m
            if matching[q] != p:
                continue
            # each 4T term is one entry of the slot table
            slots = _slot_table(matching, p, index)
            for fixed in enumerate(matching):
                if fixed[0] > fixed[1] or q in fixed:
                    continue
                row: dict = {}
                for anchor in fixed:
                    at = anchor - (anchor > p)
                    row[slots[at]] = row.get(slots[at], 0) + 1
                    row[slots[at + 1]] = row.get(slots[at + 1], 0) - 1
                key = tuple(sorted((i, c) for i, c in row.items() if c and i >= 0))
                if key:
                    rows[key] = None
    return [dict(key) for key in rows]


def four_term_relations(n: int) -> RelationSet:
    """Every distinct nonzero ``four_term_vector`` in degree n, once each."""
    basis = enumerate_diagrams(n)
    index = _class_index([_gaps(diagram.matching) for diagram in basis])
    rows = _four_term_rows([diagram.matching for diagram in basis], index)
    vectors = tuple(FormalSum({basis[i]: c for i, c in row.items()}) for row in rows)
    return RelationSet(n, "4T", vectors)


def one_term_relations(n: int) -> RelationSet:
    """Singleton vectors for every degree-n diagram with an isolated chord."""
    vectors = tuple(
        FormalSum.single(diagram)
        for diagram in enumerate_diagrams(n)
        if diagram.has_isolated_chord
    )
    return RelationSet(n, "1T", vectors)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _relation_matrix(n: int, kind: str) -> tuple:
    """(4T rows, index, column count) over the degree-n rotation classes.

    Framed columns are the canonical basis; unframed ones are the classes as
    generated, with no diagram built, and index maps those with an isolated
    chord (a gap of 1) to -1, which the rows drop.
    """
    classes = ([_gaps(diagram.matching) for diagram in enumerate_diagrams(n)]
               if kind == "framed" else _least_gap_rotations(n))
    index = _class_index(classes)
    if kind == "unframed":
        index = {key: -1 if 1 in key else i for key, i in index.items()}
    matchings = [tuple([(p + g) % (2 * n) for p, g in enumerate(gaps)])
                 for gaps in classes]
    columns = sum(kind == "framed" or 1 not in gaps for gaps in classes)
    return _four_term_rows(matchings, index), index, columns


def quotient_dimension(n: int, kind: str = "framed") -> int:
    """Dimension of degree-n diagrams modulo the chosen relations."""
    _check_kind(kind)
    rows, _, columns = _relation_matrix(n, kind)
    return columns - sparse_rank(rows)


def in_relation_span(vector: FormalSum, kind: str = "framed") -> bool:
    """Exact membership of a homogeneous vector in the relation span."""
    _check_kind(kind)
    if not vector:
        return True
    degrees = {diagram.n for diagram, _ in vector.items()}
    if len(degrees) != 1:
        raise ValueError(f"vector mixes degrees {sorted(degrees)}")
    rows, index, _ = _relation_matrix(degrees.pop(), kind)
    target = {index[bytes(_gaps(d.matching))]: coeff for d, coeff in vector.items()}
    target.pop(-1, None)  # a column that 1T deletes
    return in_row_span(rows, target)
