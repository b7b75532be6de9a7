"""Relation vectors on the rational span of chord diagrams.

Generates the four-term (4T) and isolated-chord (1T) relation vectors in
each degree, computes quotient dimensions by exact sparse elimination, and
decides membership in the relation span.  Ranks are taken over integer
rows indexed by basis position.  A term is located by one dict lookup on
the gap sequence of its raw matching, in an index that holds every
rotation of every basis diagram's gap sequence, so no diagram, formal sum
or least rotation is built per term.  The index keys are the gaps packed
as bytes (each gap is below 2n <= 16), a third of the memory of tuples.
Each 4T relation is generated from one representative, a diagram whose
moving chord is isolated, and the terms of all relations that move that
chord come from one slot table, built by walking its endpoint around the
circle one adjacent swap at a time.
"""

from __future__ import annotations

from .diagrams import ChordDiagram, enumerate_diagrams
from .formal import FormalSum
from .frozen import Frozen
from .linalg import sparse_rank

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


def _class_index(basis: tuple) -> dict:
    """{bytes(gaps) of each rotation of each basis diagram: basis position}."""
    index = {}
    for i, diagram in enumerate(basis):
        gaps = _gaps(diagram.matching)
        for r in range(len(gaps) or 1):
            index[bytes(gaps[r:] + gaps[:r])] = i
    return index


def _slot_table(matching: tuple, p: int, index: dict) -> list:
    """slots[t]: basis index of ``_reinsert(matching, p, seq, t)``.

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


def _four_term_rows(basis: tuple, index: dict) -> list:
    """Distinct nonzero 4T rows {basis index: int} over degree-n diagrams.

    index is ``_class_index(basis)``.  A row re-inserts the moving endpoint
    p beside the endpoints of the fixed chord, so it depends only on the
    fixed chord and the configuration: the circle without p, holding
    n - 1 chords and p's partner q.  Putting p back directly after q gives
    a diagram, a rotation of one in basis, whose moving chord
    (q, q + 1 mod 2n) is isolated.  So every row is built from a basis
    diagram, one isolated chord with p = q + 1 moving, and another chord as
    the fixed one: one slot table per isolated chord.  Configurations with
    rotational symmetry still repeat, so rows are deduplicated on their
    sorted items, in order of first appearance.
    """
    rows = []
    seen = set()
    for diagram in basis:
        matching = diagram.matching
        m = len(matching)
        for q in range(m):
            p = (q + 1) % m
            if matching[q] != p:
                continue
            # each 4T term is one entry of the slot table
            slots = _slot_table(matching, p, index)
            for fixed in diagram.chords:
                if q in fixed:
                    continue
                row: dict = {}
                for anchor in fixed:
                    at = anchor - (anchor > p)
                    row[slots[at]] = row.get(slots[at], 0) + 1
                    row[slots[at + 1]] = row.get(slots[at + 1], 0) - 1
                key = tuple(sorted((i, c) for i, c in row.items() if c))
                if key and key not in seen:
                    seen.add(key)
                    rows.append(dict(key))
    return rows


def four_term_relations(n: int) -> RelationSet:
    """Every distinct nonzero ``four_term_vector`` in degree n, once each."""
    basis = enumerate_diagrams(n)
    vectors = tuple(
        FormalSum({basis[i]: c for i, c in row.items()})
        for row in _four_term_rows(basis, _class_index(basis))
    )
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


def _relation_rows(basis: tuple, index: dict, kind: str) -> list:
    """Integer relation rows over basis positions for the chosen kind."""
    rows = _four_term_rows(basis, index)
    if kind == "unframed":
        rows.extend({i: 1} for i, diagram in enumerate(basis)
                    if diagram.has_isolated_chord)
    return rows


def quotient_dimension(n: int, kind: str = "framed") -> int:
    """Dimension of degree-n diagrams modulo the chosen relations."""
    _check_kind(kind)
    basis = enumerate_diagrams(n)
    rank = sparse_rank(_relation_rows(basis, _class_index(basis), kind))
    return len(basis) - rank


def in_relation_span(vector: FormalSum, kind: str = "framed") -> bool:
    """Exact membership of a homogeneous vector in the relation span."""
    _check_kind(kind)
    if not vector:
        return True
    degrees = {diagram.n for diagram, _ in vector.items()}
    if len(degrees) != 1:
        raise ValueError(f"vector mixes degrees {sorted(degrees)}")
    basis = enumerate_diagrams(degrees.pop())
    index = _class_index(basis)
    relation_rows = _relation_rows(basis, index, kind)
    base_rank = sparse_rank(relation_rows)
    row = {index[bytes(_gaps(d.matching))]: coeff for d, coeff in vector.items()}
    return sparse_rank(relation_rows + [row]) == base_rank
