"""Relation vectors on the rational span of chord diagrams.

Generates the four-term (4T) and isolated-chord (1T) relation vectors in
each degree, computes quotient dimensions by exact sparse elimination, and
decides membership in the relation span.  Rank columns are rotation
classes.  A term is found by one dict lookup of its raw matching's gaps,
as bytes (each gap is below 2n <= 16), in an index of every rotation of
every column.  Each 4T relation is generated from a configuration: a
matching whose moving chord is isolated, its terms read from a slot table
that walks that endpoint around the circle by adjacent swaps.
``four_term_relations`` keeps every distinct 4T vector.  The rank ranks
only a spanning subset of them (``_relation_matrix`` proves each rule):
unframed generators with a second isolated chord are skipped, one row of
every configuration is left out, and rows are kept once up to sign.
Framed columns are the canonical basis.  Unframed columns are the classes
as generated (rank ignores column order), so no diagram is built, less
those with an isolated chord, which 1T kills.  As A = A^r (x) Q[theta]
(Bar-Natan, Topology 34, 1995), ``dims`` sums unframed_j over j <= n for
framed_n.
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
    """slots[t]: class index of ``_reinsert(matching, p, seq, t)``, -1 if not in index.

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
    slots[p % (m - 1)] = index.get(bytes(gaps), -1)
    i = p
    for t in range(p + 1, p + m - 1):
        j = i + 1 if i + 1 < m else 0
        a = (i + gaps[i]) % m  # p's partner
        b = (j + gaps[j]) % m  # the partner of the endpoint after p
        gaps[i], gaps[j] = (b - i) % m, (a - j) % m
        gaps[a], gaps[b] = (j - a) % m, (i - b) % m
        slots[t % (m - 1)] = index.get(bytes(gaps), -1)
        i = j
    slots[m - 1] = slots[0]
    return slots


def _configuration_rows(matching: tuple, q: int, index: dict) -> list:
    """The 4T rows of one configuration, as sorted (column, int) tuples.

    The chord (q, p = q + 1 mod 2n) of matching is isolated and p moves;
    there is one row per other chord, fixed in its order in matching.  A
    row puts p just before and just after each endpoint of the fixed chord
    (signs +, -, +, -), each term read from p's slot table.  Zero entries
    and columns -1 are left out, so a row may be empty.
    """
    p = (q + 1) % len(matching)
    slots = _slot_table(matching, p, index)
    rows = []
    for fixed in enumerate(matching):
        if fixed[0] > fixed[1] or q in fixed:
            continue
        row: dict = {}
        for anchor in fixed:
            at = anchor - (anchor > p)
            row[slots[at]] = row.get(slots[at], 0) + 1
            row[slots[at + 1]] = row.get(slots[at + 1], 0) - 1
        rows.append(tuple(sorted((i, c) for i, c in row.items() if c and i >= 0)))
    return rows


def _four_term_rows(matchings, index: dict, spanning: bool = False) -> list:
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

    With ``spanning``, the rows are only a spanning set of those, for rank
    (see ``_relation_matrix``): each configuration's longest row, the last
    of equals, is left out, and rows are deduplicated up to sign, each kept
    with its least column positive.
    """
    rows: dict = {}
    for matching in matchings:
        m = len(matching)
        for q in range(m):
            if matching[q] != (q + 1) % m:
                continue
            config = _configuration_rows(matching, q, index)
            if spanning and config:
                del config[max(range(len(config)), key=lambda k: (len(config[k]), k))]
                config = [key if not key or key[0][1] > 0
                          else tuple([(i, -c) for i, c in key]) for key in config]
            for key in config:
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

    Framed columns are the canonical basis.  Unframed columns are the
    classes as generated with no isolated chord (no gap of 1), with no
    diagram built; index holds every rotation of those alone, and a key
    missing from it is a column that 1T deletes, which the rows drop.

    The rows are a spanning set of the 4T rows, by three facts.

    (a) Unframed generators need exactly one isolated chord.  Let the
    moving chord (q, p) and another chord (u, u + 1) be isolated.  p is put
    just before or after an endpoint of the fixed chord, so it lands
    between u and u + 1 only when the fixed chord is (u, u + 1) itself,
    and then its two terms there cancel.  Every term left has (u, u + 1)
    isolated, a deleted column, so every row of such a generator is empty.

    (b) One row per configuration is spanned by the others.  A
    configuration is one generator with its moving endpoint p, over every
    fixed chord.  The fixed chords' endpoints are every x on the circle
    without p except q, so the rows sum to the sum over those x of "p just
    before x" less "p just after x".  Each place on that circle is just
    before one endpoint and just after another, so the sum over all x is
    zero and the sum without q is "p just after q" less "p just before q".
    Those two are the same matching, the chord (p, q) sitting between the
    same two neighbours, so the rows sum to zero, also after deleting
    columns.  Leaving out one row of every configuration (its longest)
    keeps the span, since each left out row is minus the sum of the
    configuration's other rows, which stay.

    (c) A row and its negative span the same line, so rows are kept once
    up to sign.
    """
    classes = ([_gaps(diagram.matching) for diagram in enumerate_diagrams(n)]
               if kind == "framed" else _least_gap_rotations(n))
    generators = classes
    if kind == "unframed":
        generators = [gaps for gaps in classes if gaps.count(1) == 1]
        classes = [gaps for gaps in classes if 1 not in gaps]
    index = _class_index(classes)
    matchings = [tuple([(p + g) % (2 * n) for p, g in enumerate(gaps)])
                 for gaps in generators]
    return _four_term_rows(matchings, index, spanning=True), index, len(classes)


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
    target = {index.get(bytes(_gaps(d.matching)), -1): coeff
              for d, coeff in vector.items()}
    target.pop(-1, None)  # a column that 1T deletes
    return in_row_span(rows, target)
