"""Four-term and one-term relation spaces and quotient dimensions."""

import random
import time
from fractions import Fraction

import pytest

import oracles
from chordweight import (
    ChordDiagram,
    RelationSet,
    enumerate_diagrams,
    four_term_relations,
    four_term_vector,
    in_relation_span,
    one_term_relations,
    quotient_dimension,
)
import chordweight.diagram_space
from chordweight.diagram_space import (
    KINDS,
    _class_index,
    _configuration_rows,
    _four_term_rows,
    _gaps,
    _reinsert,
    _relation_matrix,
    _slot_table,
)
from chordweight.diagrams import _least_gap_rotations
from chordweight.formal import FormalSum

FRAMED_DIMS = (1, 1, 2, 3, 6)
UNFRAMED_DIMS = (1, 0, 1, 1, 3)


def test_four_term_vector_shape():
    """Each relation is an alternating sum of four degree-n diagrams."""
    for vec in four_term_relations(3):
        assert vec  # the zero vector is never emitted
        degrees = {d.n for d, _ in vec.items()}
        assert degrees == {3}
        assert sum(c for _, c in vec.items()) == 0  # signs +1 -1 +1 -1
        assert all(abs(c) <= 2 for _, c in vec.items())


@pytest.mark.parametrize("n", range(6))
def test_four_term_relations_are_the_distinct_four_term_vectors(n):
    def key(vec):
        return frozenset(vec.items())

    expected = set()
    for d in enumerate_diagrams(n):
        for u in range(n):
            for v in range(n):
                if u != v:
                    for endpoint in (0, 1):
                        vec = four_term_vector(d, u, v, endpoint)
                        if vec:
                            expected.add(key(vec))
    relations = four_term_relations(n)
    assert len(relations) == len(expected)
    assert {key(vec) for vec in relations} == expected


def row_set(rows):
    return {tuple(sorted(row.items())) for row in rows}


def basis_index(basis):
    return _class_index([_gaps(d.matching) for d in basis])


def gap_matching(gaps):
    m = len(gaps)
    return tuple((p + g) % m for p, g in enumerate(gaps))


def canonical_rows(basis):
    """4T rows over basis positions, built from the canonical matchings."""
    return _four_term_rows([d.matching for d in basis], basis_index(basis))


@pytest.mark.parametrize("n", range(7))
def test_four_term_rows_match_generation_from_every_argument(n):
    """Building each relation once keeps exactly the reference's rows."""
    basis = enumerate_diagrams(n)
    rows = canonical_rows(basis)
    assert len(row_set(rows)) == len(rows)  # no row repeated
    assert row_set(rows) == row_set(oracles.four_term_rows_all(basis))


@pytest.mark.parametrize("n", range(2, 6))
def test_swap_built_slot_tables_match_reinsertion(n):
    """Every slot table equals one re-inserting p at each slot and keying it afresh."""
    basis = enumerate_diagrams(n)
    index = basis_index(basis)
    by_key = {oracles.class_key(d.matching): i for i, d in enumerate(basis)}
    tables = 0
    for diagram in basis:
        matching = diagram.matching
        m = len(matching)
        for p in range(m):
            if matching[p - 1] != p:  # the chord (p - 1, p) is not isolated
                continue
            seq = [x for x in range(m) if x != p]
            expected = [by_key[oracles.class_key(_reinsert(matching, p, seq, t))]
                        for t in range(m)]
            assert _slot_table(matching, p, index) == expected
            tables += 1
    assert tables >= sum(d.has_isolated_chord for d in basis) > 0


def test_index_holds_every_rotation_of_every_basis_diagram():
    for n in range(5):
        basis = enumerate_diagrams(n)
        index = basis_index(basis)
        for orbit in oracles.rotation_orbits(n):
            (i,) = {index[bytes((q - p) % (2 * n) for p, q in enumerate(mat))]
                    for mat in orbit}
            assert basis[i] in {ChordDiagram(mat) for mat in orbit}


def test_four_term_rows_at_degree_6_are_fast():
    """One slot table per isolated chord: degree 6 in well under a second."""
    basis = enumerate_diagrams(6)
    matchings = [d.matching for d in basis]
    index = basis_index(basis)
    start = time.perf_counter()
    rows = _four_term_rows(matchings, index)
    elapsed = time.perf_counter() - start
    assert len(rows) == 4610
    assert elapsed < 0.5, f"_four_term_rows(6) took {elapsed:.2f} s"


@pytest.mark.parametrize("n", range(7))
def test_gap_class_rows_are_the_canonical_rows_relabelled(n):
    """Rows over the enumerator's classes, mapped to basis positions, are the basis rows."""
    basis = enumerate_diagrams(n)
    classes = _least_gap_rotations(n)
    position = {d: i for i, d in enumerate(basis)}
    relabel = [position[ChordDiagram(gap_matching(gaps))] for gaps in classes]
    rows = _four_term_rows([gap_matching(gaps) for gaps in classes], _class_index(classes))
    assert len(row_set(rows)) == len(rows)
    assert row_set({relabel[c]: v for c, v in row.items()} for row in rows) == \
        row_set(canonical_rows(basis))


@pytest.mark.parametrize("n", range(2, 6))
def test_four_term_rows_do_not_depend_on_which_rotation_represents_a_class(n):
    """Shifting every representative reaches an isolated chord at (2n - 1, 0)."""
    classes = _least_gap_rotations(n)
    index = _class_index(classes)
    matchings = [gap_matching(gaps) for gaps in classes]
    expected = row_set(_four_term_rows(matchings, index))
    m = 2 * n
    rng = random.Random(1100 + n)
    shifts = [[r] * len(matchings) for r in range(m)]
    shifts += [[rng.randrange(m) for _ in matchings] for _ in range(3)]
    wrapped = 0
    for shift in shifts:
        rotated = [oracles.rotate_matching(mat, r) for mat, r in zip(matchings, shift)]
        wrapped += sum(mat[m - 1] == 0 for mat in rotated)
        assert row_set(_four_term_rows(rotated, index)) == expected
    assert wrapped > 0


def isolated_starts(matching):
    """Every q whose chord (q, q + 1 mod 2n) is isolated."""
    m = len(matching)
    return [q for q in range(m) if matching[q] == (q + 1) % m]


def configurations(n, index):
    """(matching, q, rows) of every configuration, over one matching per class."""
    for gaps in _least_gap_rotations(n):
        matching = gap_matching(gaps)
        for q in isolated_starts(matching):
            yield matching, q, _configuration_rows(matching, q, index)


def negated(key):
    return tuple((i, -c) for i, c in key)


def oracle_rows(n, kind):
    """The oracle's distinct 4T rows over basis positions, 1T columns deleted
    for unframed, as a set of sorted item tuples."""
    basis = enumerate_diagrams(n)
    deleted = {i for i, d in enumerate(basis) if d.has_isolated_chord}
    rows = set()
    for row in oracles.four_term_rows_all(basis):
        key = tuple(sorted((i, c) for i, c in row.items()
                           if kind == "framed" or i not in deleted))
        if key:
            rows.add(key)
    return rows


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(2, 7))
def test_rows_of_each_configuration_sum_to_zero(n, kind):
    """Fact (b): over every fixed chord, a configuration's full rows cancel.

    The unframed index leaves out the 1T columns, so there the sum is taken
    after deleting them.
    """
    _, index, _ = _relation_matrix(n, kind)
    count = 0
    for matching, q, rows in configurations(n, index):
        total = {}
        for key in rows:
            for i, c in key:
                total[i] = total.get(i, 0) + c
        assert not any(total.values()), (matching, q)
        count += 1
    assert count > 0


@pytest.mark.parametrize("n", range(2, 6))
def test_four_term_vectors_over_every_fixed_chord_sum_to_zero(n):
    """Fact (b) from ``four_term_vector``: it holds for any moving endpoint."""
    for diagram in enumerate_diagrams(n):
        for moving in range(n):
            for endpoint in (0, 1):
                total = FormalSum()
                for fixed in range(n):
                    if fixed != moving:
                        total = total + four_term_vector(diagram, moving, fixed, endpoint)
                assert not total, (diagram, moving, endpoint)


@pytest.mark.parametrize("n", range(2, 7))
def test_unframed_generators_with_two_isolated_chords_give_empty_rows(n):
    """Fact (a): another isolated chord stays isolated in every term."""
    _, index, _ = _relation_matrix(n, "unframed")
    generators = 0
    for matching, q, rows in configurations(n, index):
        if len(isolated_starts(matching)) >= 2:
            assert rows == [()] * (n - 1), (matching, q)
            generators += 1
    assert generators > 0
    for diagram in enumerate_diagrams(n):
        starts = isolated_starts(diagram.matching)
        if len(starts) < 2:
            continue
        for q in starts:
            (moving,) = [k for k, chord in enumerate(diagram.chords) if q in chord]
            for endpoint in (0, 1):
                for fixed in range(n):
                    if fixed != moving:
                        vector = four_term_vector(diagram, moving, fixed, endpoint)
                        assert all(d.has_isolated_chord for d, _ in vector.items())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(7))
def test_rank_rows_are_distinct_four_term_rows_up_to_sign(n, kind):
    """Fact (c), and every row ranked is +- a 4T row of the oracle.

    With the dimension tests, which give both row sets the same rank, the
    ranked rows span the 4T relations of each kind.
    """
    basis = enumerate_diagrams(n)
    position = {d: i for i, d in enumerate(basis)}
    rows, index, columns = _relation_matrix(n, kind)
    relabel = {i: position[ChordDiagram(gap_matching(list(key)))]
               for key, i in index.items()}
    assert len(set(relabel.values())) == len(set(relabel)) == columns
    expected = oracle_rows(n, kind)
    signed = set()
    for row in rows:
        key = tuple(sorted(row.items()))
        relabelled = tuple(sorted((relabel[i], c) for i, c in key))
        assert relabelled in expected or negated(relabelled) in expected, relabelled
        signed |= {key, negated(key)}
    assert len(signed) == 2 * len(rows)  # no row repeated, up to sign
    for matching, q, config in configurations(n, index):
        left_out = [key for key in config if key and key not in signed]
        assert len(left_out) <= 1, (matching, q)  # only one row per configuration


def test_unframed_rank_rows_need_one_slot_table_per_generator(monkeypatch):
    """At degree 6, 329 of the 980 isolated chords have no other beside them."""
    calls = []

    def counting(*args):
        calls.append(args)
        return _slot_table(*args)

    monkeypatch.setattr(chordweight.diagram_space, "_slot_table", counting)
    _relation_matrix(6, "unframed")
    assert len(calls) == 329
    calls.clear()
    _relation_matrix(6, "framed")
    assert len(calls) == 980


@pytest.mark.parametrize("n", range(7))
def test_unframed_dimension_matches_four_term_plus_one_term_rows(n):
    """Deleting the 1T columns gives the rank of 4T rows with 1T rows appended."""
    basis = enumerate_diagrams(n)
    direct = oracles.quotient_dimension_by_rows(basis, canonical_rows(basis), "unframed")
    assert quotient_dimension(n, "unframed") == direct


@pytest.mark.parametrize("kind", ["framed", "unframed"])
@pytest.mark.parametrize("n", range(6))
def test_in_relation_span_matches_two_rank_oracle(n, kind):
    """Seeded combinations of relations, some pushed off the span by one diagram."""
    basis = enumerate_diagrams(n)
    rows = oracles.relation_rows(basis, canonical_rows(basis), kind)
    rng = random.Random(31 * n + len(kind))
    verdicts = set()
    for trial in range(12):
        vector = {}
        for row in rng.sample(rows, min(len(rows), rng.randint(1, 4))):
            f = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
            for i, c in row.items():
                vector[i] = vector.get(i, 0) + f * c
        if trial % 2:
            i = rng.randrange(len(basis))
            vector[i] = vector.get(i, 0) + rng.choice([-1, 1, Fraction(1, 3)])
        vector = {i: c for i, c in vector.items() if c}
        expected = oracles.in_span_by_two_ranks(rows, vector)
        formal = FormalSum({basis[i]: c for i, c in vector.items()})
        assert in_relation_span(formal, kind) == expected
        verdicts.add(expected)
    if n >= 2:
        assert verdicts == {True, False}


def test_four_term_vector_arguments_checked():
    d = ChordDiagram.from_code("ABAB")
    with pytest.raises(ValueError):
        four_term_vector(d, 0, 0, 0)  # moving chord equals fixed chord
    with pytest.raises(ValueError):
        four_term_vector(d, 0, 1, 2)  # endpoint index out of range
    with pytest.raises(ValueError):
        four_term_vector(d, 0, 5, 0)  # no such chord


def test_no_relations_below_two_chords():
    assert list(four_term_relations(0)) == []
    assert list(four_term_relations(1)) == []


def test_one_term_relations():
    singles = list(one_term_relations(1))
    assert len(singles) == 1
    assert dict(singles[0].items())[ChordDiagram.from_code("AA")] == 1
    for vec in one_term_relations(3):
        assert len(vec) == 1
        (diagram, coeff), = vec.items()
        assert coeff == 1
        assert diagram.has_isolated_chord


@pytest.mark.parametrize("n", range(5))
def test_quotient_dimensions_match_frozen_table(n):
    assert quotient_dimension(n, "framed") == FRAMED_DIMS[n]
    assert quotient_dimension(n, "unframed") == UNFRAMED_DIMS[n]


def test_quotient_dimensions_checked_by_the_benchmark():
    assert quotient_dimension(6, "framed") == 19
    assert quotient_dimension(5, "unframed") == 4


def test_framed_dimensions_are_sums_of_unframed_ones():
    """A = A^r (x) Q[theta]: framed_n = sum over j <= n of unframed_j.

    ``dims`` computes framed dimensions as that sum, while
    ``quotient_dimension(n, "framed")`` eliminates the framed 4T rows over
    the canonical basis; both are checked against the oracle's elimination.
    """
    unframed = [quotient_dimension(j, "unframed") for j in range(7)]
    assert unframed[6] == 9  # 19 - 10, Bar-Natan's table
    for n in range(7):
        basis = enumerate_diagrams(n)
        direct = oracles.quotient_dimension_by_rows(basis, canonical_rows(basis), "framed")
        assert quotient_dimension(n, "framed") == sum(unframed[:n + 1]) == direct


def test_quotient_dimension_against_dense_oracle():
    for n in range(6):
        basis = enumerate_diagrams(n)
        index = {d: i for i, d in enumerate(basis)}

        def dense_rows(vectors):
            rows = []
            for vec in vectors:
                row = [Fraction(0)] * len(basis)
                for d, c in vec.items():
                    row[index[d]] = c
                rows.append(row)
            return rows

        four = list(four_term_relations(n))
        rank4 = oracles.dense_rank(dense_rows(four), len(basis))
        assert quotient_dimension(n, "framed") == len(basis) - rank4
        both = four + list(one_term_relations(n))
        rank41 = oracles.dense_rank(dense_rows(both), len(basis))
        assert quotient_dimension(n, "unframed") == len(basis) - rank41


def test_quotient_dimension_rejects_unknown_kind():
    with pytest.raises(ValueError):
        quotient_dimension(2, "oriented")


def test_unknown_kind_is_rejected_before_enumerating(monkeypatch):
    def refuse(n, *args):
        raise AssertionError(f"enumerated degree {n} before checking the kind")

    monkeypatch.setattr(chordweight.diagram_space, "enumerate_diagrams", refuse)
    monkeypatch.setattr(chordweight.diagram_space, "_least_gap_rotations", refuse)
    with pytest.raises(ValueError, match="kind must be one of"):
        quotient_dimension(7, "bogus")
    vector = FormalSum.single(ChordDiagram.from_code("ABCDEFGABCDEFG"))
    with pytest.raises(ValueError, match="kind must be one of"):
        in_relation_span(vector, "bogus")


def test_relation_vectors_lie_in_span():
    for vec in four_term_relations(3):
        assert in_relation_span(vec, "framed")
        assert in_relation_span(vec, "unframed")
    for vec in one_term_relations(2):
        assert not in_relation_span(vec, "framed")
        assert in_relation_span(vec, "unframed")


def test_span_membership_edge_cases():
    assert in_relation_span(FormalSum(), "framed")
    single = FormalSum.single(ChordDiagram.from_code("ABAB"))
    assert not in_relation_span(single, "framed")
    mixed = FormalSum.single(ChordDiagram.from_code("AA")) + FormalSum.single(
        ChordDiagram.from_code("ABAB")
    )
    with pytest.raises(ValueError):
        in_relation_span(mixed, "framed")


def test_unframed_quotient_kills_theta():
    theta = FormalSum.single(ChordDiagram.from_code("AA"))
    assert not in_relation_span(theta, "framed")
    assert in_relation_span(theta, "unframed")


def test_relation_set_is_an_immutable_value():
    theta = ChordDiagram.from_code("AA")
    relations = one_term_relations(1)
    vector = FormalSum.single(theta)
    assert relations == RelationSet(n=1, kind="1T", vectors=(vector,))
    assert relations != RelationSet(1, "4T", (vector,))
    assert repr(relations) == f"RelationSet(n=1, kind='1T', vectors=({vector!r},))"
    with pytest.raises(TypeError):
        hash(relations)  # formal sums are unhashable
    assert hash(RelationSet(0, "4T", ())) == hash((0, "4T", ()))
    with pytest.raises(AttributeError):
        relations.n = 2
    assert relations.n == 1
