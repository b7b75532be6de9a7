"""Exact linear algebra helpers."""

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest

import oracles
from models import signature_metric
from chordweight.acceptance import form_signature
from chordweight.linalg import (
    _integer_rows,
    commutator,
    definite,
    full_rank,
    in_row_span,
    mat_inv,
    solve_in_span,
    sparse_rank,
)
from chordweight.sparse import IntegerView


def test_sparse_rank_matches_dense_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        nrows = rng.randint(0, 6)
        ncols = rng.randint(1, 6)
        dense = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                  for _ in range(ncols)] for _ in range(nrows)]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert sparse_rank(sparse) == oracles.dense_rank(dense, ncols)


def _random_sparse_rows(rng, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 7])
        rows.append(row)
    return rows


def _combine(rng, rows, count):
    """An integer combination of `count` rows drawn from rows."""
    out = {}
    for row in rng.sample(rows, min(count, len(rows))):
        k = rng.choice([-3, -2, -1, 1, 2, 4])
        for j, v in row.items():
            out[j] = out.get(j, 0) + k * v
    return {j: v for j, v in out.items() if v}


def _to_dense(rows, ncols):
    return [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]


def test_sparse_rank_on_larger_sparse_matrices():
    """Up to 40 x 30 at about 10% density, with planted dependencies.

    Dependent rows are integer combinations of other rows, duplicates and
    negations; two-term differences of a column pair make rows that cancel
    to zero partway through elimination; some entries are Fractions.
    """
    rng = random.Random(11)
    for trial in range(60):
        ncols = rng.randint(5, 30)
        base = _random_sparse_rows(rng, rng.randint(1, 25), ncols, 0.1)
        rows = list(base)
        for _ in range(rng.randint(0, 8)):
            rows.append(_combine(rng, base, rng.randint(2, 4)))
        for row in rng.sample(base, min(3, len(base))):
            rows.append(dict(row))
            rows.append({j: -v for j, v in row.items()})
        a, b, c = rng.sample(range(ncols), 3)
        rows += [{a: 1, b: -1}, {b: 1, c: -1}, {a: 1, c: -1}]
        if trial % 3 == 0:
            rows = [{j: Fraction(v, rng.randint(1, 6)) for j, v in row.items()}
                    for row in rows]
        rng.shuffle(rows)
        rows = rows[:40]
        assert sparse_rank(rows) == oracles.dense_rank(_to_dense(rows, ncols), ncols)


def test_in_row_span_matches_two_ranks_on_planted_vectors():
    """Combinations of the rows lie in the span; one more random row often does not."""
    rng = random.Random(23)
    verdicts = []
    for trial in range(60):
        ncols = rng.randint(3, 20)
        rows = _random_sparse_rows(rng, rng.randint(0, 15), ncols, 0.15)
        vector = _combine(rng, rows, rng.randint(1, 4))
        if trial % 2:
            for j, v in _random_sparse_rows(rng, 1, ncols, 0.2)[0].items():
                vector[j] = vector.get(j, 0) + Fraction(v, 3)
        vector = {j: v for j, v in vector.items() if v}
        verdicts.append(in_row_span(rows, vector))
        assert verdicts[-1] == oracles.in_span_by_two_ranks(rows, vector)
        if trial % 2 == 0:  # a planted combination
            assert verdicts[-1]
    assert 0 < sum(verdicts) < len(verdicts)


def test_sparse_rank_of_chain_identifications():
    """x0 - x1, x1 - x2, ... cancel one another down to zero rows."""
    rows = [{k: 1, k + 1: -1} for k in range(20)] + [{0: 1, 20: -1}, {5: 2, 15: -2}]
    assert sparse_rank(rows) == 20
    assert sparse_rank(rows + [{3: Fraction(1, 2)}]) == 21


def _fraction_rows(rows):
    """Every entry through Fraction, then cleared to primitive integer rows."""
    cleaned = []
    for row in rows:
        items = {c: Fraction(v) for c, v in row.items() if v != 0}
        if items:
            denom = lcm(*(v.denominator for v in items.values()))
            ints = {c: int(v * denom) for c, v in items.items()}
            g = gcd(*ints.values())
            cleaned.append({c: v // g for c, v in ints.items()})
    return cleaned


@pytest.mark.parametrize("rows", [
    [{0: 2, 1: -4}, {1: 3, 2: 6, 3: 0}],
    [{0: True, 1: False}, {2: -True}],
    [{0: Fraction(1, 2), 1: Fraction(-3, 4)}, {1: Fraction(4, 2), 2: 0}],
    [{0: 0.5, 1: 1.25}, {0: Decimal("0.3"), 3: Decimal("-0.7")}],
    [{0: "1/3", 1: "2"}, {1: "0", 2: "5"}],
    [{0: 1, 1: Fraction(1, 6), 2: 0.25, 3: "3/8", 4: Decimal("1.5"), 5: False}],
    [{0: Fraction(0)}, {}, {1: 0.0, 2: -7}],
])
def test_integer_rows_match_converting_every_entry(rows):
    assert _integer_rows(rows) == _fraction_rows(rows)
    assert all(type(v) is int for row in _integer_rows(rows) for v in row.values())


@pytest.mark.parametrize("row", [{0: "x"}, {0: None}, {0: 1j}, {0: float("nan")},
                                 {0: "0"}])
def test_sparse_rank_rejects_what_fraction_rejects(row):
    with pytest.raises(Exception) as expected:
        _fraction_rows([row])
    with pytest.raises(expected.type):
        sparse_rank([row])


@pytest.mark.parametrize("kind", ["integer", "rational"])
def test_commutator_matches_the_dense_oracle(kind):
    """No pinned run calls ``commutator``, so this is what covers it."""
    rng = random.Random(11)

    def entry():
        value = rng.randint(-3, 3) if rng.random() < 0.6 else 0
        return Fraction(value, rng.randint(1, 4)) if kind == "rational" else value

    for n in range(6):
        for _ in range(8):
            a, b = ([[entry() for _ in range(n)] for _ in range(n)] for _ in range(2))
            got = commutator(a, b)
            assert got == oracles.dense_commutator(a, b)
            assert all(type(v) is Fraction for row in got for v in row)


def test_solve_in_span():
    vecs = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    assert solve_in_span(vecs, [Fraction(3), Fraction(2)]) == [1, 2]
    assert solve_in_span(vecs, [Fraction(0), Fraction(0)]) == [0, 0]
    assert solve_in_span([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None
    assert solve_in_span([], []) == []
    with pytest.raises(ValueError):
        solve_in_span([[Fraction(1)], [Fraction(2)]], [Fraction(1)])


def test_mat_inv():
    """Matrices and inverses are held as rank-2 views."""
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert mat_inv(IntegerView(m, 2), 2) == IntegerView([[1, -1], [-1, 2]], 2)
    empty = IntegerView([], 2)
    assert mat_inv(empty, 0) == empty and full_rank(empty, 0)
    with pytest.raises(ValueError):
        mat_inv(IntegerView([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]], 2), 2)
    # seeded dense Fraction matrices; a third made singular by a planted
    # dependency or a zero row, against the dense inverse and rank oracles
    rng = random.Random(12)
    seen = set()
    for _ in range(80):
        n = rng.randint(1, 7)
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 1 / 3:
            i = rng.randrange(n)
            others = [dict(enumerate(row)) for k, row in enumerate(a) if k != i]
            a[i] = _to_dense([_combine(rng, others, 2)], n)[0]
        full = oracles.dense_rank(a, n) == n
        seen.add(full)
        assert full_rank(IntegerView(a, 2), n) == full
        if full:
            assert mat_inv(IntegerView(a, 2), n) == IntegerView(oracles.dense_inverse(a), 2)
        else:
            with pytest.raises(ValueError, match="singular"):
                mat_inv(IntegerView(a, 2), n)
    assert seen == {True, False}
    big = [[Fraction(rng.randint(-9, 9)) for _ in range(20)] for _ in range(20)]
    assert full_rank(IntegerView(big, 2), 20)
    assert mat_inv(IntegerView(big, 2), 20) == IntegerView(oracles.dense_inverse(big), 2)


def test_form_signature():
    assert form_signature([]) == (0, 0)
    assert form_signature(signature_metric(4, 0)) == (4, 0)
    assert form_signature([[-1, 0], [0, -1]]) == (0, 2)
    assert form_signature([[0, 1], [1, 0]]) == (1, 1)
    assert form_signature([[0, 0], [0, 1]]) == (1, 0)
    # leading minors 2, 3, -1/2: one sign change, so signature (2, 1)
    big = [[2, 1, 0], [1, 2, 1], [0, 1, Fraction(1, 2)]]
    assert form_signature(big) == (2, 1)
    assert form_signature([[4, 2], [2, 0]]) == (1, 1)


def test_definite_is_form_signature_with_one_sign():
    """Random symmetric rational matrices, Gram matrices and their negatives among them."""
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 5)
        if rng.random() < 0.5:  # A^T A: positive definite when A is invertible
            a = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            m = [[sum((a[k][i] * a[k][j] for k in range(n)), Fraction(0))
                  for j in range(n)] for i in range(n)]
            if rng.random() < 0.5:
                m = [[-v for v in row] for row in m]
        else:
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        plus, minus = form_signature(m)
        expected = plus == n or minus == n
        seen.add(expected)
        assert definite(IntegerView(m, 2), n) is expected, m
    assert seen == {True, False}
    assert definite(IntegerView([[0, 1], [1, 0]], 2), 2) is False  # D_1 = 0
    assert definite(IntegerView([[1, 0], [0, 0]], 2), 2) is False  # degenerate
    assert definite(IntegerView(signature_metric(4, 4), 2), 4) is True

