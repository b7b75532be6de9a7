"""Exact linear algebra over the rationals.

Two eliminations, both on sparse integer rows, do the rank and span work.  The
rank routine pivots on a shortest primitive row and updates only the rows
that meet the pivot column, dividing each by its content to keep entries
small.  Row-span membership (the rank is unchanged when the vector is
appended) is read off it.  ``ReducedSpan`` keeps a spanning set as echelon
rows with the combinations that give them, so that many targets are solved
against one elimination and a matrix is inverted by adding its rows.

A square matrix is held, like every exact table, as a rank-2
``IntegerView``: its rows are the view's numerators, grouped by row, so
``full_rank`` (nondegeneracy) ranks them and ``mat_inv`` adds them to one
span and returns the inverse as a view of the span's combinations, with no
``Fraction`` formed; ``definite`` reads a symmetric matrix's leading
principal minors off a fraction-free elimination of the same numerators.
``solve_in_span`` and ``commutator``, the dense commutator of two matrices
formed by ``sparse.contract`` on their views, have no caller in the package;
they stay because the benchmark's tracer (``bench/tracing.py``) resolves
``linalg.solve_in_span`` and ``linalg.commutator`` by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .sparse import IntegerView, contract, dense_array


def commutator(a, b) -> list:
    """ab - ba of two n x n matrices, as n rows of Fractions."""
    x, y = IntegerView(a, 2), IntegerView(b, 2)
    comm = contract("rx", x.nums, "xc", y.nums, "rc")
    contract("rx", y.nums, "xc", x.nums, "rc", comm, -1)
    return [list(row) for row in dense_array(IntegerView.of(comm, x.den * y.den), 2, len(a))]


class ReducedSpan:
    """Span of sparse integer vectors, reduced once to echelon rows.

    Vectors are {column: int} dicts.  Every row holds ``den`` at its pivot
    column and 0 at every other row's pivot, and ``combos[r]`` says which
    combination of the added vectors gives row r.  A target then costs one
    pass over the rows whose pivot it meets, plus an exact residual check.
    """

    def __init__(self):
        self.den = 1
        self.pivots = []
        self.rows = []
        self.combos = []

    def _reduce(self, vec: dict):
        """den * vec less its pivot entries times their rows; the rows' combination."""
        residual = {c: self.den * v for c, v in vec.items()}
        combo = {}
        for pivot, row, comb in zip(self.pivots, self.rows, self.combos):
            w = vec.get(pivot)
            if w:
                for c, v in row.items():
                    residual[c] = residual.get(c, 0) - w * v
                for k, v in comb.items():
                    combo[k] = combo.get(k, 0) + w * v
        return {c: v for c, v in residual.items() if v}, combo

    def coordinates(self, vec: dict):
        """vec's coordinates in the added vectors, as numerators over ``den``.

        None when vec is outside the span.
        """
        residual, combo = self._reduce(vec)
        if residual:
            return None
        return [combo.get(k, 0) for k in range(len(self.rows))]

    def add(self, vec: dict) -> bool:
        """Add vec unless it lies in the span; True when it was added."""
        residual, combo = self._reduce(vec)
        if not residual:
            return False
        # residual = den * vec - sum_r w_r row_r, as a combination of the vectors
        combo = {k: -v for k, v in combo.items()}
        combo[len(self.rows)] = self.den
        pivot = min(residual)
        if residual[pivot] < 0:
            residual = {c: -v for c, v in residual.items()}
            combo = {k: -v for k, v in combo.items()}
        p = residual[pivot]
        # clear the new pivot column from the old rows; every pivot becomes p * den
        for r, (row, comb) in enumerate(zip(self.rows, self.combos)):
            a = row.get(pivot, 0)
            self.rows[r] = _axpy(p, row, -a, residual)
            self.combos[r] = _axpy(p, comb, -a, combo)
        self.rows.append({c: self.den * v for c, v in residual.items()})
        self.combos.append({k: self.den * v for k, v in combo.items()})
        self.pivots.append(pivot)
        self.den *= p
        parts = self.rows + self.combos
        g = gcd(self.den, *(v for vec in parts for v in vec.values()))
        if g != 1:
            self.den //= g
            for vec in parts:
                for c in vec:
                    vec[c] //= g
        return True


def _axpy(s: int, x: dict, t: int, y: dict) -> dict:
    """s * x + t * y without zero entries."""
    out = {c: s * v for c, v in x.items()}
    for c, v in y.items():
        out[c] = out.get(c, 0) + t * v
    return {c: v for c, v in out.items() if v}


def solve_in_span(vectors, target):
    """Coefficients expressing target in the span of vectors, or None.

    vectors: list of equal-length coordinate sequences assumed linearly
    independent; target: same length.  Returns a list of Fractions c with
    sum(c_k * vectors[k]) == target, or None when target is outside the span.
    """
    span = ReducedSpan()
    views = [IntegerView(vec, 1) for vec in vectors]
    for view in views:
        if not span.add(view.nums):
            raise ValueError("spanning vectors are linearly dependent")
    goal = IntegerView(target, 1)
    coords = span.coordinates(goal.nums)
    if coords is None:
        return None
    # the span holds numerators: vector k is view k's entries over its den
    return [Fraction(c * view.den, span.den * goal.den) for c, view in zip(coords, views)]


def _rows(matrix: IntegerView, n: int) -> list:
    """The n rows of a square matrix's view, as new {column: numerator} dicts."""
    rows = [{} for _ in range(n)]
    for (i, j), v in matrix.nums.items():
        rows[i][j] = v
    return rows


def mat_inv(matrix: IntegerView, n: int) -> IntegerView:
    """The exact inverse of an n x n matrix; raises ValueError if it is singular.

    The rows are added to one span.  When they span, every column is a
    pivot, and the combination at pivot j, over ``den``, is row j of the
    inverse.
    """
    span = ReducedSpan()
    for row in _rows(matrix, n):
        if not span.add(row):
            raise ValueError("matrix is singular")
    # row k was added as its numerators, which are its entries times matrix.den
    return IntegerView.of({(j, k): v * matrix.den for j, combo in zip(span.pivots, span.combos)
                           for k, v in combo.items()}, span.den)


def _integer_rows(rows):
    """Clear denominators and common factors row by row; drop zero rows.

    ints and Fractions are taken as they are, since both have a
    denominator; any other entry is converted with Fraction first.
    """
    cleaned = []
    for row in rows:
        items = {c: v if isinstance(v, (int, Fraction)) else Fraction(v)
                 for c, v in row.items() if v != 0}
        if not items:
            continue
        denom = lcm(*[v.denominator for v in items.values()])
        if denom != 1:
            items = {c: v * denom for c, v in items.items()}
        ints = {c: int(v) for c, v in items.items()}
        g = gcd(*ints.values())
        cleaned.append({c: v // g for c, v in ints.items()} if g != 1 else ints)
    return cleaned


def sparse_rank(rows) -> int:
    """Rank of a sparse rational matrix, rows given as {column: value} dicts.

    Pivot-local fraction-free elimination over primitive integer rows.  A
    column -> rows index finds the rows that meet each pivot column.  The
    pivot is a shortest remaining row (Markowitz), at its column met by the
    fewest other rows, so singleton and two-term rows go first.  Only the
    rows containing the pivot column change, each by
    row <- d*row - f*pivot_row with d, f the pivot and row entries divided
    by their gcd, followed by division by the row's content.  Every step is
    an invertible row operation over Q, so the count of pivots is the rank.
    """
    active = dict(enumerate(_integer_rows(rows)))
    col_rows: dict = {}
    by_len: dict = {}
    for r, row in active.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
        by_len.setdefault(len(row), set()).add(r)
    rank = 0
    while any(by_len.values()):
        length = min(k for k, bucket in by_len.items() if bucket)
        r = by_len[length].pop()
        pivot = active.pop(r)
        col = min(pivot, key=lambda c: len(col_rows[c]))
        for c in pivot:
            col_rows[c].discard(r)
        d = pivot[col]
        rank += 1
        for t in col_rows.pop(col):
            row = active[t]
            by_len[len(row)].discard(t)
            f = row.pop(col)
            g = gcd(d, f)
            dd, ff = d // g, f // g
            if dd != 1:
                for c in row:
                    row[c] *= dd
            for c, v in pivot.items():
                if c == col:
                    continue
                val = row.get(c, 0) - ff * v
                if val:
                    if c not in row:
                        col_rows[c].add(t)
                    row[c] = val
                elif c in row:
                    del row[c]
                    col_rows[c].discard(t)
            if not row:
                del active[t]
                continue
            content = gcd(*row.values())
            if content != 1:
                for c in row:
                    row[c] //= content
            by_len.setdefault(len(row), set()).add(t)
    return rank


def full_rank(matrix: IntegerView, n: int) -> bool:
    """Whether an n x n matrix, held as a view, is nondegenerate."""
    return sparse_rank(_rows(matrix, n)) == n


def definite(matrix: IntegerView, n: int) -> bool:
    """Whether a symmetric n x n matrix, held as a view, is positive or negative definite.

    By Sylvester's criterion its leading principal minors D_1, ..., D_n are
    then all nonzero, and the ratios D_k / D_(k-1) (with D_0 = 1), the
    pivots of a symmetric elimination, all have one sign.  Fraction-free
    (Bareiss) elimination with no row exchange leaves D_k as its k-th
    pivot, so the minors are read off the numerators; those are the
    matrix's entries times ``den`` > 0, which scales D_k by den^k and keeps
    every sign.
    """
    m = [[matrix.nums.get((i, j), 0) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0 or (pivot * prev > 0) != (m[0][0] > 0):
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = pivot
    return True


def in_row_span(rows: list, vector: dict) -> bool:
    """Whether the sparse vector lies in the span of rows: appending it keeps the rank."""
    return sparse_rank([*rows, vector]) == sparse_rank(rows)
