"""Exact linear algebra over the rationals.

Dense helpers use plain Fraction arithmetic.  The rank routine for relation
matrices works on sparse primitive integer rows: it pivots on a shortest
row and updates only the rows that meet the pivot column, dividing each by
its content to keep entries small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity_matrix(n: int) -> list:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f == 0:
                continue
            bk = b[k]
            row = out[i]
            for j in range(cols):
                if bk[j] != 0:
                    row[j] += f * bk[j]
    return out

def mat_sub(a, b) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b) -> list:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def is_symmetric(a) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def determinant(a) -> Fraction:
    """Determinant by exact elimination with partial pivoting."""
    n = len(a)
    mat = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for i in range(col + 1, n):
            if mat[i][col] != 0:
                f = mat[i][col] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return det


def mat_inv(a) -> list:
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(a)
    mat = [[Fraction(x) for x in row] + ident_row
           for row, ident_row in zip(a, identity_matrix(n))]
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return [row[n:] for row in mat]


def solve_in_span(vectors, target):
    """Coefficients expressing target in the span of vectors, or None.

    vectors: list of equal-length coordinate sequences assumed linearly
    independent; target: same length.  Returns a list of Fractions c with
    sum(c_k * vectors[k]) == target, or None when target is outside the span.
    """
    k = len(vectors)
    length = len(target)
    if k == 0:
        return [] if all(Fraction(x) == 0 for x in target) else None
    # augmented system: columns are the vectors, last column the target
    rows = [[Fraction(vectors[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(length)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, length) if rows[i][col] != 0), None)
        if piv is None:
            raise ValueError("spanning vectors are linearly dependent")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(length):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, length):
        if rows[i][k] != 0:
            return None
    return [rows[j][k] for j in range(k)]


def form_signature(matrix):
    """(n_plus, n_minus) of a symmetric matrix by congruence diagonalization.

    Degenerate directions contribute to neither count, so a nondegenerate
    form has n_plus + n_minus == len(matrix).
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    plus = minus = 0
    active = list(range(n))
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in active for j in active if j > i and m[i][j] != 0),
                None,
            )
            if pair is None:
                break
            i, j = pair
            # e_i <- e_i + e_j turns the hyperbolic pair into a usable pivot
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        val = m[piv][piv]
        if val > 0:
            plus += 1
        else:
            minus += 1
        active.remove(piv)
        for i in active:
            if m[i][piv] != 0:
                f = m[i][piv] / val
                for k in range(n):
                    m[i][k] -= f * m[piv][k]
                for k in range(n):
                    m[k][i] -= f * m[k][piv]
    return plus, minus


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
    while active:
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
