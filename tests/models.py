"""Seeded curvature models and representations for the exact-equality tests.

Space forms in every signature, complex projective space with the
Fubini-Study curvature, products of models, and the same models in a dense
unimodular basis.  Changes of basis are computed here in plain Fraction
arithmetic, one tensor slot at a time; the package only builds the objects.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from chordweight import CurvatureModel, constant_curvature

import oracles


def signature_metric(d: int, negatives: int):
    """diag(-1, ..., -1, 1, ..., 1) with ``negatives`` minus signs."""
    return [[Fraction(-1 if i == j < negatives else int(i == j)) for j in range(d)]
            for i in range(d)]


def space_form(d: int, kappa, negatives: int = 0) -> CurvatureModel:
    return constant_curvature(d, signature_metric(d, negatives), kappa)


def dense_unimodular(n: int, rng: random.Random):
    """L @ U with unit triangular factors whose off-diagonal entries are in -1..1."""
    lower = [[int(i == j) if i <= j else rng.randint(-1, 1) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) if i >= j else rng.randint(-1, 1) for j in range(n)]
             for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _transform_slot(T, slot: int, M, d: int):
    """Contract one slot of the rank-4 array T with M: new j = sum_i M[i][j] T[..i..]."""
    out = {}
    for key in _keys(d):
        total = Fraction(0)
        for i in range(d):
            if M[i][key[slot]]:
                total += M[i][key[slot]] * T[key[:slot] + (i,) + key[slot + 1:]]
        out[key] = total
    return out


def _keys(d):
    return [(a, b, c, x) for a in range(d) for b in range(d)
            for c in range(d) for x in range(d)]


def rebase(model: CurvatureModel, P) -> CurvatureModel:
    """The same model in the basis e'_j = sum_i P[i][j] e_i."""
    d = model.dim
    Pinv = oracles.dense_inverse(P)
    T = {key: model.entries.get(key, 0) for key in _keys(d)}
    for slot in range(3):
        T = _transform_slot(T, slot, P, d)
    # the output slot transforms contravariantly: x' = sum_x Pinv[x'][x] x
    T = _transform_slot(T, 3, [list(col) for col in zip(*Pinv)], d)
    metric = [[sum(P[i][a] * model.metric[i][j] * P[j][b]
                   for i in range(d) for j in range(d)) for b in range(d)]
              for a in range(d)]
    riemann = [[[[T[a, b, c, x] for x in range(d)] for c in range(d)]
                for b in range(d)] for a in range(d)]
    return CurvatureModel(metric, riemann)


def complex_projective(n: int) -> CurvatureModel:
    """CP^n with the Fubini-Study curvature on R^(2n), J e_(2k) = e_(2k+1).

    R(X,Y)Z = 1/4 [g(Y,Z)X - g(X,Z)Y + g(JY,Z)JX - g(JX,Z)JY + 2g(X,JY)JZ].
    """
    d = 2 * n
    J = [[0] * d for _ in range(d)]  # J[x][a] is the e_x component of J e_a
    for k in range(n):
        J[2 * k + 1][2 * k], J[2 * k][2 * k + 1] = 1, -1
    # with g = I: g(e_i, e_j) = [i == j], g(J e_i, e_j) = J[j][i]
    riemann = [[[[Fraction(int(b == c) * int(x == a) - int(a == c) * int(x == b)
                           + J[c][b] * J[x][a] - J[c][a] * J[x][b]
                           + 2 * J[a][b] * J[x][c], 4)
                  for x in range(d)] for c in range(d)] for b in range(d)]
                for a in range(d)]
    return CurvatureModel(signature_metric(d, 0), riemann)


def product_model(first: CurvatureModel, second: CurvatureModel) -> CurvatureModel:
    """The product model on the direct sum of the tangent spaces."""
    d = first.dim + second.dim
    metric = [[0] * d for _ in range(d)]
    riemann = [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for part, shift in ((first, 0), (second, first.dim)):
        e = range(part.dim)
        for a, b in itertools.product(e, repeat=2):
            metric[a + shift][b + shift] = part.metric[a][b]
            for c, x in itertools.product(e, repeat=2):
                riemann[a + shift][b + shift][c + shift][x + shift] = (
                    part.entries.get((a, b, c, x), 0))
    return CurvatureModel(metric, riemann)


def sparse_model(d: int, entries: dict) -> CurvatureModel:
    """Identity metric and the curvature entries given as {(a, b, c, x): value}."""
    riemann = [[[[0] * d for _ in range(d)] for _ in range(d)] for _ in range(d)]
    for (a, b, c, x), v in entries.items():
        riemann[a][b][c][x] = v
    return CurvatureModel(signature_metric(d, 0), riemann)
