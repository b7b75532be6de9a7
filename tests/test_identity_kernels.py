"""The four identity checks and the curvature-model checks against their
dense reference loops.

Each check must return exactly the (ok, witness) of its oracle in
tests/oracles.py: the same verdict and the same lexicographically least
witness.  Inputs are seeded and cover passing and failing cases, entries
with mixed denominators, and dense changes of basis of the builtin
algebras and space forms.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import models
import oracles
from chordweight import (
    CurvatureModel,
    MetrizedLieAlgebra,
    Representation,
    WeightTensor,
    check_exchange_identity,
    check_four_term,
    check_parallel_four_term,
    constant_curvature,
    sl2_standard,
    so_standard,
)
from chordweight.cli import _lie_identity_rows
from chordweight.linalg import mat_inv

VALUES = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3),
          Fraction(2, 3), Fraction(3))
SEEDS = range(12)


def random_array(rng, shape, density):
    if len(shape) == 1:
        return [rng.choice(VALUES) if rng.random() < density else Fraction(0)
                for _ in range(shape[0])]
    return [random_array(rng, shape[1:], density) for _ in range(shape[0])]


def dense_basis(rng, n):
    """A random invertible n x n matrix with entries such as 1/2 and -1/3."""
    while True:
        P = [[rng.choice(VALUES) for _ in range(n)] for _ in range(n)]
        try:
            return P, mat_inv([list(row) for row in P])
        except ValueError:
            continue


def rebase_representation(rep, rng):
    """New algebra basis e'_i = sum_a P[a][i] e_a, new module basis columns of Q."""
    m, d = rep.algebra.dim, rep.dimV
    P, Pinv = dense_basis(rng, m)
    Q, Qinv = dense_basis(rng, d)
    f, B = rep.algebra.brackets, rep.algebra.form
    brackets = [[[sum(P[a][i] * P[b][j] * f[a][b][c] * Pinv[k][c]
                      for a in range(m) for b in range(m) for c in range(m))
                  for k in range(m)] for j in range(m)] for i in range(m)]
    form = [[sum(P[a][i] * B[a][b] * P[b][j] for a in range(m) for b in range(m))
             for j in range(m)] for i in range(m)]
    matrices = []
    for i in range(m):
        M = [[sum(P[a][i] * rep.matrices[a][r][c] for a in range(m))
              for c in range(d)] for r in range(d)]
        matrices.append([[sum(Qinv[r][x] * M[x][y] * Q[y][c]
                              for x in range(d) for y in range(d))
                          for c in range(d)] for r in range(d)])
    return Representation(MetrizedLieAlgebra(brackets, form), matrices)


def to_lists(array):
    if isinstance(array, (list, tuple)):
        return [to_lists(sub) for sub in array]
    return array


def perturbed(array, rng, images=lambda key: [(key, 1)]):
    """A copy of a nested array with one random entry changed by delta.

    ``images(key)`` lists the (key, sign) pairs changed by sign * delta, so
    a symmetry of the array can be kept.
    """
    copy = to_lists(array)
    shape = []
    sub = copy
    while isinstance(sub, list):
        shape.append(len(sub))
        sub = sub[0]
    key = tuple(rng.randrange(n) for n in shape)
    delta = rng.choice(VALUES)
    for k, sign in set(images(key)):
        row = copy
        for i in k[:-1]:
            row = row[i]
        row[k[-1]] += sign * delta
    return copy


def leg_swap(key):
    a, b, c, d = key
    return [(key, 1), ((c, d, a, b), 1)]


def antisymmetric(key):
    i, j, k = key
    return [(key, 1), ((j, i, k), -1)]


def tensor_inputs(seed):
    """Seeded tensors: random, perturbed passing ones, and dense-basis passing ones."""
    rng = random.Random(seed)
    d = rng.choice((2, 3))
    density = rng.choice((0.05, 0.2, 1.0))
    raw = random_array(rng, [d] * 4, density)
    passing = [
        rebase_representation(so_standard(3), rng).weight_tensor(),
        rebase_representation(sl2_standard(), rng).weight_tensor(),
        models.rebase(constant_curvature(3, kappa=Fraction(1, 3)),
                      dense_basis(rng, 3)[0]).weight_tensor(),
    ]
    out = [WeightTensor(d, oracles.array_items(raw)),
           WeightTensor(d, oracles.array_items(perturbed(raw, rng, leg_swap)))]
    out += passing
    out += [WeightTensor(t.dim, oracles.array_items(
                perturbed(oracles.dense_tensor(t), rng, leg_swap)))
            for t in passing]
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_four_term_matches_dense_oracle(seed):
    verdicts = []
    for tensor in tensor_inputs(seed):
        got = check_four_term(tensor)
        assert got == oracles.four_term(oracles.dense_tensor(tensor), tensor.dim)
        verdicts.append(got[0])
    assert verdicts[2:5] == [True, True, True]
    assert False in verdicts


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_four_term_matches_dense_oracle(seed):
    rng = random.Random(seed)
    metric = [[Fraction(1), 0, 0], [0, Fraction(-1, 2), 0], [0, 0, Fraction(3)]]
    space_form = models.rebase(constant_curvature(3, metric, Fraction(-2, 3)),
                               dense_basis(rng, 3)[0])
    inputs = [
        space_form,
        CurvatureModel(space_form.metric,
                       perturbed(space_form.riemann, rng)),
        CurvatureModel(metric, random_array(rng, [3] * 4, rng.choice((0.05, 0.3)))),
        models.rebase(constant_curvature(2), dense_basis(rng, 2)[0]),
    ]
    verdicts = []
    for model in inputs:
        got = check_parallel_four_term(model)
        assert got == oracles.parallel_four_term(model.riemann, model.dim)
        verdicts.append(got[0])
    assert verdicts[0] and verdicts[3]
    assert not verdicts[1]


def block_tensor(seed):
    """so(3)'s rho(C) on indices 0-2 and a seeded leg-symmetric block on 3-4.

    A product in the four-term sum pairs entries of one block only, so the
    so(3) block passes on its own: the first slices, a = 0, 1, 2, form
    products that cancel, and every failure has a >= 3.
    """
    rng = random.Random(seed)
    entries = dict(so_standard(3).weight_tensor().entries)
    for a, b, c, d in itertools.product((3, 4), repeat=4):
        if (a, b) <= (c, d):
            entries[a, b, c, d] = entries[c, d, a, b] = rng.choice(VALUES)
    return WeightTensor(5, entries.items())


@pytest.mark.parametrize("seed", range(3))
def test_four_term_witness_in_a_later_slice(seed):
    tensor = block_tensor(seed)
    got = check_four_term(tensor)
    assert got == oracles.four_term(oracles.dense_tensor(tensor), 5)
    assert not got[0] and got[1][0] >= 3


def test_parallel_four_term_witness_in_a_later_slice():
    """A parallel space form on indices 0-1 times a valid Kulkarni-Nomizu model
    on 2-4 that is not parallel: every failure of the product has a >= 2."""
    h = [[1, 0, 0], [0, 2, 0], [0, 0, -1]]
    model = models.product_model(models.space_form(2, Fraction(-1, 2)),
                                 models.kulkarni_nomizu(models.signature_metric(3, 1), h))
    assert model.validate() == (True, None)
    got = check_parallel_four_term(model)
    assert got == oracles.parallel_four_term(model.riemann, 5)
    assert not got[0] and got[1][0] >= 2


def test_parallel_four_term_holds_one_slice_at_a_time():
    """The dense 8-dimensional space form passes with its 6-index sum never
    held whole; a table of the whole sum peaked at 16 MiB."""
    model = models.rebase(constant_curvature(8), models.dense_unimodular(8, random.Random(1)))
    tracemalloc.start()
    try:
        assert check_parallel_four_term(model) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


def bianchi_breaking(key):
    a, b, c, x = key
    return [(key, 1), ((b, a, c, x), -1)]


def pair_breaking(key):
    """Keeps antisymmetry and Bianchi: R(e_a, e_b)e_a gains a multiple of e_x."""
    a, b, _, x = key
    return [((a, b, a, x), 1), ((b, a, a, x), -1)]


def model_inputs(seed):
    """Seeded curvature models of dimension 1 to 5, passing and failing."""
    rng = random.Random(seed)
    d = rng.randrange(1, 6)
    metric = [[rng.choice(VALUES) if i == j else 0 for j in range(d)]
              for i in range(d)]
    space_form = models.rebase(constant_curvature(d, metric, rng.choice(VALUES)),
                               dense_basis(rng, d)[0])
    g, R = space_form.metric, space_form.riemann
    yield space_form
    yield CurvatureModel(g, perturbed(R, rng))
    yield CurvatureModel(g, perturbed(R, rng, bianchi_breaking))
    yield CurvatureModel(g, perturbed(R, rng, pair_breaking))
    yield CurvatureModel(g, random_array(rng, [d] * 4, rng.choice((0.02, 0.2))))
    yield CurvatureModel(perturbed(g, rng), R)
    yield CurvatureModel([[g[i][j] if i and j else 0 for j in range(d)]
                          for i in range(d)], R)


@pytest.mark.parametrize("seed", SEEDS)
def test_model_validate_matches_dense_oracle(seed):
    for model in model_inputs(seed):
        assert model.validate() == oracles.curvature_model(
            model.metric, model.riemann, model.dim)


def test_model_inputs_reach_every_verdict():
    seen = set()
    for seed in SEEDS:
        for model in model_inputs(seed):
            ok, why = model.validate()
            seen.add("pass" if ok else why[0])
    assert seen == {"pass", "antisymmetry", "bianchi", "pair-symmetry",
                    "metric-symmetry", "metric-degenerate"}


def test_pinned_bianchi_witness_is_a_rotation_of_a_nonzero_key():
    """Only R[1][2][0][0] = -R[2][1][0][0] is nonzero; (0, 1, 2, 0) fails first."""
    riemann = [[[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
               for _ in range(3)]
    riemann[1][2][0][0], riemann[2][1][0][0] = Fraction(1, 2), Fraction(-1, 2)
    metric = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    expected = (False, ("bianchi", (0, 1, 2, 0)))
    assert CurvatureModel(metric, riemann).validate() == expected
    assert oracles.curvature_model(metric, riemann, 3) == expected


def algebra_inputs(seed):
    """Seeded algebras reaching every verdict of MetrizedLieAlgebra.validate."""
    rng = random.Random(seed)
    base = rng.choice((so_standard(3), so_standard(4), sl2_standard()))
    algebra = rebase_representation(base, rng).algebra
    m = algebra.dim
    f = algebra.brackets
    B = algebra.form

    random_form = random_array(rng, [m, m], 1.0)
    symmetric_form = [[random_form[min(i, j)][max(i, j)] for j in range(m)]
                      for i in range(m)]
    degenerate_form = [[0] * m] + [[0] + row[1:] for row in symmetric_form[1:]]
    yield algebra
    yield MetrizedLieAlgebra(perturbed(f, rng, antisymmetric), B)
    yield MetrizedLieAlgebra(perturbed(f, rng), B)
    yield MetrizedLieAlgebra(f, symmetric_form)
    yield MetrizedLieAlgebra(f, random_form)
    yield MetrizedLieAlgebra(f, degenerate_form)
    yield MetrizedLieAlgebra(random_array(rng, [m] * 3, 0.3), symmetric_form)


@pytest.mark.parametrize("seed", SEEDS)
def test_algebra_validate_matches_dense_oracle(seed):
    for algebra in algebra_inputs(seed):
        assert algebra.validate() == oracles.metrized_algebra(
            algebra.brackets, algebra.form)


def test_algebra_inputs_reach_every_verdict():
    seen = set()
    for seed in SEEDS:
        for algebra in algebra_inputs(seed):
            ok, message = algebra.validate()
            seen.add("pass" if ok else message.split(" at ")[0])
    assert seen == {"pass", "antisymmetry fails", "Jacobi identity fails",
                    "form is not symmetric", "form is degenerate",
                    "form invariance fails"}


def representation_inputs(seed):
    rng = random.Random(seed)
    for base in (sl2_standard(), so_standard(3)):
        rep = rebase_representation(base, rng)
        yield rep
        doubled = [[[2 * x for x in row] for row in mat] for mat in rep.matrices]
        yield Representation(rep.algebra, doubled)
        yield Representation(rep.algebra, [perturbed(mat, rng)
                                           for mat in rep.matrices])


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_exchange_identity_matches_dense_oracle(seed):
    verdicts = []
    for rep in representation_inputs(seed):
        got = check_exchange_identity(rep)
        expected = oracles.exchange_identity(
            oracles.dense_tensor(rep.weight_tensor()),
            oracles.dense_structure_tensor(rep.algebra),
            rep.matrices, rep.dimV, rep.algebra.dim)
        assert got == expected
        verdicts.append(got[0])
    assert verdicts == [True, False, False, True, False, False]


def test_check_reads_four_term_off_the_exchange_sums():
    """check --lie takes its four-term row from the exchange identity's
    lhs - rhs; on every input, failing ones too, it is check_four_term's."""
    failing = 0
    for seed in SEEDS:
        for rep in representation_inputs(seed):
            legs, four, exchange = _lie_identity_rows(rep)
            assert legs == ("leg-symmetry", True, None)
            assert four == ("four-term", *check_four_term(rep.weight_tensor()))
            assert exchange == ("exchange-identity", *check_exchange_identity(rep))
            failing += not four[1]
    assert failing == 24


def test_pinned_four_term_witness_with_mixed_denominators():
    t = WeightTensor.from_entries(
        2, [((0, 1, 1, 0), Fraction(1, 2)), ((1, 0, 0, 1), Fraction(1, 2)),
            ((1, 1, 0, 0), Fraction(-1, 3)), ((0, 0, 1, 1), Fraction(-1, 3))])
    assert check_four_term(t) == (False, (0, 0, 0, 1, 1, 0))
    assert oracles.four_term(oracles.dense_tensor(t), 2) == (False, (0, 0, 0, 1, 1, 0))


def test_pinned_parallel_four_term_witness():
    model = constant_curvature(2)
    riemann = [[[list(row) for row in plane] for plane in cube]
               for cube in model.riemann]
    riemann[0][1][0][1] += Fraction(1, 2)
    broken = CurvatureModel(model.metric, riemann)
    assert check_parallel_four_term(broken) == (False, (0, 0, 0, 1, 0, 1))
    assert oracles.parallel_four_term(riemann, 2) == (False, (0, 0, 0, 1, 0, 1))


def test_pinned_exchange_identity_witness():
    rep = sl2_standard()
    doubled = Representation(
        rep.algebra, [[[2 * x for x in row] for row in mat] for mat in rep.matrices])
    assert check_exchange_identity(doubled) == (False, (0, 0, 0, 1, 1, 0))

