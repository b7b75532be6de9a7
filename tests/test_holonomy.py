"""Holonomy, triples and the derived tensors, pinned to the dense oracles exactly.

Every package result is compared with ``tests/oracles.py`` by value and by
``repr``, so an entry that is right in value but of another type fails too.
"""

import json
import random
from fractions import Fraction

import pytest

import models
import oracles
from chordweight import (
    HolonomyAlgebra,
    Representation,
    WorkLimitExceeded,
    curvature_symmetries,
    holonomy_algebra,
    sl2_standard,
    so_isomorphism,
    so_standard,
    symmetric_triple,
    triple_from_rep,
)
from chordweight.cli import main
from chordweight.lie import representation_to_json_dict


def nested(value):
    """Lists to tuples, all the way down, as the package stores its arrays."""
    if isinstance(value, (list, tuple)):
        return tuple(nested(v) for v in value)
    return value


def assert_same(got, expected):
    expected = nested(expected)
    assert got == expected
    assert repr(got) == repr(expected)


def assert_matches_oracles(model):
    """Holonomy, triple, P, derived tensors and the representation check."""
    d = model.dim
    R, g = model.riemann, model.metric
    expected = oracles.holonomy(R, g, d)
    triple = symmetric_triple(model)
    hol = triple.holonomy
    assert_same((hol.labels, hol.basis, hol.brackets, hol.form, hol.nondegenerate),
                expected)
    assert_same((triple.brackets, triple.form, triple.involution),
                oracles.symmetric_triple(R, g, d, expected))
    assert_same(so_isomorphism(hol), oracles.so_isomorphism(hol.basis, hol.brackets, d))
    assert oracles.dense_tensor(model.weight_tensor()) == nested(
        oracles.curvature_weight_tensor(g, R, d))
    if hol.nondegenerate:
        assert_representation_matches(hol.representation())
    return hol


def assert_representation_matches(rep):
    algebra = rep.algebra
    assert rep.validate() == oracles.representation(algebra.brackets, rep.matrices,
                                                    rep.dimV)
    if algebra.dim:
        assert_same(oracles.dense_structure_tensor(algebra),
                    oracles.structure_tensor(algebra.brackets, algebra.form))
    assert oracles.dense_tensor(rep.weight_tensor()) == nested(
        oracles.lie_weight_tensor(algebra.form, rep.matrices, rep.dimV))


SPACE_FORMS = [(d, kappa, negatives, dense)
               for d in range(2, 6) for kappa in (-1, 0, 1, 2)
               for negatives in range(d + 1) for dense in (False, True)]


@pytest.mark.parametrize(
    "d, kappa, negatives, dense", SPACE_FORMS,
    ids=[f"d{d}-k{k}-neg{n}-{'dense' if dense else 'standard'}"
         for d, k, n, dense in SPACE_FORMS])
def test_space_forms_match_the_dense_oracles(d, kappa, negatives, dense):
    model = models.space_form(d, kappa, negatives)
    if dense:
        rng = random.Random(f"{d} {kappa} {negatives}")
        model = models.rebase(model, models.dense_unimodular(d, rng))
    hol = assert_matches_oracles(model)
    assert hol.dim_h == (0 if kappa == 0 else d * (d - 1) // 2)


@pytest.mark.parametrize("dense", [False, True], ids=["standard", "dense"])
def test_complex_projective_plane_has_u2_holonomy(dense):
    model = models.complex_projective(2)
    if dense:
        model = models.rebase(model, models.dense_unimodular(4, random.Random(2)))
    hol = assert_matches_oracles(model)
    assert hol.dim_h == 4
    assert symmetric_triple(model).validate() == (True, None)


@pytest.mark.parametrize("dense", [False, True], ids=["standard", "dense"])
def test_sphere_times_hyperbolic_plane_has_two_dimensional_holonomy(dense):
    model = models.product_model(models.space_form(2, 1), models.space_form(2, -1))
    if dense:
        model = models.rebase(model, models.dense_unimodular(4, random.Random(3)))
    assert assert_matches_oracles(model).dim_h == 2


def test_so_isomorphism_rejects_brackets_that_are_not_so_d():
    """A hand-built holonomy whose bracket table is off by one sign."""
    model = models.space_form(4, 1)
    hol = holonomy_algebra(model)
    assert so_isomorphism(hol) is not None
    brackets = [[list(row) for row in plane] for plane in hol.brackets]
    k = next(k for k, v in enumerate(brackets[0][1]) if v)
    brackets[0][1][k], brackets[1][0][k] = -brackets[0][1][k], -brackets[1][0][k]
    wrong = HolonomyAlgebra(model, hol.labels, hol.basis, nested(brackets), hol.form,
                            hol.nondegenerate)
    assert oracles.so_isomorphism(wrong.basis, wrong.brackets, 4) is None
    assert so_isomorphism(wrong) is None


def _broken_representations():
    so3 = so_standard(3)
    doubled = [so3.matrices[0], so3.matrices[1],
               [[2 * v for v in row] for row in so3.matrices[2]]]
    so4 = so_standard(4)
    nudged = [list(map(list, mat)) for mat in so4.matrices]
    nudged[4][0][3] += Fraction(1, 3)
    sl2 = sl2_standard()
    swapped = [sl2.matrices[0], sl2.matrices[2], sl2.matrices[1]]
    return {
        "so3-doubled": Representation(so3.algebra, doubled),
        "so4-nudged": Representation(so4.algebra, nudged),
        "sl2-swapped": Representation(sl2.algebra, swapped),
    }


@pytest.mark.parametrize("name, expected", [
    ("so3-doubled", "(i,j)=(0,1)"),
    ("so4-nudged", "(i,j)=(0,2)"),
    ("sl2-swapped", "(i,j)=(0,1)"),
])
def test_broken_representations_fail_where_the_oracle_does(name, expected):
    rep = _broken_representations()[name]
    ok, why = rep.validate()
    assert (ok, why) == (False, f"bracket compatibility fails at {expected}")
    assert_representation_matches(rep)


@pytest.mark.parametrize("name", ["sl2", "so3", "so4", "so5"])
def test_builtin_representations_match_the_oracles(name):
    rep = sl2_standard() if name == "sl2" else so_standard(int(name[2:]))
    assert_representation_matches(rep)


def _realizations():
    """(representation, form) pairs: each verdict, in standard and dense bases."""
    so3, sl2 = so_standard(3), sl2_standard()
    doubled = Representation(so3.algebra, [
        [[mat[r % 3][c % 3] if r // 3 == c // 3 else 0 for c in range(6)]
         for r in range(6)] for mat in so3.matrices])
    cp2 = models.rebase(models.complex_projective(2),
                        models.dense_unimodular(4, random.Random(5)))
    lorentz = models.rebase(models.space_form(3, 2, 1),
                            models.dense_unimodular(3, random.Random(6)))
    out = [(so3, models.signature_metric(3, 0)), (so3, [[2, 1, 0], [1, 1, 0], [0, 0, 3]]),
           (sl2, [[0, 1], [-1, 0]]), (sl2, [[1, 0], [0, 1]]),
           (doubled, models.signature_metric(6, 0))]
    for model in (cp2, lorentz):
        out.append((symmetric_triple(model).holonomy.representation(), model.metric))
    return out


@pytest.mark.parametrize("index", range(7))
def test_curvature_symmetries_and_realization_match_the_oracles(index):
    rep, form = _realizations()[index]
    d = rep.dimV
    low = oracles.lowered_casimir(form, rep.algebra.form, rep.matrices, d)
    verdict = oracles.curvature_symmetries(low, d)
    assert curvature_symmetries(rep, form) == verdict
    if verdict[0] == "pass":  # every passing form here is symmetric
        model = triple_from_rep(rep, form).holonomy.model
        assert model.riemann == nested(oracles.raised(low, form, d))


# Non-parallel curvature, run with check_model=False: each reaches one of
# holonomy_algebra's RuntimeErrors, with the oracle's message.
NOT_PARALLEL = {
    "form": (3, {(1, 2, 0, 2): -1},
             "induced form is inconsistent on generators (1, 2), (0, 2)"),
    "bracket": (4, {(1, 3, 1, 1): 1},
                "bracket identity fails on generators (1, 3), (1, 3)"),
    # the identity holds on every pair, but R(e_a, e_b) is not antisymmetric
    # in (a, b), so R(u, w) leaves the span of the pair endomorphisms
    "escape": (3, {(0, 0, 2, 0): -1, (0, 2, 2, 1): -1, (1, 0, 1, 2): -1,
                   (1, 1, 0, 1): -1, (1, 2, 0, 2): -1, (2, 2, 0, 1): 1},
               "holonomy commutator escapes the span"),
}


@pytest.mark.parametrize("name", sorted(NOT_PARALLEL))
def test_non_parallel_models_raise_the_oracles_error(name):
    d, entries, message = NOT_PARALLEL[name]
    model = models.sparse_model(d, entries)
    with pytest.raises(RuntimeError) as expected:
        oracles.holonomy(model.riemann, model.metric, d)
    assert str(expected.value) == message
    with pytest.raises(RuntimeError) as got:
        holonomy_algebra(model, check_model=False)
    assert str(got.value) == message


def test_random_sparse_curvature_matches_the_oracle_with_checks_off():
    """Seeded sparse tensors, half of them antisymmetrized: same algebra or same error."""
    rng = random.Random(10)
    outcomes = set()
    for _ in range(300):
        d = rng.choice((2, 3, 3, 4))
        entries = {tuple(rng.randrange(d) for _ in range(4)): rng.choice((-2, -1, 1, 2))
                   for _ in range(rng.randint(1, 6))}
        if rng.random() < 0.5:
            entries.update({(b, a, c, x): -v for (a, b, c, x), v in list(entries.items())
                            if a != b})
        model = models.sparse_model(d, entries)
        try:
            expected = nested(oracles.holonomy(model.riemann, model.metric, d))
        except RuntimeError as exc:
            expected = str(exc)
        try:
            hol = holonomy_algebra(model, check_model=False)
            got = (hol.labels, hol.basis, hol.brackets, hol.form, hol.nondegenerate)
        except RuntimeError as exc:
            got = str(exc)
        assert got == expected
        assert repr(got) == repr(expected)
        outcomes.add(got.split(" on ")[0] if isinstance(got, str) else "ok")
    assert outcomes == {"ok", "induced form is inconsistent", "bracket identity fails"}


def _holonomy_work(d):
    return (d * (d - 1) // 2) ** 2 * d ** 3


def test_holonomy_is_charged_pairs_squared_times_d_cubed(monkeypatch):
    model = models.space_form(4, 1)
    work = _holonomy_work(4)
    assert work == 2304
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(work))
    assert holonomy_algebra(model).dim_h == 6
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(work - 1))
    with pytest.raises(WorkLimitExceeded) as err:
        holonomy_algebra(model)
    assert str(err.value) == (
        "the holonomy algebra of a curvature model of dimension 4 needs "
        "pairs^2 * d^3 = 2304 steps, limit is 2303")


def test_realize_exits_2_over_the_holonomy_budget(tmp_path, capsys, monkeypatch):
    lie = tmp_path / "so3.json"
    lie.write_text(json.dumps(representation_to_json_dict(so_standard(3))))
    form = tmp_path / "eye.json"
    form.write_text('[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]')
    argv = ["realize", "--lie", str(lie), "--form", str(form)]
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(_holonomy_work(3) - 1))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", (
        "error: the holonomy algebra of a curvature model of dimension 3 needs "
        "pairs^2 * d^3 = 243 steps, limit is 242\n"))
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(_holonomy_work(3)))
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("verdict: pass\ntriple: dim 6 = 3 + 3\n")
