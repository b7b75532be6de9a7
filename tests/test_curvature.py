"""Curvature models, holonomy extraction, triples, and realizability."""

import random
from fractions import Fraction

import pytest

import oracles
from models import dense_unimodular, signature_metric
from chordweight import (
    ChordDiagram,
    CurvatureModel,
    HolonomyAlgebra,
    Representation,
    SymmetricTriple,
    check_four_term,
    check_parallel_four_term,
    constant_curvature,
    curvature_symmetries,
    enumerate_diagrams,
    evaluate,
    holonomy_algebra,
    sl2_standard,
    so_isomorphism,
    so_standard,
    symmetric_triple,
    triple_from_rep,
    verify_lie_type,
)
from chordweight.curvature import (
    model_from_json_dict,
    model_to_json_dict,
    triple_to_json_dict,
)
from chordweight.jsonio import JSONFormatError
from chordweight.acceptance import form_signature


def indefinite_metric(d):
    return [[Fraction(-1 if i == j == 0 else (1 if i == j else 0))
             for j in range(d)] for i in range(d)]


def bianchi_violating_model():
    """Antisymmetric and pair-symmetric, but the cyclic sum does not vanish."""
    d = 4
    riemann = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
               for _ in range(d)]
    for (a, b, c, x), v in {
        (0, 1, 2, 3): 1, (1, 0, 2, 3): -1,
        (2, 3, 0, 1): 1, (3, 2, 0, 1): -1,
        (2, 3, 1, 0): -1, (3, 2, 1, 0): 1,
        (0, 1, 3, 2): -1, (1, 0, 3, 2): 1,
    }.items():
        riemann[a][b][c][x] = Fraction(v)
    return CurvatureModel(signature_metric(d, 0), riemann)


def test_constant_curvature_validates():
    for d in (1, 2, 3, 4):
        assert constant_curvature(d).validate() == (True, None)
    assert constant_curvature(3, kappa=0).validate() == (True, None)
    assert constant_curvature(3, indefinite_metric(3), -2).validate() == (True, None)


def test_constant_curvature_matches_the_raised_dense_oracle():
    def same(metric, kappa):
        d = len(metric)
        expected = CurvatureModel(metric, oracles.space_form_riemann(metric, kappa))
        assert constant_curvature(d, metric, kappa).riemann == expected.riemann

    for d in range(6):
        for negatives in range(d + 1):
            same(signature_metric(d, negatives), 1)
    hyperbolic = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    P = dense_unimodular(4, random.Random(3))
    rebased = [[sum(P[i][a] * hyperbolic[i][j] * P[j][b]
                    for i in range(4) for j in range(4)) for b in range(4)]
               for a in range(4)]
    assert any(rebased[a][b] for a in range(4) for b in range(4) if a != b)
    for metric in ([[0, 1], [1, 0]], hyperbolic, rebased):
        same(metric, Fraction(-2, 3))
    singular = [[1, 2], [2, 4]]
    with pytest.raises(ValueError):
        oracles.space_form_riemann(singular, 1)
    with pytest.raises(ValueError):
        constant_curvature(2, singular)


def test_sphere_weight_tensor_is_so3_casimir():
    """The d=3, kappa=1 curvature tensor equals the so3 Casimir tensor."""
    sphere = constant_curvature(3).weight_tensor()
    assert sphere == so_standard(3).weight_tensor()
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for dd in range(3):
                    expected = Fraction(int(a == dd and b == c)
                                        - int(a == c and b == dd))
                    assert sphere.entry(a, b, c, dd) == expected


def test_validate_failure_order():
    flat = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
            for _ in range(2)]
    ok, why = CurvatureModel([[1, 1], [0, 1]], flat).validate()
    assert (ok, why) == (False, ("metric-symmetry", None))
    ok, why = CurvatureModel([[1, 0], [0, 0]], flat).validate()
    assert (ok, why) == (False, ("metric-degenerate", None))
    bad = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
           for _ in range(2)]
    bad[0][0][0][1] = Fraction(1)
    ok, why = CurvatureModel(signature_metric(2, 0), bad).validate()
    assert (ok, why) == (False, ("antisymmetry", (0, 0, 0, 1)))


def test_bianchi_violation_is_pinpointed():
    ok, why = bianchi_violating_model().validate()
    assert (ok, why) == (False, ("bianchi", (0, 1, 2, 3)))


def test_parallel_four_term_on_space_forms():
    for model in (constant_curvature(2), constant_curvature(3, kappa=-1),
                  constant_curvature(3, indefinite_metric(3), 2)):
        assert check_parallel_four_term(model) == (True, None)


def test_parallel_four_term_agrees_with_tensor_check():
    bad = bianchi_violating_model()
    direct, _ = check_parallel_four_term(bad)
    raised, _ = check_four_term(bad.weight_tensor())
    assert direct is raised
    assert direct  # Bianchi failure alone does not break the four-term sum


def test_model_checks_gate_holonomy():
    with pytest.raises(ValueError) as err:
        holonomy_algebra(bianchi_violating_model())
    assert "bianchi" in str(err.value)


def test_sphere_holonomy_is_so3_on_the_nose():
    hol = holonomy_algebra(constant_curvature(3))
    assert hol.labels == ((0, 1), (0, 2), (1, 2))
    assert hol.dim_h == 3
    assert hol.nondegenerate
    assert hol.basis[0] == ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    assert hol.form == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert hol.brackets == so_standard(3).algebra.brackets
    P = so_isomorphism(hol)
    assert P == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_hyperbolic_plane_holonomy():
    hol = holonomy_algebra(constant_curvature(2, kappa=-1))
    assert hol.dim_h == 1
    assert hol.form == ((1,),)  # sign flips with kappa
    assert form_signature(holonomy_algebra(constant_curvature(2)).form) == (0, 1)


def test_flat_model_has_trivial_holonomy():
    flat = constant_curvature(3, kappa=0)
    hol = holonomy_algebra(flat)
    assert hol.dim_h == 0
    assert hol.nondegenerate
    assert verify_lie_type(flat) == (True, None)


def test_indefinite_model_is_not_plainly_orthogonal():
    hol = holonomy_algebra(constant_curvature(3, indefinite_metric(3)))
    assert hol.dim_h == 3
    assert so_isomorphism(hol) is None


def test_sphere_triple():
    triple = symmetric_triple(constant_curvature(3))
    assert (triple.dim_h, triple.dim_p, triple.dim) == (3, 3, 6)
    assert triple.involution == (1, 1, 1, -1, -1, -1)
    assert triple.validate() == (True, None)
    assert form_signature(triple.form) == (3, 3)
    for i in range(3):
        for j in range(3):
            assert triple.form[i][j] == -(i == j)
            assert triple.form[3 + i][3 + j] == (i == j)
            assert triple.form[i][3 + j] == 0


def test_verify_lie_type_on_space_forms():
    for model in (constant_curvature(2), constant_curvature(3),
                  constant_curvature(4), constant_curvature(3, kappa=-1),
                  constant_curvature(3, indefinite_metric(3))):
        assert verify_lie_type(model) == (True, None)


def test_bianchi_violating_triple_fails_jacobi():
    """With checks off the pipeline still runs; validation catches the lie."""
    triple = symmetric_triple(bianchi_violating_model(), check_model=False)
    assert triple.dim_h == 2
    assert triple.holonomy.form == ((0, 1), (1, 0))
    assert all(c == 0 for plane in triple.holonomy.brackets
               for row in plane for c in row)
    assert triple.validate() == (
        False, "Jacobi identity fails at (i,j,k,l)=(2,3,4,5)")


def test_curvature_symmetries_so3_passes():
    assert curvature_symmetries(so_standard(3), signature_metric(3, 0)) == (
        "pass", None)


def test_curvature_symmetries_sl2_symplectic_fails_skew():
    """Lowering by the symplectic form makes rho(C) symmetric, not skew."""
    verdict, witness = curvature_symmetries(sl2_standard(), [[0, 1], [-1, 0]])
    assert verdict == "fail(skew)"
    assert witness == (0, 0, 1, 1)


def test_curvature_symmetries_doubled_so3_fails_bianchi():
    """so3 on R^3 + R^3 is skew under the identity form; Bianchi couples blocks."""
    so3 = so_standard(3)
    matrices = [
        [[mat[r % 3][c % 3] if r // 3 == c // 3 else 0 for c in range(6)]
         for r in range(6)]
        for mat in so3.matrices
    ]
    doubled = Representation(so3.algebra, matrices)
    assert doubled.validate() == (True, None)
    eye = signature_metric(6, 0)
    assert curvature_symmetries(doubled, eye) == ("fail(bianchi)", (0, 1, 3, 4))
    with pytest.raises(ValueError) as err:
        triple_from_rep(doubled, eye)
    assert "fail(bianchi)" in str(err.value)


def test_curvature_symmetries_rejects_degenerate_form():
    with pytest.raises(ValueError):
        curvature_symmetries(so_standard(3), [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        curvature_symmetries(so_standard(3), signature_metric(2, 0))


def test_triple_from_rep_round_trip():
    rep = so_standard(3)
    triple = triple_from_rep(rep, signature_metric(3, 0))
    assert triple.holonomy.representation().weight_tensor() == rep.weight_tensor()
    assert triple.validate() == (True, None)
    assert (triple.dim_h, triple.dim_p) == (3, 3)


def test_triple_from_rep_lowers_the_casimir_once(monkeypatch):
    calls = []
    weight_tensor = Representation.weight_tensor

    def counted(rep):
        calls.append(rep)
        return weight_tensor(rep)

    monkeypatch.setattr(Representation, "weight_tensor", counted)
    triple_from_rep(so_standard(3), signature_metric(3, 0))
    assert len(calls) == 1


def test_curvature_indices_outside_the_dimension_are_refused():
    metric = signature_metric(2, 0)
    with pytest.raises(ValueError, match=r"index \(0, 1, 0, 2\) is outside 0\.\.1"):
        CurvatureModel(metric, {(0, 1, 0, 2): 1})
    with pytest.raises(ValueError, match=r"index \(0, -1, 0, 1\) is outside 0\.\.1"):
        CurvatureModel(metric, {(0, -1, 0, 1): 1})
    with pytest.raises(ValueError, match=r"curvature must have 2\^4 entries"):
        CurvatureModel(metric, [[[[0, 0]] * 2] * 2, [[[0]] * 2] * 2])


def test_curvature_mapping_and_nested_array_give_one_model():
    model = constant_curvature(3, indefinite_metric(3), kappa=Fraction(-1, 2))
    assert len(model.entries) == 6 * 2  # per a != b: (c, x) = (b, a) and (a, b)
    nested = CurvatureModel(model.metric, model.riemann)
    assert nested.entries == model.entries
    assert list(nested.entries) == sorted(model.entries)
    assert CurvatureModel(model.metric, dict(reversed(model.entries.items()))).riemann \
        == model.riemann


def test_triple_from_rep_requires_curvature_symmetries():
    with pytest.raises(ValueError) as err:
        triple_from_rep(sl2_standard(), [[0, 1], [-1, 0]])
    assert "fail(skew)" in str(err.value)


def test_model_json_round_trip():
    model = constant_curvature(3, kappa=Fraction(-1, 2))
    doc = model_to_json_dict(model)
    back = model_from_json_dict(doc)
    assert back.metric == model.metric
    assert back.riemann == model.riemann


def test_model_json_error_paths():
    doc = model_to_json_dict(constant_curvature(2))
    doc["R"].append(dict(doc["R"][0]))
    with pytest.raises(JSONFormatError) as err:
        model_from_json_dict(doc)
    assert err.value.path == f"R[{len(doc['R']) - 1}]"
    with pytest.raises(JSONFormatError) as err:
        model_from_json_dict({"dim": 2, "metric": [["1", "0"]], "R": []})
    assert err.value.path == "metric"
    with pytest.raises(JSONFormatError) as err:
        model_from_json_dict({"dim": 0, "metric": [], "R": []})
    assert err.value.path == "dim"


def test_triple_json_reports_parts():
    doc = triple_to_json_dict(symmetric_triple(constant_curvature(2)))
    assert doc["dim"] == 3
    assert doc["dim_h"] == 1
    assert doc["dim_p"] == 2
    assert doc["involution"] == [1, -1, -1]


def test_evaluation_through_the_triple():
    """Evaluating via holonomy rho(C) matches the curvature tensor values."""
    model = constant_curvature(3, kappa=2)
    direct = model.weight_tensor()
    via_triple = symmetric_triple(model).holonomy.representation().weight_tensor()
    for n in range(4):
        for diagram in enumerate_diagrams(n):
            assert evaluate(direct, diagram) == evaluate(via_triple, diagram)


def test_holonomy_algebra_and_triple_are_immutable_values():
    model = constant_curvature(2)
    triple = symmetric_triple(model)
    hol = triple.holonomy
    assert hol == holonomy_algebra(model)
    assert hol != holonomy_algebra(constant_curvature(2))  # models compare by identity
    fields = dict(model=model, labels=hol.labels, basis=hol.basis,
                  brackets=hol.brackets, form=hol.form, nondegenerate=True)
    assert HolonomyAlgebra(**fields) == hol
    assert hash(HolonomyAlgebra(*fields.values())) == hash(hol) == hash(
        tuple(fields.values()))
    assert repr(hol) == "HolonomyAlgebra(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    parts = dict(holonomy=hol, brackets=triple.brackets, form=triple.form,
                 involution=(1, -1, -1))
    assert SymmetricTriple(**parts) == triple == symmetric_triple(model)
    assert hash(triple) == hash(tuple(parts.values()))
    assert repr(triple) == "SymmetricTriple(" + ", ".join(
        f"{name}={value!r}" for name, value in parts.items()) + ")"
    with pytest.raises(AttributeError):
        hol.nondegenerate = False
    with pytest.raises(AttributeError):
        triple.involution = ()
    assert hol.nondegenerate and triple.involution == (1, -1, -1)


def test_model_load_is_charged_dim_to_the_4(monkeypatch):
    from chordweight import WorkLimitExceeded

    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "81")
    doc = model_to_json_dict(constant_curvature(3))
    assert model_from_json_dict(doc).riemann == constant_curvature(3).riemann
    with pytest.raises(WorkLimitExceeded, match=r"dim\^4 = 256 entries, limit is 81"):
        model_from_json_dict(model_to_json_dict(constant_curvature(4)))
