"""Curvature models, holonomy extraction, triples, and realizability."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import models
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
    _holonomy_algebra,
    _symmetric_triple,
    model_from_json_dict,
    model_to_json_dict,
    triple_to_json_dict,
)
from chordweight.jsonio import JSONFormatError
from chordweight.acceptance import form_signature


PINNED = Path(__file__).parent / "pinned"


def bianchi_violating_model():
    """Antisymmetric and pair-symmetric, but the cyclic sum does not vanish."""
    return models.sparse_model(4, {
        (0, 1, 2, 3): 1, (1, 0, 2, 3): -1,
        (2, 3, 0, 1): 1, (3, 2, 0, 1): -1,
        (2, 3, 1, 0): -1, (3, 2, 1, 0): 1,
        (0, 1, 3, 2): -1, (1, 0, 3, 2): 1,
    })


def test_constant_curvature_validates():
    for d in (1, 2, 3, 4):
        assert constant_curvature(d).validate() == (True, None)
    assert constant_curvature(3, kappa=0).validate() == (True, None)
    assert constant_curvature(3, signature_metric(3, 1), -2).validate() == (True, None)


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
                    assert sphere.entries.get((a, b, c, dd), 0) == expected


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
                  constant_curvature(3, signature_metric(3, 1), 2)):
        assert check_parallel_four_term(model) == (True, None)


def test_parallel_four_term_agrees_with_tensor_check():
    bad = bianchi_violating_model()
    direct, _ = check_parallel_four_term(bad)
    raised, _ = check_four_term(bad.weight_tensor())
    assert direct is raised
    assert direct  # Bianchi failure alone does not break the four-term sum


def _four_term_verdict_models():
    """(name, model): every model kind of tests/models.py, each also in a dense
    unimodular basis, and seeded Kulkarni-Nomizu products g (.) h."""
    kinds = [(f"space-form-d{d}-k{k}-neg{n}", models.space_form(d, k, n))
             for d in range(2, 5) for k in (-1, 0, 2) for n in range(d + 1)]
    kinds += [("cp1", models.complex_projective(1)),
              ("cp2", models.complex_projective(2)),
              ("s2xh2", models.product_model(models.space_form(2, 1),
                                             models.space_form(2, -1))),
              ("s2xr1", models.product_model(models.space_form(2, 1),
                                             models.space_form(1, 0)))]
    out = kinds + [(f"{name}-dense", models.rebase(model, dense_unimodular(
        model.dim, random.Random(name)))) for name, model in kinds]
    rng = random.Random(17)
    for d in range(2, 5):
        for negatives in range(d + 1):
            g = signature_metric(d, negatives)
            for k in range(3):  # h = a multiple of g for k = 2: parallel
                h = [[0] * d for _ in range(d)]
                for i in range(d):
                    for j in range(i, d):
                        h[i][j] = h[j][i] = rng.randint(-2, 2)
                if k == 2:
                    h = [[h[0][0] * v for v in row] for row in g]
                out.append((f"kn-d{d}-neg{negatives}-{k}", models.kulkarni_nomizu(g, h)))
    with open(PINNED / "kn3-dense.json", encoding="utf-8") as fh:
        out.append(("kn3-dense", model_from_json_dict(json.load(fh))))
    return out


def test_parallel_and_tensor_four_term_verdicts_agree_on_valid_models():
    """The proof in check_parallel_four_term's docstring, on every model kind."""
    verdicts = {}
    for name, model in _four_term_verdict_models():
        assert model.validate() == (True, None), name
        direct, _ = check_parallel_four_term(model)
        raised, _ = check_four_term(model.weight_tensor())
        assert direct is raised, name
        verdicts[name] = direct
    kn = [ok for name, ok in verdicts.items() if name.startswith("kn-")]
    assert len(kn) == 36 and True in kn and False in kn
    assert not verdicts["kn3-dense"]


def test_pinned_kn3_dense_model_is_g_times_diag_123_rebased():
    diag123 = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    model = models.rebase(models.kulkarni_nomizu(signature_metric(3, 0), diag123),
                          dense_unimodular(3, random.Random(1)))
    with open(PINNED / "kn3-dense.json", encoding="utf-8") as fh:
        pinned = model_from_json_dict(json.load(fh))
    assert (pinned.metric, pinned.entries) == (model.metric, model.entries)
    assert model.validate() == (True, None)
    assert check_parallel_four_term(model) == (False, (0, 1, 0, 0, 0, 1))
    assert check_four_term(model.weight_tensor()) == (False, (0, 0, 0, 0, 0, 1))


def test_model_checks_gate_holonomy():
    with pytest.raises(ValueError) as err:
        holonomy_algebra(bianchi_violating_model())
    assert "bianchi" in str(err.value)


def test_sphere_holonomy_is_so3_on_the_nose():
    hol = holonomy_algebra(constant_curvature(3))
    assert hol.labels == ((0, 1), (0, 2), (1, 2))
    assert hol.dim_h == 3
    assert hol.nondegenerate
    assert hol.representation.matrices[0] == ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
    assert hol.representation.algebra.form == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert hol.brackets == so_standard(3).algebra.entries
    assert so_isomorphism(hol) is True
    # the standard-basis search finds the identity change of basis
    P = oracles.so_isomorphism(hol.representation.matrices,
                               oracles.dense_brackets(hol.brackets, 3), 3)
    assert P == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_hyperbolic_plane_holonomy():
    hol = holonomy_algebra(constant_curvature(2, kappa=-1))
    assert hol.dim_h == 1
    assert hol.representation.algebra.form == ((1,),)  # sign flips with kappa
    sphere = holonomy_algebra(constant_curvature(2))
    assert form_signature(sphere.representation.algebra.form) == (0, 1)


def test_flat_model_has_trivial_holonomy():
    flat = constant_curvature(3, kappa=0)
    hol = holonomy_algebra(flat)
    assert hol.dim_h == 0
    assert hol.nondegenerate
    triple = symmetric_triple(flat)
    assert triple.validate() == (True, None)
    assert verify_lie_type(triple) == (True, None)


def test_indefinite_model_is_not_plainly_orthogonal():
    """Full dimension, but h is so(2, 1), which is noncompact: no change of basis onto so(3)."""
    hol = holonomy_algebra(constant_curvature(3, signature_metric(3, 1)))
    assert hol.dim_h == 3
    assert so_isomorphism(hol) is False
    assert oracles.so_isomorphism(hol.representation.matrices,
                                  oracles.dense_brackets(hol.brackets, 3), 3) is None


def test_so_isomorphism_needs_two_dimensions():
    """A 1-dimensional model has no so(d) to compare: False, not an error."""
    hol = holonomy_algebra(constant_curvature(1))
    assert (hol.dim_h, so_isomorphism(hol)) == (0, False)


def test_so_isomorphism_refuses_a_singular_change_of_basis():
    """Full dimension and antisymmetric matrices, but two of them are equal.

    Such a record is built by hand, not extracted, so the library's rule,
    which decides for extracted records, does not apply; the standard-basis
    search of the oracle refuses it.
    """
    hol = holonomy_algebra(constant_curvature(3))
    matrices = hol.representation.matrices
    basis = (matrices[0], matrices[1], matrices[0])
    twice = HolonomyAlgebra(hol.model, hol.labels, basis, hol.brackets, hol.B, True)
    assert oracles.so_isomorphism(twice.representation.matrices,
                                  oracles.dense_brackets(twice.brackets, 3), 3) is None


def test_triple_validate_pins_the_involution_parity():
    """The 2-sphere's triple, with e_1 moved into the +1 eigenspace."""
    triple = symmetric_triple(constant_curvature(2))
    moved = SymmetricTriple(triple.holonomy, triple.brackets, triple.B, (1, -1, 1))
    assert moved.validate() == (False, "involution parity fails at (0,1,2)")


def test_triple_validate_pins_a_form_that_mixes_eigenspaces():
    """A flat plane with a hyperbolic metric, its two axes in different eigenspaces."""
    triple = symmetric_triple(constant_curvature(2, [[0, 1], [1, 0]], kappa=0))
    split = SymmetricTriple(triple.holonomy, {}, triple.B, (1, -1))
    assert split.validate() == (False, "form mixes involution eigenspaces at (0,1)")


def test_triple_validate_pins_tangent_brackets_that_do_not_span():
    """A one-dimensional holonomy part that no tangent bracket reaches."""
    flat = constant_curvature(2, kappa=0)
    lone = HolonomyAlgebra(flat, ((0, 1),), (((0, 0), (0, 0)),), {}, ((1,),), True)
    triple = SymmetricTriple(lone, {}, signature_metric(3, 0), (1, -1, -1))
    assert triple.validate() == (False, "tangent brackets do not span the holonomy part")


def test_verify_lie_type_pins_a_degenerate_holonomy_form():
    triple = symmetric_triple(constant_curvature(2))
    hol = triple.holonomy
    degenerate = HolonomyAlgebra(hol.model, hol.labels, hol.rho, hol.brackets,
                                 ((0,),), False)
    assert verify_lie_type(SymmetricTriple(degenerate, triple.brackets, triple.B,
                                           triple.involution)) == (
        False, "holonomy form is degenerate")


def test_verify_lie_type_pins_the_least_entry_where_the_tensors_differ():
    """The 2-sphere's holonomy form doubled: rho(C) is half the model's tensor."""
    triple = symmetric_triple(constant_curvature(2))
    hol = triple.holonomy
    doubled = HolonomyAlgebra(hol.model, hol.labels, hol.rho, hol.brackets,
                              ((-2,),), True)
    assert verify_lie_type(SymmetricTriple(doubled, triple.brackets, triple.B,
                                           triple.involution)) == (
        False, "weight tensors differ at entry (0, 1, 0, 1)")


def test_sphere_triple():
    triple = symmetric_triple(constant_curvature(3))
    assert (triple.dim_h, triple.dim_p, triple.dim) == (3, 3, 6)
    assert triple.involution == (1, 1, 1, -1, -1, -1)
    assert triple.validate() == (True, None)
    form = triple.algebra.form
    assert form_signature(form) == (3, 3)
    for i in range(3):
        for j in range(3):
            assert form[i][j] == -(i == j)
            assert form[3 + i][3 + j] == (i == j)
            assert form[i][3 + j] == 0


def test_verify_lie_type_on_space_forms():
    for model in (constant_curvature(2), constant_curvature(3),
                  constant_curvature(4), constant_curvature(3, kappa=-1),
                  constant_curvature(3, signature_metric(3, 1))):
        triple = symmetric_triple(model)
        assert triple.validate() == (True, None)
        assert verify_lie_type(triple) == (True, None)


def test_bianchi_violating_triple_fails_jacobi():
    """With checks off the pipeline still runs; validation catches the lie."""
    triple = _symmetric_triple(_holonomy_algebra(bianchi_violating_model()))
    assert triple.dim_h == 2
    assert triple.holonomy.representation.algebra.form == ((0, 1), (1, 0))
    assert triple.holonomy.brackets == {}
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
    assert triple.holonomy.representation.weight_tensor() == rep.weight_tensor()
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


def test_a_metric_given_by_its_entries_needs_its_dimension():
    """A mapping has no size of its own: its entry count is not the dimension."""
    entries = {(0, 0): 1, (0, 1): 1, (1, 0): 1}
    with pytest.raises(ValueError, match="a metric given by its entries needs dim"):
        CurvatureModel(entries, {})
    model = CurvatureModel(entries, {}, 2)
    assert (model.dim, model.metric) == (2, ((1, 1), (1, 0)))
    assert model.g is CurvatureModel(model.g, {}, 2).g  # a view is kept as it is


def test_curvature_mapping_and_nested_array_give_one_model():
    model = constant_curvature(3, signature_metric(3, 1), kappa=Fraction(-1, 2))
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
    via_triple = symmetric_triple(model).holonomy.representation.weight_tensor()
    for n in range(4):
        for diagram in enumerate_diagrams(n):
            assert evaluate(direct, diagram) == evaluate(via_triple, diagram)


def test_holonomy_algebra_and_triple_are_immutable_values():
    model = constant_curvature(2)
    triple = symmetric_triple(model)
    hol = triple.holonomy
    assert hol == holonomy_algebra(model)
    assert hol != holonomy_algebra(constant_curvature(2))  # models compare by identity
    fields = dict(model=model, labels=hol.labels, rho=hol.rho,
                  brackets=hol.brackets, B=hol.B, nondegenerate=True)
    assert HolonomyAlgebra(**fields) == hol
    assert hash(HolonomyAlgebra(*fields.values())) == hash(hol) == hash(
        (model, hol.labels, frozenset(hol.rho.items()), frozenset(),
         frozenset(hol.B.items()), True))
    assert repr(hol) == "HolonomyAlgebra(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    parts = dict(holonomy=hol, brackets=triple.brackets, B=triple.B,
                 involution=(1, -1, -1))
    assert SymmetricTriple(**parts) == triple == symmetric_triple(model)
    assert hash(triple) == hash(
        (hol, frozenset(triple.brackets.items()), frozenset(triple.B.items()), (1, -1, -1)))
    assert repr(triple) == "SymmetricTriple(" + ", ".join(
        f"{name}={value!r}" for name, value in parts.items()) + ")"
    with pytest.raises(AttributeError):
        hol.nondegenerate = False
    with pytest.raises(AttributeError):
        triple.involution = ()
    assert hol.nondegenerate and triple.involution == (1, -1, -1)


def test_record_brackets_keep_only_their_nonzero_entries_read_only():
    triple = symmetric_triple(constant_curvature(3))
    for record, n in ((triple.holonomy, 3), (triple, 6)):
        assert record.brackets and all(
            type(v) is Fraction and v != 0 for v in record.brackets.values())
        assert all(0 <= i < n for key in record.brackets for i in key)
        assert list(record.brackets) == sorted(record.brackets)
        with pytest.raises(TypeError):
            record.brackets[0, 0, 0] = Fraction(1)
    # so(3) on R^3: each [h_i, h_j] (i != j) and [e_a, e_b] (a != b) has one
    # term, and each h_i moves two of the three tangent vectors
    assert len(triple.holonomy.brackets) == 6
    assert len(triple.brackets) == 6 + 2 * 3 * 2 + 6


def test_records_keep_the_representation_and_algebra_of_their_own_views():
    """Each record builds its representation or algebra once, sharing its views."""
    triple = symmetric_triple(constant_curvature(3))
    hol, algebra = triple.holonomy, triple.algebra
    rep = hol.representation
    assert rep.rho is hol.rho and rep.dimV == 3
    assert rep.algebra.entries is hol.brackets and rep.algebra.B is hol.B
    assert algebra.entries is triple.brackets and algebra.B is triple.B
    assert algebra.dim == triple.dim == 6
    assert hol.representation is rep and triple.algebra is algebra


def test_record_brackets_from_a_nested_array_or_a_mapping_agree():
    triple = symmetric_triple(constant_curvature(3))
    hol = triple.holonomy
    for record, n in ((hol, 3), (triple, 6)):
        fields = {name: getattr(record, name) for name in type(record)._fields}
        dense = oracles.dense_brackets(record.brackets, n)
        mapping = {**record.brackets, (0, 0, 0): 0}  # the zero is dropped
        built = [type(record)(**{**fields, "brackets": brackets})
                 for brackets in (dense, mapping)]
        assert built[0] == built[1] == record
        assert hash(built[0]) == hash(built[1]) == hash(record)
    with pytest.raises(ValueError, match="structure constants must be 3x3x3"):
        HolonomyAlgebra(hol.model, hol.labels, hol.rho, ((0,),), hol.B, True)
    with pytest.raises(ValueError, match="index \\(0, 0, 6\\) is outside 0..5"):
        SymmetricTriple(hol, {(0, 0, 6): 1}, triple.B, triple.involution)


def test_model_load_is_charged_dim_to_the_4(monkeypatch):
    from chordweight import WorkLimitExceeded

    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "81")
    doc = model_to_json_dict(constant_curvature(3))
    assert model_from_json_dict(doc).riemann == constant_curvature(3).riemann
    with pytest.raises(WorkLimitExceeded, match=r"dim\^4 = 256 entries, limit is 81"):
        model_from_json_dict(model_to_json_dict(constant_curvature(4)))
