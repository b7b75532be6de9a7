"""Metrized Lie algebras, representations, and Casimir weight tensors."""

import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from models import signature_metric
from chordweight import (
    ChordDiagram,
    MetrizedLieAlgebra,
    Representation,
    abelian,
    check_exchange_identity,
    evaluate,
    sl2_standard,
    so_standard,
)
from chordweight.lie import (
    algebra_from_json_dict,
    algebra_to_json_dict,
    representation_from_json_dict,
    representation_to_json_dict,
)
import chordweight.lie
from chordweight.jsonio import JSONFormatError
from chordweight.linalg import mat_inv
from chordweight.work import WorkLimitExceeded

THETA = ChordDiagram.from_code("AA")


def test_sl2_is_a_metrized_algebra():
    rep = sl2_standard()
    assert rep.algebra.validate() == (True, None)
    assert rep.validate() == (True, None)
    assert rep.algebra.casimir() == (
        (Fraction(1, 2), 0, 0),
        (0, 0, 1),
        (0, 1, 0),
    )


def test_so3_form_is_minus_identity():
    rep = so_standard(3)
    assert rep.algebra.validate() == (True, None)
    assert rep.validate() == (True, None)
    assert list(rep.algebra.form) == [
        (-1, 0, 0), (0, -1, 0), (0, 0, -1),
    ]
    assert rep.algebra.casimir() == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_so_n_dimensions():
    for n in (2, 3, 4, 5):
        rep = so_standard(n)
        assert rep.algebra.dim == n * (n - 1) // 2
        assert rep.dimV == n
        assert rep.algebra.validate() == (True, None)
        assert rep.validate() == (True, None)
    with pytest.raises(ValueError):
        so_standard(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_so_standard_matches_its_matrix_commutators(n):
    """The closed-form brackets and form against commutators of the matrices."""
    rep = so_standard(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = [[[Fraction(int((r, c) == (i, j)) - int((r, c) == (j, i)))
               for c in range(n)] for r in range(n)] for i, j in pairs]
    assert rep.matrices == tuple(tuple(tuple(row) for row in mat) for mat in basis)
    brackets = tuple(tuple(tuple(comm[i][j] for i, j in pairs)
                           for comm in (oracles.dense_commutator(a, b) for b in basis))
                     for a in basis)
    form = tuple(tuple(sum(a[r][c] * b[c][r] for r in range(n) for c in range(n)) / 2
                       for b in basis) for a in basis)
    assert rep.algebra.brackets == brackets
    assert rep.algebra.form == form


def test_so_standard_12_is_fast():
    start = time.perf_counter()
    rep = so_standard(12)
    assert time.perf_counter() - start < 0.5
    # [A_ij, A_kl] is nonzero when the pairs share one index: 2(n - 2) partners
    assert (rep.algebra.dim, len(rep.algebra.entries)) == (66, 66 * 20)


def test_bracket_indices_outside_the_dimension_are_refused():
    with pytest.raises(ValueError, match=r"index \(0, 1, 2\) is outside 0\.\.1"):
        MetrizedLieAlgebra({(0, 1, 2): 1}, signature_metric(2, 0))
    with pytest.raises(ValueError, match=r"index \(0, 1\) is outside 0\.\.1"):
        MetrizedLieAlgebra({(0, 1): 1}, signature_metric(2, 0))
    with pytest.raises(ValueError, match=r"structure constants must be 2x2x2"):
        MetrizedLieAlgebra([[[0, 0]] * 2, [[0]] * 2], signature_metric(2, 0))


def test_casimir_inverts_form():
    for rep in (sl2_standard(), so_standard(3), so_standard(4)):
        B = [list(row) for row in rep.algebra.form]
        C = [list(row) for row in rep.algebra.casimir()]
        assert C == oracles.dense_inverse(B)


def test_the_casimir_is_computed_once_per_algebra(monkeypatch):
    """rho(C), the structure tensor, the dense casimir() and the exchange
    identity all read the one Casimir view, inverted on the first read."""
    inverted = []
    monkeypatch.setattr(chordweight.lie, "mat_inv",
                        lambda *args: inverted.append(args) or mat_inv(*args))
    rep = so_standard(4)
    assert inverted == []
    rep.weight_tensor()
    rep.algebra.structure_tensor()
    assert rep.algebra.casimir() == tuple(tuple(-int(i == j) for j in range(6)) for i in range(6))
    assert check_exchange_identity(rep) == (True, None)
    assert inverted == [(rep.algebra.B, 6)]


def test_theta_values():
    """w(theta) = sum_i tr(rho(e_i) rho(e^i)) -- the Casimir character."""
    assert evaluate(sl2_standard().weight_tensor(), THETA) == 3
    assert evaluate(so_standard(3).weight_tensor(), THETA) == 6
    assert evaluate(abelian(5).weight_tensor(), THETA) == 0


def test_abelian_weight_system_is_dimension_on_empty():
    tensor = abelian(4).weight_tensor()
    assert evaluate(tensor, ChordDiagram()) == 4
    assert all(v == 0 for _, v in tensor.nonzero_items())


def test_exchange_identity_for_builtins():
    for rep in (sl2_standard(), so_standard(2), so_standard(3), abelian(2)):
        assert check_exchange_identity(rep) == (True, None)


def test_structure_tensor_total_antisymmetry():
    Y = oracles.dense_structure_tensor(sl2_standard().algebra)
    m = 3
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert Y[i][j][k] == -Y[j][i][k]
                assert Y[i][j][k] == -Y[i][k][j]


def test_validate_flags_broken_jacobi():
    # [e0,e1] = e1, [e0,e2] = e2, [e1,e2] = e0 is not a Lie algebra
    f = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    f[0][1][1] = Fraction(1)
    f[1][0][1] = Fraction(-1)
    f[0][2][2] = Fraction(1)
    f[2][0][2] = Fraction(-1)
    f[1][2][0] = Fraction(1)
    f[2][1][0] = Fraction(-1)
    assert MetrizedLieAlgebra(f, signature_metric(3, 0)).validate() == (
        False, "Jacobi identity fails at (i,j,k,l)=(0,1,2,0)")


def test_validate_flags_noninvariant_form():
    # [e0,e1] = e0 with the identity form: B([e0,e1], e0) != -B(e1, [e0,e0])
    f = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    f[0][1][0] = Fraction(1)
    f[1][0][0] = Fraction(-1)
    assert MetrizedLieAlgebra(f, signature_metric(2, 0)).validate() == (
        False, "form invariance fails at (z,x,y)=(0,0,1)")


def test_validate_flags_degenerate_form():
    zero = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    ok, message = MetrizedLieAlgebra(zero, [[1, 0], [0, 0]]).validate()
    assert not ok
    assert "degenerate" in message


def _pairings(left, right, left_slot, right_slot):
    """How many (left key, right key) pairs agree at the two slots, counted by loops."""
    on_right = Counter(key[right_slot] for key in right)
    return sum(on_right[key[left_slot]] for key in left)


def _so4_dense():
    path = Path(__file__).parent / "pinned" / "so4-dense.json"
    return representation_from_json_dict(json.loads(path.read_text(encoding="utf-8")))


def _validation_counts(rep):
    """The products of the Jacobi, invariance and compatibility sums, by their index pairings."""
    f, B, rho = rep.algebra.entries, rep.algebra.B, rep.rho
    half = [(i, j, k) for i, j, k in f if i < j]
    return {
        "the Jacobi identity": _pairings(half, f, 2, 0),
        "form invariance": _pairings(f, B, 2, 0) + _pairings(f, B, 2, 1),
        "bracket compatibility": _pairings(half, rho, 2, 0) + _pairings(rho, rho, 2, 1),
    }


@pytest.mark.parametrize("rep, check", [
    (_so4_dense, "the Jacobi identity"),
    (sl2_standard, "form invariance"),  # its Jacobi sum forms fewer products
    (_so4_dense, "bracket compatibility"),
])
def test_each_validation_sum_is_charged_before_it_is_formed(monkeypatch, rep, check):
    """A bound one below the sum's products refuses it; at its products it runs."""
    rep = rep()
    count = _validation_counts(rep)[check]
    validate = rep.validate if check == "bracket compatibility" else rep.algebra.validate
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(count - 1))
    with pytest.raises(WorkLimitExceeded) as refused:
        validate()
    assert str(refused.value) == (f"{check} needs {count} products of nonzero entries, "
                                  f"limit is {count - 1}")
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(count))
    assert validate() == (True, None)


def test_representation_validation():
    algebra = sl2_standard().algebra
    # swapping E and F breaks bracket compatibility
    bad = Representation(algebra, (
        ((1, 0), (0, -1)),
        ((0, 0), (1, 0)),
        ((0, 1), (0, 0)),
    ))
    ok, message = bad.validate()
    assert not ok
    assert "bracket compatibility" in message


def test_zero_dimensional_algebra_needs_dimv():
    algebra = MetrizedLieAlgebra((), ())
    with pytest.raises(ValueError):
        Representation(algebra, ())
    rep = Representation(algebra, (), dimV=2)
    assert rep.dimV == 2
    assert evaluate(rep.weight_tensor(), THETA) == 0


def test_tables_given_by_their_entries_are_taken_as_they_are():
    """A view of the form or of rho is kept, not rebuilt; its size must be given."""
    rep = so_standard(3)
    algebra = MetrizedLieAlgebra(rep.algebra.entries, rep.algebra.B, 3)
    same = Representation(algebra, rep.rho, 3)
    assert (same.rho, algebra.B, algebra.entries) == (rep.rho, rep.algebra.B,
                                                      rep.algebra.entries)
    assert same.rho is rep.rho and algebra.B is rep.algebra.B
    assert same.matrices == rep.matrices and same.weight_tensor() == rep.weight_tensor()
    with pytest.raises(ValueError, match="^a form given by its entries needs dim$"):
        MetrizedLieAlgebra(rep.algebra.entries, rep.algebra.B)
    with pytest.raises(ValueError, match="^matrices given by their entries need dimV$"):
        Representation(algebra, rep.rho)
    with pytest.raises(ValueError, match="^an index is outside 3 matrices of size 2x2$"):
        Representation(algebra, rep.rho, 2)
    with pytest.raises(ValueError, match="^an index is outside 2 matrices of size 3x3$"):
        Representation(MetrizedLieAlgebra({}, [[1, 0], [0, 1]]), rep.rho, 3)


def test_representation_json_round_trip():
    for rep in (sl2_standard(), so_standard(3), abelian(2)):
        doc = representation_to_json_dict(rep)
        back = representation_from_json_dict(doc)
        assert back.algebra.brackets == rep.algebra.brackets
        assert back.algebra.form == rep.algebra.form
        assert back.matrices == rep.matrices
        assert back.dimV == rep.dimV


def test_algebra_json_fills_antisymmetric_half():
    doc = {
        "dim": 2,
        "brackets": [{"i": 1, "j": 0, "coeffs": [[0, "3/2"]]}],
        "form": [["1", "0"], ["0", "1"]],
    }
    algebra = algebra_from_json_dict(doc)
    assert algebra.brackets[1][0][0] == Fraction(3, 2)
    assert algebra.brackets[0][1][0] == Fraction(-3, 2)
    exported = algebra_to_json_dict(algebra)
    assert exported["brackets"] == [{"i": 0, "j": 1, "coeffs": [[0, "-3/2"]]}]


@pytest.mark.parametrize("mutate,path", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.__setitem__("dim", -1), "dim"),
    (lambda d: d["brackets"].append({"i": 0, "j": 0, "coeffs": []}),
     "brackets[1]"),
    (lambda d: d["brackets"].append({"i": 1, "j": 0, "coeffs": []}),
     "brackets[1]"),
    (lambda d: d["brackets"][0]["coeffs"].append([1, "1/0"]),
     "brackets[0].coeffs[1][1]"),
    (lambda d: d["brackets"][0]["coeffs"].append([0, "5"]),
     "brackets[0].coeffs[1]"),
    (lambda d: d.__setitem__("form", [["1", "0"]]), "form"),
    (lambda d: d["matrices"][1].__setitem__(0, ["0"]), "matrices[1][0]"),
    (lambda d: d.__setitem__("dimV", "two"), "dimV"),
    (lambda d: d.__setitem__("matrices", []), "matrices"),
])
def test_json_errors_carry_field_paths(mutate, path):
    doc = {
        "dim": 2,
        "brackets": [{"i": 0, "j": 1, "coeffs": [[0, "1"]]}],
        "form": [["1", "0"], ["0", "1"]],
        "dimV": 2,
        "matrices": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
    }
    mutate(doc)
    with pytest.raises(JSONFormatError) as err:
        representation_from_json_dict(doc)
    assert err.value.path == path
