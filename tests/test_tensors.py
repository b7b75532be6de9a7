"""Weight tensor storage, contraction, and the tensor-level identities."""

import random
import re
import string
from fractions import Fraction

import pytest

import models
import oracles
from chordweight import (
    ChordDiagram,
    WeightTensor,
    WorkLimitExceeded,
    check_four_term,
    check_parallel_four_term,
    constant_curvature,
    enumerate_diagrams,
    evaluate,
    evaluate_naive,
    evaluate_sum,
    sl2_standard,
    so_standard,
    validate_symmetry,
    yamada_weight,
)
from chordweight.curvature import model_from_json_dict
from chordweight.formal import FormalSum
from chordweight.tensors import contraction_plan

THETA = ChordDiagram.from_code("AA")


def test_constructor_validates_dimension_and_indices():
    with pytest.raises(ValueError):
        WeightTensor(0, [])
    for index in ((0, 0, 0, 2), (0, 0, 0, -1)):
        with pytest.raises(ValueError, match=re.escape(f"index {index} ")):
            WeightTensor(2, [(index, 5)])
        with pytest.raises(ValueError, match=re.escape(f"index {index} ")):
            WeightTensor.from_entries(2, [(index, 5)])


def test_tensor_is_immutable_and_hashable():
    t = models.identity_tensor(2)
    with pytest.raises(AttributeError):
        t.dim = 3
    with pytest.raises(TypeError):
        t.entries[0, 0, 0, 0] = 2
    assert hash(t) == hash(models.identity_tensor(2))
    assert t == models.identity_tensor(2)
    assert t != models.identity_tensor(3)
    items = [((0, 1, 1, 0), Fraction(2, 3)), ((1, 1, 0, 0), -1), ((0, 0, 0, 1), 4)]
    forward, backward = WeightTensor(2, items), WeightTensor(2, items[::-1])
    assert forward == backward
    assert hash(forward) == hash(backward)
    assert WeightTensor(2, [((0, 0, 0, 0), 0)]) == WeightTensor(2, [])
    repeated = WeightTensor(2, [((0, 0, 0, 0), 1), ((0, 1, 0, 1), 3),
                                ((0, 0, 0, 0), 2)])
    assert dict(repeated.entries) == {(0, 0, 0, 0): 2, (0, 1, 0, 1): 3}
    cleared = WeightTensor(2, [((0, 0, 0, 0), 1), ((0, 0, 0, 0), 0)])
    assert cleared == WeightTensor(2, [])
    assert dict(cleared.entries) == {}


def test_identity_tensor_counts_one_colour():
    """Pass-through legs force one arc value around the whole circle."""
    for d in (1, 2, 3):
        t = models.identity_tensor(d)
        for n in range(4):
            for diagram in enumerate_diagrams(n):
                assert evaluate(t, diagram) == d


def test_empty_diagram_evaluates_to_dimension():
    t = WeightTensor.from_entries(5, [])
    assert evaluate(t, ChordDiagram()) == 5
    assert evaluate_naive(t, ChordDiagram()) == 5


def test_theta_contraction_formula():
    """w(theta) = sum_{u,v} H(u, v, v, u)."""
    entries = [[[[Fraction((a + 2 * b - c) * (d + 1), 3) for d in range(2)]
                 for c in range(2)] for b in range(2)] for a in range(2)]
    t = WeightTensor(2, oracles.array_items(entries))
    expected = sum(t.entries.get((u, v, v, u), 0) for u in range(2) for v in range(2))
    assert evaluate(t, THETA) == expected
    assert evaluate_naive(t, THETA) == expected


def test_leg_symmetry_detection():
    sym = WeightTensor.from_entries(2, [(((0, 1, 1, 0)), 2), (((1, 0, 0, 1)), 2)])
    assert validate_symmetry(sym)
    asym = WeightTensor.from_entries(2, [(((0, 1, 1, 0)), 2)])
    assert not validate_symmetry(asym)


def test_identity_tensor_satisfies_four_term():
    assert check_four_term(models.identity_tensor(3)) == (True, None)


def test_four_term_witness_is_lex_minimal():
    t = WeightTensor.from_entries(2, [((0, 0, 0, 1), 1)])
    ok, witness = check_four_term(t)
    assert not ok
    assert witness == (0, 1, 0, 1, 0, 0)


def test_one_dimensional_tensors_always_pass_four_term():
    t = WeightTensor.from_entries(1, [((0, 0, 0, 0), Fraction(7, 3))])
    assert check_four_term(t) == (True, None)
    assert evaluate(t, THETA) == Fraction(7, 3)


def test_evaluate_sum_is_linear():
    t = models.identity_tensor(2)
    crossing = ChordDiagram.from_code("ABAB")
    combo = FormalSum({THETA: Fraction(1, 2), crossing: -3})
    assert evaluate_sum(t, combo) == Fraction(1, 2) * 2 + (-3) * 2
    assert evaluate_sum(t, FormalSum()) == 0


def test_naive_work_limit(monkeypatch):
    t = models.identity_tensor(3)
    d4 = enumerate_diagrams(4)[0]  # before the bound drops: enumeration is charged too
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "10")
    with pytest.raises(WorkLimitExceeded):
        evaluate_naive(t, d4)
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(3 ** 8))
    assert evaluate_naive(t, d4) == 3


def test_work_limit_env_var(monkeypatch):
    t = models.identity_tensor(2)
    d2 = enumerate_diagrams(2)[0]  # before the bound drops: enumeration is charged too
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "10")
    with pytest.raises(WorkLimitExceeded, match=r"d\^\(2n\) = 16 assignments"):
        evaluate_naive(t, d2)
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "100")
    assert evaluate_naive(t, d2) == 2


def test_contraction_is_charged_its_plan_cost(monkeypatch):
    crossing = ChordDiagram.from_code("ABCDABCD")
    cost = contraction_plan(crossing).cost(4)
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(cost))
    assert evaluate(SO4, crossing) == oracles.sweep_evaluate(SO4, crossing)
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(cost - 1))
    with pytest.raises(WorkLimitExceeded,
                       match=rf"d\^\(arcs touched\) = {cost} products, "
                             rf"limit is {cost - 1}"):
        evaluate(SO4, crossing)


def test_four_term_checks_are_charged_their_nonzero_products(monkeypatch):
    """Each term pairs an entry of Q = P[e][f] with every entry holding, in
    the term's slot, the index that Q moves: one product per pair."""
    model = constant_curvature(3)
    checks = [(check_four_term, model.weight_tensor(), (1, 3)),
              (check_parallel_four_term, model, (3,))]
    for check, arg, outgoing in checks:
        entries = arg.entries
        products = sum(key[s] == (p if s in outgoing else q)
                       for s in range(4) for (_, _, p, q) in entries for key in entries)
        assert products == 192
        monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(products))
        assert check(arg) == (True, None)
        monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(products - 1))
        with pytest.raises(WorkLimitExceeded, match=(
                "^the four-term check needs 192 products of nonzero entries, "
                "limit is 191$")):
            check(arg)


def test_tensor_load_is_charged_dim_to_the_4(monkeypatch):
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "81")
    doc = {"dim": 3, "entries": []}
    assert WeightTensor.from_json_dict(doc) == WeightTensor.from_entries(3, [])
    with pytest.raises(WorkLimitExceeded, match="dim\\^4 = 256 entries, limit is 81"):
        WeightTensor.from_json_dict({"dim": 4, "entries": []})


def test_json_round_trip():
    t = WeightTensor.from_entries(
        2, [((0, 1, 1, 0), Fraction(2, 3)), ((1, 0, 0, 1), Fraction(2, 3))]
    )
    assert WeightTensor.from_json_dict(t.to_json_dict()) == t
    doc = t.to_json_dict()
    assert doc["dim"] == 2
    assert doc["entries"][0] == {"a": 0, "b": 1, "c": 1, "d": 0, "value": "2/3"}


def test_json_rejects_duplicates_and_bad_indices():
    from chordweight.jsonio import JSONFormatError

    base = {"dim": 2, "entries": [{"a": 0, "b": 0, "c": 0, "d": 0, "value": "1"}]}
    dup = {"dim": 2, "entries": base["entries"] * 2}
    with pytest.raises(JSONFormatError) as err:
        WeightTensor.from_json_dict(dup)
    assert err.value.path == "entries[1]"
    bad = {"dim": 2, "entries": [{"a": 2, "b": 0, "c": 0, "d": 0, "value": "1"}]}
    with pytest.raises(JSONFormatError) as err:
        WeightTensor.from_json_dict(bad)
    assert err.value.path == "entries[0].a"


ENTRY = {"a": 0, "b": 0, "c": 0, "d": 0, "value": "1"}
ENTRY_LOADERS = {
    "tensor": ("entries", lambda raw: WeightTensor.from_json_dict(
        {"dim": 2, "entries": raw})),
    "curvature": ("R", lambda raw: model_from_json_dict(
        {"dim": 2, "metric": [[1, 0], [0, 1]], "R": raw})),
}
BAD_ENTRIES = {
    "out-of-range": ([dict(ENTRY, c=2)], "[0].c", "expected an integer index in [0, 2)"),
    "negative": ([dict(ENTRY, b=-1)], "[0].b", "expected an integer index in [0, 2)"),
    "boolean": ([dict(ENTRY, d=True)], "[0].d", "expected an integer index in [0, 2)"),
    "duplicate": ([ENTRY, dict(ENTRY, value="2")], "[1]",
                  "duplicate entry for indices (0, 0, 0, 0)"),
    "not-a-list": ({"0": ENTRY}, "", "expected a list"),
}


@pytest.mark.parametrize("case", BAD_ENTRIES)
@pytest.mark.parametrize("loader", ENTRY_LOADERS)
def test_entry_readers_share_one_error_contract(loader, case):
    """Tensor and curvature files report a bad entry list alike."""
    from chordweight.jsonio import JSONFormatError

    field, load = ENTRY_LOADERS[loader]
    raw, suffix, message = BAD_ENTRIES[case]
    with pytest.raises(JSONFormatError) as err:
        load(raw)
    assert (err.value.path, err.value.message) == (field + suffix, message)


def full_crossing(n):
    return ChordDiagram.from_code(string.ascii_uppercase[:n] * 2)


def ladder(n):
    """Chord k closes just before chord k+2 opens."""
    labels = string.ascii_uppercase[:n]
    seq = [labels[0], labels[1]]
    for k in range(2, n):
        seq += [labels[k - 2], labels[k]]
    return ChordDiagram.from_code("".join(seq + [labels[n - 2], labels[n - 1]]))


def change_basis(tensor, rng, moves):
    """The tensor in a seeded unimodular basis: its weight system is unchanged.

    Q is a product of integer row operations and R its exact inverse; each
    arc carries R on the leg it leaves and Q on the leg it enters, so the
    two cancel when the arc is summed.
    """
    d = tensor.dim
    Q = [[int(i == j) for j in range(d)] for i in range(d)]
    R = [row[:] for row in Q]
    for _ in range(moves):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        Q[i] = [x + c * y for x, y in zip(Q[i], Q[j])]
        for row in R:
            row[j] -= c * row[i]
    out = {}
    rng_d = range(d)
    for (a0, b0, c0, d0), value in tensor.nonzero_items():
        for a in rng_d:
            for b in rng_d:
                for c in rng_d:
                    for e in rng_d:
                        w = Q[a][a0] * R[b0][b] * Q[c][c0] * R[d0][e]
                        if w:
                            out[a, b, c, e] = out.get((a, b, c, e), 0) + w * value
    return WeightTensor.from_entries(d, out.items())


def skew_tensor():
    """A seeded dim-3 tensor with mixed denominators and no leg symmetry."""
    rng = random.Random(20261018)
    values = (0, 0, 0, 1, -2, Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6))
    return WeightTensor(3, oracles.array_items(
        [[[[rng.choice(values) for _ in range(3)] for _ in range(3)]
          for _ in range(3)] for _ in range(3)]))


UP_TO_FIVE = [d for n in range(6) for d in enumerate_diagrams(n)]
SO4 = so_standard(4).weight_tensor()
SO4_DENSE = change_basis(SO4, random.Random(4), 8)


@pytest.mark.parametrize("tensor", [
    SO4,
    sl2_standard().weight_tensor(),
    constant_curvature(3, metric=[[1, 0, 0], [0, 1, 0], [0, 0, -1]]).weight_tensor(),
    skew_tensor(),
], ids=["so4", "sl2", "lorentz3", "skew3"])
def test_contraction_matches_the_sweep_oracle(tensor):
    for diagram in UP_TO_FIVE:
        assert evaluate(tensor, diagram) == oracles.sweep_evaluate(tensor, diagram)


def test_skew_tensor_pins_leg_one_at_the_smaller_endpoint():
    tensor = skew_tensor()
    assert not validate_symmetry(tensor)
    swapped = WeightTensor.from_entries(
        3, (((c, d, a, b), v) for (a, b, c, d), v in tensor.nonzero_items()))
    diagram = ChordDiagram.from_code("ABCACB")
    assert evaluate(tensor, diagram) == oracles.sweep_evaluate(tensor, diagram)
    assert evaluate(tensor, diagram) != evaluate(swapped, diagram)


def test_contraction_in_a_dense_basis():
    """so4 in a dense unimodular basis against the sweep and the standard basis.

    Sweeping the dense tensor over 5-chord diagrams takes about 25 s, so
    there the oracle is the sweep of the standard basis: a change of basis
    leaves the weight system unchanged.
    """
    assert sum(1 for _ in SO4_DENSE.nonzero_items()) > 200
    for diagram in UP_TO_FIVE:
        expected = (oracles.sweep_evaluate(SO4_DENSE, diagram) if diagram.n <= 4
                    else oracles.sweep_evaluate(SO4, diagram))
        assert evaluate(SO4_DENSE, diagram) == expected
    assert evaluate(SO4_DENSE, full_crossing(6)) == 732


@pytest.mark.parametrize("diagram, value", [
    (ladder(13), 20),
    (full_crossing(14), 268435460),
], ids=["ladder13", "crossing14"])
def test_contraction_matches_the_state_sum_on_large_diagrams(diagram, value):
    assert yamada_weight(diagram, 5) == value
    assert evaluate(constant_curvature(5).weight_tensor(), diagram) == value
    assert evaluate(so_standard(5).weight_tensor(), diagram) == value


def test_contraction_plan_is_fixed_by_the_diagram():
    diagram = ChordDiagram.from_code("ABCABC")
    plan = contraction_plan(diagram)
    assert plan.steps == ((0, 1, 6), (2, 3, 4))
    assert plan.cost(5) == 5 ** 6 + 5 ** 4
    for tensor in (SO4, SO4_DENSE, skew_tensor()):
        evaluate(tensor, diagram)
        assert contraction_plan(diagram) == plan
    assert contraction_plan(ChordDiagram()).cost(5) == 0
    assert contraction_plan(THETA).steps == ()


def test_full_crossing_has_width_four():
    """Every step touches at most 6 arcs, however many chords cross."""
    for n in (4, 8, 14):
        plan = contraction_plan(full_crossing(n))
        assert len(plan.steps) == n - 1
        assert max(touched for _, _, touched in plan.steps) == 6
        assert plan.cost(5) <= (n - 1) * 5 ** 6
