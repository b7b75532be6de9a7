"""The labeled contraction, its product count and its sliced least nonzero key,
against a brute-force sum over every index assignment; the one table storage."""

import itertools
import random
from fractions import Fraction

import pytest

from chordweight import ChordDiagram, check_four_term, constant_curvature, evaluate
from chordweight.curvature import check_parallel_four_term
from chordweight.sparse import IntegerView, contract, least_nonzero, least_nonzero_sum, products
from chordweight.yamada import yamada_weight

DIM = 3


def random_table(rng, rank, density=0.5):
    """{index tuple: int} with small nonzero entries at a seeded share of the keys."""
    return {key: rng.choice((-3, -2, -1, 1, 2, 3))
            for key in itertools.product(range(DIM), repeat=rank)
            if rng.random() < density}


def brute_force(left_labels, left, right_labels, right, out_labels):
    """Sum of left * right over every assignment of an index to every label."""
    labels = list(dict.fromkeys([*left_labels, *right_labels]))
    sums = {}
    for values in itertools.product(range(DIM), repeat=len(labels)):
        at = dict(zip(labels, values))
        product = (left.get(tuple(at[x] for x in left_labels), 0)
                   * right.get(tuple(at[x] for x in right_labels), 0))
        key = tuple(at[x] for x in out_labels)
        sums[key] = sums.get(key, 0) + product
    return {key: v for key, v in sums.items() if v}


CASES = [
    # none shared: the outer product, in natural and in permuted order
    ("ab", "cd", "abcd"),
    ("ab", "cd", "cadb"),
    # one shared
    ("ax", "xb", "ab"),
    ("ax", "xb", "ba"),
    ("efax", "xbcd", "abcdef"),
    ("ijk", "krc", "ijrc"),
    # two shared
    ("axy", "yxb", "ab"),
    ("xay", "xyb", "ba"),
    # arcs, as the evaluator names them
    ((3, 0, 5), (5, 7, 3), (0, 7)),
    ((1, 2), (3, 4), (4, 1, 3, 2)),
    ((0, 1, 2, 3), (2, 3, 4, 5), (5, 0, 1, 4)),
]


@pytest.mark.parametrize("left_labels,right_labels,out_labels", CASES)
@pytest.mark.parametrize("seed", range(4))
def test_contract_matches_brute_force(seed, left_labels, right_labels, out_labels):
    rng = random.Random(seed)
    left = random_table(rng, len(left_labels))
    right = random_table(rng, len(right_labels))
    assert contract(left_labels, left, right_labels, right, out_labels) == brute_force(
        left_labels, left, right_labels, right, out_labels)


@pytest.mark.parametrize("left_labels,right_labels,out_labels", CASES)
def test_contract_adds_scaled_sums_into(left_labels, right_labels, out_labels):
    rng = random.Random(7)
    left = random_table(rng, len(left_labels))
    right = random_table(rng, len(right_labels))
    into = random_table(rng, len(out_labels))
    expected = dict(into)
    for key, v in brute_force(left_labels, left, right_labels, right, out_labels).items():
        expected[key] = expected.get(key, 0) - 2 * v
    got = contract(left_labels, left, right_labels, right, out_labels, into, scale=-2)
    assert got is into
    assert {key: v for key, v in got.items() if v} == {
        key: v for key, v in expected.items() if v}


@pytest.mark.parametrize("left_labels,right_labels,out_labels", CASES)
@pytest.mark.parametrize("seed", range(4))
def test_products_counts_the_products_contract_forms(seed, left_labels, right_labels,
                                                     out_labels):
    rng = random.Random(seed)
    left = random_table(rng, len(left_labels))
    right = random_table(rng, len(right_labels))
    shared = [(left_labels.index(x), right_labels.index(x))
              for x in left_labels if x in right_labels]
    expected = sum(all(u[i] == v[j] for i, j in shared) for u in left for v in right)
    assert products(left_labels, left, right_labels, right, out_labels) == expected


@pytest.mark.parametrize("left_labels,right_labels,out_labels", CASES)
@pytest.mark.parametrize("seed", range(6))
def test_least_nonzero_sum_is_the_least_key_of_the_full_sum(seed, left_labels,
                                                            right_labels, out_labels):
    """Two terms that cancel but for one nudged entry (none at seed 0); the
    second lists its tables the other way round, so the first output label
    is sliced in the left table of one term and the right table of the other."""
    rng = random.Random(seed)
    left = random_table(rng, len(left_labels))
    right = random_table(rng, len(right_labels))
    nudged = dict(left)
    if seed:
        nudged[max(left) if seed % 2 else rng.choice(sorted(left))] += seed
    full = brute_force(left_labels, left, right_labels, right, out_labels)
    for key, v in brute_force(left_labels, nudged, right_labels, right, out_labels).items():
        full[key] = full.get(key, 0) - v
    terms = [(1, left_labels, IntegerView(left, len(left_labels)),
              right_labels, IntegerView(right, len(right_labels))),
             (-1, right_labels, IntegerView(right, len(right_labels)),
              left_labels, IntegerView(nudged, len(left_labels)))]
    assert least_nonzero_sum(terms, out_labels) == least_nonzero(full)


def test_zero_sums_are_dropped():
    left = {(0, 0): 1, (0, 1): 1, (1, 0): 2}
    right = {(0, 0): 1, (1, 0): -1, (1, 1): 5}
    # (0, 0): 1 * 1 + 1 * (-1) cancels; (0, 1) and (1, 0) do not
    assert contract("ax", left, "xb", right, "ab") == {(0, 1): 5, (1, 0): 2}


@pytest.mark.parametrize("left_labels,right_labels,out_labels", [
    ("ax", "xb", "a"),          # drops b
    ("ax", "xb", "axb"),        # keeps the shared x
    ("ax", "xb", "abb"),        # names b twice
    ("ax", "xb", "ac"),         # names a label of neither
    ((0, 1), (1, 2), (0, 1, 2)),
    ((0, 1), (1, 2), (2,)),
])
def test_out_labels_must_be_the_unshared_labels(left_labels, right_labels, out_labels):
    with pytest.raises(ValueError):
        contract(left_labels, {(0, 0): 1}, right_labels, {(0, 0): 1}, out_labels)


def test_a_view_is_its_nonzero_entries_over_their_least_denominator():
    values = {(1, 0): Fraction(2, 3), (0, 1): Fraction(-1, 6), (0, 0): 0, (1, 1): 4}
    view = IntegerView(values, 2)
    assert (view.nums, view.den) == ({(0, 1): -1, (1, 0): 4, (1, 1): 24}, 6)
    assert list(view.nums) == sorted(view.nums)
    assert dict(view) == {key: v for key, v in values.items() if v}
    assert all(type(v) is Fraction for v in view.values())
    assert view == IntegerView([[0, Fraction(-1, 6)], [Fraction(2, 3), 4]], 2)
    assert view == {(0, 1): Fraction(-1, 6), (1, 0): Fraction(2, 3), (1, 1): 4}
    assert view != IntegerView({(0, 1): 1}, 2)
    assert (view.get((0, 0)), (0, 0) in view, (1, 1) in view) == (None, False, True)
    with pytest.raises(TypeError):
        view[0, 0] = 1
    # a sum of numerator products over a product of denominators, as made
    assert IntegerView.of({(0, 1): -3, (1, 0): 12, (1, 1): 72, (0, 0): 0}, 18) == view
    assert (IntegerView.of({}, 7).nums, IntegerView.of({}, 7).den) == ({}, 1)


def test_checks_and_evaluation_of_built_records_build_no_view(monkeypatch):
    """A record's table is its view: the identity checks and the evaluator
    read it as it is, and build no IntegerView from values."""
    model = constant_curvature(4, [[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, 3]])
    tensor = model.weight_tensor()
    built = []
    build = IntegerView.__init__
    monkeypatch.setattr(IntegerView, "__init__",
                        lambda view, *args: built.append(args) or build(view, *args))
    assert check_four_term(tensor) == (True, None)
    assert check_parallel_four_term(model) == (True, None)
    assert evaluate(tensor, ChordDiagram.from_code("ABCABC")) == yamada_weight(
        ChordDiagram.from_code("ABCABC"), 4)
    assert built == []
