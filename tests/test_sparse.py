"""The labeled contraction against a brute-force sum over every index assignment."""

import itertools
import random

import pytest

from chordweight.sparse import contract

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
