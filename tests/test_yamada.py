"""The combinatorial state-sum weight system."""

import string
import time
from fractions import Fraction
from itertools import product

import pytest

import oracles
from chordweight import (
    ChordDiagram,
    WorkLimitExceeded,
    constant_curvature,
    enumerate_diagrams,
    evaluate,
)
from chordweight.yamada import yamada_weight


def test_frozen_values_at_three():
    assert yamada_weight(ChordDiagram()) == 3
    assert yamada_weight(ChordDiagram.from_code("AA")) == 6
    assert yamada_weight(ChordDiagram.from_code("ABAB")) == 6
    assert yamada_weight(ChordDiagram.from_code("AABB")) == 12


def test_empty_diagram_is_the_loop_value():
    assert yamada_weight(ChordDiagram(), Fraction(7, 2)) == Fraction(7, 2)


def test_theta_in_terms_of_loop_value():
    """theta: the +1 smoothing has two circles, the -1 smoothing one."""
    for N in (2, 3, 5, Fraction(1, 3)):
        assert yamada_weight(ChordDiagram.from_code("AA"), N) == N * N - N


def test_matches_constant_curvature_models():
    """At integer N the state sum is the kappa=1, g=I weight system in dim N."""
    for N in (2, 4):
        tensor = constant_curvature(N).weight_tensor()
        for n in range(4):
            for diagram in enumerate_diagrams(n):
                assert yamada_weight(diagram, N) == evaluate(tensor, diagram)


def test_rational_loop_values_stay_exact():
    value = yamada_weight(ChordDiagram.from_code("ABAB"), Fraction(5, 3))
    # N^1*(1 - 2) + ... expand the four summands by hand: components are
    # 1, 1, 1, 2 with signs +, -, -, +
    N = Fraction(5, 3)
    assert value == N - N - N + N ** 2


@pytest.mark.parametrize("N", [3, Fraction(5, 3), -2], ids=["3", "5/3", "-2"])
def test_matches_a_state_sum_over_walked_components(N):
    for n in range(6):
        for diagram in enumerate_diagrams(n):
            expected = sum(
                (-1) ** signs.count(-1)
                * N ** oracles.walk_components(diagram.matching, signs)
                for signs in product((1, -1), repeat=n)
            )
            assert yamada_weight(diagram, N) == expected


def test_state_sum_is_charged_2_to_the_n(monkeypatch):
    crossing = ChordDiagram.from_code("ABCDEFGABCDEFG")
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "128")
    assert yamada_weight(crossing) == -120
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "127")
    with pytest.raises(WorkLimitExceeded, match=r"2\^n = 128 smoothings, limit is 127"):
        yamada_weight(crossing)


@pytest.mark.parametrize("diagram,value", [
    (ChordDiagram.from_code(string.ascii_uppercase[:20] * 2), 1099511627780),
    (ChordDiagram(oracles.random_matching(23, 23)), 46460),
], ids=["crossing20", "random23"])
def test_large_admitted_state_sums_finish_in_a_second(diagram, value):
    """Under the default budget; walking all 2^n smoothings took 4 s and 32 s."""
    start = time.perf_counter()
    assert yamada_weight(diagram, 5) == value
    assert time.perf_counter() - start < 1
