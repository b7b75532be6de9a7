"""Canonical forms, enumeration, smoothing counts, and Hopf operations."""

import pytest

import oracles
from chordweight import (
    ChordDiagram,
    WorkLimitExceeded,
    coproduct,
    enumerate_diagrams,
    product,
    restrict,
    smooth_components,
)
from chordweight.diagrams import _least_gap_rotations, charge_enumeration
from chordweight.formal import FormalSum


@pytest.mark.parametrize("code", ["", "AA", "ABAB", "AABB", "ABCABC", "AABBCC"])
def test_code_round_trip(code):
    assert ChordDiagram.from_code(code).code == code


def test_construction_canonicalizes_rotations():
    base = ChordDiagram.from_code("ABACBC")
    for r in range(6):
        rotated = ChordDiagram(oracles.rotate_matching(base.matching, r))
        assert rotated == base
        assert rotated.code == base.code


def test_reflection_is_not_identified():
    """The circle is oriented: a mirror image may be a different diagram.

    For every diagram with n <= 4 the reflected matching is still *some*
    canonical diagram, and for n <= 3 reflection happens to fix every class,
    so equality of the full enumeration is the sharper check.
    """
    for n in range(5):
        diagrams = set(enumerate_diagrams(n))
        reflected = set()
        for d in diagrams:
            m = len(d.matching)
            refl = tuple((m - 1 - d.matching[m - 1 - i]) % m for i in range(m))
            reflected.add(ChordDiagram(refl))
        assert reflected == diagrams


def test_from_code_rejects_bad_labels():
    with pytest.raises(ValueError):
        ChordDiagram.from_code("ABA")
    with pytest.raises(ValueError):
        ChordDiagram.from_code("AABBA")


def test_matching_validation():
    with pytest.raises(ValueError):
        ChordDiagram((0, 1))  # fixed point
    with pytest.raises(ValueError):
        ChordDiagram((1, 0, 2, 3))  # not an involution... 2 maps to itself
    with pytest.raises(ValueError):
        ChordDiagram((1, 0, 3))  # odd length


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 18), (5, 105),
                                     (6, 902), (7, 9749)])
def test_enumeration_counts(n, count):
    assert len(enumerate_diagrams(n)) == count


@pytest.mark.parametrize("n", range(7))
def test_generator_emits_one_matching_per_rotation_orbit(n):
    """One least gap rotation per orbit of the brute-force closure, nothing else."""
    m = 2 * n
    emitted = _least_gap_rotations(n)
    matchings = [tuple((p + g) % m for p, g in enumerate(gaps)) for gaps in emitted]
    orbits = oracles.rotation_orbits(n)
    assert len(matchings) == len(orbits)
    for orbit in orbits:
        assert sum(mat in orbit for mat in matchings) == 1
    assert all(oracles.class_key(mat) == gaps for mat, gaps in zip(matchings, emitted))


def test_enumeration_budget_admits_degree_7_and_refuses_degree_8(monkeypatch):
    monkeypatch.delenv("CHORDWEIGHT_MAX_WORK", raising=False)
    charge_enumeration(7)  # 13!! * 14 = 1,891,890 steps
    with pytest.raises(WorkLimitExceeded,
                       match=r"degree 8 needs .* = 32432400 steps, limit is 10000000"):
        enumerate_diagrams(8)


def test_a_lowered_bound_refuses_one_degree_and_admits_the_one_below(monkeypatch):
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", str(9 * 7 * 5 * 3 * 10))  # degree 5
    assert len(enumerate_diagrams(5)) == 105
    with pytest.raises(WorkLimitExceeded, match=r"= 124740 steps, limit is 9450"):
        enumerate_diagrams(6)


def test_class_key_separates_exactly_the_rotation_orbits():
    """The oracle key that the generator and slot-table tests compare against."""
    for n in range(5):
        orbit_of = {}
        for k, orbit in enumerate(oracles.rotation_orbits(n)):
            for mat in orbit:
                orbit_of[mat] = k
        matchings = oracles.all_matchings(n)
        keys = {mat: oracles.class_key(mat) for mat in matchings}
        for a in matchings:
            for b in matchings:
                assert (keys[a] == keys[b]) == (orbit_of[a] == orbit_of[b])


def test_enumeration_matches_orbit_oracle():
    for n in range(5):
        orbits = oracles.rotation_orbits(n)
        diagrams = enumerate_diagrams(n)
        assert len(diagrams) == len(orbits)
        # each orbit canonicalizes to a single listed diagram
        for orbit in orbits:
            images = {ChordDiagram(mat) for mat in orbit}
            assert len(images) == 1
            assert images.pop() in diagrams


def test_enumeration_is_sorted_and_capped():
    codes = [d.code for d in enumerate_diagrams(3)]
    assert codes == sorted(codes)
    with pytest.raises(ValueError):
        enumerate_diagrams(9)
    with pytest.raises(ValueError):
        enumerate_diagrams(-1)


def test_chord_bookkeeping():
    d = ChordDiagram.from_code("ABAB")
    assert d.chords == ((0, 2), (1, 3))
    assert not d.has_isolated_chord
    assert ChordDiagram.from_code("AABB").has_isolated_chord
    assert ChordDiagram.from_code("AA").has_isolated_chord


def test_theta_smoothings():
    theta = ChordDiagram.from_code("AA")
    assert smooth_components(theta, (1,)) == 2
    assert smooth_components(theta, (-1,)) == 1


def test_two_chord_smoothings():
    crossing = ChordDiagram.from_code("ABAB")
    parallel = ChordDiagram.from_code("AABB")
    assert {s: smooth_components(crossing, s)
            for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]} == {
        (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 2,
    }
    assert {s: smooth_components(parallel, s)
            for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]} == {
        (1, 1): 3, (1, -1): 2, (-1, 1): 2, (-1, -1): 1,
    }


def test_smoothing_matches_walking_oracle():
    for n in range(4):
        for d in enumerate_diagrams(n):
            for bits in range(1 << n):
                signs = tuple(1 if bits >> k & 1 else -1 for k in range(n))
                assert smooth_components(d, signs) == oracles.walk_components(
                    d.matching, signs
                )


def test_smoothing_of_bare_circle():
    assert smooth_components(ChordDiagram(), ()) == 1


def test_smoothing_sign_validation():
    theta = ChordDiagram.from_code("AA")
    with pytest.raises(ValueError):
        smooth_components(theta, (1, 1))
    with pytest.raises(ValueError):
        smooth_components(theta, (2,))


def test_product_degree_and_identity():
    theta = ChordDiagram.from_code("AA")
    crossing = ChordDiagram.from_code("ABAB")
    assert product(theta, crossing, 0, 0).n == 3
    empty = ChordDiagram()
    assert product(empty, crossing, 0, 0) == crossing
    assert product(crossing, empty, 3, 0) == crossing
    assert product(theta, theta, 0, 0) == ChordDiagram.from_code("AABB")


def test_product_cut_validation():
    theta = ChordDiagram.from_code("AA")
    with pytest.raises(ValueError):
        product(theta, theta, 3, 0)
    with pytest.raises(ValueError):
        product(theta, theta, 0, -1)


def test_restrict():
    d = ChordDiagram.from_code("ABCABC")
    assert restrict(d, [0]) == ChordDiagram.from_code("AA")
    assert restrict(d, [0, 1]) == ChordDiagram.from_code("ABAB")
    assert restrict(d, [0, 1, 2]) == d
    assert restrict(d, []) == ChordDiagram()
    with pytest.raises(ValueError):
        restrict(d, [3])


def test_coproduct_of_crossing():
    crossing = ChordDiagram.from_code("ABAB")
    theta = ChordDiagram.from_code("AA")
    empty = ChordDiagram()
    delta = coproduct(crossing)
    assert delta.coefficient((empty, crossing)) == 1
    assert delta.coefficient((crossing, empty)) == 1
    assert delta.coefficient((theta, theta)) == 2
    assert sum(c for _, c in delta.items()) == 4


def test_coproduct_total_mass():
    """Summing all coefficients counts the 2^n chord subsets."""
    for n in range(5):
        for d in enumerate_diagrams(n):
            assert sum(c for _, c in coproduct(d).items()) == 2 ** d.n


def test_chord_diagram_is_an_immutable_value():
    diagram = ChordDiagram.from_code("AABB")
    rotated = ChordDiagram(matching=(3, 2, 1, 0))  # ABBA, a rotation
    assert rotated == diagram and rotated is not diagram
    assert hash(rotated) == hash(diagram) == hash(((1, 0, 3, 2),))
    assert diagram != ChordDiagram.from_code("ABAB")
    assert diagram != (1, 0, 3, 2)
    assert repr(diagram) == "ChordDiagram('AABB')"
    assert repr(ChordDiagram()) == "ChordDiagram('')"
    with pytest.raises(AttributeError):
        diagram.matching = (3, 2, 1, 0)
    with pytest.raises(AttributeError):
        del diagram.matching
    assert diagram.matching == (1, 0, 3, 2)

