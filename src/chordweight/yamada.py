"""Combinatorial state-sum weight system from planar chord smoothings."""

from fractions import Fraction

from .diagrams import ChordDiagram, smoothing_tally
from .work import charge_work


def yamada_weight(diagram: ChordDiagram, loop_value=3) -> Fraction:
    """Signed sum of loop_value**components over all 2^n smoothings.

    Each chord is resolved with either sign; a -1 resolution contributes a
    factor -1, and each smoothing contributes loop_value raised to its
    number of circle components.  ``smoothing_tally`` tallies the
    smoothings as integers by component count c, smoothing one chord at a
    time and merging partial smoothings that leave the same open ends, and
    sum_c k_c * loop_value**c is formed once.  With the default loop value
    3 this equals the weight system of the unit-three-sphere curvature
    tensor.  The 2^n smoothings are charged against the same work bound as
    ``evaluate_naive``; the merged states never outnumber them.
    """
    work = 2 ** diagram.n
    charge_work(work, f"state sum needs 2^n = {work} smoothings")
    value = Fraction(loop_value)
    return sum((k * value ** c for c, k in smoothing_tally(diagram).items()),
               Fraction(0))
