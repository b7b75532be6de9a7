"""Acceptance gate: every check exact, tolerance zero.

Each criterion prints one PASS line (run with -s or -rA to see them all).
A criterion that fails raises, and the test fails with the mismatch it
names.
"""

import pytest

from chordweight import acceptance

IDS = [f"{number}-{label.replace(' ', '-')}" for number, label, _ in acceptance.CRITERIA]


@pytest.mark.parametrize("number,label,func", acceptance.CRITERIA, ids=IDS)
def test_criterion(number, label, func):
    print(f"criterion {number} ({label}): PASS - {func()}")
