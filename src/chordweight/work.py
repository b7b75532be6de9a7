"""The predicted-work bound that every costly entry point is charged against.

A caller predicts its work before it allocates or loops, and ``charge_work``
refuses it with WorkLimitExceeded when the prediction is over the bound: an
explicit max_work, else the CHORDWEIGHT_MAX_WORK environment variable, else
DEFAULT_MAX_WORK.  The CLI turns the exception into exit code 2.
"""

from __future__ import annotations

import os

DEFAULT_MAX_WORK = 10 ** 7
WORK_ENV_VAR = "CHORDWEIGHT_MAX_WORK"


class WorkLimitExceeded(RuntimeError):
    """The predicted work of an evaluation, state sum, load or enumeration is over the bound."""


def _work_limit(max_work) -> int:
    if max_work is not None:
        return int(max_work)
    env = os.environ.get(WORK_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{WORK_ENV_VAR} must be an integer, got {env!r}") from exc
    return DEFAULT_MAX_WORK


def charge_work(work: int, needs: str, max_work=None) -> None:
    """Raise WorkLimitExceeded if ``work`` is over the bound; ``needs`` says what it is."""
    limit = _work_limit(max_work)
    if work > limit:
        raise WorkLimitExceeded(f"{needs}, limit is {limit}")
