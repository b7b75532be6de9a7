"""The predicted-work bound that every costly entry point is charged against.

A caller predicts its work before it allocates or loops, and ``charge_work``
refuses it with WorkLimitExceeded when the prediction is over the bound: the
CHORDWEIGHT_MAX_WORK environment variable, else DEFAULT_MAX_WORK.  The CLI
turns the exception into exit code 2.
"""

from __future__ import annotations

import os

DEFAULT_MAX_WORK = 10 ** 7
WORK_ENV_VAR = "CHORDWEIGHT_MAX_WORK"


class WorkLimitExceeded(RuntimeError):
    """The predicted work of an evaluation, state sum, load or enumeration is over the bound."""


def charge_work(work: int, needs: str) -> None:
    """Raise WorkLimitExceeded if ``work`` is over the bound; ``needs`` says what it is."""
    env = os.environ.get(WORK_ENV_VAR)
    try:
        limit = DEFAULT_MAX_WORK if env is None else int(env)
    except ValueError as exc:
        raise ValueError(f"{WORK_ENV_VAR} must be an integer, got {env!r}") from exc
    if work > limit:
        raise WorkLimitExceeded(f"{needs}, limit is {limit}")
