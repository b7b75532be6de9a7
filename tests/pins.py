"""The pinned CLI runs: their rows, how one is run, and how it is checked.

    PYTHONPATH=src python tests/pins.py

runs every row of ``tests/pinned/runs.txt`` and of
``tests/pinned/routes.txt`` as a fresh process at the repository root and
compares it with its pin.  It names each row that differs, with a diff,
and exits 1 if any does.  It drops the caller's ``CHORDWEIGHT_MAX_WORK``
first, as tier-1's ``conftest.py`` does, so the runs see the default bound.

A row of runs.txt is ``<pin file> <exit code> <argv...>`` and a row of
routes.txt ``<pin of runs.txt> <argv...>``, a second run that must match
that pin; paths are from the repository root.  A pin is stdout, or the
sha256 of stdout for a ``.sha256`` pin, with stderr empty; a ``.stderr``
pin is stderr, and an ``.error`` pin the last line of stderr, with stdout
empty.  An ``.error`` pin leaves out the usage lines above argparse's error
line, which argparse wraps to the terminal's width.

This is the only reader of the two files and the only comparison of a run
with its pin: the tier-1 tests and ``tools/reach.py --runs`` import it, and
CI runs it.  pytest does not collect it.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "pinned"


def _rows(name: str) -> list:
    return [line.split() for line in (PINNED / name).read_text(encoding="utf-8").splitlines()]


# (pin, exit code, argv) of every row of runs.txt, in file order
ROWS = [(pin, int(code), argv) for pin, code, *argv in _rows("runs.txt")]
RUNS = {pin: (code, argv) for pin, code, argv in ROWS}
# (pin, argv) of every row of routes.txt
ROUTES = [(pin, argv) for pin, *argv in _rows("routes.txt")]

# The entry of the console script and the bench: main() with no argv.
ENTRY = "import sys; from chordweight.cli import main; sys.exit(main())"
# The helper child of ``fresh``: it starts the CLI as its only child, so
# RUSAGE_CHILDREN reads that process alone.
HELPER = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.run([sys.executable, "-c", *sys.argv[1:]],
                      stdin=subprocess.DEVNULL, capture_output=True)
wall_s = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps([proc.returncode, proc.stdout.decode(errors="replace"),
                  proc.stderr.decode(errors="replace"), wall_s,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024]))
"""


def run(*argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)`` in this process.

    The package is imported here, not at the top of the module, so that a
    caller that profiles the runs sees the import too.
    """
    from chordweight.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def child_env() -> dict:
    """This process's environment, with the package under src/ on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def fresh(*argv) -> tuple:
    """The CLI in a fresh process at the repository root:
    (exit code, stdout, stderr, wall s, CPU s, peak MB)."""
    proc = subprocess.run([sys.executable, "-c", HELPER, ENTRY, *argv], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=60, check=True)
    return tuple(json.loads(proc.stdout))


def mismatch(pin: str, code: int, out: str, err: str):
    """None if (code, out, err) is the run that ``pin`` pins, else how it differs."""
    if pin.endswith(".sha256"):
        out = hashlib.sha256(out.encode()).hexdigest() + "\n"
    if pin.endswith(".error"):
        err = "".join(err.splitlines(keepends=True)[-1:])
    names = ("stderr", "stdout") if pin.endswith((".stderr", ".error")) else ("stdout", "stderr")
    got, stray = (err, out) if names[0] == "stderr" else (out, err)
    expected = (ROOT / pin).read_bytes().decode("utf-8")
    problems = [f"exit code {code}, pinned {RUNS[pin][0]}"] if code != RUNS[pin][0] else []
    if stray:
        problems.append(f"{names[1]} is not empty:\n{stray}")
    if got != expected:
        problems.append("".join(difflib.unified_diff(
            expected.splitlines(keepends=True), got.splitlines(keepends=True), pin, names[0])))
    return "\n".join(problems) or None


def main() -> int:
    os.environ.pop("CHORDWEIGHT_MAX_WORK", None)
    failed = 0
    for pin, argv in [(pin, argv) for pin, _, argv in ROWS] + ROUTES:
        problem = mismatch(pin, *fresh(*argv)[:3])
        if problem:
            failed += 1
            print(f"pinned run failed: {pin} <- {' '.join(argv)}\n{problem}", file=sys.stderr)
    print(f"{len(ROWS)} pinned runs and {len(ROUTES)} second routes, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
