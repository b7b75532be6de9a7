"""List what of the package under src/ the pinned CLI runs or the tests never reach.

    python tools/reach.py --runs
    python tools/reach.py --tests

``--runs`` gives function reach.  Every row of tests/pinned/runs.txt is
run in one process, from the repository root, through ``run`` of
tests/pins.py (``chordweight.cli.main(argv)``, its output captured and
discarded), under ``sys.setprofile``.  The package is first imported under
the profiler too, so a function that only the import calls counts as
entered, as it is in a fresh process.  A function is every ``def`` and
method of a module under src/, nested ones included; lambdas and
comprehensions are left out.  A row whose exit code differs from the
pinned one is named on stderr and fails the gate, since its reach would
not be that of the pin.

``--tests`` gives line reach.  The tier-1 suite under tests/ runs in this
process through ``pytest.main``, under ``sys.settrace``, which traces the
lines of src/ frames only, the import of the package included.  A line is
every line that holds bytecode of a module under src/; a function's
``def`` line counts as reached when the function is called.  Lines run only
in child processes (the tests that start the CLI as a process) are not
seen.  pytest's own output goes to stderr.

Each prints one row per module, in the style of ``tools/code_lines.py``:
the number of its functions (or lines) that nothing reaches, the module,
and their qualified names (or line numbers, runs of them as ranges) in
source order; then the total.  ``--runs`` leaves out dunders, which only
tracebacks, debuggers and the interpreter call, and it is a gate: it exits
1, naming them on stderr, when a function outside ``ALLOWED`` is
unreached or a row exits with a code other than its pin's.  ``--tests`` is
a report and exits 0.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The functions that no pinned run enters and that the benchmark still needs:
# bench/ resolves or reads each by name.  Each goes with ROADMAP item 6, the
# benchmark change that would unpin it; then it is deleted or moved to tests/.
ALLOWED = {
    "curvature.CurvatureModel.metric": "bench/inputs.py",  # goes with item 6
    "curvature.CurvatureModel.riemann": "bench/inputs.py",  # goes with item 6
    "curvature.model_to_json_dict": "bench/inputs.py",  # goes with item 6
    "diagram_space.four_term_vector": "bench/tracing.py",  # goes with item 6
    "diagram_space._reinsert": "bench/tracing.py",  # four_term_vector's helper; item 6
    "diagrams.smooth_components": "bench/tracing.py",  # goes with item 6
    "lie.MetrizedLieAlgebra.brackets": "bench/inputs.py",  # goes with item 6
    "lie.representation_to_json_dict": "bench/inputs.py",  # goes with item 6
    "linalg.commutator": "bench/tracing.py",  # goes with item 6
    "linalg.solve_in_span": "bench/tracing.py",  # goes with item 6
    "tensors.WeightTensor.from_entries": "bench/inputs.py",  # goes with item 6
    "tensors.WeightTensor.nonzero_items": "bench/tracing.py",  # goes with item 6
    "tensors.WeightTensor.to_json_dict": "bench/inputs.py",  # goes with item 6
}


def _functions(code, prefix=""):
    """(code object, qualified name) of every def nested in ``code``."""
    for const in code.co_consts:
        if inspect.iscode(const) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                yield const, name
                yield from _functions(const, name + ".<locals>.")
            else:
                yield from _functions(const, name + ".")


def _is_dunder(name: str) -> bool:
    last = name.rpartition(".")[2]
    return last.startswith("__") and last.endswith("__")


def _key(code) -> tuple:
    return Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name


def _entered_by_runs() -> tuple:
    """The keys of the code objects that the import and the runs call, and
    the rows whose exit code is not the pinned one."""
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import pins

    called, wrong = set(), []
    os.chdir(ROOT)  # the rows name their files from the root
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        for pin, want, argv in pins.ROWS:
            code = pins.run(*argv)[0]  # imports the package on the first row
            if code != want:
                wrong.append(f"{pin}: exit code {code}, pinned {want}")
    finally:
        sys.setprofile(None)
    return {_key(code) for code in called}, wrong


def _own_lines(code) -> set:
    """The line numbers that hold bytecode of ``code``, not of the code nested in it."""
    return {line for *_, line in code.co_lines() if line is not None}


def _lines(code) -> set:
    """The line numbers that hold bytecode of ``code`` and of the code nested in it."""
    lines = _own_lines(code)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _lines(const)
    return lines


def _reached_by_tests() -> set:
    """(resolved file, line) of every src/ line that tier-1 runs in this process."""
    import pytest

    src = str(SRC)
    reached = set()
    pending = {}  # code object: its own lines not reached yet; none outside src/

    def on_line(frame, event, arg):
        lines = pending[frame.f_code]
        if frame.f_lineno in lines:
            lines.remove(frame.f_lineno)
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line if lines else None  # None: no more line events in this frame

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in pending:
            pending[code] = _own_lines(code) if code.co_filename.startswith(src) else set()
        return on_line(frame, event, arg) if pending[code] else None

    sys.path.insert(0, src)
    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return {(str(Path(name).resolve()), line) for name, line in reached}


def _ranges(lines) -> str:
    """Sorted line numbers as text, each run of consecutive ones as first-last."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in (["--runs"], ["--tests"]):
        print("usage: python tools/reach.py --runs | --tests", file=sys.stderr)
        return 2
    if argv == ["--runs"]:
        reached, wrong = _entered_by_runs()
    else:
        reached, wrong = _reached_by_tests(), []
    total = 0
    refused = []  # unreached functions outside ALLOWED, as module.qualname
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.resolve())
        code = compile(path.read_bytes(), name, "exec")
        if argv == ["--runs"]:
            missed = [fn_name for fn, fn_name in _functions(code)
                      if _key(fn) not in reached and not _is_dunder(fn_name)]
            text = " ".join(missed)
            refused += [f"{path.stem}.{fn_name}" for fn_name in missed
                        if f"{path.stem}.{fn_name}" not in ALLOWED]
        else:
            missed = [line for line in _lines(code) if (name, line) not in reached]
            text = _ranges(missed)
        total += len(missed)
        print(f"{len(missed):6,d}  {path.relative_to(SRC)}  {text}".rstrip())
    print(f"{total:6,d}  total")
    for line in wrong:
        print(line, file=sys.stderr)
    if refused:
        print(f"no pinned run enters {len(refused)} function(s) outside the allowlist: "
              + " ".join(refused), file=sys.stderr)
    return 1 if wrong or refused else 0


if __name__ == "__main__":
    raise SystemExit(main())
