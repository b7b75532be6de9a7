"""List the functions of the package under src/ that no pinned CLI run enters.

Every row of tests/pinned/runs.txt (<pin file> <exit code> <argv...>) is
run in one process, from the repository root, through
``chordweight.cli.main(argv)``, with its output discarded, under
``sys.setprofile``.  The package is first imported under the profiler too,
so a function that only the import calls counts as entered, as it is in a
fresh process.  A function is every ``def`` and method of a module under
src/, nested ones included; lambdas and comprehensions are left out.

    python tools/reach.py --runs

prints one row per module, in the style of ``tools/code_lines.py``: the
number of its functions that no row enters, the module, and their
qualified names in source order; then the total.  It is a report, not a
gate, and it always exits 0.  A row whose exit code differs from the pinned
one is reported on stderr, since its reach would not be that of the pin.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def _key(code) -> tuple:
    return Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name


def _entered_by_runs() -> set:
    """The keys of the code objects that the import and the runs call."""
    rows = [line.split() for line in
            (ROOT / "tests" / "pinned" / "runs.txt").read_text(encoding="utf-8").splitlines()]
    called = set()
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # the rows name their files from the root
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        from chordweight.cli import main

        for pin, want, *argv in rows:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's help and usage errors
                    code = exc.code
            if code != int(want):
                print(f"{pin}: exit code {code}, pinned {want}", file=sys.stderr)
    finally:
        sys.setprofile(None)
    return {_key(code) for code in called}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv != ["--runs"]:
        print("usage: python tools/reach.py --runs", file=sys.stderr)
        return 2
    entered = _entered_by_runs()
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        code = compile(path.read_bytes(), str(path.resolve()), "exec")
        missed = [name for fn, name in _functions(code) if _key(fn) not in entered]
        total += len(missed)
        print(f"{len(missed):6,d}  {path.relative_to(SRC)}  {' '.join(missed)}".rstrip())
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
