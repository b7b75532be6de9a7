"""Command-line front end.

Exit codes: 0 on success, 1 when a requested check fails, 2 on bad
arguments, unreadable files, malformed JSON, or work over the
CHORDWEIGHT_MAX_WORK bound, and 141 (128 + SIGPIPE, as a shell reports a
program killed by it) when standard output is closed before all of it is
written.  All numeric output is exact rational text.

Every subcommand's options are declared once, in ``_SUBCOMMANDS``, as their
argparse keywords.  A well-formed command line is parsed by a quick walk
over that table, which imports no argparse; anything else (help, errors,
abbreviations, --opt=value, --, negative numbers, a repeated option) goes
to the argparse parser built from the same table, so its help, usage and
error text are argparse's own.

When ``main()`` is the process's entry point (called with no ``argv``: the
console script, ``python -m chordweight.cli``), it first moves every object
that start-up created to the permanent generation with ``gc.freeze()``, so
the collections the interpreter makes at exit skip them.  ``main(argv)``
runs inside a caller's process and does not freeze that program's heap.
The process still exits normally, not by ``os._exit``; see ``main``.
"""

from __future__ import annotations

import gc
import os
import sys
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

from .curvature import (
    ModelCheckFailure,
    check_parallel_four_term,
    curvature_symmetries,
    holonomy_algebra,  # noqa: F401  re-exported; tracers wrap it in this namespace too
    model_failure_text,
    model_from_json_dict,
    so_isomorphism,
    symmetric_triple,
    triple_from_rep,
    triple_to_json_dict,
    verify_lie_type,
)
from .diagram_space import quotient_dimension
from .diagrams import (
    ENUMERATION_CAP,
    ChordDiagram,
    charge_enumeration,
    enumerate_diagrams,
)
from .jsonio import MAX_DIGITS, JSONFormatError, parse_matrix, parse_rational
from .lie import _exchange_sums, representation_from_json_dict
from .sparse import UNIT, IntegerView, contract, least_nonzero
from .tensors import (
    WeightTensor,
    check_four_term,
    evaluate,
    evaluate_naive,
    validate_symmetry,
)
from .work import WorkLimitExceeded
from .yamada import yamada_weight

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


class CLIError(Exception):
    """Input problem that should abort with exit code 2."""


def _load_json(path: str):
    import json  # only runs that read a file pay for this import

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CLIError(f"{path}: not valid JSON ({exc})") from None


def _parse_diagram(code: str) -> ChordDiagram:
    try:
        return ChordDiagram.from_code(code)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _json_default(obj):
    """A rational as its exact text, a symmetric triple as its JSON object."""
    return str(obj) if isinstance(obj, Fraction) else triple_to_json_dict(obj)


def _write(args, out, payload, lines, header=(), rows=(), indent=2) -> None:
    """Write a result in the chosen --format: JSON, CSV or text.

    JSON dumps ``payload`` (rationals and symmetric triples in it through
    ``_json_default``), CSV writes ``header`` and then ``rows``, and text
    writes ``lines``, which may be a generator that only a text run drives.
    """
    if args.format == "json":
        import json

        json.dump(payload, out, indent=indent, default=_json_default)
        out.write("\n")
    elif args.format == "csv":
        import csv  # only --format csv pays for this import

        csv.writer(out, lineterminator="\n").writerows([header, *rows])
    else:
        out.writelines(line + "\n" for line in lines)


def _matrix_lines(matrix, indent="  "):
    if not matrix:
        return [indent + "(empty)"]
    widths = [max(len(str(row[j])) for row in matrix)
              for j in range(len(matrix[0]))]
    return [indent + "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
            for row in matrix]


def _bracket_lines(brackets, m, prefix="h"):
    terms = {}  # (i, j): the terms of [i, j], in index order
    for (i, j, k), c in brackets.items():
        terms.setdefault((i, j), []).append(f"{c}*{prefix}{k}")
    return [f"[{prefix}{i}, {prefix}{j}] = {' + '.join(terms.get((i, j), ['0']))}"
            for i in range(m) for j in range(i + 1, m)]


def _load_representation(path: str):
    """The representation in a --lie file, validated with its algebra."""
    rep = representation_from_json_dict(_load_json(path))
    ok, why = rep.algebra.validate()
    if not ok:
        raise CLIError(f"{path}: not a metrized Lie algebra: {why}")
    ok, why = rep.validate()
    if not ok:
        raise CLIError(f"{path}: not a representation: {why}")
    return rep


def _tensor_from_args(args) -> WeightTensor:
    """Build the weight tensor named by --tensor/--lie/--curvature."""
    if args.tensor:
        return WeightTensor.from_json_dict(_load_json(args.tensor))
    if args.lie:
        return _load_representation(args.lie).weight_tensor()
    model = model_from_json_dict(_load_json(args.curvature))
    ok, why = model.validate()
    if not ok:
        raise CLIError(f"{args.curvature}: invalid curvature model: "
                       f"{model_failure_text(why)}")
    return model.weight_tensor()


def _cmd_enumerate(args, out) -> int:
    codes = [d.code for d in enumerate_diagrams(args.n)]
    _write(args, out, {"n": args.n, "codes": codes},
           [code or "(empty)" for code in codes], ["code"], [[code] for code in codes])
    return EXIT_OK


def _cmd_dims(args, out) -> int:
    if not 0 <= args.max_n <= ENUMERATION_CAP:
        raise CLIError(f"--max-n must be in 0..{ENUMERATION_CAP}, got {args.max_n}")
    charge_enumeration(args.max_n)  # the top degree costs most: refuse before degree 0
    kind = "unframed" if args.unframed else "framed"
    dims = [quotient_dimension(n, "unframed") for n in range(args.max_n + 1)]
    # A = A^r (x) Q[theta] (Bar-Natan): framed_n is the sum of unframed_j, j <= n
    rows = list(enumerate(accumulate(dims) if kind == "framed" else dims))
    _write(args, out, [{"n": n, "kind": kind, "dimension": dim} for n, dim in rows],
           [f"{n} {dim}" for n, dim in rows], ["n", "kind", "dimension"],
           [[n, kind, dim] for n, dim in rows])
    return EXIT_OK


def _emit_value(args, out, diagram_code: str, value: Fraction) -> int:
    """Write a value, refused with exit 2 if an integer in it has too many digits.

    The bound is the loaders' MAX_DIGITS, which ``str`` of an int also
    enforces from Python 3.11 on, with a message that names a setting the
    user cannot reach; checking it here gives one outcome on every Python.
    """
    if max(abs(value.numerator), value.denominator) >= 10 ** MAX_DIGITS:
        raise CLIError(f"the value has an integer of more than {MAX_DIGITS} digits")
    text = str(value)
    _write(args, out, {"diagram": diagram_code, "value": text}, [text],
           ["diagram", "value"], [[diagram_code, text]], indent=None)
    return EXIT_OK


def _cmd_eval(args, out) -> int:
    diagram = _parse_diagram(args.diagram)
    tensor = _tensor_from_args(args)
    if args.naive:
        value = evaluate_naive(tensor, diagram)
    else:
        value = evaluate(tensor, diagram)
    return _emit_value(args, out, args.diagram, value)


def _cmd_yamada(args, out) -> int:
    diagram = _parse_diagram(args.diagram)
    try:
        loop = parse_rational(args.N, "--N")
    except JSONFormatError as exc:
        raise CLIError(f"--N {exc.message}") from None
    value = yamada_weight(diagram, loop)
    return _emit_value(args, out, args.diagram, value)


def _emit_checks(args, out, rows) -> int:
    ok_all = all(ok for _, ok, _ in rows)
    # each row as (name, ok, "pass" or "fail", the witness as text or None)
    rows = [(name, ok, "pass" if ok else "fail", None if why is None else str(why))
            for name, ok, why in rows]
    _write(args, out,
           {"ok": ok_all, "checks": [{"name": name, "ok": ok, "witness": why}
                                     for name, ok, _, why in rows]},
           [f"{name}: {status}" + ("" if ok or why is None else f" at {why}")
            for name, ok, status, why in rows],
           ["name", "ok", "witness"],
           [[name, status, why or ""] for name, _, status, why in rows])
    return EXIT_OK if ok_all else EXIT_CHECK_FAILED


def _lie_identity_rows(rep) -> list:
    """The leg-symmetry, four-term and exchange-identity rows of rho(C).

    These rows run only on an algebra that passed ``validate``, so its form
    is symmetric, and so is the form's inverse C.  Swapping the legs of
    rho(C) swaps i and j in C[i][j], so rho(C) is leg-symmetric, and its
    four-term sum is the exchange identity's lhs - rhs (proved in
    ``lie._exchange_sums``): one sum decides both rows.  The leg-symmetry
    row is still computed, as a check of that argument.
    """
    legs_ok = validate_symmetry(rep.weight_tensor())
    lhs, rhs = _exchange_sums(rep)
    exchange = least_nonzero(lhs, rhs)
    # rhs is subtracted from lhs in place
    four = least_nonzero(contract("abcdef", rhs, "", UNIT, "abcdef", lhs, -1))
    return [("leg-symmetry", legs_ok, None), ("four-term", four is None, four),
            ("exchange-identity", exchange is None, exchange)]


def _cmd_check(args, out) -> int:
    rows = []
    if args.tensor:
        tensor = WeightTensor.from_json_dict(_load_json(args.tensor))
        rows.append(("leg-symmetry", validate_symmetry(tensor), None))
        ok, witness = check_four_term(tensor)
        rows.append(("four-term", ok, witness))
    elif args.lie:
        rep = representation_from_json_dict(_load_json(args.lie))
        ok, why = rep.algebra.validate()
        rows.append(("metrized-algebra", ok, why))
        rep_ok, why = rep.validate()
        rows.append(("representation", rep_ok, why))
        if ok and rep_ok:
            rows += _lie_identity_rows(rep)
    else:
        model = model_from_json_dict(_load_json(args.curvature))
        ok, why = model.validate()
        rows.append(("curvature-model", ok, None if ok else model_failure_text(why)))
        if ok:
            pok, witness = check_parallel_four_term(model)
            rows.append(("parallel-four-term", pok, witness))
            # on a valid model the two verdicts agree (see check_parallel_four_term),
            # so only a failure runs the tensor check, for its own witness
            tok, witness = (True, None) if pok else check_four_term(model.weight_tensor())
            rows.append(("four-term", tok, witness))
    return _emit_checks(args, out, rows)


def _cmd_holonomy(args, out) -> int:
    model = model_from_json_dict(_load_json(args.curvature))
    try:
        triple = symmetric_triple(model)
    except ModelCheckFailure as exc:  # any other ValueError exits 2 in main()
        print(exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    hol = triple.holonomy
    triple_ok, triple_why = triple.validate()
    if triple_ok:
        lie_type_ok, lie_type_why = verify_lie_type(triple)
    else:
        lie_type_ok, lie_type_why = False, f"symmetric triple invalid: {triple_why}"
    iso = so_isomorphism(hol)

    def lines():  # only a text run iterates this, so a JSON run formats no text
        labels = " ".join(f"({a},{b})" for a, b in hol.labels)
        yield from [
            f"dim_h={hol.dim_h}",
            f"generator labels: {labels or '(none)'}",
            *_bracket_lines(hol.brackets, hol.dim_h),
            "B_h:",
            *_matrix_lines(hol.form),
            f"B_h nondegenerate: {'yes' if hol.nondegenerate else 'no'}",
            f"triple: dim {triple.dim} = {triple.dim_h} + {triple.dim_p}, "
            f"valid: {'yes' if triple_ok else 'no'}",
            *([] if triple_ok else [f"  reason: {triple_why}"]),
            f"isomorphic to so{model.dim}: {'yes' if iso is not None else 'no'}",
            f"rho(C_h) == Hhat: {'yes' if lie_type_ok else 'no'}",
            *([] if lie_type_ok else [f"  reason: {lie_type_why}"]),
        ]

    _write(args, out, {
        "dim_h": hol.dim_h,
        "labels": hol.labels,
        "form": hol.form,  # its rationals are written by _json_default
        "nondegenerate": hol.nondegenerate,
        "triple": triple,
        "triple_valid": triple_ok,
        "so_isomorphic": iso is not None,
        "casimir_matches": lie_type_ok,
    }, lines())
    return EXIT_OK if triple_ok and lie_type_ok else EXIT_CHECK_FAILED


def _cmd_realize(args, out) -> int:
    rep = _load_representation(args.lie)
    # one view of the form, for curvature_symmetries and triple_from_rep both
    form = IntegerView(parse_matrix(_load_json(args.form), "form",
                                    rows=rep.dimV, cols=rep.dimV), 2)
    try:
        verdict, witness = curvature_symmetries(rep, form)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    payload = {"verdict": verdict, "witness": witness}
    lines = [f"verdict: {verdict}" + ("" if witness is None else f" at {witness}")]
    if verdict == "pass":
        try:
            triple = triple_from_rep(rep, form)
        except ValueError as exc:
            payload["note"] = str(exc)
            lines.append(f"note: {exc}")
        else:
            payload["triple"] = triple
            lines.append(f"triple: dim {triple.dim} = {triple.dim_h} + {triple.dim_p}")
            lines += _bracket_lines(triple.brackets, triple.dim, prefix="e")
    _write(args, out, payload, lines)
    return EXIT_OK if verdict == "pass" else EXIT_CHECK_FAILED


def _cmd_verify(args, out) -> int:
    from . import acceptance  # only verify pays for the acceptance suite

    results = acceptance.run_all()
    _write(args, out,
           [{"criterion": number, "label": label, "ok": ok, "detail": detail}
            for number, label, ok, detail in results],
           [f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
            for number, label, ok, detail in results],
           ["criterion", "label", "ok", "detail"],
           [[number, label, "pass" if ok else "fail", detail]
            for number, label, ok, detail in results])
    return EXIT_OK if all(ok for _, _, ok, _ in results) else EXIT_CHECK_FAILED


def _format(*choices):
    return "--format", {"choices": choices or ("text", "json", "csv"),
                        "default": "text", "help": "output format (default text)"}


# A one-of group: a tuple of options where a subcommand lists one option.
_INPUT = (
    ("--tensor", {"metavar": "FILE", "help": "weight tensor JSON file"}),
    ("--lie", {"metavar": "FILE", "help": "metrized Lie algebra representation JSON file"}),
    ("--curvature", {"metavar": "FILE", "help": "curvature model JSON file"}),
)

# name: (help, handler, options), in the order --help lists them.  Each
# option is its flag and its add_argument keywords, in the order help lists
# them; the quick walk and the full parser both read this table.
_SUBCOMMANDS = {
    "enumerate": ("list canonical diagram codes", _cmd_enumerate, [
        ("--n", {"type": int, "required": True, "help": "number of chords"}), _format()]),
    "dims": ("quotient dimension table", _cmd_dims, [
        ("--max-n", {"type": int, "required": True, "dest": "max_n"}),
        ("--unframed", {"action": "store_true", "default": False,
                        "help": "impose the one-term relations as well"}), _format()]),
    "eval": ("evaluate a weight system on a diagram", _cmd_eval, [
        _INPUT,
        ("--diagram", {"required": True, "metavar": "CODE",
                       "help": 'diagram code such as "ABAB"'}),
        ("--naive", {"action": "store_true", "default": False,
                     "help": "use the exhaustive-sum evaluator"}), _format()]),
    "check": ("run the identity checks for an input", _cmd_check, [_INPUT, _format()]),
    "holonomy": ("holonomy algebra and symmetric triple", _cmd_holonomy, [
        ("--curvature", {"required": True, "metavar": "FILE"}), _format("text", "json")]),
    "realize": ("curvature-symmetry verdict for a representation", _cmd_realize, [
        ("--lie", {"required": True, "metavar": "FILE"}),
        ("--form", {"required": True, "metavar": "FILE",
                    "help": "JSON matrix for the form on the representation space"}),
        _format("text", "json")]),
    "yamada": ("combinatorial state-sum weight", _cmd_yamada, [
        ("--diagram", {"required": True, "metavar": "CODE"}),
        ("--N", {"default": "3",
                 "help": "loop value (rational, default 3; write -3/4 as --N=-3/4)"}), _format()]),
    "verify": ("run the acceptance suite", _cmd_verify, [_format()]),
}


def _members(option):
    """The options of a one-of group, or the option alone."""
    return option if isinstance(option[0], tuple) else (option,)


def _build_parser():
    """The argparse parser of all subcommands, built from ``_SUBCOMMANDS``."""
    import argparse  # only runs that the quick walk refuses pay for this import

    parser = argparse.ArgumentParser(
        prog="chordweight",
        description="Framed weight systems on chord diagrams, exactly.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, options) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for option in options:
            members = _members(option)
            group = (sub.add_mutually_exclusive_group(required=True)
                     if len(members) > 1 else sub)
            for flag, keywords in members:
                group.add_argument(flag, **keywords)
        sub.set_defaults(handler=handler)
    return parser


def _quick_walk(argv):
    """The namespace argparse gives a well-formed ``argv``, without argparse.

    Well formed is an exact subcommand name, then its exact flags, none
    twice, each value not starting with "-" and passing its type and
    choices, with every required option and one option of a one-of group.
    Anything else returns None: help, errors, abbreviations, --opt=value,
    --, negative numbers and repeats are left to the full parser.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, handler, options = _SUBCOMMANDS[argv[0]]
    table = dict(member for option in options for member in _members(option))
    given = {}
    words = iter(argv[1:])
    for flag in words:
        keywords = table.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        try:
            given[flag] = value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
    args = SimpleNamespace(subcommand=argv[0], handler=handler)
    for option in options:
        members = _members(option)
        if len(members) > 1 and sum(flag in given for flag, _ in members) != 1:
            return None
        for flag, keywords in members:
            if keywords.get("required") and flag not in given:
                return None
            setattr(args, keywords.get("dest", flag[2:].replace("-", "_")),
                    given.get(flag, keywords.get("default")))
    return args


def _parse_args(argv):
    """Parse ``argv`` by the quick walk, or else by the full argparse parser.

    Both read ``_SUBCOMMANDS``.  The walk takes the well-formed runs and
    never imports argparse; what it refuses, the full parser parses or
    rejects, so help, usage and error text are argparse's own.
    """
    return _quick_walk(argv) or _build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    With ``argv`` None, ``main`` is the process's entry point and reads
    ``sys.argv[1:]``, after freezing the heap: every object that ``site``
    and the imports created moves to the permanent generation, so the
    garbage collections at interpreter exit skip them (about a tenth of a
    short run).  The objects the run creates are collected as usual.  A
    caller that passes ``argv`` runs ``main`` inside its own program, whose
    heap a freeze would move too, so then nothing is frozen.  Exit stays
    ordinary rather than ``os._exit``, which would skip atexit handlers, the
    flush of streams other than stdout, and ``main``'s return of the code.
    """
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    args = _parse_args(argv)
    try:
        code = args.handler(args, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (CLIError, ValueError, WorkLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader stopped early (``| head``): send what is still buffered
        # to /dev/null, so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
