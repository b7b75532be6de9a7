"""Command-line front end.

Exit codes: 0 on success, 1 when a requested check fails, 2 on bad
arguments, unreadable files, malformed JSON, or work over the
CHORDWEIGHT_MAX_WORK bound.  All numeric output is exact rational text.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import accumulate

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
from .jsonio import parse_matrix
from .lie import check_exchange_identity, representation_from_json_dict
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


class CLIError(Exception):
    """Input problem that should abort with exit code 2."""


def _load_json(path: str):
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
        loop = Fraction(args.N)
    except (ValueError, ZeroDivisionError):
        raise CLIError(f"--N {args.N!r} is not a rational number") from None
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
            tensor = rep.weight_tensor()
            rows.append(("leg-symmetry", validate_symmetry(tensor), None))
            ok, witness = check_four_term(tensor)
            rows.append(("four-term", ok, witness))
            ok, witness = check_exchange_identity(rep)
            rows.append(("exchange-identity", ok, witness))
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
    form = parse_matrix(_load_json(args.form), "form",
                        rows=rep.dimV, cols=rep.dimV)
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


def _add_format(sub, choices=("text", "json", "csv")):
    sub.add_argument("--format", choices=choices, default="text",
                     help="output format (default text)")


def _add_input_group(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--tensor", metavar="FILE",
                       help="weight tensor JSON file")
    group.add_argument("--lie", metavar="FILE",
                       help="metrized Lie algebra representation JSON file")
    group.add_argument("--curvature", metavar="FILE",
                       help="curvature model JSON file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordweight",
        description="Framed weight systems on chord diagrams, exactly.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("enumerate", help="list canonical diagram codes")
    sub.add_argument("--n", type=int, required=True, help="number of chords")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_enumerate)

    sub = subs.add_parser("dims", help="quotient dimension table")
    sub.add_argument("--max-n", type=int, required=True, dest="max_n")
    sub.add_argument("--unframed", action="store_true",
                     help="impose the one-term relations as well")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_dims)

    sub = subs.add_parser("eval", help="evaluate a weight system on a diagram")
    _add_input_group(sub)
    sub.add_argument("--diagram", required=True, metavar="CODE",
                     help='diagram code such as "ABAB"')
    sub.add_argument("--naive", action="store_true",
                     help="use the exhaustive-sum evaluator")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("check", help="run the identity checks for an input")
    _add_input_group(sub)
    _add_format(sub)
    sub.set_defaults(handler=_cmd_check)

    sub = subs.add_parser("holonomy",
                          help="holonomy algebra and symmetric triple")
    sub.add_argument("--curvature", required=True, metavar="FILE")
    _add_format(sub, choices=("text", "json"))
    sub.set_defaults(handler=_cmd_holonomy)

    sub = subs.add_parser("realize",
                          help="curvature-symmetry verdict for a representation")
    sub.add_argument("--lie", required=True, metavar="FILE")
    sub.add_argument("--form", required=True, metavar="FILE",
                     help="JSON matrix for the form on the representation space")
    _add_format(sub, choices=("text", "json"))
    sub.set_defaults(handler=_cmd_realize)

    sub = subs.add_parser("yamada", help="combinatorial state-sum weight")
    sub.add_argument("--diagram", required=True, metavar="CODE")
    sub.add_argument("--N", default="3",
                     help="loop value (rational, default 3)")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_yamada)

    sub = subs.add_parser("verify", help="run the acceptance suite")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except (CLIError, ValueError, WorkLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
