"""Shared helpers for the JSON interchange formats.

All numeric values travel as exact rational strings ("p/q" or "p", in
ASCII digits with an optional leading "-"); parse errors carry the JSON
field path that caused them.
"""

from __future__ import annotations

from fractions import Fraction


class JSONFormatError(ValueError):
    """Malformed input document; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        where = path if path else "document"
        super().__init__(f"{where}: {message}")


# the longest integer text that int() reads by default from Python 3.11 on
MAX_DIGITS = 4300


def parse_rational(value, path: str) -> Fraction:
    """A plain integer, or a string "-"? digits ("/" digits)?, digits ASCII.

    Anything else is refused, and so are a zero denominator and an integer
    of more than MAX_DIGITS digits: no other text reaches ``Fraction`` or
    ``int``, so no input can make them run long.
    """
    if isinstance(value, bool):
        raise JSONFormatError(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise JSONFormatError(path, f"expected a rational string, got {type(value).__name__}")
    num, slash, den = value.partition("/")
    parts = [num.removeprefix("-"), den] if slash else [num.removeprefix("-")]
    if slash and not den.strip("0") or not all(p.isascii() and p.isdigit() for p in parts):
        raise JSONFormatError(path, f"{value!r} is not a rational number")
    if max(map(len, parts)) > MAX_DIGITS:
        raise JSONFormatError(path, f"has an integer of more than {MAX_DIGITS} digits")
    return Fraction(int(num), int(den or 1))


def parse_index(value, path: str, bound: int) -> int:
    """An integer index in [0, bound); booleans are refused."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < bound:
        raise JSONFormatError(path, f"expected an integer index in [0, {bound})")
    return value


def parse_entries(raw, path: str, dim: int) -> dict:
    """{(a, b, c, d): value} from a list of {"a", "b", "c", "d", "value"} objects."""
    if not isinstance(raw, list):
        raise JSONFormatError(path, "expected a list")
    entries = {}
    for i, item in enumerate(raw):
        where = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise JSONFormatError(where, "expected an object")
        key = tuple(parse_index(item.get(k), f"{where}.{k}", dim) for k in "abcd")
        if key in entries:
            raise JSONFormatError(where, f"duplicate entry for indices {key}")
        entries[key] = parse_rational(item.get("value"), f"{where}.value")
    return entries


def format_rational(value) -> str:
    return str(Fraction(value))


def parse_matrix(data, path: str, n: int) -> list:
    """n x n matrix of rationals from a list of lists."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise JSONFormatError(path, "expected a list of rows")
    if len(data) != n:
        raise JSONFormatError(path, f"expected {n} rows, got {len(data)}")
    matrix = []
    for i, row in enumerate(data):
        if len(row) != n:
            raise JSONFormatError(f"{path}[{i}]", f"expected {n} columns, got {len(row)}")
        matrix.append([parse_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return matrix


def format_matrix(matrix) -> list:
    return [[format_rational(x) for x in row] for row in matrix]
