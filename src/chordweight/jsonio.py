"""Shared helpers for the JSON interchange formats.

All numeric values travel as exact rational strings ("p/q" or "p"); parse
errors carry the JSON field path that caused them.
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


def parse_rational(value, path: str) -> Fraction:
    """Accept "p/q" / "p" strings and plain integers."""
    if isinstance(value, bool):
        raise JSONFormatError(path, f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise JSONFormatError(path, f"invalid rational {value!r}") from None
    raise JSONFormatError(path, f"expected a rational string, got {type(value).__name__}")


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


def parse_matrix(data, path: str, rows=None, cols=None) -> list:
    """Rectangular matrix of rationals from a list of lists."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise JSONFormatError(path, "expected a list of rows")
    if rows is not None and len(data) != rows:
        raise JSONFormatError(path, f"expected {rows} rows, got {len(data)}")
    matrix = []
    width = cols
    for i, row in enumerate(data):
        if width is None:
            width = len(row)
        if len(row) != width:
            raise JSONFormatError(f"{path}[{i}]", f"expected {width} columns, got {len(row)}")
        matrix.append([parse_rational(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    if rows is not None and rows > 0 and not matrix:
        raise JSONFormatError(path, "matrix is empty")
    return matrix


def format_matrix(matrix) -> list:
    return [[format_rational(x) for x in row] for row in matrix]
