"""Sparse integer views of exact rational tensors.

The identity checks only ever need the nonzero entries of their inputs.  An
``IntegerView`` keeps those entries as ``int`` numerators over one common
denominator, so the inner loops multiply and add Python ints, and groups
them by the index in one slot, the slot a contraction runs over.  A check
never divides: a sum of products of entries vanishes exactly when the same
sum of numerator products does.

A derived tensor (a weight tensor, the structure tensor) is built the same
way: ``contract`` sums products of nonzero numerators over one index at a
time, and the result is divided by the product of the denominators once.

``exact_entries`` makes the one storage of every rank-3 and rank-4 exact
tensor: its nonzero entries only.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from types import MappingProxyType

_ZERO = Fraction(0)


def nonzero_entries(array, rank: int, prefix=()):
    """Yield (index tuple, value) for the nonzero entries of a nested array."""
    if rank == 1:
        for i, value in enumerate(array):
            if value:
                yield prefix + (i,), value
    else:
        for i, sub in enumerate(array):
            yield from nonzero_entries(sub, rank - 1, prefix + (i,))


def _has_shape(array, rank: int, dim: int) -> bool:
    return len(array) == dim and (
        rank == 1 or all(_has_shape(sub, rank - 1, dim) for sub in array))


def exact_entries(data, rank: int, dim: int, shape_error=None) -> MappingProxyType:
    """Read-only {index tuple: Fraction} of the nonzero entries, in index order.

    ``data`` is an {index tuple: value} mapping, each index in 0..dim-1, or
    a nested array of shape dim^rank; anything else raises ValueError, with
    the message ``shape_error`` for a nested array of another shape.
    """
    if isinstance(data, Mapping):
        for key in data:
            if not (isinstance(key, tuple) and len(key) == rank
                    and all(isinstance(i, int) and 0 <= i < dim for i in key)):
                raise ValueError(f"index {key} is outside 0..{dim - 1}")
        items = data.items()
    elif _has_shape(data, rank, dim):
        items = nonzero_entries(data, rank)
    else:
        raise ValueError(shape_error or f"expected {dim}^{rank} entries")
    values = ((key, Fraction(value)) for key, value in items)
    return MappingProxyType(dict(sorted((key, v) for key, v in values if v)))


def dense_array(entries, rank: int, dim: int, prefix=()):
    """The nested tuple of Fractions, of shape dim^rank, holding ``entries``."""
    if len(prefix) == rank:
        return entries.get(prefix, _ZERO)
    return tuple(dense_array(entries, rank, dim, prefix + (i,)) for i in range(dim))


class IntegerView:
    """Nonzero entries of a rank-``rank`` tensor as ints over ``den``.

    The tensor is an {index tuple: value} mapping or a nested array;
    ``entries[key] / den`` is its entry at ``key``, and zero keys are absent.
    """

    __slots__ = ("entries", "den", "_slots")

    def __init__(self, array, rank: int):
        items = (array.items() if isinstance(array, Mapping)
                 else nonzero_entries(array, rank))
        values = [(key, Fraction(v)) for key, v in items if v]
        den = lcm(*(v.denominator for _, v in values))
        self.entries = {key: v.numerator * (den // v.denominator)
                        for key, v in values}
        self.den = den
        self._slots = {}

    def by_slot(self, slot: int) -> dict:
        """Entries grouped by their index in ``slot``: {i: [(key, numerator)]}."""
        index = self._slots.get(slot)
        if index is None:
            index = {}
            for key, value in self.entries.items():
                index.setdefault(key[slot], []).append((key, value))
            self._slots[slot] = index
        return index


def least_nonzero(*sums):
    """The lexicographically least key with a nonzero value in any of ``sums``."""
    return min((key for s in sums for key, value in s.items() if value),
               default=None)


def contract(left: dict, i: int, right: dict, j: int) -> dict:
    """sum_x left[.. x in slot i ..] * right[.. x in slot j ..], nonzero sums only.

    Both are {index tuple: int} dicts.  A key of the result is the left key
    without slot i followed by the right key without slot j.
    """
    index = defaultdict(list)
    for key, v in right.items():
        index[key[j]].append((key[:j] + key[j + 1:], v))
    out = defaultdict(int)
    for key, u in left.items():
        hits = index.get(key[i])
        if hits:
            rest = key[:i] + key[i + 1:]
            for tail, v in hits:
                out[rest + tail] += u * v
    return {key: v for key, v in out.items() if v}
