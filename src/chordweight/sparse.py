"""The one storage of exact tables and matrices, and the labeled contraction over it.

Every exact table of the package (a weight tensor, a curvature tensor, a
bracket table, the structure tensor) and every exact matrix (a metric, an
invariant form, its inverse the Casimir, the representation matrices rho
as one rank-3 table) is an ``IntegerView``: its nonzero entries only, in
index order, as ``int`` numerators over their least common denominator.
A record builds each of its views once, when it is built.  The arithmetic
of every check runs on those ints; a table is read as ``Fraction``s only
at the edges (JSON and text output, ``entry``, the dense arrays), each
value built on access.  The view can also group its entries by the index
in one slot, on each call, to slice a sum over that slot.

Every identity the package checks, and every tensor it derives (a weight
tensor, the structure tensor, the lowered curvature), is a sum of products
of two such tables over the indices they share.  ``contract`` is that one
sum.  The slots of each table are named by labels: a string such as
``"efax"`` names four slots by letter, and the evaluator names its slots by
arc.  ``contract("efax", Q, "xbcd", P, "abcdef")`` is sum_x Q[e][f][a][x]
P[x][b][c][d] keyed (a, b, c, d, e, f): every label the two tables share
is summed, and ``out_labels`` orders the labels that are left, each once.
A derived tensor is the sum of numerator products over the product of the
denominators, made a table by ``IntegerView.of``.  A check never divides:
a sum of products of entries vanishes exactly when the same sum of
numerator products does.  A symmetry check sums relabeled copies of one
table: contracting with ``UNIT``, which has no slots, only moves each
entry, so ``contract("abcd", T, "", UNIT, "cdab")`` is T with its two
pairs of slots swapped.

``products`` counts the products a contraction forms without forming
them, so a caller can charge them first, and ``least_nonzero_sum`` finds
the least nonzero key of a sum of contractions one slice at a time.

``exact_entries`` checks the indices of a table given to a record and
returns its ``IntegerView``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter

_ZERO = Fraction(0)
UNIT = {(): 1}  # the one entry of a table with no slots


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


def exact_entries(data, rank: int, dim: int, shape_error=None) -> "IntegerView":
    """The IntegerView of a rank-``rank`` table with indices in 0..dim-1.

    ``data`` is an {index tuple: value} mapping, an IntegerView among them,
    which is returned as it is once its indices are checked, or a nested
    array of shape dim^rank; anything else raises ValueError, with the
    message ``shape_error`` for a nested array of another shape.
    """
    if isinstance(data, Mapping):
        for key in data:
            if not (isinstance(key, tuple) and len(key) == rank
                    and all(isinstance(i, int) and 0 <= i < dim for i in key)):
                raise ValueError(f"index {key} is outside 0..{dim - 1}")
        return data if isinstance(data, IntegerView) else IntegerView(data, rank)
    if not _has_shape(data, rank, dim):
        raise ValueError(shape_error or f"expected {dim}^{rank} entries")
    return IntegerView(data, rank)


def dense_array(entries, rank: int, dim: int, prefix=()):
    """The nested tuple of Fractions, of shape dim^rank, holding ``entries``."""
    if len(prefix) == rank:
        return entries.get(prefix, _ZERO)
    return tuple(dense_array(entries, rank, dim, prefix + (i,)) for i in range(dim))


class IntegerView(Mapping):
    """The nonzero entries of a rank-``rank`` exact tensor, as ints over ``den``.

    The tensor is an {index tuple: value} mapping or a nested array.
    ``nums`` maps the key of each nonzero entry, in index order, to an int
    numerator, and ``den`` is the least common denominator, so equal
    tables have equal ``nums`` and ``den``.  Read as a mapping, the view
    is read-only and its value at ``key`` is Fraction(nums[key], den),
    built on access; every key it lacks is zero.
    """

    __slots__ = ("nums", "den")

    def __init__(self, array, rank: int):
        items = (array.items() if isinstance(array, Mapping)
                 else nonzero_entries(array, rank))
        values = sorted((key, v if isinstance(v, (int, Fraction)) else Fraction(v))
                        for key, v in items)
        self.den = lcm(*(v.denominator for _, v in values))  # a zero's is 1
        self.nums = {key: v.numerator * (self.den // v.denominator) for key, v in values if v}

    @classmethod
    def of(cls, nums: dict, den: int) -> "IntegerView":
        """The table ``nums`` / ``den``: {index tuple: int} over a positive int.

        Zero numerators are dropped and the rest divided by gcd(den, *nums),
        so the view equals the one built from the same values as Fractions.
        """
        g = gcd(den, *nums.values())
        view = cls.__new__(cls)
        view.nums = {key: v // g for key, v in sorted(nums.items()) if v}
        view.den = den // g
        return view

    def __getitem__(self, key) -> Fraction:
        return Fraction(self.nums[key], self.den)

    def items(self):
        """The (key, Fraction) items, in index order, of a dict built on each call."""
        return {key: Fraction(v, self.den) for key, v in self.nums.items()}.items()

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        if isinstance(other, IntegerView):
            return self.den == other.den and self.nums == other.nums
        return super().__eq__(other)

    def by_slot(self, slot: int) -> dict:
        """Entries grouped by their index in ``slot``: {i: {key: numerator}}.

        Built on each call and not kept, so a view holds its table once.
        """
        index = {}
        for key, value in self.nums.items():
            index.setdefault(key[slot], {})[key] = value
        return index


def least_nonzero(*sums):
    """The lexicographically least key with a nonzero value in any of ``sums``."""
    return min((key for s in sums for key, value in s.items() if value),
               default=None)


def least_nonzero_sum(terms, out_labels):
    """The least key with a nonzero value in a sum of contractions, or None.

    Each of ``terms`` is (sign, left_labels, left, right_labels, right),
    with ``left`` and ``right`` IntegerViews; the sum is that of sign *
    ``contract`` of their numerators, keyed by ``out_labels``, and it is formed
    one value of the first output label at a time.  In each term, the table
    that holds that label is restricted to its slice through ``by_slot``.
    Keys compare lexicographically, and the slice for value v holds exactly
    the keys whose first index is v, so every key of a later slice is
    greater than every key of an earlier one: the first slice with a
    nonzero key holds the least nonzero key of the whole sum, and no later
    slice is formed.  The products formed are those of the full sum, or
    fewer, and only one slice of the sum is held at a time.
    """
    first = out_labels[0]
    cut = []  # (sign, labels and entries of one table, labels and slices of the other)
    for sign, left_labels, left, right_labels, right in terms:
        if first in left_labels:  # slice the right table: ``contract`` indexes only it
            left_labels, left, right_labels, right = right_labels, right, left_labels, left
        slices = right.by_slot(right_labels.index(first))
        cut.append((sign, left_labels, left.nums, right_labels, slices))
    for value in sorted({value for *_, slices in cut for value in slices}):
        sums = {}
        for sign, whole_labels, whole, labels, slices in cut:
            part = slices.get(value)
            if part:
                contract(whole_labels, whole, labels, part, out_labels, sums, sign)
        witness = least_nonzero(sums)
        if witness is not None:
            return witness
    return None


def products(left_labels, left: dict, right_labels, right: dict, out_labels) -> int:
    """How many products ``contract`` forms from the same arguments, none formed.

    For each value of the shared labels, the entries of ``left`` that have
    it times the entries of ``right`` that have it.
    """
    on_left, on_right, *_ = _plan(left_labels, right_labels, out_labels)
    counts = Counter(map(on_left, left))
    return sum(counts[shared] for shared in map(on_right, right))


def _picker(positions):
    """key -> the tuple of its entries at ``positions``; a slice if contiguous."""
    start = positions[0] if positions else 0
    if positions == list(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


@lru_cache(maxsize=1024)
def _plan(left, right, out):
    """Key pickers of a contraction of labels ``left`` and ``right`` into ``out``.

    Returns (on_left, on_right, head, tail, place): ``on_left`` and
    ``on_right`` read a key's shared indices, ``tail`` the rest of a right
    key.  An output key is head(left key) + tail when ``out`` lists the
    left's kept labels, then the right's; otherwise ``head`` is None and it
    is place(left key + tail).
    """
    shared = [x for x in left if x in right]
    kept = [x for x in left if x not in shared]
    tail = [x for x in right if x not in shared]
    if (len(set(left)) < len(left) or len(set(right)) < len(right)
            or len(out) != len(kept + tail) or set(out) != set(kept + tail)):
        raise ValueError(f"cannot contract {left!r} with {right!r} into {out!r}: "
                         "each unshared label must be kept once")
    on_left, on_right = (itemgetter(*map(labels.index, shared)) if shared
                         else itemgetter(slice(0)) for labels in (left, right))
    tail_picker = _picker([*map(right.index, tail)])
    if list(out) == kept + tail:
        return on_left, on_right, _picker([*map(left.index, kept)]), tail_picker, None
    joined = [*left, *tail]
    return on_left, on_right, None, tail_picker, _picker([*map(joined.index, out)])


def contract(left_labels, left: dict, right_labels, right: dict, out_labels,
             into=None, scale=1) -> dict:
    """scale * sum over the shared labels of left * right, keyed by ``out_labels``.

    ``left`` and ``right`` are {index tuple: int} tables; ``left_labels``
    and ``right_labels`` name their slots in order, one distinct label per
    slot, as a string or a tuple.  Every label the two share is summed
    over (none shared is the outer product), and ``out_labels`` must order
    the labels that are left, each once; anything else raises ValueError.
    Only products of present entries are formed.  With ``into``, the sums
    are added into that dict, which is returned; otherwise a new dict of
    the nonzero sums is.
    """
    on_left, on_right, head, tail, place = _plan(left_labels, right_labels, out_labels)
    index = defaultdict(list)
    for key, v in right.items():
        index[on_right(key)].append((tail(key), v))
    out = {} if into is None else into
    get = out.get
    for key, u in left.items():
        hits = index.get(on_left(key))
        if hits:
            u *= scale
            if place is None:
                key = head(key)
                for rest, v in hits:
                    key_out = key + rest
                    out[key_out] = get(key_out, 0) + u * v
            else:
                for rest, v in hits:
                    key_out = place(key + rest)
                    out[key_out] = get(key_out, 0) + u * v
    return out if into is not None else {key: v for key, v in out.items() if v}
