"""Rank-4 weight tensors and exact evaluation on chord diagrams.

A weight tensor H on a d-dimensional space stores only its nonzero
components H(a, b, c, d), leg 1 mapping arc index a to b and leg 2
mapping c to d.  Placing the tensor on every chord of a diagram and
contracting the arc indices around the circle yields its weight system.

That contraction is a tensor network: arc j is the arc entering endpoint j,
and chord (p, q), p < q, is one factor on arcs (p, p+1, q, q+1) mod 2n, so
every arc joins the two chords at its ends.  ``evaluate`` contracts the
factors two at a time in the order ``contraction_plan`` fixes from the
diagram alone.  A step costs at most d^(arcs touched), so the cost is
exponential in the width of the network, not in the number of chords: the
full crossing has width 4 for every n.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product as iter_product

from .diagrams import ChordDiagram
from .formal import FormalSum
from .frozen import Frozen
from .jsonio import JSONFormatError, format_rational, parse_entries
from .sparse import (UNIT, IntegerView, contract, exact_entries, least_nonzero,
                     least_nonzero_sum, products)
from .work import charge_work


class WeightTensor(Frozen):
    """Immutable sparse rank-4 rational tensor with two (in, out) legs.

    Built from ((a, b, c, d), value) pairs, a repeated key keeping its last
    value, or from an IntegerView, kept as it is; ``entries`` is the
    IntegerView of the nonzero components, a read-only {(a, b, c, d):
    Fraction} mapping, and every key it lacks is zero.
    """

    __slots__ = ("dim", "entries")
    _fields = __slots__

    def __init__(self, dim: int, nonzero):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        if not isinstance(nonzero, IntegerView):
            nonzero = {tuple(key): value for key, value in nonzero}
        self._set(dim, exact_entries(nonzero, 4, dim))

    @classmethod
    def from_entries(cls, dim: int, nonzero) -> "WeightTensor":
        """The constructor, under the name older callers use."""
        return cls(dim, nonzero)

    def nonzero_items(self) -> list:
        """((a, b, c, d), value) for every nonzero component, in index order."""
        return list(self.entries.items())

    def __repr__(self):
        return f"WeightTensor(dim={self.dim}, nonzero={len(self.entries)})"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [
                {"a": a, "b": b, "c": c, "d": d, "value": format_rational(v)}
                for (a, b, c, d), v in self.nonzero_items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "WeightTensor":
        if not isinstance(data, dict):
            raise JSONFormatError("", "expected a JSON object")
        dim = data.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise JSONFormatError("dim", "must be a positive integer")
        charge_work(dim ** 4, f"a dense tensor of dimension {dim} needs dim^4 = "
                    f"{dim ** 4} entries")
        return cls(dim, parse_entries(data.get("entries"), "entries", dim).items())


def validate_symmetry(tensor: WeightTensor) -> bool:
    """True iff swapping the two legs leaves every component fixed.

    Only the nonzero components are read: the tensor less its copy with
    the legs swapped is a sum over them alone.
    """
    ent = tensor.entries.nums
    return least_nonzero(contract("abcd", ent, "", UNIT, "cdab", dict(ent), -1)) is None


# (sign, Q labels, P labels) of each term of the tensor four-term sum; see
# four_term_witness and check_four_term.
_FOUR_TERM = ((1, "efax", "xbcd"), (-1, "efxb", "axcd"),
              (1, "efcx", "abxd"), (-1, "efxd", "abcx"))


def four_term_witness(view: IntegerView, terms):
    """Least (a, b, c, d, e, f) at which a four-term sum over ``view`` is nonzero.

    With P the viewed tensor and Q = P[e][f] a matrix, each of ``terms`` is
    (sign, Q labels, P labels), the term sign * sum_x Q P over the one
    label x the two share; ``(1, "efax", "xbcd")`` is
    sum_x P[e][f][a][x] P[x][b][c][d].  The sum is formed from products of
    nonzero entries only, one value of a at a time, by
    ``sparse.least_nonzero_sum``, which stops at the first value whose
    slice has a nonzero key.  The number of products of the full sum, an
    upper bound on those formed, is counted first without forming any and
    charged.  The lexicographically least nonzero key is returned, or None.
    """
    work = sum(products(q, view.nums, p, view.nums, "abcdef") for _, q, p in terms)
    charge_work(work, f"the four-term check needs {work} products of nonzero entries")
    return least_nonzero_sum([(sign, q, view, p, view) for sign, q, p in terms], "abcdef")


def check_four_term(tensor: WeightTensor):
    """Check the four-term identity on two chords sharing an arc.

    Returns (True, None) or (False, witness) where the witness is the
    lexicographically least free-index tuple (a, b, c, d, e, f) at which

        sum_x  T(e,f,a,x) T(x,b,c,d) - T(e,f,x,b) T(a,x,c,d)
             + T(e,f,c,x) T(a,b,x,d) - T(e,f,x,d) T(a,b,c,x)

    fails to vanish.  Only products of nonzero entries are formed, in exact
    integer arithmetic, so the cost scales with their number rather than
    with d^7; an all-zero tensor costs one scan of its entries.
    """
    witness = four_term_witness(tensor.entries, _FOUR_TERM)
    return witness is None, witness


class ContractionPlan(Frozen):
    """The order in which ``evaluate`` contracts a diagram's tensor network.

    Factors 0..n-1 are the chords of ``diagram.chords``; step s contracts
    factors ``steps[s] = (i, j, touched)`` into factor n+s, where
    ``touched`` is the number of distinct arcs of the two factors.
    """

    __slots__ = ("steps",)
    _fields = __slots__

    def __init__(self, steps: tuple):
        self._set(steps)

    def cost(self, dim: int) -> int:
        """Predicted work: sum over steps of dim ** (arcs touched)."""
        return sum(dim ** touched for _, _, touched in self.steps)


def _chord_legs(diagram: ChordDiagram) -> list:
    """Arcs (p, p+1, q, q+1) mod 2n on the four legs of each chord (p, q)."""
    m = len(diagram.matching)
    return [(p, (p + 1) % m, q, (q + 1) % m) for p, q in diagram.chords]


def _open_arcs(legs) -> tuple:
    """Arcs that occur once in ``legs``; an arc occurring twice is internal."""
    return tuple(x for x in legs if legs.count(x) == 1)


def contraction_plan(diagram: ChordDiagram) -> ContractionPlan:
    """Greedy pairwise contraction order, fixed by the diagram alone.

    At each step, of the pairs of live factors that share an arc, the one
    whose product has the fewest open arcs is contracted, ties going to the
    least pair of factor indices.  The circle is connected, so one factor
    with no open arcs is left at the end.
    """
    live = {k: set(_open_arcs(legs)) for k, legs in enumerate(_chord_legs(diagram))}
    steps = []
    while len(live) > 1:
        ids = sorted(live)
        _, i, j = min(
            (len(live[i] ^ live[j]), i, j)
            for x, i in enumerate(ids) for j in ids[x + 1:]
            if live[i] & live[j]
        )
        steps.append((i, j, len(live[i] | live[j])))
        live[diagram.n + len(steps) - 1] = live.pop(i) ^ live.pop(j)
    return ContractionPlan(tuple(steps))


def _chord_factor(legs, entries: dict):
    """One chord's factor: {values on its open arcs: int}.

    An arc that occurs on two legs keeps only the diagonal entries and is
    summed out inside the factor.
    """
    arcs = _open_arcs(legs)
    if len(arcs) == 4:
        return arcs, entries
    first = [legs.index(x) for x in legs]
    keep = [legs.index(x) for x in arcs]
    factor = defaultdict(int)
    for key, value in entries.items():
        if all(key[i] == key[f] for i, f in enumerate(first)):
            factor[tuple(key[i] for i in keep)] += value
    return arcs, {key: value for key, value in factor.items() if value}


def evaluate(tensor: WeightTensor, diagram: ChordDiagram) -> Fraction:
    """Contract the tensor around the circle; exact value of the weight system.

    Each chord (p, q), p < q in the canonical matching, is one factor on
    arcs (p, p+1, q, q+1) mod 2n, leg 1 at p, holding the tensor's nonzero
    entries as int numerators over their common denominator den.  The
    factors are contracted pairwise in the order of ``contraction_plan``,
    whose ``cost(d)`` -- the sum over steps of d^(arcs touched) -- bounds
    the work and is charged against the CHORDWEIGHT_MAX_WORK bound before
    any factor is built.  The integer total is divided by den^n once, at
    the end.
    """
    n = diagram.n
    if n == 0:
        return Fraction(tensor.dim)
    plan = contraction_plan(diagram)
    work = plan.cost(tensor.dim)
    charge_work(work, "contraction needs sum over steps of d^(arcs touched) = "
                f"{work} products")
    view = tensor.entries
    factors = [_chord_factor(legs, view.nums) for legs in _chord_legs(diagram)]
    for i, j, _ in plan.steps:
        (left_arcs, left), (right_arcs, right) = factors[i], factors[j]
        arcs = (tuple(x for x in left_arcs if x not in right_arcs)
                + tuple(x for x in right_arcs if x not in left_arcs))
        factors.append((arcs, contract(left_arcs, left, right_arcs, right, arcs)))
        factors[i] = factors[j] = None
    _, total = factors[-1]
    return Fraction(total.get((), 0), view.den ** n)


def evaluate_naive(tensor: WeightTensor, diagram: ChordDiagram) -> Fraction:
    """Full-sum oracle: iterate over all arc-index assignments.

    Arc j is the arc entering endpoint j, so endpoint p reads (arcs[p],
    arcs[p+1 mod 2n]) as its (in, out) pair.  Each term multiplies the
    tensor's int numerators, and the total is divided by den^n once.  Cost
    d^(2n), charged against the work bound (the CHORDWEIGHT_MAX_WORK
    environment variable, else a builtin default).
    """
    d = tensor.dim
    n = diagram.n
    work = d ** (2 * n)
    charge_work(work, f"naive evaluation needs d^(2n) = {work} assignments")
    if n == 0:
        return Fraction(d)
    m = 2 * n
    nums = tensor.entries.nums
    chords = diagram.chords
    total = 0
    for arcs in iter_product(range(d), repeat=m):
        term = 1
        for p, q in chords:
            term *= nums.get((arcs[p], arcs[(p + 1) % m], arcs[q], arcs[(q + 1) % m]), 0)
            if term == 0:
                break
        total += term
    return Fraction(total, tensor.entries.den ** n)


def evaluate_sum(tensor: WeightTensor, combination: FormalSum) -> Fraction:
    """Linear extension of evaluate to formal sums of diagrams."""
    return sum((coeff * evaluate(tensor, diagram) for diagram, coeff in combination.items()),
               Fraction(0))
