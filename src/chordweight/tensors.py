"""Rank-4 weight tensors and exact evaluation on chord diagrams.

A weight tensor H on a d-dimensional space stores only its nonzero
components entry(a, b, c, d), leg 1 mapping arc index a to b and leg 2
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
from typing import NamedTuple

from .diagrams import ChordDiagram
from .formal import FormalSum
from .frozen import Frozen
from .jsonio import JSONFormatError, format_rational, parse_entries
from .sparse import IntegerView, exact_entries, least_nonzero
# DEFAULT_MAX_WORK and WorkLimitExceeded are re-exported from here
from .work import DEFAULT_MAX_WORK, WorkLimitExceeded, charge_work  # noqa: F401

_ZERO = Fraction(0)


class WeightTensor(Frozen):
    """Immutable sparse rank-4 rational tensor with two (in, out) legs.

    Built from ((a, b, c, d), value) pairs, a repeated key keeping its last
    value; ``entries`` is a read-only {(a, b, c, d): Fraction} mapping of
    the nonzero components, and every key it lacks is zero.
    """

    __slots__ = ("dim", "entries")
    _fields = __slots__

    def __init__(self, dim: int, nonzero):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        self._set(dim, exact_entries({tuple(key): value for key, value in nonzero},
                                     4, dim))

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def entry(self, a: int, b: int, c: int, d: int) -> Fraction:
        """Component with leg 1 = (in a, out b), leg 2 = (in c, out d)."""
        return self.entries.get((a, b, c, d), _ZERO)

    @classmethod
    def from_entries(cls, dim: int, nonzero) -> "WeightTensor":
        """The constructor, under the name older callers use."""
        return cls(dim, nonzero)

    @classmethod
    def identity(cls, dim: int) -> "WeightTensor":
        """The pass-through tensor: both legs act as the identity."""
        return cls(dim, (((a, a, c, c), 1) for a in range(dim) for c in range(dim)))

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
        return cls(dim, parse_entries(data.get("entries", []), "entries", dim).items())


def validate_symmetry(tensor: WeightTensor) -> bool:
    """True iff swapping the two legs leaves every component fixed.

    Only the nonzero components are read: if each one equals its swap, no
    zero component can have a nonzero swap.
    """
    ent = tensor.entries
    return all(ent.get((c, d, a, b)) == v for (a, b, c, d), v in ent.items())


# (sign, outgoing) of the four-term sum's term on each slot of the second
# factor; see four_term_witness.
_FOUR_TERM = ((1, False), (-1, True), (1, False), (-1, True))


def four_term_witness(view: IntegerView, terms):
    """Least (a, b, c, d, e, f) at which a four-term sum over ``view`` is nonzero.

    With P the viewed tensor and Q = P[e][f] a matrix, ``terms[s]`` is the
    (sign, outgoing) pair of the term that contracts Q into slot s of
    P[a][b][c][d]: sign * sum_x Q[w][x] P[.. x in slot s ..] for an incoming
    term and sign * sum_x Q[x][w] P[.. x in slot s ..] for an outgoing one,
    where w is the free index that slot s carries in the witness.  The full
    sum is built from products of nonzero entries only, keyed by the witness
    tuple, so the cost scales with the number of nonzero products; the
    lexicographically least nonzero key is returned, or None.
    """
    sums = defaultdict(int)
    for slot, (sign, outgoing) in enumerate(terms):
        index = view.by_slot(slot)
        for (e, f, p, q), u in view.entries.items():
            free, x = (q, p) if outgoing else (p, q)
            hits = index.get(x)
            if hits is None:
                continue
            u *= sign
            for key, v in hits:
                sums[key[:slot] + (free,) + key[slot + 1:] + (e, f)] += u * v
    return least_nonzero(sums)


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
    witness = four_term_witness(IntegerView(tensor.entries, 4), _FOUR_TERM)
    return witness is None, witness


class ContractionPlan(NamedTuple):
    """The order in which ``evaluate`` contracts a diagram's tensor network.

    Factors 0..n-1 are the chords of ``diagram.chords``; step s contracts
    factors ``steps[s] = (i, j, touched)`` into factor n+s, where
    ``touched`` is the number of distinct arcs of the two factors.
    """

    steps: tuple

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


def _contract(left, right):
    """Sum two factors over their shared arcs; zeros are dropped."""
    (a_arcs, a), (b_arcs, b) = left, right
    shared = [x for x in a_arcs if x in b_arcs]
    a_keep = [i for i, x in enumerate(a_arcs) if x not in shared]
    b_keep = [i for i, x in enumerate(b_arcs) if x not in shared]
    a_shared = [a_arcs.index(x) for x in shared]
    b_shared = [b_arcs.index(x) for x in shared]
    index = defaultdict(list)
    for key, value in b.items():
        index[tuple(key[i] for i in b_shared)].append(
            (tuple(key[i] for i in b_keep), value))
    out = defaultdict(int)
    for key, value in a.items():
        hits = index.get(tuple(key[i] for i in a_shared))
        if hits:
            head = tuple(key[i] for i in a_keep)
            for tail, other in hits:
                out[head + tail] += value * other
    arcs = tuple(a_arcs[i] for i in a_keep) + tuple(b_arcs[i] for i in b_keep)
    return arcs, {key: value for key, value in out.items() if value}


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
    view = IntegerView(tensor.entries, 4)
    factors = [_chord_factor(legs, view.entries) for legs in _chord_legs(diagram)]
    for i, j, _ in plan.steps:
        factors.append(_contract(factors[i], factors[j]))
        factors[i] = factors[j] = None
    _, total = factors[-1]
    return Fraction(total.get((), 0), view.den ** n)


def evaluate_naive(tensor: WeightTensor, diagram: ChordDiagram, max_work=None) -> Fraction:
    """Full-sum oracle: iterate over all arc-index assignments.

    Arc j is the arc entering endpoint j, so endpoint p reads (arcs[p],
    arcs[p+1 mod 2n]) as its (in, out) pair.  Cost d^(2n), guarded by
    max_work (falling back to the CHORDWEIGHT_MAX_WORK environment
    variable, then a builtin default).
    """
    d = tensor.dim
    n = diagram.n
    work = d ** (2 * n)
    charge_work(work, f"naive evaluation needs d^(2n) = {work} assignments", max_work)
    if n == 0:
        return Fraction(d)
    m = 2 * n
    entry = tensor.entry
    chords = diagram.chords
    total = Fraction(0)
    for arcs in iter_product(range(d), repeat=m):
        term = Fraction(1)
        for p, q in chords:
            term *= entry(arcs[p], arcs[(p + 1) % m], arcs[q], arcs[(q + 1) % m])
            if term == 0:
                break
        total += term
    return total


def evaluate_sum(tensor: WeightTensor, combination: FormalSum) -> Fraction:
    """Linear extension of evaluate to formal sums of diagrams."""
    total = Fraction(0)
    for diagram, coeff in combination.items():
        total += coeff * evaluate(tensor, diagram)
    return total
