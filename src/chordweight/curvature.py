"""Pseudo-Riemannian curvature models and their symmetric-space algebra.

A model is the metric and Riemann tensor on a single tangent space with
parallel curvature: enough data to validate the classical symmetries,
produce a weight tensor, extract the holonomy algebra, assemble the
associated symmetric triple, and decide whether a Lie-algebra weight
tensor can be realized this way.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .frozen import Frozen
from .jsonio import (
    JSONFormatError,
    format_matrix,
    format_rational,
    parse_entries,
    parse_matrix,
)
from .lie import MetrizedLieAlgebra, Representation, algebra_to_json_dict
from .linalg import ReducedSpan, full_rank, is_symmetric, mat_inv, sparse_rank
from .sparse import IntegerView, contract, dense_array, exact_entries, nonzero_entries
from .tensors import WeightTensor, four_term_witness
from .work import charge_work


class CurvatureModel:
    """Metric g and curvature R on a single tangent space.

    ``entries`` maps (a, b, c, x) to the nonzero e_x component of
    R(e_a, e_b)e_c; the lowered tensor and the weight tensor are derived
    from it on demand.
    """

    def __init__(self, metric, riemann):
        metric = tuple(tuple(Fraction(x) for x in row) for row in metric)
        d = len(metric)
        if any(len(row) != d for row in metric):
            raise ValueError("metric must be a square matrix")
        self.dim = d
        self.metric = metric
        self.entries = exact_entries(riemann, 4, d, f"curvature must have {d}^4 entries")

    @property
    def riemann(self) -> tuple:
        """``riemann[a][b][c][x]`` as a dense nested tuple, built on each access."""
        return dense_array(self.entries, 4, self.dim)

    def weight_tensor(self) -> WeightTensor:
        """Raise the second slot: entry(a,b,c,d) = sum_x g_inv[b][x] R[a][x][c][d]."""
        try:
            inverse = mat_inv(self.metric)
        except ValueError:
            raise ValueError("metric is degenerate") from None
        ginv = IntegerView(inverse, 2)
        R = IntegerView(self.entries, 4)
        den = ginv.den * R.den
        return WeightTensor(self.dim, (
            ((a, b, c, dd), Fraction(v, den))
            for (b, a, c, dd), v in contract(ginv.entries, 1, R.entries, 1).items()
        ))

    def endomorphism(self, a: int, b: int) -> tuple:
        """R(e_a, e_b) as a matrix on the tangent space (rows = output)."""
        R, rng = self.entries, range(self.dim)
        return tuple(tuple(R.get((a, b, c, x), Fraction(0)) for c in rng) for x in rng)

    def validate(self):
        """(True, None) or (False, (identity, witness)) for the first failure.

        Checked in order: metric symmetric, metric nondegenerate, curvature
        antisymmetric in its first two slots, first Bianchi identity, and
        pair symmetry of the lowered tensor.  The last three run on nonzero
        entries only, as int numerators: an index tuple can fail only if
        one of its terms is nonzero, so every failing tuple is the (a, b)
        swap, a cyclic rotation of (a, b, c) or the pair swap of a nonzero
        key.  The lexicographically least failing tuple is the witness.
        """
        if not is_symmetric(self.metric):
            return False, ("metric-symmetry", None)
        if not full_rank(self.metric):
            return False, ("metric-degenerate", None)
        R = IntegerView(self.entries, 4).entries
        failure = _skew_or_bianchi_failure(R)
        if failure is not None:
            return False, failure
        low = contract(R, 3, IntegerView(self.metric, 2).entries, 0)  # lowered R
        bad = [key for (a, b, c, x), v in low.items()
               if v != low.get((c, x, a, b), 0)
               for key in ((a, b, c, x), (c, x, a, b))]
        if bad:
            return False, ("pair-symmetry", min(bad))
        return True, None

    def __repr__(self):
        return f"CurvatureModel(dim={self.dim})"


def _skew_or_bianchi_failure(R: dict):
    """("antisymmetry" or "bianchi", least witness) of a rank-4 int tensor, or None.

    Antisymmetry in the first two slots is checked first, then the first
    Bianchi identity.  A failing tuple has a nonzero term, so it is the
    (a, b) swap or a cyclic rotation of (a, b, c) of a nonzero key.
    """
    swapped = {(min(a, b), max(a, b), c, x) for a, b, c, x in R}
    bad = [(a, b, c, x) for a, b, c, x in swapped
           if R.get((a, b, c, x), 0) + R.get((b, a, c, x), 0)]
    if bad:
        return "antisymmetry", min(bad)
    bad = [key for a, b, c, x in R
           if R.get((a, b, c, x), 0) + R.get((b, c, a, x), 0)
           + R.get((c, a, b, x), 0)
           for key in ((a, b, c, x), (b, c, a, x), (c, a, b, x))]
    if bad:
        return "bianchi", min(bad)
    return None


def constant_curvature(dim: int, metric=None, kappa=1) -> CurvatureModel:
    """Model with lowered curvature kappa * (g_ad g_bc - g_ac g_bd).

    Raised by g^-1, that is R[a][b][c][x] = kappa * (delta_ax g_bc - delta_bx g_ac).
    """
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    if metric is None:
        metric = [[int(i == j) for j in range(dim)] for i in range(dim)]
    g = [[Fraction(x) for x in row] for row in metric]
    if not full_rank(g):
        raise ValueError("metric is degenerate")
    kappa = Fraction(kappa)
    entries = {}  # R[a][a] = 0; for a != b only x = a and x = b are nonzero
    for a in range(dim):
        for b in range(dim):
            if a != b:
                for c in range(dim):
                    entries[a, b, c, a] = kappa * g[b][c]
                    entries[a, b, c, b] = -kappa * g[a][c]
    return CurvatureModel(g, entries)


# The parallel four-term sum's terms, as (sign, outgoing) per slot of the
# second factor; see tensors.four_term_witness.
_PARALLEL_FOUR_TERM = ((1, False), (1, False), (1, False), (-1, True))


def check_parallel_four_term(model: CurvatureModel):
    """Four-term identity satisfied by any parallel curvature tensor.

    For every index tuple,

        sum_x ( R[e][f][a][x] R[x][b][c][d] + R[e][f][b][x] R[a][x][c][d]
              + R[e][f][c][x] R[a][b][x][d] - R[e][f][x][d] R[a][b][c][x] )

    must vanish; this is the same relation as the tensor-level four-term
    check after raising an index with the metric.  Returns (True, None) or
    (False, witness) with the lexicographically least witness.  The sum is
    built from products of nonzero curvature entries only, in exact integer
    arithmetic, so the cost scales with the number of those products.
    """
    witness = four_term_witness(IntegerView(model.entries, 4),
                                _PARALLEL_FOUR_TERM)
    return witness is None, witness


class HolonomyAlgebra(Frozen):
    """Span of the curvature endomorphisms with its induced form.

    ``labels[i]`` is the generator pair (a, b) whose endomorphism is
    ``basis[i]``; ``brackets`` holds commutator structure constants in this
    basis and ``form`` the induced invariant form.  ``pair_coordinates``,
    when given, maps every generator pair to the coordinates of its
    endomorphism in ``basis``: a by-product of the extraction, not a field,
    so it takes no part in ``==``, ``hash`` or ``repr``.
    """

    _fields = ("model", "labels", "basis", "brackets", "form", "nondegenerate")

    def __init__(self, model: CurvatureModel, labels: tuple, basis: tuple,
                 brackets: tuple, form: tuple, nondegenerate: bool,
                 pair_coordinates: dict | None = None):
        self._set(model, labels, basis, brackets, form, nondegenerate)
        object.__setattr__(self, "_pair_coordinates", pair_coordinates)

    @property
    def dim_h(self) -> int:
        return len(self.labels)

    def algebra(self) -> MetrizedLieAlgebra:
        return MetrizedLieAlgebra(self.brackets, self.form)

    def representation(self) -> Representation:
        """The holonomy algebra acting on the tangent space."""
        return Representation(self.algebra(), self.basis, dimV=self.model.dim)


def holonomy_algebra(model: CurvatureModel, check_model: bool = True) -> HolonomyAlgebra:
    """Extract span{R(e_a, e_b)} with brackets and the induced form.

    The well-definedness of the form and the commutator bracket identity

        [R(X,Y), R(Z,W)] = R(R(X,Y)Z, W) + R(Z, R(X,Y)W)

    are verified on all generator pairs; failures raise RuntimeError since
    they cannot occur for input passing the model checks.  Everything runs
    on the nonzero curvature entries as int numerators over one
    denominator.  The span is reduced once, and each generator pair and
    basis commutator is then solved against that one reduction.  The
    bracket identity's pairs^2 * d^3 is charged before anything is built.
    """
    d = model.dim
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    work = len(pairs) ** 2 * d ** 3
    charge_work(work, f"the holonomy algebra of a curvature model of dimension "
                f"{d} needs pairs^2 * d^3 = {work} steps")
    if check_model:
        ok, why = model.validate()
        if not ok:
            raise ValueError(f"curvature model fails {why[0]} check at {why[1]}")
        ok, witness = check_parallel_four_term(model)
        if not ok:
            raise ValueError(f"parallel four-term identity fails at {witness}")
    R = IntegerView(model.entries, 4)
    endos = defaultdict(dict)  # R(e_a, e_b) for every a, b: {(row x, column c): int}
    by_first = defaultdict(list)  # (a, b, c): [(x, R[a][b][c][x])]
    for (a, b, c, x), v in R.entries.items():
        endos[a, b][x, c] = v
        by_first[a, b, c].append((x, v))
    span = ReducedSpan()
    labels = [pair for pair in pairs if span.add(endos[pair])]
    m = len(labels)
    coords = {pair: span.coordinates(endos[pair]) for pair in pairs}
    metric = IntegerView(model.metric, 2)
    low = contract(R.entries, 3, metric.entries, 0)  # over R.den * metric.den
    form_num = [[low.get(p + q, 0) for q in labels] for p in labels]
    scale = span.den ** 2
    for p in pairs:
        via = [sum(c * row[j] for c, row in zip(coords[p], form_num) if c)
               for j in range(m)]
        for q in pairs:
            if sum(map(int.__mul__, via, coords[q])) != scale * low.get(p + q, 0):
                raise RuntimeError(
                    f"induced form is inconsistent on generators {p}, {q}"
                )
    comms = {}  # [R(p), R(q)] for p < q, over R.den^2
    for i, p in enumerate(pairs):
        for q in pairs[i + 1:]:
            comm = contract(endos[p], 1, endos[q], 0)
            for key, v in contract(endos[q], 1, endos[p], 0).items():
                comm[key] = comm.get(key, 0) - v
            comms[p, q] = {key: v for key, v in comm.items() if v}
    for p in pairs:
        for q in pairs:
            diff = defaultdict(int)
            if p != q:
                sign = 1 if p < q else -1
                for key, v in comms[min(p, q), max(p, q)].items():
                    diff[key] = sign * v
            for x, v in by_first.get((*p, q[0]), ()):
                for key, w in endos[x, q[1]].items():
                    diff[key] -= v * w
            for x, v in by_first.get((*p, q[1]), ()):
                for key, w in endos[q[0], x].items():
                    diff[key] -= v * w
            if any(diff.values()):
                raise RuntimeError(
                    f"bracket identity fails on generators {p}, {q}"
                )
    brackets = [[(Fraction(0),) * m for _ in range(m)] for _ in range(m)]
    den = span.den * R.den
    for i in range(m):
        for j in range(i + 1, m):
            c = span.coordinates(comms[labels[i], labels[j]])
            if c is None:
                raise RuntimeError("holonomy commutator escapes the span")
            brackets[i][j] = tuple(Fraction(v, den) for v in c)
            brackets[j][i] = tuple(Fraction(-v, den) for v in c)
    form = tuple(tuple(Fraction(v, R.den * metric.den) for v in row)
                 for row in form_num)
    return HolonomyAlgebra(
        model,
        tuple(labels),
        tuple(model.endomorphism(*pair) for pair in labels),
        tuple(tuple(plane) for plane in brackets),
        form,
        full_rank(form),
        {pair: tuple(Fraction(v, span.den) for v in c) for pair, c in coords.items()},
    )


class SymmetricTriple(Frozen):
    """Lie algebra h + p with involution and block form, h basis first."""

    _fields = ("holonomy", "brackets", "form", "involution")

    def __init__(self, holonomy: HolonomyAlgebra, brackets: tuple, form: tuple,
                 involution: tuple):
        self._set(holonomy, brackets, form, involution)

    @property
    def dim_h(self) -> int:
        return self.holonomy.dim_h

    @property
    def dim_p(self) -> int:
        return self.holonomy.model.dim

    @property
    def dim(self) -> int:
        return self.dim_h + self.dim_p

    def algebra(self) -> MetrizedLieAlgebra:
        return MetrizedLieAlgebra(self.brackets, self.form)

    def validate(self):
        """(True, None) or (False, message).

        Runs the full metrized-algebra validation (the tangent-tangent
        Jacobi case is the Bianchi identity, the mixed case the bracket
        identity), then the involution compatibilities and the requirement
        that tangent brackets span the holonomy part.
        """
        ok, why = self.algebra().validate()
        if not ok:
            return False, why
        m = self.dim_h
        s = self.involution
        f = self.brackets
        for (i, j, k), _ in nonzero_entries(f, 3):
            if s[k] != s[i] * s[j]:
                return False, f"involution parity fails at ({i},{j},{k})"
        for (i, j), _ in nonzero_entries(self.form, 2):
            if s[i] != s[j]:
                return False, f"form mixes involution eigenspaces at ({i},{j})"
        rows = [dict(enumerate(f[a][b][:m]))
                for a in range(m, self.dim) for b in range(a + 1, self.dim)]
        if sparse_rank(rows) != m:
            return False, "tangent brackets do not span the holonomy part"
        return True, None


def symmetric_triple(model: CurvatureModel, check_model: bool = True) -> SymmetricTriple:
    """Assemble h + p with [X,Y] = R(X,Y), [A,X] = A(X) and B = B_h + g."""
    hol = holonomy_algebra(model, check_model=check_model)
    d = model.dim
    m = hol.dim_h
    n = m + d
    f = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(m):
        for j in range(m):
            f[i][j][:m] = hol.brackets[i][j]
    for i in range(m):
        mat = hol.basis[i]
        for a in range(d):
            for x in range(d):
                if mat[x][a] != 0:
                    f[i][m + a][m + x] = mat[x][a]
                    f[m + a][i][m + x] = -mat[x][a]
    for (a, b), c in hol._pair_coordinates.items():
        for k in range(m):
            f[m + a][m + b][k] = c[k]
            f[m + b][m + a][k] = -c[k]
    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        form[i][:m] = hol.form[i]
    for a in range(d):
        form[m + a][m:] = model.metric[a]
    return SymmetricTriple(
        hol,
        tuple(tuple(tuple(row) for row in plane) for plane in f),
        tuple(tuple(row) for row in form),
        (1,) * m + (-1,) * d,
    )


def verify_lie_type(model: CurvatureModel, triple: SymmetricTriple | None = None):
    """Check that the model's weight tensor comes from its holonomy algebra.

    Builds the symmetric triple, validates it, and compares the weight
    tensor of the holonomy representation with the model's own entrywise;
    equal tensors give equal weight systems, so no diagram is evaluated.
    A caller that has already built and validated the model's
    triple passes it as ``triple`` to skip those two steps.  Returns
    (True, None) or (False, reason).
    """
    if triple is None:
        triple = symmetric_triple(model)
        ok, why = triple.validate()
        if not ok:
            return False, f"symmetric triple invalid: {why}"
    hol = triple.holonomy
    if not hol.nondegenerate:
        return False, "holonomy form is degenerate"
    candidate = hol.representation().weight_tensor()
    target = model.weight_tensor()
    if candidate != target:
        ours, theirs = candidate.entries, target.entries
        witness = min(key for key in ours.keys() | theirs.keys()
                      if ours.get(key) != theirs.get(key))
        return False, f"weight tensors differ at entry {witness}"
    return True, None


def so_isomorphism(holonomy: HolonomyAlgebra):
    """Change of basis carrying the holonomy brackets onto so(d), or None.

    Works when the holonomy has full dimension d(d-1)/2 and all basis
    endomorphisms are plainly antisymmetric matrices; the returned matrix P
    satisfies [P e_i, P e_j] = P [e_i, e_j] for the two bracket tables.
    """
    from .lie import so_standard

    d = holonomy.model.dim
    if d < 2:
        return None
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    m = len(pairs)
    if holonomy.dim_h != m:
        return None
    P = []
    for mat in holonomy.basis:
        if any(mat[i][j] != -mat[j][i] for i in range(d) for j in range(d)):
            return None
        P.append([mat[i][j] for (i, j) in pairs])
    if not full_rank(P):
        return None
    so = so_standard(d).algebra
    # sum_k f_h[i][j][k] P[k][l] against sum_{a,b} P[i][a] P[j][b] f_so[a][b][l],
    # one index at a time, keyed (i, j, l)
    f_h = IntegerView(holonomy.brackets, 3)
    f_so = IntegerView(so.entries, 3)
    Pv = IntegerView(P, 2)
    lhs = contract(f_h.entries, 2, Pv.entries, 0)
    rhs = contract(Pv.entries, 1, contract(Pv.entries, 1, f_so.entries, 1), 1)
    scale_lhs, scale_rhs = Pv.den * f_so.den, f_h.den
    if ({key: v * scale_lhs for key, v in lhs.items()}
            != {key: v * scale_rhs for key, v in rhs.items()}):
        return None
    return tuple(tuple(row) for row in P)


def _lowered_casimir(rep: Representation, form_v) -> tuple:
    """(F, {(a, b, c, d): int}, den): form_v as Fractions, rho(C) lowered by it.

    The lowered tensor is sum_{x,y} rho(C)(a,x,c,y) F[x][b] F[y][d]; F must
    be square of the module dimension and nondegenerate.
    """
    d = rep.dimV
    F = [[Fraction(v) for v in row] for row in form_v]
    if len(F) != d or any(len(row) != d for row in F):
        raise ValueError("form must be square of the module dimension")
    if not full_rank(F):
        raise ValueError("form is degenerate")
    T = IntegerView(rep.weight_tensor().entries, 4)
    form = IntegerView(F, 2)
    # keyed (a, c, y, b), then (a, c, b, d)
    low = contract(contract(T.entries, 1, form.entries, 0), 2, form.entries, 0)
    return (F, {(a, b, c, dd): v for (a, c, b, dd), v in low.items()},
            T.den * form.den ** 2)


def _symmetry_verdict(low: dict):
    """The curvature_symmetries verdict on a lowered rho(C)."""
    failure = _skew_or_bianchi_failure(low)
    if failure is None:
        return "pass", None
    name, witness = failure
    return ("fail(skew)" if name == "antisymmetry" else "fail(bianchi)"), witness


def curvature_symmetries(rep: Representation, form_v):
    """Does rho(C), lowered by form_v, have the symmetries of a curvature?

    The skew-symmetry of the lowered tensor in its first two slots is
    checked first, then the first Bianchi identity; the first failure wins,
    with the lexicographically least witness.  Returns ("pass", None),
    ("fail(skew)", witness) or ("fail(bianchi)", witness).
    """
    return _symmetry_verdict(_lowered_casimir(rep, form_v)[1])


def triple_from_rep(rep: Representation, form_v) -> SymmetricTriple:
    """Realize rho(C) geometrically: treat (V, form_v, R^rho) as a model.

    Requires curvature_symmetries to pass and form_v to be symmetric (the
    symmetry test itself accepts non-symmetric forms; a metric cannot be).
    The resulting model's weight tensor is rho(C) again, so the triple's
    holonomy representation reproduces it.
    """
    F, low, den = _lowered_casimir(rep, form_v)
    verdict, witness = _symmetry_verdict(low)
    if verdict != "pass":
        raise ValueError(
            f"representation lacks curvature symmetries: {verdict} at {witness}"
        )
    if not is_symmetric(F):
        raise ValueError("realization requires a symmetric form")
    ginv = IntegerView(mat_inv(F), 2)
    return symmetric_triple(CurvatureModel(F, {
        key: Fraction(v, den * ginv.den)
        for key, v in contract(low, 3, ginv.entries, 0).items()}))


def model_to_json_dict(model: CurvatureModel) -> dict:
    entries = [{"a": a, "b": b, "c": c, "d": x, "value": format_rational(value)}
               for (a, b, c, x), value in model.entries.items()]
    return {
        "dim": model.dim,
        "metric": format_matrix(model.metric),
        "R": entries,
    }


def model_from_json_dict(data) -> CurvatureModel:
    if not isinstance(data, dict):
        raise JSONFormatError("", "expected an object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise JSONFormatError("dim", "expected a positive integer")
    charge_work(dim ** 4, f"a dense curvature tensor of dimension {dim} needs "
                f"dim^4 = {dim ** 4} entries")
    metric = parse_matrix(data.get("metric"), "metric", rows=dim, cols=dim)
    return CurvatureModel(metric, parse_entries(data.get("R"), "R", dim))


def triple_to_json_dict(triple: SymmetricTriple) -> dict:
    out = algebra_to_json_dict(triple.algebra())
    out["dim_h"] = triple.dim_h
    out["dim_p"] = triple.dim_p
    out["involution"] = list(triple.involution)
    return out
