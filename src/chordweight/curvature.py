"""Pseudo-Riemannian curvature models and their symmetric-space algebra.

A model is the metric and Riemann tensor on a single tangent space with
parallel curvature: enough data to validate the classical symmetries,
produce a weight tensor, extract the holonomy algebra, assemble the
associated symmetric triple, and decide whether a Lie-algebra weight
tensor can be realized this way.
"""

from __future__ import annotations

from fractions import Fraction

from .diagrams import enumerate_diagrams
from .frozen import Frozen
from .jsonio import (
    JSONFormatError,
    format_matrix,
    format_rational,
    parse_matrix,
    parse_rational,
)
from .lie import MetrizedLieAlgebra, Representation, algebra_to_json_dict
from .linalg import (
    commutator,
    determinant,
    is_symmetric,
    mat_inv,
    solve_in_span,
    sparse_rank,
)
from .sparse import IntegerView
from .tensors import WeightTensor, evaluate, four_term_witness
from .work import charge_work


class CurvatureModel:
    """Metric g and curvature R on a single tangent space.

    ``riemann[a][b][c][x]`` is the e_x component of R(e_a, e_b)e_c; the
    lowered tensor and the weight tensor are derived from it on demand.
    """

    def __init__(self, metric, riemann):
        metric = tuple(tuple(Fraction(x) for x in row) for row in metric)
        d = len(metric)
        if any(len(row) != d for row in metric):
            raise ValueError("metric must be a square matrix")
        riemann = tuple(
            tuple(
                tuple(tuple(Fraction(x) for x in rc) for rc in rb) for rb in ra
            )
            for ra in riemann
        )
        if len(riemann) != d or any(
            len(ra) != d
            or any(len(rb) != d or any(len(rc) != d for rc in rb) for rb in ra)
            for ra in riemann
        ):
            raise ValueError(f"curvature must have {d}^4 entries")
        self.dim = d
        self.metric = metric
        self.riemann = riemann
        self._inverse = None

    def metric_inverse(self) -> tuple:
        if self._inverse is None:
            try:
                inv = mat_inv([list(row) for row in self.metric])
            except ValueError:
                raise ValueError("metric is degenerate") from None
            self._inverse = tuple(tuple(row) for row in inv)
        return self._inverse

    def lowered(self) -> tuple:
        """All-indices-down curvature: low[a][b][c][d] = sum_x R[a][b][c][x] g[x][d]."""
        d = self.dim
        g = self.metric
        R = self.riemann
        return tuple(
            tuple(
                tuple(
                    tuple(
                        sum((R[a][b][c][x] * g[x][dd] for x in range(d)),
                            Fraction(0))
                        for dd in range(d)
                    )
                    for c in range(d)
                )
                for b in range(d)
            )
            for a in range(d)
        )

    def weight_tensor(self) -> WeightTensor:
        """Raise the second slot: entry(a,b,c,d) = sum_x g_inv[b][x] R[a][x][c][d]."""
        d = self.dim
        ginv = self.metric_inverse()
        R = self.riemann
        ent = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
               for _ in range(d)]
        for a in range(d):
            for b in range(d):
                for x in range(d):
                    w = ginv[b][x]
                    if w == 0:
                        continue
                    plane = R[a][x]
                    for c in range(d):
                        row = plane[c]
                        for dd in range(d):
                            if row[dd] != 0:
                                ent[a][b][c][dd] += w * row[dd]
        return WeightTensor(d, ent)

    def endomorphism(self, a: int, b: int) -> tuple:
        """R(e_a, e_b) as a matrix on the tangent space (rows = output)."""
        R = self.riemann
        return tuple(
            tuple(R[a][b][c][x] for c in range(self.dim))
            for x in range(self.dim)
        )

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
        if self.dim and determinant(self.metric) == 0:
            return False, ("metric-degenerate", None)
        R = IntegerView(self.riemann, 4).entries
        swapped = {(min(a, b), max(a, b), c, x) for a, b, c, x in R}
        bad = [(a, b, c, x) for a, b, c, x in swapped
               if R.get((a, b, c, x), 0) + R.get((b, a, c, x), 0)]
        if bad:
            return False, ("antisymmetry", min(bad))
        bad = [key for a, b, c, x in R
               if R.get((a, b, c, x), 0) + R.get((b, c, a, x), 0)
               + R.get((c, a, b, x), 0)
               for key in ((a, b, c, x), (b, c, a, x), (c, a, b, x))]
        if bad:
            return False, ("bianchi", min(bad))
        rows = IntegerView(self.metric, 2).by_slot(0)
        low = {}
        for (a, b, c, y), r in R.items():
            for (_, x), v in rows.get(y, ()):
                low[a, b, c, x] = low.get((a, b, c, x), 0) + r * v
        bad = [key for (a, b, c, x), v in low.items()
               if v != low.get((c, x, a, b), 0)
               for key in ((a, b, c, x), (c, x, a, b))]
        if bad:
            return False, ("pair-symmetry", min(bad))
        return True, None

    def __repr__(self):
        return f"CurvatureModel(dim={self.dim})"


def constant_curvature(dim: int, metric=None, kappa=1) -> CurvatureModel:
    """Model with lowered curvature kappa * (g_ad g_bc - g_ac g_bd)."""
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    if metric is None:
        metric = [[Fraction(1 if i == j else 0) for j in range(dim)]
                  for i in range(dim)]
    g = [[Fraction(x) for x in row] for row in metric]
    kappa = Fraction(kappa)
    ginv = mat_inv(g)
    low = [
        [
            [
                [kappa * (g[a][dd] * g[b][c] - g[a][c] * g[b][dd])
                 for dd in range(dim)]
                for c in range(dim)
            ]
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    riemann = [
        [
            [
                [
                    sum((low[a][b][c][dd] * ginv[dd][x] for dd in range(dim)),
                        Fraction(0))
                    for x in range(dim)
                ]
                for c in range(dim)
            ]
            for b in range(dim)
        ]
        for a in range(dim)
    ]
    return CurvatureModel(g, riemann)


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
    witness = four_term_witness(IntegerView(model.riemann, 4),
                                _PARALLEL_FOUR_TERM)
    return witness is None, witness


class HolonomyAlgebra(Frozen):
    """Span of the curvature endomorphisms with its induced form.

    ``labels[i]`` is the generator pair (a, b) whose endomorphism is
    ``basis[i]``; ``brackets`` holds commutator structure constants in this
    basis and ``form`` the induced invariant form.
    """

    _fields = ("model", "labels", "basis", "brackets", "form", "nondegenerate")

    def __init__(self, model: CurvatureModel, labels: tuple, basis: tuple,
                 brackets: tuple, form: tuple, nondegenerate: bool):
        self._set(model, labels, basis, brackets, form, nondegenerate)

    @property
    def dim_h(self) -> int:
        return len(self.labels)

    def algebra(self) -> MetrizedLieAlgebra:
        return MetrizedLieAlgebra(self.brackets, self.form)

    def representation(self) -> Representation:
        """The holonomy algebra acting on the tangent space."""
        return Representation(self.algebra(), self.basis, dimV=self.model.dim)


def _flatten(matrix) -> list:
    return [x for row in matrix for x in row]


def holonomy_algebra(model: CurvatureModel, check_model: bool = True) -> HolonomyAlgebra:
    """Extract span{R(e_a, e_b)} with brackets and the induced form.

    The well-definedness of the form and the commutator bracket identity

        [R(X,Y), R(Z,W)] = R(R(X,Y)Z, W) + R(Z, R(X,Y)W)

    are verified on all generator pairs; failures raise RuntimeError since
    they cannot occur for input passing the model checks.
    """
    if check_model:
        ok, why = model.validate()
        if not ok:
            raise ValueError(f"curvature model fails {why[0]} check at {why[1]}")
        ok, witness = check_parallel_four_term(model)
        if not ok:
            raise ValueError(f"parallel four-term identity fails at {witness}")
    d = model.dim
    low = model.lowered()
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    endos = {pair: model.endomorphism(*pair) for pair in pairs}
    labels = []
    vecs = []
    for pair in pairs:
        if solve_in_span(vecs, _flatten(endos[pair])) is None:
            labels.append(pair)
            vecs.append(_flatten(endos[pair]))
    m = len(labels)
    basis = tuple(endos[pair] for pair in labels)
    coords = {pair: solve_in_span(vecs, _flatten(endos[pair])) for pair in pairs}
    form = tuple(
        tuple(low[la][lb][ka][kb] for (ka, kb) in labels) for (la, lb) in labels
    )
    for p in pairs:
        for q in pairs:
            via = Fraction(0)
            for i in range(m):
                if coords[p][i] == 0:
                    continue
                for j in range(m):
                    via += coords[p][i] * coords[q][j] * form[i][j]
            if via != low[p[0]][p[1]][q[0]][q[1]]:
                raise RuntimeError(
                    f"induced form is inconsistent on generators {p}, {q}"
                )
    R = model.riemann
    for p in pairs:
        for q in pairs:
            comm = commutator([list(r) for r in endos[p]],
                              [list(r) for r in endos[q]])
            rhs = [[Fraction(0)] * d for _ in range(d)]
            for x in range(d):
                cfirst = R[p[0]][p[1]][q[0]][x]
                if cfirst != 0:
                    moved = model.endomorphism(x, q[1])
                    for r in range(d):
                        for s in range(d):
                            rhs[r][s] += cfirst * moved[r][s]
                csecond = R[p[0]][p[1]][q[1]][x]
                if csecond != 0:
                    moved = model.endomorphism(q[0], x)
                    for r in range(d):
                        for s in range(d):
                            rhs[r][s] += csecond * moved[r][s]
            if any(comm[r][s] != rhs[r][s] for r in range(d) for s in range(d)):
                raise RuntimeError(
                    f"bracket identity fails on generators {p}, {q}"
                )
    brackets = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            comm = commutator([list(r) for r in basis[i]],
                              [list(r) for r in basis[j]])
            c = solve_in_span(vecs, _flatten(comm))
            if c is None:
                raise RuntimeError("holonomy commutator escapes the span")
            brackets[i][j] = c
    nondegenerate = m == 0 or determinant(form) != 0
    return HolonomyAlgebra(
        model,
        tuple(labels),
        basis,
        tuple(tuple(tuple(row) for row in plane) for plane in brackets),
        form,
        nondegenerate,
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
        n = self.dim
        m = self.dim_h
        s = self.involution
        f = self.brackets
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if f[i][j][k] != 0 and s[k] != s[i] * s[j]:
                        return False, f"involution parity fails at ({i},{j},{k})"
        for i in range(n):
            for j in range(n):
                if self.form[i][j] != 0 and s[i] != s[j]:
                    return False, f"form mixes involution eigenspaces at ({i},{j})"
        rows = []
        for a in range(self.dim_p):
            for b in range(a + 1, self.dim_p):
                row = {k: f[m + a][m + b][k] for k in range(m)
                       if f[m + a][m + b][k] != 0}
                if row:
                    rows.append(row)
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
            for k in range(m):
                f[i][j][k] = hol.brackets[i][j][k]
    for i in range(m):
        mat = hol.basis[i]
        for a in range(d):
            for x in range(d):
                if mat[x][a] != 0:
                    f[i][m + a][m + x] = mat[x][a]
                    f[m + a][i][m + x] = -mat[x][a]
    vecs = [_flatten(mat) for mat in hol.basis]
    for a in range(d):
        for b in range(a + 1, d):
            c = solve_in_span(vecs, _flatten(model.endomorphism(a, b)))
            if c is None:
                raise RuntimeError("tangent bracket escapes the holonomy span")
            for k in range(m):
                f[m + a][m + b][k] = c[k]
                f[m + b][m + a][k] = -c[k]
    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            form[i][j] = hol.form[i][j]
    for a in range(d):
        for b in range(d):
            form[m + a][m + b] = model.metric[a][b]
    return SymmetricTriple(
        hol,
        tuple(tuple(tuple(row) for row in plane) for plane in f),
        tuple(tuple(row) for row in form),
        (1,) * m + (-1,) * d,
    )


def verify_lie_type(model: CurvatureModel, triple: SymmetricTriple | None = None):
    """Check that the model's weight tensor comes from its holonomy algebra.

    Builds the symmetric triple, validates it, and compares the weight
    tensor of the holonomy representation with the model's own, both
    entrywise and through evaluation on all diagrams with at most three
    chords.  A caller that has already built and validated the model's
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
        d = model.dim
        witness = next(
            (a, b, c, dd)
            for a in range(d) for b in range(d)
            for c in range(d) for dd in range(d)
            if candidate.entry(a, b, c, dd) != target.entry(a, b, c, dd)
        )
        return False, f"weight tensors differ at entry {witness}"
    for n in range(4):
        for diagram in enumerate_diagrams(n):
            if evaluate(candidate, diagram) != evaluate(target, diagram):
                return False, f"evaluations differ on {diagram.code or 'empty'}"
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
    so = so_standard(d).algebra
    m = so.dim
    if holonomy.dim_h != m:
        return None
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    P = []
    for mat in holonomy.basis:
        if any(mat[i][j] != -mat[j][i] for i in range(d) for j in range(d)):
            return None
        P.append([mat[i][j] for (i, j) in pairs])
    try:
        mat_inv([list(row) for row in P])
    except ValueError:
        return None
    f_h = holonomy.brackets
    f_so = so.brackets
    for i in range(m):
        for j in range(m):
            for l in range(m):
                lhs = sum((f_h[i][j][k] * P[k][l] for k in range(m)), Fraction(0))
                rhs = Fraction(0)
                for a in range(m):
                    if P[i][a] == 0:
                        continue
                    for b in range(m):
                        if f_so[a][b][l] != 0:
                            rhs += P[i][a] * P[j][b] * f_so[a][b][l]
                if lhs != rhs:
                    return None
    return tuple(tuple(row) for row in P)


def lowered_weight_tensor(tensor: WeightTensor, form_v) -> tuple:
    """Lower both output legs: low[a][b][c][d] = sum T(a,x,c,y) F[x][b] F[y][d]."""
    d = tensor.dim
    F = [[Fraction(v) for v in row] for row in form_v]
    if len(F) != d or any(len(row) != d for row in F):
        raise ValueError("form must match the tensor dimension")
    low = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
           for _ in range(d)]
    for (a, x, c, y), value in tensor.nonzero_items():
        for b in range(d):
            u = value * F[x][b]
            if u == 0:
                continue
            for dd in range(d):
                if F[y][dd] != 0:
                    low[a][b][c][dd] += u * F[y][dd]
    return tuple(
        tuple(tuple(tuple(rc) for rc in rb) for rb in ra) for ra in low
    )


def curvature_symmetries(rep: Representation, form_v):
    """Does rho(C), lowered by form_v, have the symmetries of a curvature?

    The skew-symmetry of the lowered tensor in its first two slots is
    checked first, then the first Bianchi identity; the first failure wins.
    Returns ("pass", None), ("fail(skew)", witness) or
    ("fail(bianchi)", witness).
    """
    d = rep.dimV
    F = [[Fraction(v) for v in row] for row in form_v]
    if len(F) != d or any(len(row) != d for row in F):
        raise ValueError("form must be square of the module dimension")
    if d and determinant(F) == 0:
        raise ValueError("form is degenerate")
    low = lowered_weight_tensor(rep.weight_tensor(), F)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for dd in range(d):
                    if low[a][b][c][dd] + low[b][a][c][dd] != 0:
                        return "fail(skew)", (a, b, c, dd)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for dd in range(d):
                    if (low[a][b][c][dd] + low[b][c][a][dd]
                            + low[c][a][b][dd]) != 0:
                        return "fail(bianchi)", (a, b, c, dd)
    return "pass", None


def triple_from_rep(rep: Representation, form_v) -> SymmetricTriple:
    """Realize rho(C) geometrically: treat (V, form_v, R^rho) as a model.

    Requires curvature_symmetries to pass and form_v to be symmetric (the
    symmetry test itself accepts non-symmetric forms; a metric cannot be).
    The resulting model's weight tensor is rho(C) again, so the triple's
    holonomy representation reproduces it.
    """
    verdict, witness = curvature_symmetries(rep, form_v)
    if verdict != "pass":
        raise ValueError(
            f"representation lacks curvature symmetries: {verdict} at {witness}"
        )
    F = [[Fraction(v) for v in row] for row in form_v]
    if not is_symmetric(F):
        raise ValueError("realization requires a symmetric form")
    d = rep.dimV
    low = lowered_weight_tensor(rep.weight_tensor(), F)
    ginv = mat_inv(F)
    riemann = [
        [
            [
                [
                    sum((low[a][b][c][dd] * ginv[dd][x] for dd in range(d)),
                        Fraction(0))
                    for x in range(d)
                ]
                for c in range(d)
            ]
            for b in range(d)
        ]
        for a in range(d)
    ]
    model = CurvatureModel(F, riemann)
    return symmetric_triple(model)


def model_to_json_dict(model: CurvatureModel) -> dict:
    entries = []
    d = model.dim
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for x in range(d):
                    value = model.riemann[a][b][c][x]
                    if value != 0:
                        entries.append({
                            "a": a, "b": b, "c": c, "d": x,
                            "value": format_rational(value),
                        })
    return {
        "dim": d,
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
    raw = data.get("R")
    if not isinstance(raw, list):
        raise JSONFormatError("R", "expected a list")
    riemann = [[[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
               for _ in range(dim)]
    seen = set()
    for idx, item in enumerate(raw):
        path = f"R[{idx}]"
        if not isinstance(item, dict):
            raise JSONFormatError(path, "expected an object")
        indices = []
        for key in ("a", "b", "c", "d"):
            value = item.get(key)
            if (not isinstance(value, int) or isinstance(value, bool)
                    or not 0 <= value < dim):
                raise JSONFormatError(
                    f"{path}.{key}", f"expected an integer index in [0, {dim})"
                )
            indices.append(value)
        indices = tuple(indices)
        if indices in seen:
            raise JSONFormatError(path, f"duplicate entry for indices {indices}")
        seen.add(indices)
        a, b, c, x = indices
        riemann[a][b][c][x] = parse_rational(item.get("value"), f"{path}.value")
    return CurvatureModel(metric, riemann)


def triple_to_json_dict(triple: SymmetricTriple) -> dict:
    out = algebra_to_json_dict(triple.algebra())
    out["dim_h"] = triple.dim_h
    out["dim_p"] = triple.dim_p
    out["involution"] = list(triple.involution)
    return out
