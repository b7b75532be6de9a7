"""Pseudo-Riemannian curvature models and their symmetric-space algebra.

A model is the metric and Riemann tensor on a single tangent space with
parallel curvature: enough data to validate the classical symmetries,
produce a weight tensor, extract the holonomy algebra, assemble the
associated symmetric triple, and decide whether a Lie-algebra weight
tensor can be realized this way.

The metric and the curvature are each one ``sparse.IntegerView``, built
once at construction, as are the form on a representation space and its
inverse in a realization.  The holonomy and triple records keep their
bracket tables as views and their matrices as dense ``Fraction`` tuples,
which they convert to views once, on first use, through the algebra and
representation they build and keep.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from .frozen import Frozen
from .jsonio import (
    JSONFormatError,
    format_matrix,
    format_rational,
    parse_entries,
    parse_matrix,
)
from .lie import MetrizedLieAlgebra, Representation, algebra_to_json_dict, so_algebra
from .linalg import ReducedSpan, full_rank, mat_inv, sparse_rank
from .sparse import (
    UNIT,
    IntegerView,
    contract,
    dense_array,
    exact_entries,
    least_nonzero,
    nonzero_entries,
)
from .tensors import WeightTensor, four_term_witness
from .work import charge_work


class CurvatureModel:
    """Metric g and curvature R on a single tangent space.

    ``entries``, an IntegerView, maps (a, b, c, x) to the nonzero e_x
    component of R(e_a, e_b)e_c, and ``g``, another, maps (a, b) to the
    nonzero g(e_a, e_b); the lowered tensor and the weight tensor are
    derived from them on demand.  ``metric`` is a square matrix or, with
    ``dim`` given, an {(a, b): value} mapping such as an IntegerView; a
    view of either table is taken as it is.
    """

    def __init__(self, metric, riemann, dim=None):
        if dim is None and isinstance(metric, Mapping):
            raise ValueError("a metric given by its entries needs dim")
        d = len(metric) if dim is None else dim
        self.dim = d
        self.g = exact_entries(metric, 2, d, "metric must be a square matrix")
        self.entries = exact_entries(riemann, 4, d, f"curvature must have {d}^4 entries")

    @property
    def metric(self) -> tuple:
        """``metric[a][b]`` = g(e_a, e_b) as a dense nested tuple, built on each access."""
        return dense_array(self.g, 2, self.dim)

    @property
    def riemann(self) -> tuple:
        """``riemann[a][b][c][x]`` as a dense nested tuple, built on each access.

        No code in the package reads it; ``bench/inputs.py`` does.
        """
        return dense_array(self.entries, 4, self.dim)

    def weight_tensor(self) -> WeightTensor:
        """Raise the second slot: entry(a,b,c,d) = sum_x g_inv[b][x] R[a][x][c][d]."""
        try:
            ginv = mat_inv(self.g, self.dim)
        except ValueError:
            raise ValueError("metric is degenerate") from None
        R = self.entries
        return WeightTensor(self.dim, IntegerView.of(
            contract("axcd", R.nums, "bx", ginv.nums, "abcd"), ginv.den * R.den))

    def endomorphism(self, a: int, b: int) -> tuple:
        """R(e_a, e_b) as a matrix on the tangent space (rows = output)."""
        R, rng, zero = self.entries, range(self.dim), Fraction(0)
        return tuple(tuple(R.get((a, b, c, x), zero) for c in rng) for x in rng)

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
        g = self.g.nums
        if contract("ab", g, "", UNIT, "ba") != g:
            return False, ("metric-symmetry", None)
        if not full_rank(self.g, self.dim):
            return False, ("metric-degenerate", None)
        R = self.entries.nums
        failure = _skew_or_bianchi_failure(R)
        if failure is not None:
            return False, failure
        low = contract("abcx", R, "xd", g, "abcd")
        witness = least_nonzero(contract("abcx", low, "", UNIT, "cxab", dict(low), -1))
        if witness is not None:
            return False, ("pair-symmetry", witness)
        return True, None

    def __repr__(self):
        return f"CurvatureModel(dim={self.dim})"


def model_failure_text(why) -> str:
    """A ``validate`` failure (name, witness) as ``name`` or ``name (i, j, k, l)``."""
    name, witness = why
    return name if witness is None else f"{name} {witness}"


def _skew_or_bianchi_failure(R: dict):
    """("antisymmetry" or "bianchi", least witness) of a rank-4 int tensor, or None.

    Antisymmetry in the first two slots is checked first, then the first
    Bianchi identity, each as the sum of R and its copies relabeled by the
    (a, b) swap or the cyclic rotations of (a, b, c).  A failing tuple has
    a nonzero term, so it is one of those images of a nonzero key.
    """
    for name, *images in (("antisymmetry", "bacx"), ("bianchi", "bcax", "cabx")):
        total = dict(R)
        for image in images:
            contract("abcx", R, "", UNIT, image, total)
        witness = least_nonzero(total)
        if witness is not None:
            return name, witness
    return None


def constant_curvature(dim: int, metric=None, kappa=1) -> CurvatureModel:
    """Model with lowered curvature kappa * (g_ad g_bc - g_ac g_bd).

    Raised by g^-1, that is R[a][b][c][x] = kappa * (delta_ax g_bc - delta_bx g_ac).
    """
    if dim < 0:
        raise ValueError("dimension must be non-negative")
    if metric is None:
        metric = {(i, i): 1 for i in range(dim)}
    g = exact_entries(metric, 2, dim, "metric must be a square matrix")
    if not full_rank(g, dim):
        raise ValueError("metric is degenerate")
    kappa = Fraction(kappa)
    entries = {}  # R[a][a] = 0; for a != b only x = a and x = b are nonzero
    for (b, c), v in g.items():  # R[a][b][c][a] = kappa g_bc = -R[b][a][c][a]
        for a in range(dim):
            if a != b:
                entries[a, b, c, a] = kappa * v
                entries[b, a, c, a] = -kappa * v
    return CurvatureModel(g, entries, dim)


# (sign, Q labels, P labels) of each term of the parallel four-term sum; see
# tensors.four_term_witness and check_parallel_four_term.
_PARALLEL_FOUR_TERM = ((1, "efax", "xbcd"), (1, "efbx", "axcd"),
                       (1, "efcx", "abxd"), (-1, "efxd", "abcx"))


def check_parallel_four_term(model: CurvatureModel):
    """Four-term identity satisfied by any parallel curvature tensor.

    For every index tuple,

        sum_x ( R[e][f][a][x] R[x][b][c][d] + R[e][f][b][x] R[a][x][c][d]
              + R[e][f][c][x] R[a][b][x][d] - R[e][f][x][d] R[a][b][c][x] )

    must vanish.  With D = R(e_e, e_f) it is the e_d component of
    R(De_a, e_b)e_c + R(e_a, De_b)e_c + R(e_a, e_b)De_c - D R(e_a, e_b)e_c,
    so it vanishes exactly when every R(e, f) acts on R as a derivation.
    Returns (True, None) or (False, witness) with the lexicographically
    least witness.  The sum is built from products of nonzero curvature
    entries only, in exact integer arithmetic, so the cost scales with the
    number of those products, which is charged first.

    For a model that passes ``validate``, the verdict is that of the tensor
    four-term check on ``model.weight_tensor()``, so one run decides both.
    That tensor raises the second slot, T[a][b][c][d] = sum_x g^{bx}
    R[a][x][c][d], so the matrix T[e][f] is sum_y g^{fy} R(e_e, e_y).
    Antisymmetry and pair symmetry make every R(e, y) skew for g, so raising
    the second slot commutes with its derivation action: the incoming
    second-slot term above, raised, is the tensor check's second-slot term
    -sum_x T[e][f][x][b] T[a][x][c][d], and the other slots are not raised.
    The tensor sum is linear in T[e][f], so at (a, b, c, d, e, f) it is

        sum_y g^{fy} sum_z g^{bz} S(a, z, c, d, e, y)

    with S the sum above.  g is nondegenerate, so one sum vanishes
    everywhere exactly when the other does; their least witnesses can
    differ, since the raising mixes indices.
    """
    witness = four_term_witness(model.entries, _PARALLEL_FOUR_TERM)
    return witness is None, witness


class HolonomyAlgebra(Frozen):
    """Span of the curvature endomorphisms with its induced form.

    ``labels[i]`` is the generator pair (a, b) whose endomorphism is
    ``basis[i]``, ``brackets`` maps (i, j, k) to the nonzero structure
    constants in this basis and ``form`` is the induced invariant form.
    ``pair_coordinates``, when given, is an IntegerView mapping (a, b, k)
    to the nonzero coordinate k, in ``basis``, of the endomorphism of the
    generator pair (a, b): a by-product of the extraction, not a field, so
    it takes no part in ``==``, ``hash`` or ``repr``, and neither does the
    representation, built and kept on the first call of ``representation``.
    """

    _fields = ("model", "labels", "basis", "brackets", "form", "nondegenerate")

    def __init__(self, model: CurvatureModel, labels: tuple, basis: tuple,
                 brackets, form: tuple, nondegenerate: bool,
                 pair_coordinates: IntegerView | None = None):
        self._set(model, labels, basis, exact_entries(brackets, 3, len(labels)),
                  form, nondegenerate)
        object.__setattr__(self, "_pair_coordinates", pair_coordinates)

    @property
    def dim_h(self) -> int:
        return len(self.labels)

    def representation(self) -> Representation:
        """The holonomy algebra acting on the tangent space, the same on every call."""
        return self._representation

    @cached_property
    def _representation(self) -> Representation:
        return Representation(MetrizedLieAlgebra(self.brackets, self.form), self.basis,
                              dimV=self.model.dim)


class ModelCheckFailure(ValueError):
    """A curvature model fails ``validate`` or the parallel four-term check."""


def holonomy_algebra(model: CurvatureModel) -> HolonomyAlgebra:
    """Extract span{R(e_a, e_b)} with brackets and the induced form.

    The model checks always run, before anything is charged or built:
    ``validate``, then ``check_parallel_four_term``.  A failure raises
    ModelCheckFailure, a ValueError, naming the failed check and its
    witness.  Only then is pairs^2 * d^3, which bounds the m <= pairs
    commutators, charged, and the algebra extracted.
    """
    ok, why = model.validate()
    if not ok:
        raise ModelCheckFailure(f"invalid curvature model: {model_failure_text(why)}")
    ok, witness = check_parallel_four_term(model)
    if not ok:
        raise ModelCheckFailure(f"parallel four-term identity fails at {witness}")
    return _holonomy_algebra(model)


def _holonomy_algebra(model: CurvatureModel) -> HolonomyAlgebra:
    """The extraction behind ``holonomy_algebra``, with no model check.

    The span is reduced once, each generator pair is solved against that
    one reduction, and brackets are formed between the generator labels
    only.  Everything runs on the nonzero curvature entries as int
    numerators over one denominator.  Two facts make this safe for a model
    that passes ``validate`` and ``check_parallel_four_term``:

    - The induced form, read off the labels, is consistent on all pairs:
      the lowered R(p, q) is linear in R(p), and by pair symmetry in R(q).
    - The bracket identity

          [R(X,Y), R(Z,W)] = R(R(X,Y)Z, W) + R(Z, R(X,Y)W)

      is the parallel four-term identity at generator pairs (e, f) = (X, Y)
      and (a, b) = (Z, W), so every commutator lies in the span.

    On a model that fails them, a commutator outside the span raises
    RuntimeError.  pairs^2 * d^3 is charged before anything is built.
    """
    d = model.dim
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    work = len(pairs) ** 2 * d ** 3
    charge_work(work, f"the holonomy algebra of a curvature model of dimension "
                f"{d} needs pairs^2 * d^3 = {work} steps")
    R = model.entries
    endos = defaultdict(dict)  # R(e_a, e_b): {(row x, column c): int}
    for (a, b, c, x), v in R.nums.items():
        endos[a, b][x, c] = v
    span = ReducedSpan()
    labels = [pair for pair in pairs if span.add(endos[pair])]
    brackets = {}  # numerators over span.den * R.den
    for i, p in enumerate(labels):
        for j, q in enumerate(labels[i + 1:], i + 1):
            comm = contract("xy", endos[p], "yc", endos[q], "xc")  # [R(p), R(q)]
            c = span.coordinates(contract("xy", endos[q], "yc", endos[p], "xc",
                                          comm, -1))
            if c is None:
                raise RuntimeError("holonomy commutator escapes the span")
            for k, v in enumerate(c):
                if v:
                    brackets[i, j, k] = v
                    brackets[j, i, k] = -v
    low = contract("abcx", R.nums, "xd", model.g.nums, "abcd")  # the lowered curvature
    form = IntegerView.of({(i, j): low.get(p + q, 0) for i, p in enumerate(labels)
                           for j, q in enumerate(labels)}, R.den * model.g.den)
    return HolonomyAlgebra(
        model,
        tuple(labels),
        tuple(model.endomorphism(*pair) for pair in labels),
        IntegerView.of(brackets, span.den * R.den),
        dense_array(form, 2, len(labels)),
        full_rank(form, len(labels)),
        IntegerView.of({(*pair, k): v for pair in pairs
                        for k, v in enumerate(span.coordinates(endos[pair])) if v}, span.den),
    )


class SymmetricTriple(Frozen):
    """Lie algebra h + p with involution and block form, h basis first;
    ``brackets`` maps (i, j, k) to the nonzero coefficient of e_k in [e_i, e_j].

    The metrized algebra, built and kept on the first call of ``algebra``,
    is no field: it takes no part in ``==``, ``hash`` or ``repr``.
    """

    _fields = ("holonomy", "brackets", "form", "involution")

    def __init__(self, holonomy: HolonomyAlgebra, brackets, form: tuple,
                 involution: tuple):
        self._set(holonomy, exact_entries(brackets, 3, len(form)), form, involution)

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
        """h + p as a metrized algebra, the same on every call."""
        return self._algebra

    @cached_property
    def _algebra(self) -> MetrizedLieAlgebra:
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
        for i, j, k in self.brackets:
            if s[k] != s[i] * s[j]:
                return False, f"involution parity fails at ({i},{j},{k})"
        for i, j in self.algebra().B:
            if s[i] != s[j]:
                return False, f"form mixes involution eigenspaces at ({i},{j})"
        rows = defaultdict(dict)  # [e_a, e_b] for tangent a < b, its holonomy part
        for (a, b, k), v in self.brackets.nums.items():  # the rank ignores den
            if m <= a < b and k < m:
                rows[a, b][k] = v
        if sparse_rank(rows.values()) != m:
            return False, "tangent brackets do not span the holonomy part"
        return True, None


def symmetric_triple(model: CurvatureModel) -> SymmetricTriple:
    """Assemble h + p with [X,Y] = R(X,Y), [A,X] = A(X) and B = B_h + g.

    The holonomy algebra comes from ``holonomy_algebra``, so the model
    checks run first and a failure raises ModelCheckFailure.
    """
    return _symmetric_triple(holonomy_algebra(model))


def _symmetric_triple(hol: HolonomyAlgebra) -> SymmetricTriple:
    """The triple of an extracted holonomy algebra, with no model check."""
    d = hol.model.dim
    m = hol.dim_h
    f = dict(hol.brackets)
    for i, mat in enumerate(hol.basis):
        for (x, a), v in nonzero_entries(mat, 2):
            f[i, m + a, m + x] = v
            f[m + a, i, m + x] = -v
    for (a, b, k), v in hol._pair_coordinates.items():
        f[m + a, m + b, k] = v
        f[m + b, m + a, k] = -v
    zero = Fraction(0)
    form = (tuple(row + (zero,) * d for row in hol.form)
            + tuple((zero,) * m + row for row in hol.model.metric))
    return SymmetricTriple(hol, f, form, (1,) * m + (-1,) * d)


def verify_lie_type(triple: SymmetricTriple):
    """Check that a model's weight tensor comes from its holonomy algebra.

    ``triple`` is the model's symmetric triple, built by ``symmetric_triple``
    and already validated by the caller; the model is
    ``triple.holonomy.model``.  Compares the weight tensor of the holonomy
    representation with the model's own entrywise; equal tensors give equal
    weight systems, so no diagram is evaluated.  Returns (True, None) or
    (False, reason).
    """
    hol = triple.holonomy
    if not hol.nondegenerate:
        return False, "holonomy form is degenerate"
    candidate = hol.representation().weight_tensor()
    target = hol.model.weight_tensor()
    if candidate != target:
        witness = least_nonzero(contract("abcd", target.entries, "", UNIT, "abcd",
                                         dict(candidate.entries), -1))
        return False, f"weight tensors differ at entry {witness}"
    return True, None


def so_isomorphism(holonomy: HolonomyAlgebra):
    """Change of basis carrying the holonomy brackets onto so(d), or None.

    Works when the holonomy has full dimension d(d-1)/2 and all basis
    endomorphisms are plainly antisymmetric matrices; the returned matrix P
    satisfies [P e_i, P e_j] = P [e_i, e_j] for the two bracket tables.
    """
    d = holonomy.model.dim
    if d < 2:
        return None
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    m = len(pairs)
    if holonomy.dim_h != m:
        return None
    rho = holonomy.representation().rho
    if any(v != -rho.nums.get((k, c, r), 0) for (k, r, c), v in rho.nums.items()):
        return None  # some rho_k is not plainly antisymmetric
    column = {pair: l for l, pair in enumerate(pairs)}  # P[k][l] = rho_k[i][j], (i, j) = pairs[l]
    P = IntegerView.of({(k, column[r, c]): v for (k, r, c), v in rho.nums.items() if r < c},
                       rho.den)
    if not full_rank(P, m):
        return None
    # sum_k f_h[i][j][k] P[k][l] against sum_{a,b} P[i][a] P[j][b] f_so[a][b][l],
    # one index at a time, keyed (i, j, l)
    f_so = so_algebra(d).entries
    lhs = contract("ijk", holonomy.brackets.nums, "kl", P.nums, "ijl", scale=P.den * f_so.den)
    half = contract("jb", P.nums, "abl", f_so.nums, "jal")
    if lhs != contract("ia", P.nums, "jal", half, "ijl", scale=holonomy.brackets.den):
        return None
    return dense_array(P, 2, m)


def _lowering(rep: Representation, form_v) -> tuple:
    """(F, {(a, b, c, d): int}, den): form_v as an IntegerView, rho(C) lowered by it.

    form_v is a square matrix of the module dimension, or its IntegerView,
    taken as it is, and must be nondegenerate.  The last lowering is kept
    on ``rep``, so ``curvature_symmetries`` and then ``triple_from_rep`` on
    one form lower rho(C) once.
    """
    d = rep.dimV
    F = exact_entries(form_v, 2, d, "form must be square of the module dimension")
    if not full_rank(F, d):
        raise ValueError("form is degenerate")
    if rep._lowering is None or rep._lowering[0] != F:
        rep._lowering = (F, *_lowered_casimir(rep, F))
    return rep._lowering


def _lowered_casimir(rep: Representation, F) -> tuple:
    """({(a, b, c, d): int}, den): sum_{x,y} rho(C)(a,x,c,y) F[x][b] F[y][d]."""
    T = rep.weight_tensor().entries
    half = contract("axcy", T.nums, "xb", F.nums, "acyb")
    return contract("acyb", half, "yd", F.nums, "abcd"), T.den * F.den ** 2


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
    return _symmetry_verdict(_lowering(rep, form_v)[1])


def triple_from_rep(rep: Representation, form_v) -> SymmetricTriple:
    """Realize rho(C) geometrically: treat (V, form_v, R^rho) as a model.

    Requires curvature_symmetries to pass and form_v to be symmetric (the
    symmetry test itself accepts non-symmetric forms; a metric cannot be).
    The resulting model's weight tensor is rho(C) again, so the triple's
    holonomy representation reproduces it.
    """
    F, low, den = _lowering(rep, form_v)
    verdict, witness = _symmetry_verdict(low)
    if verdict != "pass":
        raise ValueError(
            f"representation lacks curvature symmetries: {verdict} at {witness}"
        )
    if contract("ab", F.nums, "", UNIT, "ba") != F.nums:
        raise ValueError("realization requires a symmetric form")
    ginv = mat_inv(F, rep.dimV)
    return symmetric_triple(CurvatureModel(F, IntegerView.of(
        contract("abcx", low, "xd", ginv.nums, "abcd"), den * ginv.den), rep.dimV))


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
