"""Metrized Lie algebras, representations, and induced weight tensors.

Everything is stored in a fixed basis, with exact rational entries, each
table as one ``sparse.IntegerView`` built at construction, or taken as it
is when a view is given: the structure constants, the invariant form B,
its inverse the Casimir C (computed on first use, once per algebra) and
the representation matrices rho, one rank-3 view.  The holonomy and triple
records of ``curvature`` hand theirs over as views.  ``brackets``,
``form``, ``casimir()`` and ``matrices`` are dense copies for readers
outside the checks, built on each access.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property

from .jsonio import (
    JSONFormatError,
    format_matrix,
    format_rational,
    parse_index,
    parse_matrix,
    parse_rational,
)
from .linalg import full_rank, mat_inv
from .sparse import (UNIT, IntegerView, contract, dense_array, exact_entries, least_nonzero,
                     products)
from .tensors import WeightTensor
from .work import charge_work


def _charge(check: str, work: int) -> None:
    charge_work(work, f"{check} needs {work} products of nonzero entries")


class MetrizedLieAlgebra:
    """Structure constants plus an invariant nondegenerate symmetric form.

    ``entries``, an IntegerView, maps (i, j, k) to the nonzero coefficient
    of e_k in [e_i, e_j], and ``B``, another, maps (i, j) to the nonzero
    B(e_i, e_j).  Both are built once, here.  ``form`` is a square matrix
    or, with ``dim`` given, an {(i, j): value} mapping; a view of either
    table is taken as it is.
    """

    def __init__(self, brackets, form, dim=None):
        if dim is None and isinstance(form, Mapping):
            raise ValueError("a form given by its entries needs dim")
        dim = len(form) if dim is None else dim
        self.dim = dim
        self.B = exact_entries(form, 2, dim, "form must be a square matrix")
        self.entries = exact_entries(brackets, 3, dim,
                                     f"structure constants must be {dim}x{dim}x{dim}")

    @property
    def form(self) -> tuple:
        """``form[i][j]`` = B(e_i, e_j) as a dense nested tuple, built on each access."""
        return dense_array(self.B, 2, self.dim)

    @cached_property
    def C(self) -> IntegerView:
        """The Casimir, the inverse of the form, C^{ij}: computed on the first read."""
        return mat_inv(self.B, self.dim)

    @property
    def brackets(self) -> tuple:
        """``brackets[i][j][k]`` as a dense nested tuple, built on each access.

        No code in the package reads it; ``bench/inputs.py`` does.
        """
        return dense_array(self.entries, 3, self.dim)

    def validate(self):
        """(True, None), or (False, message) naming the first broken axiom.

        Checks bracket antisymmetry, the Jacobi identity, and that the form
        is symmetric, nondegenerate, and invariant under the adjoint action.
        Each failure names the lexicographically least witness.  Every sum
        is built from products of nonzero structure constants (and form
        entries) only, in exact integer arithmetic, so the cost scales with
        the number of those products rather than with m^5.  The products of
        the Jacobi sum, and then those of the invariance sum, are counted
        by ``sparse.products`` and charged before the sum is formed.

        Jacobi is summed over i < j < k only.  Antisymmetry is checked first,
        so the Jacobiator J(i,j,k,l) is totally antisymmetric in (i, j, k):
        it vanishes when two of them are equal, and permuting them changes
        only its sign.  The least nonzero (i, j, k, l) therefore has
        i < j < k.
        """
        f = self.entries.nums
        # f plus its copy with i and j swapped; zero wherever f is antisymmetric
        witness = least_nonzero(contract("ijk", f, "", UNIT, "jik", dict(f)))
        if witness is not None:
            return False, "antisymmetry fails at (i,j,k)=({},{},{})".format(*witness)
        # J(i,j,k,l) = S(i,j,k) + S(j,k,i) + S(k,i,j) with
        # S(p,q,c) = sum_x f[p][q][x] f[x][c][l]; for p < q, the third index
        # c lands first, last, or (with sign -1 from f[k][i] = -f[i][k]) in
        # the middle of the sorted triple.
        half = {(p, q, x): u for (p, q, x), u in f.items() if p < q}
        _charge("the Jacobi identity", products("pqx", half, "xcl", f, "pqcl"))
        jacobi = defaultdict(int)
        for (p, q, c, l), v in contract("pqx", half, "xcl", f, "pqcl").items():
            if c > q:
                jacobi[p, q, c, l] += v
            elif c < p:
                jacobi[c, p, q, l] += v
            elif p < c < q:
                jacobi[p, c, q, l] -= v
        witness = least_nonzero(jacobi)
        if witness is not None:
            return False, (
                "Jacobi identity fails at (i,j,k,l)=({},{},{},{})".format(*witness)
            )
        form = self.B.nums
        if contract("xy", form, "", UNIT, "yx") != form:
            return False, "form is not symmetric"
        if not full_rank(self.B, self.dim):
            return False, "form is degenerate"
        # sum_k f[z][x][k] B[k][y] + f[z][y][k] B[x][k], keyed by (z, x, y)
        _charge("form invariance", products("zxk", f, "ky", form, "zxy")
                + products("zyk", f, "xk", form, "zxy"))
        invariance = contract("zxk", f, "ky", form, "zxy")
        contract("zyk", f, "xk", form, "zxy", invariance)
        witness = least_nonzero(invariance)
        if witness is not None:
            return False, (
                "form invariance fails at (z,x,y)=({},{},{})".format(*witness)
            )
        return True, None

    def casimir(self) -> tuple:
        """The Casimir ``C`` as a dense nested tuple C^{ij}, built on each call."""
        return dense_array(self.C, 2, self.dim)

    def structure_tensor(self) -> IntegerView:
        """Nonzero Y[i][j][k] = sum_{a,b} C[i][a] C[j][b] f[a][b][k], keyed (i, j, k)."""
        C, f = self.C, self.entries
        half = contract("ia", C.nums, "abk", f.nums, "ibk")
        return IntegerView.of(contract("ibk", half, "jb", C.nums, "ijk"), C.den ** 2 * f.den)

    def __repr__(self):
        return f"MetrizedLieAlgebra(dim={self.dim})"


class Representation:
    """Matrices rho(e_i) acting on a dimV-dimensional module.

    ``rho``, an IntegerView, maps (i, r, c) to the nonzero rho(e_i)[r][c].
    ``matrices`` is one square matrix per basis element or, with ``dimV``
    given, an {(i, r, c): value} mapping; a view of it is taken as it is.
    """

    def __init__(self, algebra: MetrizedLieAlgebra, matrices, dimV=None):
        m = algebra.dim
        if not isinstance(matrices, Mapping):
            if len(matrices) != m:
                raise ValueError("need one matrix per basis element")
            size = len(matrices[0]) if matrices else dimV
            if size is None:
                raise ValueError("dimV is required when the algebra is zero-dimensional")
            if dimV is not None and dimV != size:
                raise ValueError(f"dimV={dimV} does not match matrix size {size}")
            if any(len(mat) != size or any(len(row) != size for row in mat)
                   for mat in matrices):
                raise ValueError(f"matrices must all be {size}x{size}")
            matrices, dimV = IntegerView(matrices, 3), size
        elif dimV is None:
            raise ValueError("matrices given by their entries need dimV")
        self.rho = exact_entries(matrices, 3, max(m, dimV))
        if any(i >= m or r >= dimV or c >= dimV for i, r, c in self.rho):
            raise ValueError(f"an index is outside {m} matrices of size {dimV}x{dimV}")
        self.algebra = algebra
        self.dimV = dimV
        self._weight_tensor = None
        self._lowering = None  # (form, rho(C) lowered by it): see curvature._lowering

    @property
    def matrices(self) -> tuple:
        """``matrices[i][r][c]`` = rho(e_i)[r][c] as dense nested tuples, built on each access."""
        return tuple(dense_array(self.rho, 3, self.dimV, (i,)) for i in range(self.algebra.dim))

    def validate(self):
        """Check rho([e_i, e_j]) == rho_i rho_j - rho_j rho_i for all i < j.

        Both sides are built from products of nonzero entries, as int
        numerators, counted by ``sparse.products`` and charged first; the
        least failing (i, j) is reported.
        """
        f, rho = self.algebra.entries, self.rho
        # rho([e_i, e_j]) - [rho_i, rho_j] over f.den * rho.den^2, keyed (i, j, r, c)
        half = {(i, j, k): v for (i, j, k), v in f.nums.items() if i < j}
        _charge("bracket compatibility", products("ijk", half, "krc", rho.nums, "ijrc")
                + products("irx", rho.nums, "jxc", rho.nums, "irjc"))
        diff = contract("ijk", half, "krc", rho.nums, "ijrc", scale=rho.den)
        for (i, r, j, c), v in contract("irx", rho.nums, "jxc", rho.nums, "irjc").items():
            if i < j:
                diff[i, j, r, c] = diff.get((i, j, r, c), 0) - v * f.den
            elif j < i:
                diff[j, i, r, c] = diff.get((j, i, r, c), 0) + v * f.den
        witness = least_nonzero(diff)
        if witness is not None:
            return False, "bracket compatibility fails at (i,j)=({},{})".format(*witness)
        return True, None

    def weight_tensor(self) -> WeightTensor:
        """rho(C): T[a][b][c][d] = sum_{ij} C[i][j] rho_i[b][a] rho_j[d][c].

        Built on the first call and kept for the later ones.
        """
        if self._weight_tensor is None:
            C, rho = self.algebra.C, self.rho
            inner = contract("ij", C.nums, "jdc", rho.nums, "idc")
            self._weight_tensor = WeightTensor(self.dimV, IntegerView.of(
                contract("iba", rho.nums, "idc", inner, "abcd"), C.den * rho.den ** 2))
        return self._weight_tensor

    def __repr__(self):
        return f"Representation(dim={self.algebra.dim}, dimV={self.dimV})"


def _exchange_sums(rep: Representation):
    """(lhs, rhs): two sides of the exchange identity, each less the third.

    With T = rho(C), Y the structure tensor and

        L = sum_x T(a,x,e,f) T(x,b,c,d) - T(a,x,c,d) T(x,b,e,f)
        R = sum_x T(a,b,c,x) T(x,d,e,f) - T(a,b,x,d) T(c,x,e,f)
        M = sum_{ijk} Y[i][j][k] rho_i[b][a] rho_j[d][c] rho_k[f][e],

    ``lhs`` is L - M and ``rhs`` is R - M, keyed (a, b, c, d, e, f), as
    ints over one positive common denominator; a key may hold a zero.

    When T is leg-symmetric, T(p,q,r,s) = T(r,s,p,q), ``lhs`` - ``rhs`` =
    L - R is the tensor four-term sum of ``check_four_term`` at the same
    key, times that denominator.  Leg symmetry turns its four terms
    T(e,f,a,x) T(x,b,c,d), -T(e,f,x,b) T(a,x,c,d), T(e,f,c,x) T(a,b,x,d)
    and -T(e,f,x,d) T(a,b,c,x) into L's first and second terms and -1
    times R's second and first; M cancels.  rho(C) is leg-symmetric
    whenever the form is symmetric, as in every algebra that passes
    ``validate``: swapping the legs swaps i and j in C[i][j].

    Only products of nonzero entries are formed, and every product is
    charged before it is formed.  The first charge counts the products of
    the three T T sums and of M's first stage, all read off the inputs.  M
    contracts one rho at a time, so an input in a dense basis costs about
    m d^6 products for it rather than m^3 d^6; its second and third stages
    are counted from the stage before, and each is charged with every
    product counted so far before it is formed.
    """
    t = rep.weight_tensor().entries
    y = rep.algebra.structure_tensor()
    rho = rep.rho
    T = t.nums
    work = (products("axpq", T, "xbsw", T, "apqbsw") + products("abcx", T, "xdef", T, "abcdef")
            + products("abxd", T, "cxef", T, "abcdef"))
    # -M over t.den^2 y.den rho.den^3: sum_k .. rho_k[f][e], then sum_j, then sum_i
    mid = {key: -t.den ** 2 * v for key, v in y.nums.items()}
    for labels, rho_labels, out in (("ijk", "kfe", "ijfe"), ("ijfe", "jdc", "ifedc"),
                                    ("ifedc", "iba", "abcdef")):
        work += products(labels, mid, rho_labels, rho.nums, out)
        charge_work(work, f"the exchange identity needs {work} products of nonzero entries")
        mid = contract(labels, mid, rho_labels, rho.nums, out)
    lhs, rhs = mid, dict(mid)
    scale = y.den * rho.den ** 3
    # sum_x T(a,x,p,q) T(x,b,s,w) is both lhs terms, with (p,q) and (s,w) swapped
    for (a, p, q, b, s, w), v in contract("axpq", T, "xbsw", T, "apqbsw", scale=scale).items():
        lhs[a, b, s, w, p, q] = lhs.get((a, b, s, w, p, q), 0) + v
        lhs[a, b, p, q, s, w] = lhs.get((a, b, p, q, s, w), 0) - v
    contract("abcx", T, "xdef", T, "abcdef", rhs, scale)
    contract("abxd", T, "cxef", T, "abcdef", rhs, -scale)
    return lhs, rhs


def check_exchange_identity(rep: Representation):
    """Verify the two-sided exchange identity for rho(C).

    With T = rho(C) and Y the structure tensor, both of

        sum_x T(a,x,e,f) T(x,b,c,d) - T(a,x,c,d) T(x,b,e,f)
        sum_x T(a,b,c,x) T(x,d,e,f) - T(a,b,x,d) T(c,x,e,f)

    must equal sum_{ijk} Y[i][j][k] rho_i[b][a] rho_j[d][c] rho_k[f][e] for
    every index 6-tuple.  This is the algebraic reason rho(C) satisfies the
    tensor four-term identity.  Returns (True, None) or (False, witness)
    with the lexicographically least witness (a, b, c, d, e, f).

    All three sums are built from products of nonzero entries only, in
    exact integer arithmetic, by ``_exchange_sums``, which charges their
    number before it forms them.
    """
    witness = least_nonzero(*_exchange_sums(rep))
    return witness is None, witness


def sl2_standard() -> Representation:
    """sl2 with basis (H, E, F), form B(x,y) = Tr(xy), standard 2-dim module."""
    # [H,E] = 2E, [H,F] = -2F, [E,F] = H
    brackets = {(0, 1, 1): 2, (1, 0, 1): -2, (0, 2, 2): -2, (2, 0, 2): 2,
                (1, 2, 0): 1, (2, 1, 0): -1}
    form = [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
    algebra = MetrizedLieAlgebra(brackets, form)
    matrices = (
        ((1, 0), (0, -1)),
        ((0, 1), (0, 0)),
        ((0, 0), (1, 0)),
    )
    return Representation(algebra, matrices)


def so_algebra(n: int) -> MetrizedLieAlgebra:
    """so(n) on the antisymmetric basis A_ij = E_ij - E_ji (i < j, lex order).

    The brackets are [A_ij, A_kl] = d_jk A_il - d_ik A_jl - d_jl A_ik + d_il A_jk,
    with A_qp = -A_pq and A_pp = 0.  The form B(x,y) = Tr(xy)/2 is -I on
    this basis.
    """
    if n < 2:
        raise ValueError("so(n) requires n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: k for k, pair in enumerate(pairs)}
    brackets = defaultdict(int)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            for meet, sign, p, q in ((j == k, 1, i, l), (i == k, -1, j, l),
                                     (j == l, -1, i, k), (i == l, 1, j, k)):
                if meet and p != q:
                    brackets[a, b, index[min(p, q), max(p, q)]] += sign if p < q else -sign
    m = len(pairs)
    form = [[-int(a == b) for b in range(m)] for a in range(m)]
    return MetrizedLieAlgebra(brackets, form)


def so_standard(n: int) -> Representation:
    """so(n), as ``so_algebra`` builds it, on its standard module R^n."""
    algebra = so_algebra(n)
    basis = [[[int((r, c) == (i, j)) - int((r, c) == (j, i)) for c in range(n)]
              for r in range(n)] for i in range(n) for j in range(i + 1, n)]
    return Representation(algebra, basis)


def abelian(m: int) -> Representation:
    """m-dimensional abelian algebra, B = I, zero action on an m-dim module."""
    if m < 0:
        raise ValueError("dimension must be non-negative")
    zero = [[Fraction(0)] * m for _ in range(m)]
    form = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    return Representation(MetrizedLieAlgebra({}, form), [zero] * m, dimV=m)


def algebra_to_json_dict(algebra: MetrizedLieAlgebra) -> dict:
    coeffs = defaultdict(list)  # (i, j) with i < j: [[k, value]], in index order
    for (i, j, k), value in algebra.entries.items():
        if i < j:
            coeffs[i, j].append([k, format_rational(value)])
    return {
        "dim": algebra.dim,
        "brackets": [{"i": i, "j": j, "coeffs": c} for (i, j), c in coeffs.items()],
        "form": format_matrix(algebra.form),
    }


def algebra_from_json_dict(data) -> MetrizedLieAlgebra:
    if not isinstance(data, dict):
        raise JSONFormatError("", "expected an object")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise JSONFormatError("dim", "expected a non-negative integer")
    charge_work(dim ** 3, f"a bracket table of dimension {dim} needs dim^3 = "
                f"{dim ** 3} entries")
    raw = data.get("brackets")
    if not isinstance(raw, list):
        raise JSONFormatError("brackets", "expected a list")
    f = {}
    seen_pairs = set()
    for idx, item in enumerate(raw):
        path = f"brackets[{idx}]"
        if not isinstance(item, dict):
            raise JSONFormatError(path, "expected an object")
        i = parse_index(item.get("i"), f"{path}.i", dim)
        j = parse_index(item.get("j"), f"{path}.j", dim)
        if i == j:
            raise JSONFormatError(path, "bracket indices must differ")
        if (min(i, j), max(i, j)) in seen_pairs:
            raise JSONFormatError(path, f"duplicate bracket for pair ({i},{j})")
        seen_pairs.add((min(i, j), max(i, j)))
        coeffs = item.get("coeffs")
        if not isinstance(coeffs, list):
            raise JSONFormatError(f"{path}.coeffs", "expected a list")
        seen_k = set()
        for t, pair in enumerate(coeffs):
            cpath = f"{path}.coeffs[{t}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise JSONFormatError(cpath, "expected a [k, value] pair")
            k = parse_index(pair[0], f"{cpath}[0]", dim)
            if k in seen_k:
                raise JSONFormatError(cpath, f"duplicate coefficient for k={k}")
            seen_k.add(k)
            value = parse_rational(pair[1], f"{cpath}[1]")
            f[i, j, k] = value
            f[j, i, k] = -value
    form = parse_matrix(data.get("form"), "form", rows=dim, cols=dim)
    return MetrizedLieAlgebra(f, form)


def representation_to_json_dict(rep: Representation) -> dict:
    out = algebra_to_json_dict(rep.algebra)
    out["dimV"] = rep.dimV
    out["matrices"] = [format_matrix(mat) for mat in rep.matrices]
    return out


def representation_from_json_dict(data) -> Representation:
    algebra = algebra_from_json_dict(data)
    dimV = data.get("dimV")
    if not isinstance(dimV, int) or isinstance(dimV, bool) or dimV < 1:
        raise JSONFormatError("dimV", "expected a positive integer")
    charge_work(dimV ** 4, f"the dense weight tensor of a module of dimension "
                f"{dimV} needs dimV^4 = {dimV ** 4} entries")
    raw = data.get("matrices")
    if not isinstance(raw, list):
        raise JSONFormatError("matrices", "expected a list")
    if len(raw) != algebra.dim:
        raise JSONFormatError(
            "matrices", f"expected {algebra.dim} matrices, got {len(raw)}"
        )
    matrices = [
        parse_matrix(mat, f"matrices[{idx}]", rows=dimV, cols=dimV)
        for idx, mat in enumerate(raw)
    ]
    return Representation(algebra, matrices, dimV=dimV)
