"""One-shot acceptance checks with their own independent oracles.

Each check returns its PASS detail.  Every comparison in it goes through
``_expect``, which raises ``_Mismatch`` with the compared values on the
first one that fails; ``run_all`` turns that, or a ValueError or
ArithmeticError from the library, into the criterion's FAIL detail.  The
oracles used here — dense fraction-free elimination and brute-force
rotation-orbit counting — are deliberately separate implementations from
the library code they audit.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as cartesian
from math import gcd

from .curvature import (
    CurvatureModel,
    check_parallel_four_term,
    constant_curvature,
    curvature_symmetries,
    so_isomorphism,
    symmetric_triple,
    triple_from_rep,
    verify_lie_type,
)
from .diagram_space import (
    four_term_relations,
    in_relation_span,
    one_term_relations,
    quotient_dimension,
)
from .diagrams import ChordDiagram, coproduct, enumerate_diagrams, product
from .formal import FormalSum
from .lie import (
    Representation,
    abelian,
    check_exchange_identity,
    sl2_standard,
    so_standard,
)
from .tensors import (
    WeightTensor,
    check_four_term,
    evaluate,
    evaluate_naive,
    evaluate_sum,
    validate_symmetry,
)
from .yamada import yamada_weight


class _Mismatch(Exception):
    """A value that a criterion compares is not the one it must be."""


def _expect(what, got, want=True):
    """Raise _Mismatch, naming ``what`` and both values, unless got == want."""
    if got != want:
        raise _Mismatch(f"{what}: expected {want}, got {got}")


def form_signature(matrix):
    """(n_plus, n_minus) of a symmetric matrix by congruence diagonalization.

    Degenerate directions contribute to neither count, so a nondegenerate
    form has n_plus + n_minus == len(matrix).
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    plus = minus = 0
    active = list(range(n))
    while active:
        piv = next((i for i in active if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in active for j in active if j > i and m[i][j] != 0),
                None,
            )
            if pair is None:
                break
            i, j = pair
            # e_i <- e_i + e_j turns the hyperbolic pair into a usable pivot
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            continue
        val = m[piv][piv]
        if val > 0:
            plus += 1
        else:
            minus += 1
        active.remove(piv)
        for i in active:
            if m[i][piv] != 0:
                f = m[i][piv] / val
                for k in range(n):
                    m[i][k] -= f * m[piv][k]
                for k in range(n):
                    m[k][i] -= f * m[k][piv]
    return plus, minus


def _dense_fraction_free_rank(rows, ncols: int) -> int:
    """Bareiss elimination on dense integer rows; oracle for sparse_rank."""
    mat = []
    for row in rows:
        denom = 1
        for v in row:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = [int(v * denom) for v in row]
        if any(ints):
            mat.append(ints)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            fi = mat[i][col]
            for j in range(ncols):
                num = pivot * mat[i][j] - fi * mat[rank][j]
                quot, rem = divmod(num, prev)
                _expect("remainder of a fraction-free division", rem, 0)
                mat[i][j] = quot
        prev = pivot
        rank += 1
    return rank


def _brute_force_orbit_count(n: int) -> int:
    """Count rotation classes of perfect matchings without canonical codes."""
    m = 2 * n

    def matchings(points):
        if not points:
            yield {}
            return
        first = points[0]
        for i in range(1, len(points)):
            partner = points[i]
            rest = points[1:i] + points[i + 1:]
            for sub in matchings(rest):
                filled = dict(sub)
                filled[first] = partner
                filled[partner] = first
                yield filled

    everything = {
        tuple(mm[i] for i in range(m)) for mm in matchings(tuple(range(m)))
    }
    seen = set()
    orbits = 0
    for t in everything:
        if t in seen:
            continue
        orbits += 1
        for r in range(m):
            seen.add(tuple((t[(i - r) % m] + r) % m for i in range(m)))
    return orbits


def _indefinite_metric(d: int):
    return [[Fraction(-1 if i == j == 0 else (1 if i == j else 0))
             for j in range(d)] for i in range(d)]


def _bianchi_violating_model() -> CurvatureModel:
    """d=4 curvature that is antisymmetric and pair-symmetric but not Bianchi."""
    metric = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]
    return CurvatureModel(metric, {
        (0, 1, 2, 3): 1, (1, 0, 2, 3): -1,
        (2, 3, 0, 1): 1, (3, 2, 0, 1): -1,
        (2, 3, 1, 0): -1, (3, 2, 1, 0): 1,
        (0, 1, 3, 2): -1, (1, 0, 3, 2): 1,
    })


def check_threeway_equality():
    """State sum, sphere curvature, and so3 Casimir agree on all n <= 4."""
    sphere = constant_curvature(3).weight_tensor()
    casimir = so_standard(3).weight_tensor()
    count = 0
    for n in range(5):
        for diagram in enumerate_diagrams(n):
            code = diagram.code or "empty"
            curvature = evaluate(sphere, diagram)
            _expect(f"state sum on {code}", yamada_weight(diagram, 3), curvature)
            _expect(f"Casimir weight on {code}", evaluate(casimir, diagram), curvature)
            count += 1
    for code, expected in (("AA", 6), ("ABAB", 6), ("AABB", 12)):
        _expect(f"spot value on {code}", yamada_weight(ChordDiagram.from_code(code)),
                expected)
    return f"three values agree on all {count} diagrams; spot values 6, 6, 12"


def check_relation_soundness():
    """Every four-term vector with n <= 4 vanishes under six weight tensors."""
    tensors = (
        ("sl2", sl2_standard().weight_tensor()),
        ("so3", so_standard(3).weight_tensor()),
        ("so4", so_standard(4).weight_tensor()),
        ("sphere", constant_curvature(3).weight_tensor()),
        ("hyperbolic", constant_curvature(3, kappa=-1).weight_tensor()),
        ("indefinite", constant_curvature(3, _indefinite_metric(3)).weight_tensor()),
    )
    checked = 0
    for n in range(2, 5):
        for vector in four_term_relations(n):
            for name, tensor in tensors:
                _expect(f"{name} tensor on a degree-{n} four-term vector",
                        evaluate_sum(tensor, vector), 0)
                checked += 1
    return f"{checked} (vector, tensor) evaluations all vanish exactly"


def check_tensor_identities():
    """Tensor-level four-term, parallel comparison, and exchange identity.

    The Bianchi-violating model passes both four-term checks, so on it only
    their agreement is checked.
    """
    reps = (
        ("sl2", sl2_standard()),
        ("so2", so_standard(2)),
        ("so3", so_standard(3)),
        ("so4", so_standard(4)),
        ("abelian1", abelian(1)),
        ("abelian3", abelian(3)),
    )
    for name, rep in reps:
        tensor = rep.weight_tensor()
        _expect(f"{name}: leg symmetry", validate_symmetry(tensor))
        _expect(f"{name}: tensor four-term witness", check_four_term(tensor)[1], None)
    models = (
        ("flat2", constant_curvature(2, kappa=0)),
        ("sphere2", constant_curvature(2)),
        ("sphere3", constant_curvature(3)),
        ("sphere4", constant_curvature(4)),
        ("hyperbolic3", constant_curvature(3, kappa=-1)),
        ("rescaled3", constant_curvature(3, kappa=2)),
        ("indefinite3", constant_curvature(3, _indefinite_metric(3))),
        ("lorentz4", constant_curvature(4, _indefinite_metric(4))),
    )
    for name, model in models:
        direct, _ = check_parallel_four_term(model)
        _expect(f"{name}: parallel four-term identity", direct)
        _expect(f"{name}: tensor four-term verdict", check_four_term(model.weight_tensor())[0],
                direct)
    bad = _bianchi_violating_model()
    _expect("Bianchi-violating model: tensor four-term verdict",
            check_four_term(bad.weight_tensor())[0], check_parallel_four_term(bad)[0])
    for name, rep in reps:
        _expect(f"{name}: exchange identity witness", check_exchange_identity(rep)[1],
                None)
    return (
        f"four-term and exchange identities hold for {len(reps)} builtins; "
        f"parallel and tensor checks agree on {len(models) + 1} models"
    )


def check_holonomy_pipeline():
    """Holonomy dimension, triple Jacobi, and Casimir recovery per model."""
    models = [
        ("sphere2", constant_curvature(2), True),
        ("sphere3", constant_curvature(3), True),
        ("sphere4", constant_curvature(4), True),
        ("hyperbolic3", constant_curvature(3, kappa=-1), True),
        ("rescaled3", constant_curvature(3, kappa=2), True),
        ("indefinite3", constant_curvature(3, _indefinite_metric(3)), False),
    ]
    triples = {}
    for name, model, euclidean in models:
        d = model.dim
        triple = triples[name] = symmetric_triple(model)
        hol = triple.holonomy
        _expect(f"{name}: holonomy dimension", hol.dim_h, d * (d - 1) // 2)
        _expect(f"{name}: induced form nondegenerate", hol.nondegenerate)
        _expect(f"{name}: triple validation failure", triple.validate()[1], None)
        _expect(f"{name}: Casimir recovery failure", verify_lie_type(triple)[1], None)
        _expect(f"{name}: isomorphic to so({d})", so_isomorphism(hol), euclidean)
    triple3 = triples["sphere3"]
    _expect("unit three-sphere: induced form signature",
            form_signature(triple3.holonomy.representation.algebra.form), (0, 3))
    _expect("unit three-sphere: triple form signature",
            form_signature(triple3.algebra.form), (3, 3))
    return (
        f"{len(models)} models: full holonomy dimension, valid triples, "
        f"exact Casimir recovery; sphere signatures (0,3) and (3,3)"
    )


def _doubled(rep):
    """rep acting on V + V by the same matrix on each block."""
    n = rep.dimV
    matrices = []
    for mat in rep.matrices:
        big = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for r in range(n):
            for c in range(n):
                big[r][c] = big[r + n][c + n] = mat[r][c]
        matrices.append(big)
    return Representation(rep.algebra, matrices)


def _lowered_casimir(rep, form):
    """Oracle: low[a][b][c][d] = sum C^ij (rho_i^T F)[a][b] (rho_j^T F)[c][d].

    Also returns the matrices rho_i^T F.  The Casimir is checked against
    the algebra's form before it is used.
    """
    m, d = rep.algebra.dim, rep.dimV
    casimir = rep.algebra.casimir()
    for i in range(m):
        for j in range(m):
            _expect(f"Casimir times form at ({i}, {j})",
                    sum(casimir[i][k] * rep.algebra.form[k][j] for k in range(m)),
                    1 if i == j else 0)
    lowered = [
        [[sum(mat[x][a] * form[x][b] for x in range(d)) for b in range(d)]
         for a in range(d)]
        for mat in rep.matrices
    ]
    low = {}
    for idx in cartesian(range(d), repeat=4):
        a, b, c, dd = idx
        low[idx] = sum(
            casimir[i][j] * lowered[i][a][b] * lowered[j][c][dd]
            for i in range(m) for j in range(m) if casimir[i][j] != 0
        )
    return lowered, low


def check_realizability():
    """Curvature symmetries of three representations with invariant forms.

    so3 with the identity form passes and round-trips.  sl2 with the
    symplectic form fails skew at (0, 0, 1, 1): each rho(X)^T omega is
    symmetric, so the lowered tensor is symmetric in its first two slots.
    so3 on R^3 + R^3 with the identity form is skew (each rho(X) is
    antisymmetric) but fails Bianchi at (0, 1, 3, 4), where the cyclic sum
    couples the two blocks.  The witnesses come from this module's own
    lowered tensor, not from the library.
    """
    so3 = so_standard(3)
    eye = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    _expect("so3 with the identity form: library verdict",
            curvature_symmetries(so3, eye)[0], "pass")
    reproduced = triple_from_rep(so3, eye).holonomy.representation.weight_tensor()
    _expect("so3 round-trip reproduces the Casimir tensor",
            reproduced == so3.weight_tensor())

    sl2 = sl2_standard()
    symplectic = [[0, 1], [-1, 0]]
    lowered, low = _lowered_casimir(sl2, symplectic)
    _expect("sl2: every rho(X)^T omega symmetric",
            all(mat[a][b] == mat[b][a] for mat in lowered
                for a in range(2) for b in range(2)))
    _expect("sl2: lowered entry (0, 0, 1, 1) nonzero", low[0, 0, 1, 1] != 0)
    expected = next(
        ((a, b, c, dd) for a, b, c, dd in cartesian(range(2), repeat=4)
         if low[a, b, c, dd] + low[b, a, c, dd] != 0),
        None,
    )
    _expect("sl2 with the symplectic form: oracle skew witness", expected, (0, 0, 1, 1))
    verdict, witness = curvature_symmetries(sl2, symplectic)
    _expect("sl2 with the symplectic form: library verdict", verdict, "fail(skew)")
    _expect("sl2 with the symplectic form: library witness", witness, expected)

    doubled = _doubled(so3)
    _expect("so3 on R^3 + R^3: representation failure", doubled.validate()[1], None)
    eye6 = [[Fraction(1 if i == j else 0) for j in range(6)] for i in range(6)]
    lowered, low = _lowered_casimir(doubled, eye6)
    _expect("so3 on R^3 + R^3: every rho(X) antisymmetric",
            all(mat[a][b] == -mat[b][a] for mat in lowered
                for a in range(6) for b in range(6)))
    expected = next(
        ((a, b, c, dd) for a, b, c, dd in cartesian(range(6), repeat=4)
         if low[a, b, c, dd] + low[b, c, a, dd] + low[c, a, b, dd] != 0),
        None,
    )
    _expect("so3 on R^3 + R^3 with the identity form: oracle Bianchi witness",
            expected, (0, 1, 3, 4))
    verdict, witness = curvature_symmetries(doubled, eye6)
    _expect("so3 on R^3 + R^3 with the identity form: library verdict",
            verdict, "fail(bianchi)")
    _expect("so3 on R^3 + R^3 with the identity form: library witness", witness, expected)
    return (
        "so3 passes and round-trips exactly; sl2 with the symplectic form "
        "fails skew at (0, 0, 1, 1); so3 on R^3 + R^3 is skew but fails "
        "Bianchi at (0, 1, 3, 4)"
    )


def check_dimension_tables():
    """Quotient dimensions against a dense fraction-free oracle."""
    for n in range(5):
        basis = enumerate_diagrams(n)
        index = {diagram: i for i, diagram in enumerate(basis)}
        four = list(four_term_relations(n))
        for kind, relations, expected in (
            ("framed", four, (1, 1, 2, 3, 6)),
            ("unframed", four + list(one_term_relations(n)), (1, 0, 1, 1, 3)),
        ):
            rows = []
            for vec in relations:
                row = [Fraction(0)] * len(basis)
                for diagram, coeff in vec.items():
                    row[index[diagram]] = coeff
                rows.append(row)
            _expect(f"{kind} dimension at n={n} by the library",
                    quotient_dimension(n, kind), expected[n])
            _expect(f"{kind} dimension at n={n} by the oracle",
                    len(basis) - _dense_fraction_free_rank(rows, len(basis)), expected[n])
    return (
        "framed (1, 1, 2, 3, 6) and unframed (1, 0, 1, 1, 3); sparse and "
        "dense eliminations agree"
    )


def check_evaluator_agreement():
    """Contraction equals the exhaustive sum, builtin and random."""
    tensors = [
        ("sl2", sl2_standard().weight_tensor()),
        ("so2", so_standard(2).weight_tensor()),
        ("so3", so_standard(3).weight_tensor()),
        ("abelian1", abelian(1).weight_tensor()),
        ("abelian2", abelian(2).weight_tensor()),
        ("abelian3", abelian(3).weight_tensor()),
    ]
    builtins = len(tensors)
    rng = random.Random(20260815)
    for trial in range(100):
        ent = {}
        legs = [(a, b) for a in range(2) for b in range(2)]
        for i, (a, b) in enumerate(legs):
            for c, dd in legs[i:]:
                value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                ent[a, b, c, dd] = ent[c, dd, a, b] = value
        tensors.append((f"random tensor {trial}", WeightTensor(2, ent.items())))
    diagrams = [d for n in range(4) for d in enumerate_diagrams(n)]
    for name, tensor in tensors:
        for diagram in diagrams:
            _expect(f"{name}: exhaustive sum on {diagram.code or 'empty'}",
                    evaluate_naive(tensor, diagram), evaluate(tensor, diagram))
    return (
        f"{builtins} builtin tensors and 100 seeded random symmetric "
        f"tensors agree on all {len(diagrams)} diagrams with n <= 3"
    )


def check_combinatorics():
    """Enumeration counts, coproduct axioms, and product cut independence."""
    expected = (1, 1, 2, 5, 18)
    for n in range(5):
        _expect(f"count at n={n} by the library", len(enumerate_diagrams(n)), expected[n])
        _expect(f"count at n={n} by brute force", _brute_force_orbit_count(n), expected[n])
    for n in range(5):
        for diagram in enumerate_diagrams(n):
            code = diagram.code or "empty"
            delta = coproduct(diagram)
            left = FormalSum()
            right = FormalSum()
            for (lo, hi), coeff in delta.items():
                if lo.n == 0:
                    left = left + FormalSum({hi: coeff})
                if hi.n == 0:
                    right = right + FormalSum({lo: coeff})
            _expect(f"left counit on {code}", left == FormalSum.single(diagram))
            _expect(f"right counit on {code}", right == FormalSum.single(diagram))
            first = FormalSum()
            second = FormalSum()
            for (lo, hi), coeff in delta.items():
                for (a, b), inner in coproduct(lo).items():
                    first = first + FormalSum({(a, b, hi): coeff * inner})
                for (b, c), inner in coproduct(hi).items():
                    second = second + FormalSum({(lo, b, c): coeff * inner})
            _expect(f"coassociativity on {code}", first == second)
    theta = ChordDiagram.from_code("AA")
    pairs = [
        (theta, ChordDiagram.from_code("ABAB")),
        (theta, ChordDiagram.from_code("AABB")),
        (ChordDiagram.from_code("ABAB"), theta),
        (ChordDiagram.from_code("AABB"), theta),
    ]
    checked = 0
    for d1, d2 in pairs:
        base = product(d1, d2, 0, 0)
        for cut1 in range(2 * d1.n + 1):
            for cut2 in range(2 * d2.n + 1):
                other = product(d1, d2, cut1, cut2)
                difference = FormalSum.single(other) - FormalSum.single(base)
                _expect(f"product of {d1.code} and {d2.code} at cut ({cut1}, {cut2}) "
                        f"agrees modulo four-term vectors", in_relation_span(difference, "framed"))
                checked += 1
    return (
        f"counts (1, 1, 2, 5, 18) match brute force; coproduct axioms hold "
        f"for n <= 4; {checked} product cuts agree modulo four-term vectors"
    )


CRITERIA = (
    (1, "three-way weight-system equality", check_threeway_equality),
    (2, "four-term soundness of weight tensors", check_relation_soundness),
    (3, "tensor-level identities", check_tensor_identities),
    (4, "holonomy and symmetric triple", check_holonomy_pipeline),
    (5, "realizability of representations", check_realizability),
    (6, "quotient dimension tables", check_dimension_tables),
    (7, "evaluator agreement", check_evaluator_agreement),
    (8, "combinatorial sanity", check_combinatorics),
)


def run_all():
    """[(number, label, ok, detail)] for every acceptance check, in order.

    A check that returns passes with its detail.  One that raises _Mismatch
    fails with the mismatch, and one whose library call raises ValueError
    or ArithmeticError fails with the exception's type and text; either
    way the next check still runs.  WorkLimitExceeded propagates.
    """
    results = []
    for number, label, func in CRITERIA:
        try:
            results.append((number, label, True, func()))
        except _Mismatch as exc:
            results.append((number, label, False, str(exc)))
        except (ValueError, ArithmeticError) as exc:
            results.append((number, label, False, f"{type(exc).__name__}: {exc}"))
    return results
