"""Brute-force reference implementations used to pin expected test values.

Everything here is deliberately naive and independent of the package code:
every matching is generated and orbits are computed by explicit closure
under rotation, with no canonical codes (the package generates one least
gap rotation per class and never sees the other matchings), 4T rows from
every (diagram, moving chord, fixed chord, endpoint), with each term
re-inserted from scratch and located by trying its rotations (the package
builds each relation once, from a diagram whose moving chord is isolated,
walks the moving endpoint around the circle by adjacent swaps, and looks
each term up by its raw gap sequence in an index of every rotation),
ranks by dense division-based Gaussian elimination (the package uses sparse
fraction-free elimination), quotient dimensions of each kind and span
membership by separate sparse ranks over the canonical basis (the package
sums unframed dimensions, deletes 1T columns and reduces a vector against
one elimination), smoothing components by walking an adjacency
list built afresh for each smoothing (the package walks fixed partner tables
in Gray-code order), weight systems by sweeping the circle with every open
chord held at once (the package contracts a tensor network pairwise), and
the identity checks and the curvature-model symmetries by dense loops over
every index tuple in lexicographic order (the package works on nonzero
entries only), and the holonomy algebra, its symmetric triple, the derived
tensors and the representation check by dense Fraction loops that solve
their targets by Gauss-Jordan elimination of the dense augmented system
(the package reduces the holonomy span to sparse integer rows and
contracts int numerators one index at a time), and the space-form
curvature by raising the lowered tensor with the Gauss-Jordan inverse of
the metric, a d^5 sum (the package writes the raised entries in closed
form).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from chordweight.linalg import sparse_rank


def all_matchings(n):
    """All perfect matchings of {0, ..., 2n-1} as partner tuples."""
    if n == 0:
        return [()]
    out = []

    def rec(pairs, free):
        if not free:
            partner = [None] * (2 * n)
            for p, q in pairs:
                partner[p] = q
                partner[q] = p
            out.append(tuple(partner))
            return
        a = free[0]
        for k in range(1, len(free)):
            b = free[k]
            rec(pairs + [(a, b)], free[1:k] + free[k + 1:])

    rec([], list(range(2 * n)))
    return out


def rotate_matching(matching, r):
    m = len(matching)
    new = [None] * m
    for i in range(m):
        new[(i + r) % m] = (matching[i] + r) % m
    return tuple(new)


def class_key(matching):
    """Least rotation of the gap sequence g[p] = (matching[p] - p) mod 2n.

    Rotating a diagram by r shifts its gap sequence cyclically by r, so two
    matchings have the same key exactly when they are rotations of each
    other.  Every rotation is tried.
    """
    m = len(matching)
    gaps = [(q - p) % m for p, q in enumerate(matching)]
    return min((tuple(gaps[s:] + gaps[:s]) for s in range(m)), default=())


def rotation_orbits(n):
    """Partition all matchings on 2n points into orbits under rotation."""
    seen = set()
    orbits = []
    for mat in all_matchings(n):
        if mat in seen:
            continue
        orbit = {rotate_matching(mat, r) for r in range(max(1, 2 * n))}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def four_term_rows_all(basis):
    """Distinct nonzero 4T rows {basis position: int} from every argument.

    For every diagram, moving chord, fixed chord and moving endpoint p, p is
    taken out of the circle and put back before and after each endpoint of
    the fixed chord (signs +, -, +, -).  Each term is located by trying its
    rotations against the basis matchings, not by a class key.  Rows are
    deduplicated on their sorted items and kept in order of first
    appearance.
    """
    position = {}
    for i, diagram in enumerate(basis):
        for r in range(len(diagram.matching)):
            position[rotate_matching(diagram.matching, r)] = i

    def moved(matching, p, at):
        order = [x for x in range(len(matching)) if x != p]
        order.insert(at, p)
        new_pos = {token: i for i, token in enumerate(order)}
        return position[tuple(new_pos[matching[token]] for token in order)]

    rows = []
    seen = set()
    for diagram in basis:
        matching = diagram.matching
        chords = [(p, q) for p, q in enumerate(matching) if p < q]
        for moving in chords:
            for fixed in chords:
                if fixed == moving:
                    continue
                for p in moving:
                    seq = [x for x in range(len(matching)) if x != p]
                    row = {}
                    for anchor in fixed:
                        at = seq.index(anchor)
                        for slot, sign in ((at, 1), (at + 1, -1)):
                            i = moved(matching, p, slot)
                            row[i] = row.get(i, 0) + sign
                    key = tuple(sorted((i, c) for i, c in row.items() if c))
                    if key and key not in seen:
                        seen.add(key)
                        rows.append(dict(key))
    return rows


def dense_rank(rows, ncols):
    """Rank over the rationals, textbook row reduction with division."""
    mat = [[Fraction(x) for x in row] + [Fraction(0)] * (ncols - len(row))
           for row in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def relation_rows(basis, four_term_rows, kind):
    """The 4T rows {basis position: int}, plus for unframed a row {i: 1} per
    diagram with an isolated chord: the relations of each kind spelled out
    over the canonical basis.
    """
    rows = list(four_term_rows)
    if kind == "unframed":
        for i, diagram in enumerate(basis):
            m = len(diagram.matching)
            if any((p + 1) % m == q for p, q in enumerate(diagram.matching)):
                rows.append({i: 1})
    return rows


def quotient_dimension_by_rows(basis, four_term_rows, kind):
    """Dimension of span(basis) modulo ``relation_rows``, by one elimination.

    This is the direct computation for each kind; the package deletes the
    1T columns instead, and sums unframed dimensions to get framed ones.
    """
    return len(basis) - sparse_rank(relation_rows(basis, four_term_rows, kind))


def in_span_by_two_ranks(rows, vector):
    """Whether vector lies in span(rows): appending it leaves the rank as it is."""
    return sparse_rank(list(rows) + [vector]) == sparse_rank(rows)


def walk_components(matching, signs):
    """Count circles after smoothing every chord, by explicit edge walking.

    Half-edge 2p is the side of endpoint p facing the incoming circle arc,
    2p+1 the outgoing side.  Each half-edge lies on exactly one circle arc
    and one chord-smoothing join, so the graph is a disjoint union of cycles.
    """
    m = len(matching)
    if m == 0:
        return 1
    links = {}

    def join(x, y):
        links.setdefault(x, []).append(y)
        links.setdefault(y, []).append(x)

    for p in range(m):
        join(2 * p + 1, 2 * ((p + 1) % m))
    done = set()
    for p in range(m):
        q = matching[p]
        if q < p:
            continue
        done.add(p)
        # chord index = order of first endpoint among first endpoints
        idx = sum(1 for r in range(p) if matching[r] > r)
        if signs[idx] == 1:
            join(2 * p, 2 * q + 1)
            join(2 * q, 2 * p + 1)
        else:
            join(2 * p, 2 * q)
            join(2 * p + 1, 2 * q + 1)
    seen = set()
    comps = 0
    for start in range(2 * m):
        if start in seen:
            continue
        comps += 1
        prev, cur = None, start
        while cur not in seen:
            seen.add(cur)
            a, b = links[cur]
            nxt = b if a == prev else a
            prev, cur = cur, nxt
    return comps


def dense_tensor(tensor):
    """A weight tensor's components as a nested d^4 tuple, zeros included."""
    rng = range(tensor.dim)
    return tuple(tuple(tuple(tuple(tensor.entries.get((a, b, c, d), Fraction(0))
                                   for d in rng) for c in rng) for b in rng)
                 for a in rng)


def dense_structure_tensor(algebra):
    """An algebra's structure tensor as a nested m^3 tuple, zeros included."""
    Y = algebra.structure_tensor()
    rng = range(algebra.dim)
    return tuple(tuple(tuple(Y.get((i, j, k), Fraction(0)) for k in rng) for j in rng)
                 for i in rng)


def array_items(array):
    """((a, b, c, d), value) for every entry of a nested d^4 array."""
    d = len(array)
    return [((a, b, c, e), array[a][b][c][e])
            for a, b, c, e in product(range(d), repeat=4)]


def sweep_evaluate(tensor, diagram):
    """Weight system by sweeping the endpoints in circular order.

    For each start arc, the state maps (current arc index, one (in, out)
    pair per open chord) to a partial value; a chord's entry is read when
    its second endpoint closes it, leg 1 at its first endpoint.  Cost about
    d^(2k+2) for k simultaneously open chords.
    """
    d = tensor.dim
    matching = diagram.matching
    if not matching:
        return Fraction(d)
    ent = dense_tensor(tensor)
    total = Fraction(0)
    for start_arc in range(d):
        states = {(start_arc, ()): Fraction(1)}
        open_chords = []
        for p, q in enumerate(matching):
            new_states = {}
            if q > p:
                open_chords.append(p)
                for (cur, pairs), val in states.items():
                    for x in range(d):
                        key = (x, pairs + ((cur, x),))
                        new_states[key] = new_states.get(key, 0) + val
            else:
                idx = open_chords.index(q)
                open_chords.pop(idx)
                for (cur, pairs), val in states.items():
                    a, b = pairs[idx]
                    rest = pairs[:idx] + pairs[idx + 1:]
                    for x in range(d):
                        h = ent[a][b][cur][x]
                        if h:
                            key = (x, rest)
                            new_states[key] = new_states.get(key, 0) + val * h
            states = new_states
        total += states.get((start_arc, ()), 0)
    return total


def four_term(ent, d):
    """(ok, witness) of the tensor four-term identity: the first failing tuple."""
    rng = range(d)
    for a, b, c, dd, e, f in product(rng, repeat=6):
        total = Fraction(0)
        for x in rng:
            total += ent[e][f][a][x] * ent[x][b][c][dd]
            total -= ent[e][f][x][b] * ent[a][x][c][dd]
            total += ent[e][f][c][x] * ent[a][b][x][dd]
            total -= ent[e][f][x][dd] * ent[a][b][c][x]
        if total != 0:
            return False, (a, b, c, dd, e, f)
    return True, None


def parallel_four_term(R, d):
    """(ok, witness) of the parallel-curvature four-term identity."""
    rng = range(d)
    for a, b, c, dd, e, f in product(rng, repeat=6):
        acc = Fraction(0)
        for x in rng:
            acc += (R[e][f][a][x] * R[x][b][c][dd]
                    + R[e][f][b][x] * R[a][x][c][dd]
                    + R[e][f][c][x] * R[a][b][x][dd]
                    - R[e][f][x][dd] * R[a][b][c][x])
        if acc != 0:
            return False, (a, b, c, dd, e, f)
    return True, None


def metrized_algebra(f, B):
    """(ok, message) of the metrized Lie algebra axioms, in the package's order.

    Antisymmetry, Jacobi over every (i, j, k, l), symmetry of the form,
    nondegeneracy (by dense_rank), then invariance over every (z, x, y).
    """
    m = len(B)
    rng = range(m)
    for i, j, k in product(rng, repeat=3):
        if f[i][j][k] != -f[j][i][k]:
            return False, f"antisymmetry fails at (i,j,k)=({i},{j},{k})"
    for i, j, k, l in product(rng, repeat=4):
        acc = Fraction(0)
        for x in rng:
            acc += (f[i][j][x] * f[x][k][l]
                    + f[j][k][x] * f[x][i][l]
                    + f[k][i][x] * f[x][j][l])
        if acc != 0:
            return False, f"Jacobi identity fails at (i,j,k,l)=({i},{j},{k},{l})"
    if any(B[i][j] != B[j][i] for i, j in product(rng, repeat=2)):
        return False, "form is not symmetric"
    if dense_rank(B, m) < m:
        return False, "form is degenerate"
    for z, x, y in product(rng, repeat=3):
        acc = Fraction(0)
        for k in rng:
            acc += f[z][x][k] * B[k][y] + f[z][y][k] * B[x][k]
        if acc != 0:
            return False, f"form invariance fails at (z,x,y)=({z},{x},{y})"
    return True, None


def exchange_identity(T, Y, rho, d, m):
    """(ok, witness) of the two-sided exchange identity.

    T is the dense rank-4 Casimir tensor, Y the structure tensor and rho the
    representation matrices; every 6-tuple is compared term by term.
    """
    rng = range(d)
    for a, b, c, dd, e, f in product(rng, repeat=6):
        lhs = rhs = mid = Fraction(0)
        for x in rng:
            lhs += T[a][x][e][f] * T[x][b][c][dd] - T[a][x][c][dd] * T[x][b][e][f]
            rhs += T[a][b][c][x] * T[x][dd][e][f] - T[a][b][x][dd] * T[c][x][e][f]
        for i, j, k in product(range(m), repeat=3):
            mid += Y[i][j][k] * rho[i][b][a] * rho[j][dd][c] * rho[k][f][e]
        if lhs != mid or mid != rhs:
            return False, (a, b, c, dd, e, f)
    return True, None


def curvature_model(g, R, d):
    """(ok, why) of the curvature-model checks, by dense loops in the package's order.

    Metric symmetry, nondegeneracy (by dense_rank), antisymmetry over a <= b,
    the first Bianchi identity, then pair symmetry of the tensor lowered by g.
    """
    rng = range(d)
    if any(g[i][j] != g[j][i] for i, j in product(rng, repeat=2)):
        return False, ("metric-symmetry", None)
    if d and dense_rank(g, d) < d:
        return False, ("metric-degenerate", None)
    for a in rng:
        for b in range(a, d):
            for c, x in product(rng, repeat=2):
                if R[a][b][c][x] != -R[b][a][c][x]:
                    return False, ("antisymmetry", (a, b, c, x))
    for a, b, c, x in product(rng, repeat=4):
        if R[a][b][c][x] + R[b][c][a][x] + R[c][a][b][x] != 0:
            return False, ("bianchi", (a, b, c, x))
    low = {key: sum((R[key[0]][key[1]][key[2]][y] * g[y][key[3]] for y in rng),
                    Fraction(0))
           for key in product(rng, repeat=4)}
    for a, b, c, x in product(rng, repeat=4):
        if low[a, b, c, x] != low[c, x, a, b]:
            return False, ("pair-symmetry", (a, b, c, x))
    return True, None


def dense_inverse(a):
    """Gauss-Jordan inverse of a square matrix; ValueError when it is singular."""
    n = len(a)
    mat = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return [row[n:] for row in mat]


def space_form_riemann(metric, kappa):
    """kappa (g_ad g_bc - g_ac g_bd) raised in its last slot by the dense inverse."""
    g = [[Fraction(x) for x in row] for row in metric]
    ginv = dense_inverse(g)
    rng = range(len(g))
    return [[[[sum((kappa * (g[a][y] * g[b][c] - g[a][c] * g[b][y]) * ginv[y][x]
                    for y in rng), Fraction(0))
               for x in rng] for c in rng] for b in rng] for a in rng]


def dense_commutator(a, b):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for r, x, c in product(range(n), repeat=3):
        if a[r][x] and b[x][c]:
            out[r][c] += a[r][x] * b[x][c]
        if b[r][x] and a[x][c]:
            out[r][c] -= b[r][x] * a[x][c]
    return out


def solve_all(vectors, targets):
    """Coefficients of each target in the span of independent vectors, or None.

    The augmented system (one column per vector, then one per target) is
    reduced by Gauss-Jordan elimination on the vector columns.
    """
    k = len(vectors)
    if not targets:
        return []
    length = len(targets[0])
    rows = [[Fraction(vec[i]) for vec in vectors] + [Fraction(t[i]) for t in targets]
            for i in range(length)]
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, length) if rows[i][col] != 0), None)
        if piv is None:
            raise ValueError("spanning vectors are linearly dependent")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(length):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [None if any(rows[i][k + t] != 0 for i in range(r, length))
            else [rows[j][k + t] for j in range(k)] for t in range(len(targets))]


def solve_in_span(vectors, target):
    return solve_all(vectors, [target])[0]


def _endomorphism(R, a, b, d):
    return [[R[a][b][c][x] for c in range(d)] for x in range(d)]


def _flat(matrix):
    return [x for row in matrix for x in row]


def holonomy(R, g, d):
    """(labels, basis, brackets, form, nondegenerate) of span{R(e_a, e_b)}, densely.

    Each pair's endomorphism is kept when it is not in the span of those
    kept before it.  The form consistency on every pair of generator pairs,
    then the bracket identity on every pair, then the basis commutators are
    checked, raising RuntimeError with the package's messages.
    """
    rng = range(d)
    low = [[[[sum((R[a][b][c][x] * g[x][y] for x in rng), Fraction(0))
              for y in rng] for c in rng] for b in rng] for a in rng]
    pairs = [(a, b) for a in rng for b in range(a + 1, d)]
    labels, vecs = [], []
    for a, b in pairs:
        vec = _flat(_endomorphism(R, a, b, d))
        if solve_in_span(vecs, vec) is None:
            labels.append((a, b))
            vecs.append(vec)
    m = len(labels)
    basis = [_endomorphism(R, *pair, d) for pair in labels]
    commutators = [(i, j) for i in range(m) for j in range(m)]
    solved = solve_all(
        vecs, [_flat(_endomorphism(R, *p, d)) for p in pairs]
        + [_flat(dense_commutator(basis[i], basis[j])) for i, j in commutators])
    coords = dict(zip(pairs, solved))
    form = [[low[la][lb][ka][kb] for ka, kb in labels] for la, lb in labels]
    for p in pairs:
        for q in pairs:
            via = sum((coords[p][i] * coords[q][j] * form[i][j]
                       for i in range(m) if coords[p][i] for j in range(m)),
                      Fraction(0))
            if via != low[p[0]][p[1]][q[0]][q[1]]:
                raise RuntimeError(
                    f"induced form is inconsistent on generators {p}, {q}")
    for p in pairs:
        for q in pairs:
            lhs = dense_commutator(_endomorphism(R, *p, d), _endomorphism(R, *q, d))
            rhs = [[Fraction(0)] * d for _ in rng]
            for x in rng:
                first = _endomorphism(R, x, q[1], d)
                second = _endomorphism(R, q[0], x, d)
                for r, c in product(rng, repeat=2):
                    rhs[r][c] += (R[p[0]][p[1]][q[0]][x] * first[r][c]
                                  + R[p[0]][p[1]][q[1]][x] * second[r][c])
            if lhs != rhs:
                raise RuntimeError(f"bracket identity fails on generators {p}, {q}")
    brackets = [[None] * m for _ in range(m)]
    for (i, j), c in zip(commutators, solved[len(pairs):]):
        if c is None:
            raise RuntimeError("holonomy commutator escapes the span")
        brackets[i][j] = c
    return labels, basis, brackets, form, m == 0 or dense_rank(form, m) == m


def symmetric_triple(R, g, d, hol):
    """(brackets, form, involution) of h + p for ``hol = holonomy(R, g, d)``.

    The tangent brackets are solved densely against the holonomy basis.
    """
    labels, basis, hol_brackets, hol_form, _ = hol
    m = len(labels)
    n = m + d
    f = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in product(range(m), repeat=3):
        f[i][j][k] = hol_brackets[i][j][k]
    for i in range(m):
        for a, x in product(range(d), repeat=2):
            f[i][m + a][m + x] = basis[i][x][a]
            f[m + a][i][m + x] = -basis[i][x][a]
    tangent = [(a, b) for a in range(d) for b in range(a + 1, d)]
    solved = solve_all([_flat(mat) for mat in basis],
                       [_flat(_endomorphism(R, a, b, d)) for a, b in tangent])
    for (a, b), c in zip(tangent, solved):
        if c is None:
            raise RuntimeError("tangent bracket escapes the holonomy span")
        for k in range(m):
            f[m + a][m + b][k] = c[k]
            f[m + b][m + a][k] = -c[k]
    form = [[Fraction(0)] * n for _ in range(n)]
    for i, j in product(range(m), repeat=2):
        form[i][j] = hol_form[i][j]
    for a, b in product(range(d), repeat=2):
        form[m + a][m + b] = g[a][b]
    return f, form, [1] * m + [-1] * d


def so_isomorphism(basis, brackets, d):
    """P with P f_h = f_so(P, P) on so(d)'s standard basis, or None; every (i, j, l).

    The right side contracts one P at a time.
    """
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    m = len(pairs)
    if d < 2 or len(basis) != m:
        return None
    standard = []
    for i, j in pairs:
        mat = [[Fraction(0)] * d for _ in range(d)]
        mat[i][j], mat[j][i] = Fraction(1), Fraction(-1)
        standard.append(mat)
    f_so = [[[comm[i][j] for i, j in pairs]
             for comm in (dense_commutator(standard[a], standard[b]) for b in range(m))]
            for a in range(m)]
    P = []
    for mat in basis:
        if any(mat[i][j] != -mat[j][i] for i, j in product(range(d), repeat=2)):
            return None
        P.append([mat[i][j] for i, j in pairs])
    if dense_rank(P, m) < m:
        return None
    # half[j][a][l] = sum_b P[j][b] f_so[a][b][l]
    half = [[[sum((P[j][b] * f_so[a][b][l] for b in range(m)), Fraction(0))
              for l in range(m)] for a in range(m)] for j in range(m)]
    for i, j, l in product(range(m), repeat=3):
        lhs = sum((brackets[i][j][k] * P[k][l] for k in range(m)), Fraction(0))
        rhs = sum((P[i][a] * half[j][a][l] for a in range(m)), Fraction(0))
        if lhs != rhs:
            return None
    return P


def structure_tensor(brackets, form):
    """Y[i][j][k] = sum_{a,b} C[i][a] C[j][b] f[a][b][k] with C the inverse form."""
    m = len(form)
    C = dense_inverse(form)
    rng = range(m)
    half = [[[sum((C[i][a] * brackets[a][b][k] for a in rng), Fraction(0))
              for k in rng] for b in rng] for i in rng]
    return [[[sum((C[j][b] * half[i][b][k] for b in rng), Fraction(0))
              for k in rng] for j in rng] for i in rng]


def lie_weight_tensor(form, matrices, d):
    """rho(C)[a][b][c][d] = sum_{ij} C[i][j] rho_i[b][a] rho_j[d][c]."""
    C = dense_inverse(form)
    m = len(form)
    # half[i][dd][c] = sum_j C[i][j] rho_j[dd][c]
    half = [[[sum((C[i][j] * matrices[j][dd][c] for j in range(m)), Fraction(0))
              for c in range(d)] for dd in range(d)] for i in range(m)]
    return [[[[sum((matrices[i][b][a] * half[i][dd][c] for i in range(m)), Fraction(0))
               for dd in range(d)] for c in range(d)] for b in range(d)]
            for a in range(d)]


def curvature_weight_tensor(g, R, d):
    """entry[a][b][c][d] = sum_x g_inv[b][x] R[a][x][c][d]."""
    ginv = dense_inverse(g)
    return [[[[sum((ginv[b][x] * R[a][x][c][dd] for x in range(d)), Fraction(0))
               for dd in range(d)] for c in range(d)] for b in range(d)]
            for a in range(d)]


def representation(brackets, matrices, d):
    """(ok, message): rho([e_i, e_j]) against [rho_i, rho_j] for i < j in order."""
    m = len(matrices)
    for i in range(m):
        for j in range(i + 1, m):
            lhs = [[sum((brackets[i][j][k] * matrices[k][r][c] for k in range(m)),
                        Fraction(0)) for c in range(d)] for r in range(d)]
            if lhs != dense_commutator(matrices[i], matrices[j]):
                return False, f"bracket compatibility fails at (i,j)=({i},{j})"
    return True, None


def lowered_casimir(form_v, rep_form, matrices, d):
    """low[a][b][c][d] = sum_{x,y} rho(C)(a,x,c,y) F[x][b] F[y][d], densely."""
    T = lie_weight_tensor(rep_form, matrices, d)
    rng = range(d)
    return [[[[sum((T[a][x][c][y] * form_v[x][b] * form_v[y][dd]
                    for x, y in product(rng, repeat=2)), Fraction(0))
               for dd in rng] for c in rng] for b in rng] for a in rng]


def curvature_symmetries(low, d):
    """The first skew, then Bianchi, failure of a lowered tensor in lexicographic order."""
    for a, b, c, dd in product(range(d), repeat=4):
        if low[a][b][c][dd] + low[b][a][c][dd] != 0:
            return "fail(skew)", (a, b, c, dd)
    for a, b, c, dd in product(range(d), repeat=4):
        if low[a][b][c][dd] + low[b][c][a][dd] + low[c][a][b][dd] != 0:
            return "fail(bianchi)", (a, b, c, dd)
    return "pass", None


def raised(low, form_v, d):
    """R[a][b][c][x] = sum_y low[a][b][c][y] F^-1[y][x]."""
    inv = dense_inverse(form_v)
    rng = range(d)
    return [[[[sum((low[a][b][c][y] * inv[y][x] for y in rng), Fraction(0))
               for x in rng] for c in rng] for b in rng] for a in rng]
