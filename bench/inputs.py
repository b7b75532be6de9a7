"""Seeded input generation for the benchmark workloads.

Changes of basis, random tensors and random diagrams are computed here in
the benchmark's own exact arithmetic (Python ints and Fractions); the
library is used only to build its objects, to validate each generated
input once, and to write it through its public JSON writers.  The program
under test receives nothing but the files written here.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from chordweight import WeightTensor, constant_curvature, validate_symmetry
from chordweight.curvature import CurvatureModel, model_to_json_dict
from chordweight.lie import (
    MetrizedLieAlgebra,
    Representation,
    representation_to_json_dict,
    so_standard,
)

# Seven chords keep a random diagram's sweep cost within a few seconds;
# at eight chords single diagrams range from 0.03 s to over 4 s.
RANDOM_CHORDS = 7


# --- exact matrix helpers -------------------------------------------------

def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_inv(a):
    """Exact Gauss-Jordan inverse; the benchmark only inverts unimodular matrices."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def dense_basis(n: int, rng: random.Random):
    """A fixed dense unimodular matrix, its columns permuted and negated by the seed.

    The fixed part is L @ U with unit bidiagonal factors (+1 below, -1 above
    the diagonal); it makes so(4)'s 24-entry tensor 166 entries dense with
    entries of at most 8.  Random unimodular matrices varied the workload's
    time by 10% from seed to seed, through density and entry size; a signed
    permutation of the columns changes the inputs without changing either.
    """
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        lower[i][i - 1] = 1
        upper[i - 1][i] = -1
    base = mat_mul(lower, upper)
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[base[r][order[c]] * signs[c] for c in range(n)] for r in range(n)]


# --- changes of basis -----------------------------------------------------

def rebase_representation(rep: Representation, P, Q) -> Representation:
    """New algebra basis e'_i = sum_a P[a][i] e_a, new module basis columns of Q."""
    m = rep.algebra.dim
    f = rep.algebra.brackets
    Pinv = mat_inv(P)
    Qinv = mat_inv(Q)
    brackets = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for b in range(m):
            for k in range(m):
                c = f[a][b][k]
                if not c:
                    continue
                for i in range(m):
                    if not P[a][i]:
                        continue
                    for j in range(m):
                        w = P[a][i] * P[b][j] * c
                        if not w:
                            continue
                        for l in range(m):
                            brackets[i][j][l] += w * Pinv[l][k]
    form = mat_mul(mat_mul(transpose(P), [list(r) for r in rep.algebra.form]), P)
    conj = [mat_mul(mat_mul(Qinv, [list(r) for r in mat]), Q) for mat in rep.matrices]
    d = rep.dimV
    matrices = [
        [[sum(P[a][i] * conj[a][r][c] for a in range(m)) for c in range(d)]
         for r in range(d)]
        for i in range(m)
    ]
    return Representation(MetrizedLieAlgebra(brackets, form), matrices, dimV=d)


def rebase_model(model: CurvatureModel, P) -> CurvatureModel:
    """The same curvature model in the basis e'_i = sum_a P[a][i] e_a."""
    d = model.dim
    R = model.riemann
    Pinv = mat_inv(P)
    new = [[[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
           for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for x in range(d):
                    v = R[i][j][k][x]
                    if not v:
                        continue
                    for a in range(d):
                        for b in range(d):
                            for c in range(d):
                                w = P[i][a] * P[j][b] * P[k][c] * v
                                if not w:
                                    continue
                                for y in range(d):
                                    new[a][b][c][y] += w * Pinv[y][x]
    metric = mat_mul(mat_mul(transpose(P), [list(r) for r in model.metric]), P)
    return CurvatureModel(metric, new)


def lorentz_metric(d: int):
    return [[(-1 if i == 0 else 1) if i == j else 0 for j in range(d)]
            for i in range(d)]


# --- random tensors and their brute-force four-term witness --------------

def random_leg_symmetric(dim: int, rng: random.Random) -> dict:
    """Dense tensor with entry(a,b,c,d) == entry(c,d,a,b), values in +-1..+-3."""
    entries = {}
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                for d in range(dim):
                    if (c, d) < (a, b):
                        entries[a, b, c, d] = entries[c, d, a, b]
                    else:
                        entries[a, b, c, d] = rng.choice((-3, -2, -1, 1, 2, 3))
    return entries


def first_four_term_witness(dim: int, entries: dict):
    """Lexicographically first (a,b,c,d,e,f) where the 4T sum is nonzero."""
    def t(*idx):
        return entries.get(idx, 0)

    rng = range(dim)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    for e in rng:
                        for f in rng:
                            total = sum(
                                t(e, f, a, x) * t(x, b, c, d)
                                - t(e, f, x, b) * t(a, x, c, d)
                                + t(e, f, c, x) * t(a, b, x, d)
                                - t(e, f, x, d) * t(a, b, c, x)
                                for x in rng
                            )
                            if total:
                                return (a, b, c, d, e, f)
    return None


# --- diagrams -------------------------------------------------------------

def diagram_code(matching) -> str:
    """First-occurrence label code of a matching, read from position 0."""
    labels = {}
    out = []
    for p, q in enumerate(matching):
        if q in labels:
            out.append(labels[q])
        else:
            labels[p] = string.ascii_uppercase[len(labels)]
            out.append(labels[p])
    return "".join(out)


def full_crossing(n: int) -> str:
    letters = string.ascii_uppercase[:n]
    return letters + letters


def ladder(n: int) -> str:
    """Chord k closes just before chord k+2 opens: never more than two chords open."""
    letters = string.ascii_uppercase[:n]
    seq = [letters[0], letters[1]]
    for k in range(2, n):
        seq += [letters[k - 2], letters[k]]
    return "".join(seq + [letters[n - 2], letters[n - 1]])


def random_diagram(n: int, rng: random.Random) -> str:
    points = list(range(2 * n))
    rng.shuffle(points)
    matching = [0] * (2 * n)
    for k in range(n):
        p, q = points[2 * k], points[2 * k + 1]
        matching[p] = q
        matching[q] = p
    return diagram_code(matching)


# --- writing ----------------------------------------------------------------

@dataclass(frozen=True)
class Input:
    """One generated input file and what the manifest records about it."""

    name: str
    path: Path
    dim: int
    nonzeros: int


def _nonzeros(payload: dict) -> int:
    if "entries" in payload:
        return len(payload["entries"])
    if "R" in payload:
        return len(payload["R"])
    return sum(1 for mat in payload["matrices"] for row in mat for x in row
               if Fraction(x) != 0)


class InputWriter:
    """Validates library objects and writes them as JSON input files."""

    def __init__(self, directory: Path, seed: int):
        self.directory = Path(directory)
        self.seed = seed
        self.inputs: dict = {}

    def _write(self, name: str, payload, dim: int, nonzeros: int) -> Path:
        path = self.directory / f"{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        self.inputs[name] = Input(name, path, dim, nonzeros)
        return path

    def representation(self, name: str, rep: Representation) -> Path:
        for ok, why in (rep.algebra.validate(), rep.validate()):
            if not ok:
                raise ValueError(f"generated input {name} is invalid: {why}")
        payload = representation_to_json_dict(rep)
        return self._write(name, payload, rep.dimV, _nonzeros(payload))

    def model(self, name: str, model: CurvatureModel) -> Path:
        ok, why = model.validate()
        if not ok:
            raise ValueError(f"generated input {name} is invalid: {why}")
        payload = model_to_json_dict(model)
        return self._write(name, payload, model.dim, _nonzeros(payload))

    def tensor(self, name: str, tensor: WeightTensor) -> Path:
        if not validate_symmetry(tensor):
            raise ValueError(f"generated input {name} is not leg-symmetric")
        payload = tensor.to_json_dict()
        return self._write(name, payload, tensor.dim, _nonzeros(payload))

    def form(self, name: str, matrix) -> Path:
        payload = [[str(Fraction(x)) for x in row] for row in matrix]
        nonzeros = sum(1 for row in matrix for x in row if x)
        return self._write(name, payload, len(matrix), nonzeros)

    def manifest(self) -> list:
        return [{"name": i.name, "seed": self.seed, "dim": i.dim,
                 "nonzeros": i.nonzeros} for i in self.inputs.values()]


def identity_matrix(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def write_dense_inputs(writer: InputWriter, rng: random.Random) -> tuple:
    """Seeded dense-basis inputs; returns the random tensor's four-term witness."""
    so4 = rebase_representation(so_standard(4), dense_basis(6, rng), dense_basis(4, rng))
    writer.representation("so4_dense", so4)
    writer.tensor("so4_dense_tensor", so4.weight_tensor())
    lorentz = rebase_model(constant_curvature(4, lorentz_metric(4)), dense_basis(4, rng))
    writer.model("lorentz4_dense", lorentz)
    entries = random_leg_symmetric(4, rng)
    writer.tensor("random4", WeightTensor.from_entries(4, entries.items()))
    return first_four_term_witness(4, entries)
