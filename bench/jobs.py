"""Workloads: the CLI jobs each one runs and how their outputs are checked.

Every check is exact: a job passes only with the pinned exit code and the
pinned stdout (or the pinned lines, where the rest depends on the seeded
basis), and jobs that share an ``agree`` key must print the same value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from chordweight import WeightTensor, constant_curvature, sl2_standard, so_standard

import inputs

WORKLOADS = {
    "algebra": "4T relations and sparse rank behind dims; the only diagram-algebra "
               "workload, no tensor code runs",
    "identities": "dense identity checks, holonomy and realize on sparse "
                  "standard-basis inputs",
    "dense": "the identities layers on inputs made dense by a seeded change of "
             "basis, where sparsity gains nothing",
    "evaluate": "sweep evaluator and state sum on many-crossing and seeded "
                "7-chord diagrams, three routes that must agree",
}

# `enumerate --n 0` imports the package, parses arguments and does no math:
# its wall time is the set-up cost every job pays.
SETUP_ARGV = ("enumerate", "--n", "0")
SETUP_STDOUT = "(empty)\n"

CHECK_LIE_PASS = (
    "metrized-algebra: pass\nrepresentation: pass\nleg-symmetry: pass\n"
    "four-term: pass\nexchange-identity: pass\n"
)
CHECK_CURVATURE_PASS = "curvature-model: pass\nparallel-four-term: pass\nfour-term: pass\n"

HOLONOMY_SPHERE4 = """\
dim_h=6
generator labels: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
[h0, h1] = -1*h3
[h0, h2] = -1*h4
[h0, h3] = 1*h1
[h0, h4] = 1*h2
[h0, h5] = 0
[h1, h2] = -1*h5
[h1, h3] = -1*h0
[h1, h4] = 0
[h1, h5] = 1*h2
[h2, h3] = 0
[h2, h4] = -1*h0
[h2, h5] = -1*h1
[h3, h4] = -1*h5
[h3, h5] = 1*h4
[h4, h5] = -1*h3
B_h:
  -1   0   0   0   0   0
   0  -1   0   0   0   0
   0   0  -1   0   0   0
   0   0   0  -1   0   0
   0   0   0   0  -1   0
   0   0   0   0   0  -1
B_h nondegenerate: yes
triple: dim 10 = 6 + 4, valid: yes
isomorphic to so4: yes
rho(C_h) == Hhat: yes
"""

REALIZE_SO3 = """\
verdict: pass
triple: dim 6 = 3 + 3
[e0, e1] = -1*e2
[e0, e2] = 1*e1
[e0, e3] = -1*e4
[e0, e4] = 1*e3
[e0, e5] = 0
[e1, e2] = -1*e0
[e1, e3] = -1*e5
[e1, e4] = 0
[e1, e5] = 1*e3
[e2, e3] = 0
[e2, e4] = -1*e5
[e2, e5] = 1*e4
[e3, e4] = 1*e0
[e3, e5] = 1*e1
[e4, e5] = 1*e2
"""

# In a seeded basis only these holonomy lines are basis independent.
HOLONOMY_DENSE_LINES = (
    "dim_h=6",
    "B_h nondegenerate: yes",
    "triple: dim 10 = 6 + 4, valid: yes",
    "rho(C_h) == Hhat: yes",
)

# Weight-system values in the standard basis; every route and basis must
# reproduce them.
CROSSING6_SO4 = "732\n"
CROSSING7_N5 = "-16360\n"
CROSSING8_N4 = "6564\n"
LADDER13_N5 = "20\n"
CROSSING14_N5 = "268435460\n"

RANDOM_DIAGRAMS = 3
# The sweep costs about d^(2k) for k open chords, so the random diagrams all
# share one open-chord profile: peak 5, reached once.  Unrestricted 7-chord
# diagrams cost from 0.01 s to 0.8 s each and would make the seed, not the
# program, drive the workload's time.
RANDOM_PEAK_OPEN = 5


@dataclass(frozen=True)
class Job:
    """One CLI invocation and its expected result."""

    argv: tuple
    exit_code: int = 0
    stdout: str | None = None
    lines: tuple = ()
    agree: str | None = None


def check_job(job: Job, exit_code: int, stdout: str) -> bool:
    """Exit code and output of one job, with no tolerance."""
    if exit_code != job.exit_code:
        return False
    if job.stdout is not None and stdout != job.stdout:
        return False
    got = stdout.splitlines()
    it = iter(got)
    if not all(line in it for line in job.lines):  # pinned lines, in order
        return False
    if job.agree is not None and len(got) != 1:
        return False
    return True


def check_jobs(jobs, results) -> list:
    """Per-job verdicts; a disagreeing ``agree`` group fails as a whole."""
    ok = [check_job(job, code, out) for job, (code, out) in zip(jobs, results)]
    groups: dict = {}
    for i, job in enumerate(jobs):
        if job.agree is not None:
            groups.setdefault(job.agree, []).append(i)
    for members in groups.values():
        if len({results[i][1] for i in members}) > 1:
            for i in members:
                ok[i] = False
    return ok


def canonical_code(code: str) -> str:
    """Least first-occurrence code over all rotations, as the program stores it."""
    return min(inputs.diagram_code(_matching(code[r:] + code[:r]))
               for r in range(len(code)))


def _matching(code: str) -> list:
    first: dict = {}
    matching = [0] * len(code)
    for i, ch in enumerate(code):
        if ch in first:
            j = first.pop(ch)
            matching[i], matching[j] = j, i
        else:
            first[ch] = i
    return matching


def open_profile(code: str) -> list:
    """Number of open chords after each endpoint, reading left to right."""
    seen = set()
    out = []
    for ch in code:
        if ch in seen:
            seen.discard(ch)
        else:
            seen.add(ch)
        out.append(len(seen))
    return out


def random_diagrams(rng: random.Random, count: int) -> list:
    """Seeded 7-chord diagrams whose canonical form peaks once at 5 open chords."""
    out = []
    while len(out) < count:
        code = inputs.random_diagram(inputs.RANDOM_CHORDS, rng)
        profile = open_profile(canonical_code(code))
        if max(profile) == RANDOM_PEAK_OPEN and profile.count(RANDOM_PEAK_OPEN) == 1:
            out.append(code)
    return out


def _three_ways(diagram: str, tensor: Path, model: Path, n: int, key: str,
                stdout: str | None = None) -> list:
    return [
        Job(("eval", "--tensor", str(tensor), "--diagram", diagram),
            stdout=stdout, agree=key),
        Job(("eval", "--curvature", str(model), "--diagram", diagram),
            stdout=stdout, agree=key),
        Job(("yamada", "--N", str(n), "--diagram", diagram), stdout=stdout, agree=key),
    ]


def build(workload: str, seed: int, workdir: Path):
    """Write the workload's inputs into workdir; return (jobs, input manifest)."""
    writer = inputs.InputWriter(workdir, seed)
    rng = random.Random(seed)
    if workload == "algebra":
        jobs = [
            Job(("dims", "--max-n", "6"), stdout="0 1\n1 1\n2 2\n3 3\n4 6\n5 10\n6 19\n"),
            Job(("dims", "--max-n", "5", "--unframed"),
                stdout="0 1\n1 0\n2 1\n3 1\n4 3\n5 4\n"),
        ]
    elif workload == "identities":
        p = {name: str(writer.representation(name, rep)) for name, rep in (
            ("so3", so_standard(3)), ("so4", so_standard(4)),
            ("so5", so_standard(5)), ("sl2", sl2_standard()))}
        p["sphere4"] = str(writer.model("sphere4", constant_curvature(4)))
        p["sphere5"] = str(writer.model("sphere5", constant_curvature(5)))
        p["zero6"] = str(writer.tensor("zero6", WeightTensor.from_entries(6, [])))
        p["eye3"] = str(writer.form("eye3", inputs.identity_matrix(3)))
        p["omega"] = str(writer.form("omega", [[0, 1], [-1, 0]]))
        jobs = [
            Job(("check", "--lie", p["so4"]), stdout=CHECK_LIE_PASS),
            Job(("check", "--lie", p["so5"]), stdout=CHECK_LIE_PASS),
            Job(("check", "--curvature", p["sphere5"]), stdout=CHECK_CURVATURE_PASS),
            Job(("holonomy", "--curvature", p["sphere4"]), stdout=HOLONOMY_SPHERE4),
            Job(("check", "--tensor", p["zero6"]),
                stdout="leg-symmetry: pass\nfour-term: pass\n"),
            Job(("realize", "--lie", p["so3"], "--form", p["eye3"]), stdout=REALIZE_SO3),
            Job(("realize", "--lie", p["sl2"], "--form", p["omega"]), exit_code=1,
                stdout="verdict: fail(skew) at (0, 0, 1, 1)\n"),
        ]
    elif workload == "dense":
        witness = inputs.write_dense_inputs(writer, rng)
        p = {name: str(i.path) for name, i in writer.inputs.items()}
        jobs = [
            Job(("check", "--lie", p["so4_dense"]), stdout=CHECK_LIE_PASS),
            Job(("eval", "--tensor", p["so4_dense_tensor"], "--diagram", "ABCDEFABCDEF"),
                stdout=CROSSING6_SO4),
            Job(("check", "--curvature", p["lorentz4_dense"]), stdout=CHECK_CURVATURE_PASS),
            Job(("holonomy", "--curvature", p["lorentz4_dense"]),
                lines=HOLONOMY_DENSE_LINES),
            Job(("check", "--tensor", p["random4"]), exit_code=1,
                stdout=f"leg-symmetry: pass\nfour-term: fail at {witness}\n"),
        ]
    elif workload == "evaluate":
        so5 = writer.tensor("so5_tensor", so_standard(5).weight_tensor())
        so4 = writer.tensor("so4_tensor", so_standard(4).weight_tensor())
        sphere5 = writer.model("sphere5", constant_curvature(5))
        crossing8 = inputs.full_crossing(8)
        jobs = _three_ways(inputs.full_crossing(7), so5, sphere5, 5, "crossing7",
                           CROSSING7_N5)
        jobs += [
            Job(("eval", "--tensor", str(so4), "--diagram", crossing8),
                stdout=CROSSING8_N4, agree="crossing8"),
            Job(("yamada", "--N", "4", "--diagram", crossing8),
                stdout=CROSSING8_N4, agree="crossing8"),
        ]
        jobs += _three_ways(inputs.ladder(13), so5, sphere5, 5, "ladder13", LADDER13_N5)
        jobs.append(Job(("yamada", "--N", "5", "--diagram", inputs.full_crossing(14)),
                        stdout=CROSSING14_N5))
        for k, code in enumerate(random_diagrams(rng, RANDOM_DIAGRAMS)):
            jobs += _three_ways(code, so5, sphere5, 5, f"random{k}")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, writer.manifest()
