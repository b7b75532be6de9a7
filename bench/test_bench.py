"""Tests of the benchmark's own code.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import random
from pathlib import Path

import pytest

from chordweight import (
    ChordDiagram,
    WeightTensor,
    check_four_term,
    constant_curvature,
    evaluate,
    so_standard,
)
import chordweight.cli
import chordweight.curvature

import inputs
import jobs
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["dense", "evaluate"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    built = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / label
        directory.mkdir()
        job_list, manifest = jobs.build(workload, seed, directory)
        argv = [[a.replace(str(directory), "") for a in job.argv] for job in job_list]
        built[label] = (_files(directory), argv, manifest)
    assert built["a"][:2] == built["b"][:2]
    assert built["a"][:2] != built["c"][:2]
    assert all(item["seed"] == 7 for item in built["a"][2])


def test_dense_inputs_are_dense_and_seed_independent_in_size(tmp_path):
    sizes = []
    for seed in (1, 2):
        writer = inputs.InputWriter(tmp_path, seed)
        inputs.write_dense_inputs(writer, random.Random(seed))
        sizes.append({i["name"]: i["nonzeros"] for i in writer.manifest()})
    assert sizes[0] == sizes[1]
    assert sizes[0]["so4_dense_tensor"] == 166
    assert sizes[0]["random4"] == 4 ** 4


DIAGRAMS = [ChordDiagram.from_code(c) for c in ("AA", "ABAB", "AABB", "ABCABC", "ABACBC")]


def test_rebased_representation_validates_and_keeps_values():
    rng = random.Random(3)
    standard = so_standard(4)
    rebased = inputs.rebase_representation(
        standard, inputs.dense_basis(6, rng), inputs.dense_basis(4, rng))
    assert rebased.algebra.validate() == (True, None)
    assert rebased.validate() == (True, None)
    t_std, t_new = standard.weight_tensor(), rebased.weight_tensor()
    assert t_new != t_std
    for diagram in DIAGRAMS:
        assert evaluate(t_new, diagram) == evaluate(t_std, diagram)


def test_rebased_model_validates_and_keeps_values():
    rng = random.Random(4)
    standard = constant_curvature(4, inputs.lorentz_metric(4))
    rebased = inputs.rebase_model(standard, inputs.dense_basis(4, rng))
    assert rebased.validate() == (True, None)
    t_std, t_new = standard.weight_tensor(), rebased.weight_tensor()
    assert t_new != t_std
    for diagram in DIAGRAMS:
        assert evaluate(t_new, diagram) == evaluate(t_std, diagram)


def test_dense_basis_is_unimodular():
    P = inputs.dense_basis(6, random.Random(5))
    inv = inputs.mat_inv(P)
    assert all(x.denominator == 1 for row in inv for x in row)
    assert inputs.mat_mul(P, inv) == [[int(i == j) for j in range(6)] for i in range(6)]


def test_brute_force_witness_matches_library():
    entries = inputs.random_leg_symmetric(3, random.Random(6))
    tensor = WeightTensor.from_entries(3, entries.items())
    assert check_four_term(tensor) == (False, inputs.first_four_term_witness(3, entries))
    so3 = so_standard(3).weight_tensor()
    assert inputs.first_four_term_witness(3, dict(so3.nonzero_items())) is None


def test_canonical_code_matches_library():
    rng = random.Random(9)
    for _ in range(20):
        code = inputs.random_diagram(7, rng)
        assert jobs.canonical_code(code) == ChordDiagram.from_code(code).code
    assert ChordDiagram.from_code(inputs.ladder(13)).code == inputs.ladder(13)
    assert max(jobs.open_profile(inputs.ladder(13))) == 2


def test_random_diagrams_share_one_open_profile():
    for code in jobs.random_diagrams(random.Random(2), 5):
        profile = jobs.open_profile(ChordDiagram.from_code(code).code)
        assert max(profile) == jobs.RANDOM_PEAK_OPEN
        assert profile.count(jobs.RANDOM_PEAK_OPEN) == 1


# --- output checker ---------------------------------------------------------

def test_checker_rejects_corrupted_stdout_and_wrong_exit_code():
    job = jobs.Job(("check", "--tensor", "x.json"), stdout="leg-symmetry: pass\n")
    assert jobs.check_job(job, 0, "leg-symmetry: pass\n")
    assert not jobs.check_job(job, 0, "leg-symmetry: fail\n")
    assert not jobs.check_job(job, 0, "leg-symmetry: pass\nextra\n")
    assert not jobs.check_job(job, 1, "leg-symmetry: pass\n")
    failing = jobs.Job(("realize",), exit_code=1, stdout="verdict: fail(skew)\n")
    assert jobs.check_job(failing, 1, "verdict: fail(skew)\n")
    assert not jobs.check_job(failing, 0, "verdict: fail(skew)\n")


def test_checker_pinned_lines_must_appear_in_order():
    job = jobs.Job(("holonomy",), lines=("dim_h=6", "B_h nondegenerate: yes"))
    assert jobs.check_job(job, 0, "dim_h=6\nlabels\nB_h nondegenerate: yes\n")
    assert not jobs.check_job(job, 0, "B_h nondegenerate: yes\ndim_h=6\n")
    assert not jobs.check_job(job, 0, "dim_h=5\nB_h nondegenerate: yes\n")


def test_checker_fails_a_disagreeing_group():
    group = [jobs.Job(("eval",), agree="k"), jobs.Job(("yamada",), agree="k"),
             jobs.Job(("dims",), stdout="0 1\n")]
    assert jobs.check_jobs(group, [(0, "5\n"), (0, "5\n"), (0, "0 1\n")]) == [True] * 3
    assert jobs.check_jobs(group, [(0, "5\n"), (0, "6\n"), (0, "0 1\n")]) == [
        False, False, True]
    assert jobs.check_jobs(group, [(0, "5\n5\n"), (0, "5\n5\n"), (0, "0 1\n")]) == [
        False, False, True]


# --- tracing ----------------------------------------------------------------

def test_self_time_on_a_synthetic_span_nest():
    spans = tracing.Spans.empty()
    root = spans.add("cli", 0.0, 10.0, -1, 0)
    a = spans.add("lie.weight_tensor", 1.0, 4.0, root, 0)
    spans.add("linalg.commutator", 2.0, 3.0, a, 0)
    spans.add("lie.weight_tensor", 5.0, 9.0, root, 0)
    spans.add("cli", 20.0, 21.5, -1, 1)
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    assert tracing.summarize(spans) == {
        "cli": (2, 4.5), "lie.weight_tensor": (2, 6.0), "linalg.commutator": (1, 1.0)}
    assert tracing.child_count(spans, "linalg.commutator", "lie.weight_tensor") == 1
    assert tracing.child_count(spans, "linalg.commutator", "cli") == 0
    assert tracing.calls_by_job(spans) == {
        0: {"cli": 1, "lie.weight_tensor": 2, "linalg.commutator": 1}, 1: {"cli": 1}}


def test_tracer_wraps_every_namespace_and_restores(tmp_path, capsys):
    original = chordweight.curvature.holonomy_algebra
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(chordweight.curvature.model_to_json_dict(
        constant_curvature(3))))
    tracer = tracing.Tracer()
    with tracer:
        assert chordweight.cli.holonomy_algebra is chordweight.curvature.holonomy_algebra
        assert chordweight.cli.holonomy_algebra is not original
        tracer.job = 0
        assert chordweight.cli.main(["holonomy", "--curvature", str(path)]) == 0
    assert chordweight.curvature.holonomy_algebra is original
    assert chordweight.cli.holonomy_algebra is original
    capsys.readouterr()
    m = tracer.layer_metrics()
    assert m["cli.calls"] == 1
    assert m["curvature.holonomy_algebra.calls"] >= 1
    assert m["curvature.holonomy_algebra.self_s"] > 0
    assert set(tracer.spans.job) == {0}
    assert tracer.spans.parent[0] == -1 and min(tracer.spans.parent[1:]) >= 0


def test_tracer_counts_enumeration_and_rank():
    tracer = tracing.Tracer()
    with tracer:
        assert chordweight.diagram_space.quotient_dimension(3) == 3
    m = tracer.layer_metrics()
    assert m["diagrams.enumerate.yield"] == pytest.approx(5 / 15)
    assert m["linalg.sparse_rank.calls"] == 1
    assert m["linalg.sparse_rank.rank"] == 2
    assert m["diagram_space.four_term.keep_ratio"] <= 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (9, 0)
    assert run.tail(list(range(100))) == (90, 89)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = {name for name, _, _ in tracing.TARGETS}
    for metric, _ in run.PER_LAYER:
        layer = metric.rsplit(".", 1)[0]
        assert layer in names or metric.startswith(("cli.", "trace.", "tensors.input",
                                                    "diagram_space.four_term."))
