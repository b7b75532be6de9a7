"""Outside-in benchmark of the chordweight command line.

Run from the root of a checkout:

    python3 bench/run.py --workload algebra --seed 1 --seconds 15 --trace 0

One client runs the workload's jobs one after another, each as a fresh
`chordweight` process (closed loop, concurrency 1), and checks every exit
code and stdout.  With ``--trace 0`` it repeats the whole job list until
``--seconds`` have passed and reports the end-to-end metrics; with
``--trace 1`` it runs the list once as processes and once in-process under
the span tracer, and reports the per-layer metrics.  The last stdout line
is one JSON object: correct, attempted, failed and metrics.  Details of the
run (inputs, samples, every job) go to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
# what the installed `chordweight` console script runs
ENTRY = "import sys; from chordweight.cli import main; sys.exit(main())"
SETUP_PROBES = 9
JOB_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

SUBCOMMANDS = ("dims", "check", "holonomy", "realize", "eval", "yamada")

PER_LAYER = (
    ("diagrams.canonicalize.calls", "count"),
    ("diagrams.canonicalize.self_s", "s"),
    ("diagrams.enumerate.calls", "count"),
    ("diagrams.enumerate.self_s", "s"),
    ("diagrams.enumerate.yield", "ratio"),
    ("diagram_space.four_term_vector.calls", "count"),
    ("diagram_space.four_term_vector.self_s", "s"),
    ("diagram_space.four_term_relations.self_s", "s"),
    ("diagram_space.four_term_relations.kept", "count"),
    ("diagram_space.four_term.keep_ratio", "ratio"),
    ("formal.add.calls", "count"),
    ("formal.add.self_s", "s"),
    ("linalg.sparse_rank.calls", "count"),
    ("linalg.sparse_rank.self_s", "s"),
    ("linalg.sparse_rank.rows", "count"),
    ("linalg.sparse_rank.nnz", "count"),
    ("linalg.sparse_rank.rank", "count"),
    ("linalg.sparse_rank.rank_ratio", "ratio"),
    ("linalg.solve_in_span.calls", "count"),
    ("linalg.solve_in_span.self_s", "s"),
    ("linalg.commutator.calls", "count"),
    ("tensors.check_four_term.self_s", "s"),
    ("tensors.validate_symmetry.self_s", "s"),
    ("tensors.evaluate.calls", "count"),
    ("tensors.evaluate.self_s", "s"),
    ("tensors.evaluate.repeat_ratio", "ratio"),
    ("tensors.input.density", "ratio"),
    ("lie.algebra_validate.calls", "count"),
    ("lie.algebra_validate.self_s", "s"),
    ("lie.rep_validate.self_s", "s"),
    ("lie.weight_tensor.calls", "count"),
    ("lie.weight_tensor.self_s", "s"),
    ("lie.structure_tensor.self_s", "s"),
    ("lie.exchange_identity.self_s", "s"),
    ("curvature.model_validate.calls", "count"),
    ("curvature.model_validate.self_s", "s"),
    ("curvature.parallel_four_term.calls", "count"),
    ("curvature.parallel_four_term.self_s", "s"),
    ("curvature.holonomy_algebra.calls", "count"),
    ("curvature.holonomy_algebra.self_s", "s"),
    ("curvature.symmetric_triple.calls", "count"),
    ("curvature.symmetric_triple.self_s", "s"),
    ("curvature.triple_validate.self_s", "s"),
    ("curvature.verify_lie_type.self_s", "s"),
    ("curvature.so_isomorphism.self_s", "s"),
    ("curvature.symmetries.self_s", "s"),
    ("curvature.weight_tensor.self_s", "s"),
    ("yamada.weight.calls", "count"),
    ("yamada.weight.self_s", "s"),
    ("diagrams.smooth_components.calls", "count"),
    ("diagrams.smooth_components.self_s", "s"),
    ("jsonio.load.self_s", "s"),
    ("cli.self_s", "s"),
    *((f"cli.{sub}.wall_s", "s") for sub in SUBCOMMANDS),
    ("trace.overhead_ratio", "ratio"),
)


@dataclass(frozen=True)
class JobRun:
    """One finished job: what it printed and what it cost."""

    argv: tuple
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    maxrss_mb: float


def run_job(argv, env, workdir: Path) -> JobRun:
    """Run one CLI process to completion and reap it with its own rusage."""
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return JobRun(tuple(argv), wall, proc.returncode,
                      out.read().decode("utf-8", "replace"),
                      err.read().decode("utf-8", "replace"),
                      usage.ru_maxrss / 1024)


def run_pass(jobs, env, workdir: Path):
    """The whole job list once; returns (runs, wall seconds, child CPU seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    runs = [run_job(job.argv, env, workdir) for job in jobs]
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return runs, wall, cpu


def run_traced(jobs, tracer):
    """The job list in-process through chordweight.cli.main, under the tracer."""
    import chordweight.cli as cli

    results = []
    with tracer:
        for i, job in enumerate(jobs):
            tracer.job = i
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(list(job.argv))
                except SystemExit as exc:
                    code = exc.code
            results.append((code, out.getvalue()))
    return results


def tail(samples):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chordweight" / "__init__.py").is_file():
        print(f"error: no chordweight sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chordweight
    import jobs as workloads

    if Path(chordweight.__file__).resolve().parent != (SRC / "chordweight").resolve():
        print(f"error: imported chordweight from {chordweight.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # Children may write bytecode caches, as an installed package has them:
    # set-up then times importing the package, not compiling it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        return measure(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, env, workdir: Path) -> int:
    import jobs as workloads
    from tracing import Tracer, calls_by_job

    began = time.perf_counter()
    job_list, manifest = workloads.build(args.workload, args.seed, workdir)
    runs = []       # (JobRun, ok)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "inputs": manifest,
    }

    setup_job = workloads.Job(workloads.SETUP_ARGV, stdout=workloads.SETUP_STDOUT)
    run_job(setup_job.argv, env, workdir)   # warm the bytecode cache; not timed
    setup = []
    for _ in range(SETUP_PROBES):
        r = run_job(setup_job.argv, env, workdir)
        runs.append((r, workloads.check_job(setup_job, r.exit_code, r.stdout)))
        setup.append(r.wall_s)
    setup_s = statistics.median(setup)
    details["setup_s_samples"] = setup

    passes = []
    start = time.perf_counter()
    while not passes or (not args.trace and time.perf_counter() - start < args.seconds):
        pass_runs, wall, cpu = run_pass(job_list, env, workdir)
        verdicts = workloads.check_jobs(
            job_list, [(r.exit_code, r.stdout) for r in pass_runs])
        runs += zip(pass_runs, verdicts)
        passes.append({"wall_s": wall, "cpu_s": cpu,
                       "failed": verdicts.count(False)})
        print(f"pass {len(passes)}: {wall:.2f} s wall, {cpu:.2f} s cpu, "
              f"{verdicts.count(False)} of {len(job_list)} jobs failed", file=sys.stderr)
    details["passes"] = passes
    walls = [p["wall_s"] for p in passes]
    details["wall_s_tail"] = tail(walls)

    if args.trace:
        untraced = runs[SETUP_PROBES:]
        tracer = Tracer()
        traced = run_traced(job_list, tracer)
        verdicts = workloads.check_jobs(job_list, traced)
        attempted = len(runs) + len(traced)
        failed = sum(not ok for _, ok in runs) + verdicts.count(False)
        metrics = tracer.layer_metrics()
        for sub in SUBCOMMANDS:
            times = [r.wall_s for r, _ in untraced if r.argv[0] == sub]
            metrics[f"cli.{sub}.wall_s"] = statistics.median(times) if times else 0.0
        traced_total = sum(end - begin for end, begin, parent in zip(
            tracer.spans.end, tracer.spans.start, tracer.spans.parent) if parent < 0)
        metrics["trace.overhead_ratio"] = traced_total / sum(
            r.wall_s - setup_s for r, _ in untraced)
        units = dict(PER_LAYER)
        RESULTS.mkdir(exist_ok=True)
        with gzip.open(RESULTS / f"spans-{args.workload}.tsv.gz", "wt",
                       compresslevel=1) as fh:
            tracer.spans.write_tsv(fh)
        details["traced_failed"] = [list(job_list[i].argv)
                                    for i, ok in enumerate(verdicts) if not ok]
        details["traced_calls"] = calls_by_job(tracer.spans)
    else:
        attempted = len(runs)
        failed = sum(not ok for _, ok in runs)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": max(r.maxrss_mb for r, _ in runs),
            "setup_s": setup_s,
        }
        units = dict(END_TO_END)

    details["jobs"] = [{"argv": list(r.argv), "wall_s": r.wall_s, "exit": r.exit_code,
                        "ok": ok, "maxrss_mb": r.maxrss_mb,
                        **({} if ok else {"stdout": r.stdout, "stderr": r.stderr})}
                       for r, ok in runs]
    details["metrics"] = metrics
    details["elapsed_s"] = time.perf_counter() - began
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
