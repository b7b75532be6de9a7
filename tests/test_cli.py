"""End-to-end command-line behaviour: output, formats, exit codes."""

import hashlib
import json
import os
import random
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chordweight
import models
from chordweight import (
    ChordDiagram,
    WeightTensor,
    constant_curvature,
    sl2_standard,
    so_standard,
)
from chordweight import acceptance
from chordweight.cli import main
from chordweight.curvature import model_to_json_dict
from chordweight.lie import representation_to_json_dict
from chordweight.tensors import DEFAULT_MAX_WORK, contraction_plan


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_on_a_zero_tensor_of_dimension_12_is_fast(tmp_path):
    """A 26-byte input must not cost d^7: one fresh process, under 1 s."""
    path = write_json(tmp_path / "zero12.json", {"dim": 12, "entries": []})
    env = dict(os.environ, PYTHONPATH=str(Path(chordweight.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "chordweight.cli", "check", "--tensor", path],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (
        0, "leg-symmetry: pass\nfour-term: pass\n")
    assert elapsed < 1


def test_eval_of_the_8_chord_crossing_on_a_5_sphere_is_fast(tmp_path):
    """Contraction width, not chord count, sets the cost: one process, under 1 s."""
    path = write_json(tmp_path / "sphere5.json",
                      model_to_json_dict(constant_curvature(5)))
    env = dict(os.environ, PYTHONPATH=str(Path(chordweight.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "chordweight.cli", "eval", "--curvature", path,
         "--diagram", "ABCDEFGHABCDEFGH"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, "65540\n")
    assert elapsed < 1


def run_cli(*argv):
    """The CLI in a fresh process: (completed process, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(Path(chordweight.__file__).parents[1]))
    env.pop("CHORDWEIGHT_MAX_WORK", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "chordweight.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc, time.perf_counter() - start


def test_importing_the_cli_skips_dataclasses_inspect_and_csv():
    """Nor does it load the acceptance suite, which only verify runs."""
    env = dict(os.environ, PYTHONPATH=str(Path(chordweight.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chordweight.cli; print(sorted("
         "{'dataclasses', 'inspect', 'csv', 'chordweight.acceptance'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_eval_refuses_a_wide_contraction_at_once(tmp_path):
    labels = list(string.ascii_uppercase[:20]) * 2
    random.Random(20).shuffle(labels)
    code = "".join(labels)
    cost = contraction_plan(ChordDiagram.from_code(code)).cost(4)
    assert cost > DEFAULT_MAX_WORK
    so4 = write_json(tmp_path / "so4.json",
                     so_standard(4).weight_tensor().to_json_dict())
    proc, elapsed = run_cli("eval", "--tensor", so4, "--diagram", code)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: contraction needs sum over steps of d^(arcs touched) = {cost} "
        "products, limit is 10000000\n")
    assert elapsed < 1


@pytest.mark.parametrize("kind", ["tensor", "curvature"])
def test_check_refuses_a_dense_load_of_dimension_200_at_once(tmp_path, kind):
    doc = ({"dim": 200, "entries": []} if kind == "tensor"
           else {"dim": 200, "metric": [], "R": []})
    path = write_json(tmp_path / "wide.json", doc)
    proc, elapsed = run_cli("check", f"--{kind}", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        "dimension 200 needs dim^4 = 1600000000 entries, limit is 10000000\n")
    assert elapsed < 1


def test_check_refuses_the_four_term_sum_of_a_dense_12_sphere_at_once(tmp_path):
    """A 12-sphere in a dense unimodular basis: 20,164 nonzero weight-tensor
    entries, whose four-term sum needs 135,527,440 nonzero products."""
    P = models.dense_unimodular(12, random.Random(2))
    metric = [[sum(P[k][i] * P[k][j] for k in range(12)) for j in range(12)]
              for i in range(12)]
    tensor = constant_curvature(12, metric).weight_tensor()
    assert len(tensor.entries) == 20164
    path = write_json(tmp_path / "sphere12-dense.json", tensor.to_json_dict())
    proc, elapsed = run_cli("check", "--tensor", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the four-term check needs 135527440 products of "
                           "nonzero entries, limit is 10000000\n")
    assert elapsed < 1


@pytest.mark.parametrize("doc, needs", [
    ({"dim": 220, "brackets": [],
      "form": [[int(i == j) for j in range(220)] for i in range(220)],
      "dimV": 1, "matrices": [[[0]]] * 220},
     "a bracket table of dimension 220 needs dim^3 = 10648000 entries"),
    ({"dim": 1, "brackets": [], "form": [[1]],
      "dimV": 60, "matrices": [[[0] * 60] * 60]},
     "the dense weight tensor of a module of dimension 60 needs "
     "dimV^4 = 12960000 entries"),
], ids=["m220", "dimV60"])
def test_check_refuses_a_large_lie_load_at_once(tmp_path, doc, needs):
    """Abelian inputs, valid but for their size: refused before any allocation."""
    path = write_json(tmp_path / "wide.json", doc)
    proc, elapsed = run_cli("check", "--lie", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {needs}, limit is 10000000\n"
    assert elapsed < 1


# Runs the CLI as its only child, so RUSAGE_CHILDREN reads that process alone.
MEASURE = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.run([sys.executable, "-m", "chordweight.cli", *sys.argv[1:]],
                      capture_output=True, text=True)
print(json.dumps([proc.returncode, proc.stdout, proc.stderr,
                  time.perf_counter() - start,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]))
"""


CHECK_CURVATURE_PASS = "curvature-model: pass\nparallel-four-term: pass\nfour-term: pass\n"
CHECK_LIE_PASS = ("metrized-algebra: pass\nrepresentation: pass\nleg-symmetry: pass\n"
                  "four-term: pass\nexchange-identity: pass\n")


def run_cli_measured(*argv):
    """The CLI in a fresh process: (exit code, stdout, stderr, wall s, peak MB)."""
    env = dict(os.environ, PYTHONPATH=str(Path(chordweight.__file__).parents[1]))
    env.pop("CHORDWEIGHT_MAX_WORK", None)
    proc = subprocess.run([sys.executable, "-c", MEASURE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("kind, doc, passes", [
    ("tensor", {"dim": 40, "entries": []}, ["leg-symmetry", "four-term"]),
    ("lie", {"dim": 1, "brackets": [], "form": [[1]],
             "dimV": 40, "matrices": [[[0] * 40] * 40]},
     ["metrized-algebra", "representation", "leg-symmetry", "four-term",
      "exchange-identity"]),
], ids=["tensor40", "lie-dimV40"])
def test_check_of_an_all_zero_input_of_dimension_40_is_small(tmp_path, kind, doc,
                                                             passes):
    """Nothing the size of d^4 is built for a tensor with no nonzero entries."""
    path = write_json(tmp_path / "zero40.json", doc)
    code, out, err, elapsed, peak_mb = run_cli_measured("check", f"--{kind}", path)
    assert (code, out, err) == (0, "".join(f"{name}: pass\n" for name in passes), "")
    assert elapsed < 1
    assert peak_mb < 100


def flat_model_40(tmp_path):
    return write_json(tmp_path / "flat40.json", {
        "dim": 40, "metric": [[int(i == j) for j in range(40)] for i in range(40)],
        "R": []})


def test_check_of_a_flat_model_of_dimension_40_is_small(tmp_path):
    """Only the nonzero curvature entries are stored: no d^4 array is built."""
    code, out, err, elapsed, peak_mb = run_cli_measured(
        "check", "--curvature", flat_model_40(tmp_path))
    assert (code, out, err) == (0, CHECK_CURVATURE_PASS, "")
    assert elapsed < 1
    assert peak_mb < 64


def test_holonomy_of_a_flat_model_of_dimension_40_is_refused_at_once(tmp_path):
    code, out, err, elapsed, _ = run_cli_measured(
        "holonomy", "--curvature", flat_model_40(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: the holonomy algebra of a curvature model of dimension 40 "
                   "needs pairs^2 * d^3 = 38937600000 steps, limit is 10000000\n")
    assert elapsed < 1


def test_check_of_an_abelian_algebra_of_dimension_200_is_small(tmp_path):
    """Only the nonzero structure constants are stored: no m^3 array is built."""
    path = write_json(tmp_path / "abelian200.json", {
        "dim": 200, "brackets": [],
        "form": [[int(i == j) for j in range(200)] for i in range(200)],
        "dimV": 1, "matrices": [[[0]]] * 200})
    code, out, err, elapsed, peak_mb = run_cli_measured("check", "--lie", path)
    assert (code, out, err) == (0, CHECK_LIE_PASS, "")
    assert elapsed < 3
    assert peak_mb < 64


@pytest.mark.parametrize("field", ["dim", "a", "b", "c", "d"])
def test_tensor_files_reject_booleans(tmp_path, capsys, field):
    item = {"a": 0, "b": 0, "c": 0, "d": 0, "value": "1"}
    doc = {"dim": 1, "entries": [item]}
    path = write_json(tmp_path / "ok.json", doc)
    assert run(capsys, "check", "--tensor", path)[0] == 0
    if field == "dim":
        doc["dim"] = True
    else:
        item[field] = False
    path = write_json(tmp_path / "bool.json", doc)
    code, out, err = run(capsys, "check", "--tensor", path)
    where = "dim" if field == "dim" else f"entries[0].{field}"
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: ")


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["AABB", "ABAB"]
    code, out, _ = run(capsys, "enumerate", "--n", "0")
    assert code == 0
    assert out.splitlines() == ["(empty)"]


def test_enumerate_json_and_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert len(payload["codes"]) == 5
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--format", "csv")
    assert out.splitlines() == ["code", "AA"]


def test_dims_table(capsys):
    code, out, _ = run(capsys, "dims", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 1", "2 2", "3 3", "4 6"]
    code, out, _ = run(capsys, "dims", "--max-n", "4", "--unframed")
    assert out.splitlines() == ["0 1", "1 0", "2 1", "3 1", "4 3"]


def test_dims_rejects_degrees_outside_the_enumeration_cap(capsys):
    code, out, err = run(capsys, "dims", "--max-n", "-1")
    assert (code, out) == (2, "")
    assert "--max-n" in err
    start = time.perf_counter()
    code, out, err = run(capsys, "dims", "--max-n", "9")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "0..8" in err


@pytest.mark.parametrize("argv", [["dims", "--max-n", "8"],
                                  ["dims", "--max-n", "8", "--unframed"],
                                  ["enumerate", "--n", "8"]])
def test_degree_8_is_refused_at_once(argv):
    """Degree 8 is over the default budget; `dims` refuses before degree 0."""
    proc, elapsed = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: degree 8 needs about (2n-1)!!/(2n) classes x "
                           "(2n)^2 = 32432400 steps, limit is 10000000\n")
    assert elapsed < 1


PINNED = Path(__file__).parent / "pinned"


@pytest.mark.parametrize("name,argv", [
    ("enumerate-n-5.txt", ["enumerate", "--n", "5"]),
    ("dims-max-n-6.txt", ["dims", "--max-n", "6"]),
    ("dims-max-n-6-unframed.txt", ["dims", "--max-n", "6", "--unframed"]),
    ("holonomy-cp2.txt", ["holonomy", "--curvature", str(PINNED / "cp2.json")]),
    ("holonomy-cp2.json", ["holonomy", "--curvature", str(PINNED / "cp2.json"),
                           "--format", "json"]),
    ("holonomy-sphere5.txt", ["holonomy", "--curvature", str(PINNED / "sphere5.json")]),
    ("holonomy-sphere5.json", ["holonomy", "--curvature", str(PINNED / "sphere5.json"),
                               "--format", "json"]),
] + [
    (f"{name}.{ext}", [*argv, "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"))
    for name, argv in (
        ("check-lie-so4-dense", ["check", "--lie", str(PINNED / "so4-dense.json")]),
        ("check-curvature-lorentz4-dense",
         ["check", "--curvature", str(PINNED / "lorentz4-dense.json")]),
        ("realize-so3", ["realize", "--lie", str(PINNED / "so3.json"),
                         "--form", str(PINNED / "eye3.json")]),
        ("realize-so4-dense", ["realize", "--lie", str(PINNED / "so4-dense.json"),
                               "--form", str(PINNED / "so4-dense-form.json")]),
        ("realize-sl2-fail-skew", ["realize", "--lie", str(PINNED / "sl2.json"),
                                   "--form", str(PINNED / "omega.json")]),
        ("realize-so3-doubled-fail-bianchi",
         ["realize", "--lie", str(PINNED / "so3-doubled.json"),
          "--form", str(PINNED / "eye6.json")]),
    )
] + [
    (f"{name}.{ext}", [*argv, "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"))
    for name, argv in (
        ("check-tensor-so4-dense",
         ["check", "--tensor", str(PINNED / "so4-dense-tensor.json")]),
        ("check-tensor-fail-mixed",
         ["check", "--tensor", str(PINNED / "mixed-fail-tensor.json")]),
        ("eval-so4-dense-crossing6",
         ["eval", "--tensor", str(PINNED / "so4-dense-tensor.json"),
          "--diagram", "ABCDEFABCDEF"]),
    )
] + [
    (f"holonomy-lorentz4-dense.{ext}",
     ["holonomy", "--curvature", str(PINNED / "lorentz4-dense.json"), "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"))
] + [
    ("holonomy-sphere12.txt", ["holonomy", "--curvature", str(PINNED / "sphere12.json")]),
] + [
    (f"check-curvature-fail-kn3-dense.{ext}",
     ["check", "--curvature", str(PINNED / "kn3-dense.json"), "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"))
] + [
    (f"{name}.{ext}", [*argv, "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"))
    for name, argv in (
        ("eval-lie-so4-dense-crossing8",
         ["eval", "--lie", str(PINNED / "so4-dense.json"),
          "--diagram", "ABCDEFGHABCDEFGH"]),
        ("eval-curvature-lorentz4-dense-ladder13",
         ["eval", "--curvature", str(PINNED / "lorentz4-dense.json"),
          "--diagram", "ABACBDCEDFEGFHGIHJIKJLKMLM"]),
    )
] + [
    (f"check-curvature-fail-{name}.{ext}",
     ["check", "--curvature", str(PINNED / f"{model}.json"), "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"), ("csv", "csv"))
    for name, model in (("bianchi", "bianchi-violating"),
                        ("degenerate", "degenerate-metric"))
] + [
    (f"realize-abelian2-note.{ext}",
     ["realize", "--lie", str(PINNED / "abelian2.json"),
      "--form", str(PINNED / "nonsymmetric-form.json"), "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"))
] + [
    (f"{name}.{fmt}", [*argv, "--format", fmt])
    for fmt in ("json", "csv")
    for name, argv in (
        ("enumerate-n-4", ["enumerate", "--n", "4"]),
        ("dims-max-n-6", ["dims", "--max-n", "6"]),
        ("dims-max-n-6-unframed", ["dims", "--max-n", "6", "--unframed"]),
    )
] + [
    (f"{name}.csv", [*argv, "--format", "csv"])
    for name, argv in (
        ("eval-so4-dense-crossing6",
         ["eval", "--tensor", str(PINNED / "so4-dense-tensor.json"),
          "--diagram", "ABCDEFABCDEF"]),
        ("eval-lie-so4-dense-crossing8",
         ["eval", "--lie", str(PINNED / "so4-dense.json"),
          "--diagram", "ABCDEFGHABCDEFGH"]),
        ("eval-curvature-lorentz4-dense-ladder13",
         ["eval", "--curvature", str(PINNED / "lorentz4-dense.json"),
          "--diagram", "ABACBDCEDFEGFHGIHJIKJLKMLM"]),
        ("check-tensor-so4-dense",
         ["check", "--tensor", str(PINNED / "so4-dense-tensor.json")]),
        ("check-tensor-fail-mixed",
         ["check", "--tensor", str(PINNED / "mixed-fail-tensor.json")]),
        ("check-lie-so4-dense", ["check", "--lie", str(PINNED / "so4-dense.json")]),
        ("check-curvature-lorentz4-dense",
         ["check", "--curvature", str(PINNED / "lorentz4-dense.json")]),
        ("check-curvature-fail-kn3-dense",
         ["check", "--curvature", str(PINNED / "kn3-dense.json")]),
    )
] + [
    (f"yamada-abcabc-n-5-2.{ext}",
     ["yamada", "--diagram", "ABCABC", "--N", "5/2", "--format", fmt])
    for ext, fmt in (("txt", "text"), ("json", "json"), ("csv", "csv"))
] + [
    # valid but not parallel: the model checks inside holonomy refuse it
    ("holonomy-fail-kn3-dense.stderr",
     ["holonomy", "--curvature", str(PINNED / "kn3-dense.json")]),
])
def test_output_matches_pinned_text(capsys, name, argv):
    """A failing verdict, named -fail- in its file, exits 1; a .stderr file
    pins stderr, with nothing on stdout."""
    code, out, err = run(capsys, *argv)
    expected = (PINNED / name).read_text(encoding="utf-8")
    streams = ("", expected) if name.endswith(".stderr") else (expected, "")
    assert (code, out, err) == (int("-fail-" in name), *streams)


@pytest.mark.parametrize("name,model", [("bianchi", "bianchi-violating"),
                                        ("degenerate", "degenerate-metric")])
def test_invalid_curvature_models_are_named_on_stderr(capsys, monkeypatch, name, model):
    """holonomy exits 1 and eval exits 2, naming the failed check and its witness."""
    monkeypatch.chdir(PINNED.parents[1])
    path = f"tests/pinned/{model}.json"
    for command, argv, code in (("holonomy", ["holonomy", "--curvature", path], 1),
                                ("eval", ["eval", "--curvature", path,
                                          "--diagram", "ABAB"], 2)):
        expected = (PINNED / f"{command}-fail-{name}.stderr").read_text(encoding="utf-8")
        assert run(capsys, *argv) == (code, "", expected)


# Runs the CLI as its only child: RUSAGE_CHILDREN gives its CPU seconds and peak.
MEASURE_USAGE = """
import json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "chordweight.cli", *sys.argv[1:]],
                      capture_output=True, text=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps([proc.returncode, proc.stdout, proc.stderr,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024]))
"""


def test_holonomy_of_a_12_sphere_is_fast_and_small():
    """66 generators, a 78-dimensional triple: only nonzero brackets are stored."""
    env = dict(os.environ, PYTHONPATH=str(Path(chordweight.__file__).parents[1]))
    env.pop("CHORDWEIGHT_MAX_WORK", None)
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE_USAGE, "holonomy", "--curvature",
         str(PINNED / "sphere12.json"), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60)
    code, out, err, cpu_s, peak_mb = json.loads(proc.stdout)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        PINNED / "holonomy-sphere12.json.sha256").read_text().strip()
    assert cpu_s < 0.7
    assert peak_mb < 30


@pytest.mark.parametrize("argv", [
    ["check", "--lie", str(PINNED / "so4-dense.json")],
    ["realize", "--lie", str(PINNED / "so4-dense.json"),
     "--form", str(PINNED / "so4-dense-form.json")],
], ids=["check-lie", "realize"])
def test_rho_c_is_built_once_per_command(capsys, monkeypatch, argv):
    builds = []

    def counted(dim, nonzero):
        builds.append(dim)
        return WeightTensor(dim, nonzero)

    monkeypatch.setattr(chordweight.lie, "WeightTensor", counted)
    assert run(capsys, *argv)[0] == 0
    assert builds == [4]


def test_rho_c_is_lowered_once_per_realize(capsys, monkeypatch):
    """curvature_symmetries and triple_from_rep share one lowering of rho(C)."""
    lowerings = []
    lower = chordweight.curvature._lowered_casimir

    def counted(rep, form):
        lowerings.append(rep.dimV)
        return lower(rep, form)

    monkeypatch.setattr(chordweight.curvature, "_lowered_casimir", counted)
    assert run(capsys, "realize", "--lie", str(PINNED / "so4-dense.json"),
               "--form", str(PINNED / "so4-dense-form.json"))[0] == 0
    assert lowerings == [4]


def test_holonomy_of_a_7_sphere_is_fast(tmp_path):
    """21 generator pairs, 441 pairs of pairs: one process, under 1 s."""
    path = write_json(tmp_path / "sphere7.json",
                      model_to_json_dict(constant_curvature(7)))
    proc, elapsed = run_cli("holonomy", "--curvature", path)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-3:] == [
        "triple: dim 28 = 21 + 7, valid: yes",
        "isomorphic to so7: yes",
        "rho(C_h) == Hhat: yes",
    ]
    assert elapsed < 1


def test_holonomy_refuses_a_16_dimensional_space_form_at_once(tmp_path):
    """The loader admits dim^4 = 65536; holonomy's pairs^2 * d^3 is over the bound."""
    path = write_json(tmp_path / "sphere16.json",
                      model_to_json_dict(constant_curvature(16)))
    proc, elapsed = run_cli("holonomy", "--curvature", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: the holonomy algebra of a curvature model of dimension 16 needs "
        "pairs^2 * d^3 = 58982400 steps, limit is 10000000\n")
    assert elapsed < 1


def test_dims_json(capsys):
    code, out, _ = run(capsys, "dims", "--max-n", "1", "--format", "json")
    assert json.loads(out) == [
        {"n": 0, "kind": "framed", "dimension": 1},
        {"n": 1, "kind": "framed", "dimension": 1},
    ]


def test_yamada_values(capsys):
    code, out, _ = run(capsys, "yamada", "--diagram", "AA")
    assert (code, out.strip()) == (0, "6")
    code, out, _ = run(capsys, "yamada", "--diagram", "AABB", "--N", "3")
    assert out.strip() == "12"
    code, out, _ = run(capsys, "yamada", "--diagram", "AA", "--N", "7/2")
    assert out.strip() == "35/4"
    code, out, _ = run(capsys, "yamada", "--diagram", "AA", "--format", "json")
    assert json.loads(out) == {"diagram": "AA", "value": "6"}


def test_yamada_bad_arguments(capsys):
    code, _, err = run(capsys, "yamada", "--diagram", "ABA")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "yamada", "--diagram", "AA", "--N", "x")
    assert code == 2


def run_yamada(code, max_work=None):
    """`yamada` in a fresh process; CHORDWEIGHT_MAX_WORK unset unless given."""
    env = dict(os.environ, PYTHONPATH=str(Path(chordweight.__file__).parents[1]))
    env.pop("CHORDWEIGHT_MAX_WORK", None)
    if max_work is not None:
        env["CHORDWEIGHT_MAX_WORK"] = str(max_work)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "chordweight.cli", "yamada", "--diagram", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return proc, time.perf_counter() - start


def test_yamada_refuses_a_30_chord_state_sum_at_once():
    labels = string.ascii_uppercase + string.ascii_lowercase[:4]
    proc, elapsed = run_yamada(labels + labels)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: state sum needs 2^n = 1073741824 smoothings, "
                           "limit is 10000000\n")
    assert elapsed < 1


def test_yamada_budget_follows_the_work_variable():
    proc, _ = run_yamada("ABCDEFGABCDEFG", max_work=100)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "2^n = 128 smoothings, limit is 100" in proc.stderr
    proc, _ = run_yamada("ABCDEFABCDEF", max_work=100)
    assert (proc.returncode, proc.stdout) == (0, "66\n")


def test_eval_tensor_file(tmp_path, capsys):
    path = write_json(tmp_path / "id2.json", WeightTensor.identity(2).to_json_dict())
    code, out, _ = run(capsys, "eval", "--tensor", path, "--diagram", "ABAB")
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run(capsys, "eval", "--tensor", path, "--diagram", "ABAB",
                       "--naive")
    assert (code, out.strip()) == (0, "2")


def test_eval_lie_and_curvature(tmp_path, capsys):
    lie = write_json(tmp_path / "sl2.json",
                     representation_to_json_dict(sl2_standard()))
    code, out, _ = run(capsys, "eval", "--lie", lie, "--diagram", "AA")
    assert (code, out.strip()) == (0, "3")
    sphere = write_json(tmp_path / "s3.json",
                        model_to_json_dict(constant_curvature(3)))
    code, out, _ = run(capsys, "eval", "--curvature", sphere, "--diagram", "AA")
    assert (code, out.strip()) == (0, "6")


def test_check_passing_inputs(tmp_path, capsys):
    lie = write_json(tmp_path / "so3.json",
                     representation_to_json_dict(so_standard(3)))
    code, out, _ = run(capsys, "check", "--lie", lie)
    assert code == 0
    lines = out.splitlines()
    assert "metrized-algebra: pass" in lines
    assert "exchange-identity: pass" in lines


def test_check_failing_tensor(tmp_path, capsys):
    doc = {"dim": 2, "entries": [
        {"a": 0, "b": 0, "c": 0, "d": 1, "value": "1"},
    ]}
    path = write_json(tmp_path / "bad.json", doc)
    code, out, _ = run(capsys, "check", "--tensor", path)
    assert code == 1
    assert "four-term: fail at (0, 1, 0, 1, 0, 0)" in out
    code, out, _ = run(capsys, "check", "--tensor", path, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False


def test_check_invalid_curvature_model(tmp_path, capsys):
    doc = model_to_json_dict(constant_curvature(2))
    doc["metric"] = [["1", "1"], ["0", "1"]]
    path = write_json(tmp_path / "lopsided.json", doc)
    code, out, _ = run(capsys, "check", "--curvature", path)
    assert code == 1
    assert "curvature-model: fail" in out


def test_holonomy_report(tmp_path, capsys):
    sphere = write_json(tmp_path / "s3.json",
                        model_to_json_dict(constant_curvature(3)))
    code, out, _ = run(capsys, "holonomy", "--curvature", sphere)
    assert code == 0
    assert "dim_h=3" in out
    assert "isomorphic to so3: yes" in out
    assert "rho(C_h) == Hhat: yes" in out
    code, out, _ = run(capsys, "holonomy", "--curvature", sphere,
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_h"] == 3
    assert payload["so_isomorphic"] is True
    assert payload["casimir_matches"] is True
    assert payload["triple"]["involution"] == [1, 1, 1, -1, -1, -1]


def test_holonomy_json_formats_no_text_line(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a JSON run formatted text")

    monkeypatch.setattr(chordweight.cli, "_bracket_lines", refuse)
    monkeypatch.setattr(chordweight.cli, "_matrix_lines", refuse)
    expected = (PINNED / "holonomy-cp2.json").read_text(encoding="utf-8")
    assert run(capsys, "holonomy", "--curvature", str(PINNED / "cp2.json"),
               "--format", "json") == (0, expected, "")


def test_realize_verdicts(tmp_path, capsys):
    so3 = write_json(tmp_path / "so3.json",
                     representation_to_json_dict(so_standard(3)))
    eye = write_json(tmp_path / "eye.json",
                     [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    code, out, _ = run(capsys, "realize", "--lie", so3, "--form", eye)
    assert code == 0
    assert "verdict: pass" in out
    assert "triple: dim 6 = 3 + 3" in out
    sl2 = write_json(tmp_path / "sl2.json",
                     representation_to_json_dict(sl2_standard()))
    omega = write_json(tmp_path / "omega.json", [["0", "1"], ["-1", "0"]])
    code, out, _ = run(capsys, "realize", "--lie", sl2, "--form", omega)
    assert code == 1
    assert "verdict: fail(skew) at (0, 0, 1, 1)" in out


def test_verify_passes_criterion_5(capsys, monkeypatch):
    criteria = tuple(c for c in acceptance.CRITERIA if c[0] == 5)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines() == [
        "criterion 5 (realizability of representations): PASS - so3 passes "
        "and round-trips exactly; sl2 with the symplectic form fails skew at "
        "(0, 0, 1, 1); so3 on R^3 + R^3 is skew but fails Bianchi at "
        "(0, 1, 3, 4)"
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_matches_pinned_formats(capsys, monkeypatch, fmt):
    """One criterion, so the suite is not rerun; the text is checked above."""
    criteria = tuple(c for c in acceptance.CRITERIA if c[0] == 5)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    expected = (PINNED / f"verify-criterion-5.{fmt}").read_text(encoding="utf-8")
    assert run(capsys, "verify", "--format", fmt) == (0, expected, "")


def test_holonomy_gives_both_reasons_when_the_triple_is_invalid(capsys, monkeypatch):
    """No known parallel model fails its triple, so the failure is forced."""
    monkeypatch.setattr(chordweight.curvature.SymmetricTriple, "validate",
                        lambda self: (False, "forced failure"))
    code, out, err = run(capsys, "holonomy", "--curvature", str(PINNED / "cp2.json"))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-5:] == [
        "triple: dim 8 = 4 + 4, valid: no",
        "  reason: forced failure",
        "isomorphic to so4: no",
        "rho(C_h) == Hhat: no",
        "  reason: symmetric triple invalid: forced failure",
    ]


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "--tensor", str(tmp_path / "nope.json"),
                       "--diagram", "AA")
    assert code == 2
    assert "error:" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--tensor", str(broken), "--diagram", "AA")
    assert code == 2
    assert "not valid JSON" in err


def test_json_field_path_in_errors(tmp_path, capsys):
    doc = {"dim": 2, "entries": [
        {"a": 5, "b": 0, "c": 0, "d": 0, "value": "1"},
    ]}
    path = write_json(tmp_path / "bad.json", doc)
    code, _, err = run(capsys, "check", "--tensor", path)
    assert code == 2
    assert "entries[0].a" in err
