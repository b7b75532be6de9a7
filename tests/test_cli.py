"""End-to-end command-line behaviour: output, formats, exit codes."""

import gc
import hashlib
import itertools
import json
import random
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import chordweight
import models
import oracles
from pins import PINNED, ROOT, ROUTES, ROWS, RUNS, child_env, fresh, mismatch, run
from chordweight import (
    ChordDiagram,
    Representation,
    WeightTensor,
    constant_curvature,
    sl2_standard,
    so_standard,
)
from chordweight import acceptance, cli, curvature
from chordweight.curvature import model_to_json_dict
from chordweight.jsonio import JSONFormatError, parse_rational
from chordweight.lie import representation_from_json_dict, representation_to_json_dict
from chordweight.sparse import IntegerView
from chordweight.tensors import contraction_plan
from chordweight.work import DEFAULT_MAX_WORK


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_check_on_a_zero_tensor_of_dimension_12_is_fast(tmp_path):
    """A 26-byte input must not cost d^7: one fresh process, under 1 s."""
    path = write_json(tmp_path / "zero12.json", {"dim": 12, "entries": []})
    code, out, _, wall_s, *_ = fresh("check", "--tensor", path)
    assert (code, out) == (0, "leg-symmetry: pass\nfour-term: pass\n")
    assert wall_s < 1


def test_eval_of_the_8_chord_crossing_on_a_5_sphere_is_fast(tmp_path):
    """Contraction width, not chord count, sets the cost: one process, under 1 s."""
    path = write_json(tmp_path / "sphere5.json",
                      model_to_json_dict(constant_curvature(5)))
    code, out, _, wall_s, *_ = fresh("eval", "--curvature", path, "--diagram", "ABCDEFGHABCDEFGH")
    assert (code, out) == (0, "65540\n")
    assert wall_s < 1


def test_importing_the_cli_skips_dataclasses_inspect_and_csv():
    """Nor json, typing or the acceptance suite, which only verify runs.

    The child runs with -S, so a site hook that preloads modules cannot
    hide an import.
    """
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, chordweight.cli; print(sorted("
         "{'dataclasses', 'inspect', 'csv', 'json', 'typing', 'chordweight.acceptance'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_a_well_formed_run_loads_no_argparse_gettext_or_locale():
    """The quick walk parses it; the child runs with -S, as above."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; from chordweight.cli import main; "
         "main(['yamada', '--N', '5', '--diagram', 'ABAB']); "
         "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "20\n[]\n")


def test_an_in_process_run_leaves_the_heap_unfrozen():
    """main(argv) runs inside its caller's process, so it must not freeze it."""
    before = gc.get_freeze_count()
    assert run("enumerate", "--n", "0") == (0, "(empty)\n", "")
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, code, out, err", [
    (["enumerate", "--n", "0"], 0, "(empty)\n", ""),
    (["eval", "--tensor", "missing.json", "--diagram", "AA"], 2, "", "error: cannot read"),
], ids=["enumerate", "eval-of-a-missing-file"])
def test_an_entry_run_freezes_the_start_up_heap(argv, code, out, err):
    """main() as the process entry freezes the heap and returns its exit code."""
    proc = subprocess.run(
        [sys.executable, "-c", "import gc, sys; from chordweight.cli import main; "
         "code = main(); print(gc.get_freeze_count()); sys.exit(code)", *argv],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout[:len(out)], proc.stderr[:len(err)]) == (code, out, err)
    assert int(proc.stdout[len(out):]) > 0  # the count printed after main() returned


# each subcommand's required options, with file names that are never read
REQUIRED = {
    "enumerate": ["--n", "1"],
    "dims": ["--max-n", "1"],
    "eval": ["--tensor", "t.json", "--diagram", "AA"],
    "check": ["--lie", "l.json"],
    "holonomy": ["--curvature", "c.json"],
    "realize": ["--lie", "l.json", "--form", "f.json"],
    "yamada": ["--diagram", "AA"],
    "verify": [],
}
USAGE_ARGVS = [
    [], ["--help"], ["-h"], ["bogus"], ["enum"], ["--version"],
    *([name, *argv] for name, required in REQUIRED.items() for argv in (
        ["--help"], [*required, "--format", "xml"], [*required, "--bogus"],
        [*required, "extra"], [*required, "--", "extra"],
        *([[], ["--bogus"]] if required else []))),  # a required option missing
]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    """Help, usage and error text are those of the parser of all subcommands."""
    with pytest.raises(SystemExit) as exit_info:
        cli._build_parser().parse_args(argv)
    captured = capsys.readouterr()
    assert run(*argv) == (exit_info.value.code, captured.out, captured.err)


def test_a_well_formed_run_builds_no_parser(monkeypatch):
    built = []
    build_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build_parser())
    assert run("enumerate", "--n", "2") == (0, "AABB\nABAB\n", "")
    assert built == []
    # a stray argument and help each build the full parser once
    assert run("enumerate", "--n", "2", "x")[0] == 2
    assert built == [1]
    assert run("--help")[0] == 0
    assert built == [1, 1]


# Every pinned run but the usage errors (.error pins), which argparse refuses,
# and every argv of the bench job lists (bench paths stand for its generated
# inputs); each must take the quick walk.
PINNED_RUNS = [argv for pin, (_, argv) in RUNS.items() if not pin.endswith(".error")]
BENCH_RUNS = [run.split() for run in [
    "enumerate --n 0", "dims --max-n 6", "dims --max-n 5 --unframed",
    *(f"check --lie w/{name}.json" for name in ("so4", "so5", "so4_dense")),
    *(f"check --curvature w/{name}.json" for name in ("sphere5", "lorentz4_dense")),
    *(f"holonomy --curvature w/{name}.json" for name in ("sphere4", "lorentz4_dense")),
    *(f"check --tensor w/{name}.json" for name in ("zero6", "random4")),
    "realize --lie w/so3.json --form w/eye3.json",
    "realize --lie w/sl2.json --form w/omega.json",
    "eval --tensor w/so4_dense_tensor.json --diagram ABCDEFABCDEF",
    "eval --tensor w/so4_tensor.json --diagram ABCDEFGHABCDEFGH",
    "yamada --N 4 --diagram ABCDEFGHABCDEFGH",
    "yamada --N 5 --diagram ABCDEFGHIJKLMNABCDEFGHIJKLMN",
    *(run.format(diagram) for diagram in (
        "ABCDEFGABCDEFG", "ABACBDCEDFEGFHGIHJIKJLKMLM",
        "ABCCDDAEBFGGFE", "ABCCDEFGEDFBGA", "ABCDBEFCGGDFAE") for run in (
        "eval --tensor w/so5_tensor.json --diagram {}",
        "eval --curvature w/sphere5.json --diagram {}", "yamada --N 5 --diagram {}")),
]]
# each subcommand's flags; the switches take no value
FLAGS = {
    "enumerate": ["--n", "--format"],
    "dims": ["--max-n", "--unframed", "--format"],
    "eval": ["--tensor", "--lie", "--curvature", "--diagram", "--naive", "--format"],
    "check": ["--tensor", "--lie", "--curvature", "--format"],
    "holonomy": ["--curvature", "--format"],
    "realize": ["--lie", "--form", "--format"],
    "yamada": ["--diagram", "--N", "--format"],
    "verify": ["--format"],
}
SWITCHES = ("--unframed", "--naive")
ODD_VALUES = ["-1", "-", "", " 3", "1_0", "-1/2", "xml", "json", "csv", "--naive"]


def generated_argvs(rng, count):
    """Edits of REQUIRED: repeats, --opt=value, abbreviations, odd values, --,
    a dropped or doubled option (the input group among them), a bad --format."""
    argvs = []
    for _ in range(count):
        name = rng.choice(list(REQUIRED))
        words = list(REQUIRED[name])
        for _ in range(rng.randrange(3)):
            flag = rng.choice(FLAGS[name])
            value = [] if flag in SWITCHES else [rng.choice(["4", *ODD_VALUES])]
            at = rng.randrange(len(words) + 1)
            edit = rng.randrange(7)
            if edit == 0:  # add (or repeat) an option
                words[at:at] = [flag, *value]
            elif edit == 1 and value:
                words[at:at] = [f"{flag}={value[0]}"]
            elif edit == 2:  # an abbreviation, which may be ambiguous
                words[at:at] = [flag[:rng.randrange(3, len(flag) + 1)], *value]
            elif edit == 3 and words:  # a value or a flag replaced
                words[at - 1] = rng.choice(ODD_VALUES)
            elif edit == 4:
                words[at:at] = ["--"]
            elif edit == 5 and words:  # a dropped option, or its value
                del words[at - 1:at + rng.randrange(2)]
            else:
                words[at:at] = ["--format", rng.choice(["text", "json", "csv", "xml", ""])]
        argvs.append([rng.choice([name, name, name, name[:3]]), *words])
    return argvs


def test_the_quick_walk_takes_every_pinned_and_bench_run():
    parser = cli._build_parser()
    for argv in PINNED_RUNS + BENCH_RUNS:
        walked = cli._quick_walk(argv)
        assert walked is not None, argv
        assert vars(walked) == vars(parser.parse_args(argv)), argv


def test_the_quick_walk_agrees_with_the_full_parser():
    """On a seeded corpus the walk gives None or argparse's own namespace."""
    parser = cli._build_parser()
    corpus = (USAGE_ARGVS + PINNED_RUNS + BENCH_RUNS
              + generated_argvs(random.Random(27), 4000))
    taken = 0
    for argv in corpus:
        walked = cli._quick_walk(argv)
        if walked is None:
            continue
        taken += 1
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit:
            parsed = None
        assert vars(walked) == parsed, argv
    assert 1000 < taken < 3000  # both well-formed and malformed argvs abound


@pytest.mark.parametrize("argv", [
    "enumerate --n 2 --n 3", "dims --max-n 2 --unframed --unframed",
    "eval --lie a --lie b --diagram AA", "yamada --diagram AA --format json --format json",
    "enumerate --n=2", "yamada --diag AA", "yamada --diagram AA --", "-- enumerate --n 2",
    "enumerate --n -1", "yamada --N -1 --diagram AA", "yamada --diagram -", "enum --n 2",
    "eval --diagram AA", "check --lie a --tensor b", "verify --format xml",
])
def test_the_quick_walk_leaves_repeats_and_odd_spellings_to_argparse(argv):
    assert cli._quick_walk(argv.split()) is None


def test_a_reader_that_stops_early_ends_the_run_quietly():
    """Output closed after one line: exit 141 (128 + SIGPIPE), no traceback.

    The 146 kB of codes cannot all wait in the pipe, so the write fails.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "chordweight.cli", "enumerate", "--n", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    try:
        assert proc.stdout.readline() == b"AABBCCDDEEFFGG\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (cli.EXIT_BROKEN_PIPE, b"")
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_eval_refuses_a_wide_contraction_at_once(tmp_path):
    labels = list(string.ascii_uppercase[:20]) * 2
    random.Random(20).shuffle(labels)
    diagram = "".join(labels)
    cost = contraction_plan(ChordDiagram.from_code(diagram)).cost(4)
    assert cost > DEFAULT_MAX_WORK
    so4 = write_json(tmp_path / "so4.json",
                     so_standard(4).weight_tensor().to_json_dict())
    code, out, err, wall_s, *_ = fresh("eval", "--tensor", so4, "--diagram", diagram)
    assert (code, out) == (2, "")
    assert err == (
        f"error: contraction needs sum over steps of d^(arcs touched) = {cost} "
        "products, limit is 10000000\n")
    assert wall_s < 1


@pytest.mark.parametrize("kind", ["tensor", "curvature"])
def test_check_refuses_a_dense_load_of_dimension_200_at_once(tmp_path, kind):
    doc = ({"dim": 200, "entries": []} if kind == "tensor"
           else {"dim": 200, "metric": [], "R": []})
    path = write_json(tmp_path / "wide.json", doc)
    code, out, err, wall_s, *_ = fresh("check", f"--{kind}", path)
    assert (code, out) == (2, "")
    assert err.endswith(
        "dimension 200 needs dim^4 = 1600000000 entries, limit is 10000000\n")
    assert wall_s < 1


def test_check_refuses_the_four_term_sum_of_a_dense_12_sphere_at_once(tmp_path):
    """A 12-sphere in a dense unimodular basis: 20,164 nonzero weight-tensor
    entries, whose four-term sum needs 135,527,440 nonzero products."""
    P = models.dense_unimodular(12, random.Random(2))
    metric = [[sum(P[k][i] * P[k][j] for k in range(12)) for j in range(12)]
              for i in range(12)]
    tensor = constant_curvature(12, metric).weight_tensor()
    assert len(tensor.entries) == 20164
    path = write_json(tmp_path / "sphere12-dense.json", tensor.to_json_dict())
    code, out, err, wall_s, *_ = fresh("check", "--tensor", path)
    assert (code, out) == (2, "")
    assert err == ("error: the four-term check needs 135527440 products of "
                   "nonzero entries, limit is 10000000\n")
    assert wall_s < 1


def test_check_refuses_the_exchange_identity_of_a_dense_so12_at_once(tmp_path):
    """so(12) on R^12 in a dense unimodular basis: check --lie refuses the
    exchange identity's products before it forms any, once the algebra and
    the representation have been checked."""
    P = models.dense_unimodular(12, random.Random(3))
    Pinv = oracles.dense_inverse(P)
    rep = so_standard(12)
    matrices = []
    for M in rep.matrices:  # Pinv M P, over the two nonzero entries of M
        nonzero = [(x, y, v) for x, row in enumerate(M) for y, v in enumerate(row) if v]
        matrices.append([[sum(Pinv[r][x] * v * P[y][c] for x, y, v in nonzero)
                          for c in range(12)] for r in range(12)])
    path = write_json(tmp_path / "so12-dense.json",
                      representation_to_json_dict(Representation(rep.algebra, matrices)))
    code, out, err, wall_s, *_ = fresh("check", "--lie", path)
    assert (code, out) == (2, "")
    assert err == ("error: the exchange identity needs 101802220 products of "
                   "nonzero entries, limit is 10000000\n")
    assert wall_s < 4


def test_check_refuses_the_validation_of_so4_dense_one_product_under_its_count(monkeypatch):
    """The Jacobi sum of so4-dense.json forms 1,352 products, the most of its
    three validation sums (test_lie.py counts each by its index pairings)."""
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "1351")
    assert run("check", "--lie", str(PINNED / "so4-dense.json")) == (
        2, "", "error: the Jacobi identity needs 1352 products of nonzero entries, "
        "limit is 1351\n")


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
    code, out, err, wall_s, *_ = fresh("check", "--lie", path)
    assert (code, out, err) == (2, "", f"error: {needs}, limit is 10000000\n")
    assert wall_s < 1


CHECK_CURVATURE_PASS = "curvature-model: pass\nparallel-four-term: pass\nfour-term: pass\n"
CHECK_LIE_PASS = ("metrized-algebra: pass\nrepresentation: pass\nleg-symmetry: pass\n"
                  "four-term: pass\nexchange-identity: pass\n")


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
    code, out, err, wall_s, _, peak_mb = fresh("check", f"--{kind}", path)
    assert (code, out, err) == (0, "".join(f"{name}: pass\n" for name in passes), "")
    assert wall_s < 1
    assert peak_mb < 100


def flat_model_40(tmp_path):
    return write_json(tmp_path / "flat40.json", {
        "dim": 40, "metric": [[int(i == j) for j in range(40)] for i in range(40)],
        "R": []})


def test_check_of_a_flat_model_of_dimension_40_is_small(tmp_path):
    """Only the nonzero curvature entries are stored: no d^4 array is built."""
    code, out, err, wall_s, _, peak_mb = fresh("check", "--curvature", flat_model_40(tmp_path))
    assert (code, out, err) == (0, CHECK_CURVATURE_PASS, "")
    assert wall_s < 1
    assert peak_mb < 64


def test_holonomy_of_a_flat_model_of_dimension_40_is_refused_at_once(tmp_path):
    code, out, err, wall_s, *_ = fresh("holonomy", "--curvature", flat_model_40(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: the holonomy algebra of a curvature model of dimension 40 "
                   "needs pairs^2 * d^3 = 38937600000 steps, limit is 10000000\n")
    assert wall_s < 1


def test_check_of_an_abelian_algebra_of_dimension_200_is_small(tmp_path):
    """Only the nonzero structure constants are stored: no m^3 array is built."""
    path = write_json(tmp_path / "abelian200.json", {
        "dim": 200, "brackets": [],
        "form": [[int(i == j) for j in range(200)] for i in range(200)],
        "dimV": 1, "matrices": [[[0]]] * 200})
    code, out, err, wall_s, _, peak_mb = fresh("check", "--lie", path)
    assert (code, out, err) == (0, CHECK_LIE_PASS, "")
    assert wall_s < 3
    assert peak_mb < 64


@pytest.mark.parametrize("field", ["dim", "a", "b", "c", "d"])
def test_tensor_files_reject_booleans(tmp_path, field):
    item = {"a": 0, "b": 0, "c": 0, "d": 0, "value": "1"}
    doc = {"dim": 1, "entries": [item]}
    path = write_json(tmp_path / "ok.json", doc)
    assert run("check", "--tensor", path)[0] == 0
    if field == "dim":
        doc["dim"] = True
    else:
        item[field] = False
    path = write_json(tmp_path / "bool.json", doc)
    code, out, err = run("check", "--tensor", path)
    where = "dim" if field == "dim" else f"entries[0].{field}"
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: ")


def test_enumerate_text():
    assert run("enumerate", "--n", "2") == (0, "AABB\nABAB\n", "")
    assert run("enumerate", "--n", "0") == (0, "(empty)\n", "")


def test_enumerate_json_and_csv():
    code, out, _ = run("enumerate", "--n", "3", "--format", "json")
    assert (code, json.loads(out)) == (
        0, {"n": 3, "codes": ["AABBCC", "AABCBC", "AABCCB", "ABACBC", "ABCABC"]})
    assert run("enumerate", "--n", "1", "--format", "csv") == (0, "code\nAA\n", "")


def test_dims_table():
    assert run("dims", "--max-n", "4") == (0, "0 1\n1 1\n2 2\n3 3\n4 6\n", "")
    assert run("dims", "--max-n", "4", "--unframed") == (0, "0 1\n1 0\n2 1\n3 1\n4 3\n", "")


def test_dims_rejects_degrees_outside_the_enumeration_cap():
    code, out, err = run("dims", "--max-n", "-1")
    assert (code, out) == (2, "")
    assert "--max-n" in err
    start = time.perf_counter()
    code, out, err = run("dims", "--max-n", "9")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "0..8" in err


@pytest.mark.parametrize("argv", [["dims", "--max-n", "8"],
                                  ["dims", "--max-n", "8", "--unframed"],
                                  ["enumerate", "--n", "8"]])
def test_degree_8_is_refused_at_once(argv):
    """Degree 8 is over the default budget; `dims` refuses before degree 0."""
    code, out, err, wall_s, *_ = fresh(*argv)
    assert (code, out) == (2, "")
    assert err == ("error: degree 8 needs about (2n-1)!!/(2n) classes x "
                   "(2n)^2 = 32432400 steps, limit is 10000000\n")
    assert wall_s < 1


@pytest.mark.parametrize("pin", RUNS, ids=[
    f"{Path(pin).name}-argv{i}" for i, pin in enumerate(RUNS)])
def test_output_matches_pinned_text(monkeypatch, pin):
    monkeypatch.chdir(ROOT)
    assert mismatch(pin, *run(*RUNS[pin][1])) is None


def test_mismatch_names_each_corruption_of_each_pin_kind():
    """A wrong stdout, stray output, a wrong last stderr line, a wrong hash
    and a wrong exit code, each against a pin kind it breaks; no CLI runs.
    The pinned runs above check that a matching run gives None."""
    plain, error, stderr, sha = (f"tests/pinned/{name}" for name in (
        "enumerate-n-5.txt", "dims-no-max-n.error", "holonomy-fail-bianchi.stderr",
        "holonomy-sphere12.json.sha256"))
    text = {pin: (ROOT / pin).read_text(encoding="utf-8") for pin in (plain, error, stderr)}
    for pin, result, report in [
        (plain, (0, text[plain] + "AB\n", ""), "\n+AB\n"),
        (plain, (0, text[plain], "note\n"), "stderr is not empty:\nnote\n"),
        (stderr, (1, "note\n", text[stderr]), "stdout is not empty:\nnote\n"),
        (error, (2, "", text[error] + "dims: error: other\n"), "\n+dims: error: other\n"),
        (sha, (0, "", ""), f"\n+{hashlib.sha256(b'').hexdigest()}\n"),
        (stderr, (0, "", text[stderr]), "exit code 0, pinned 1"),
    ]:
        assert report in mismatch(pin, *result), (pin, result)


# the eval and yamada text pins with no second route, and why
NO_SECOND_ROUTE = {
    "tests/pinned/yamada-abcabc-n-5-2.txt": "no space form has dimension 5/2",
}


def test_every_eval_and_yamada_text_pin_has_a_second_route_or_a_reason():
    """Why the routes agree.  The space form of curvature 1 on a metric g has
    R[a][b][c][x] = d_ax g_bc - d_bx g_ac (``constant_curvature``, d the
    Kronecker delta), so its weight tensor, the second slot raised by g^-1,
    is T(a,b,c,d) = d_ad d_bc - g_ac g^bd.  On each chord T is the sum of
    the two smoothings, the second with sign -1: the one ``yamada_weight``
    sums.  A closed loop of a smoothing then contracts deltas and, when it
    passes second smoothings, g_.. against g^.. in turn, so it contracts to
    g^ab g_ab = tr(identity) = dim, whatever the signature of g.  The weight
    system of every such model of dimension dim is therefore the state sum
    with loop value N = dim.  The inputs of the second routes are such
    models, as checked here: sphere5.json is the 5-dimensional unit sphere,
    lorentz4-dense.json a Lorentzian space form of dimension 4 in a dense
    basis, and so4-dense.json and so4-dense-tensor.json hold rho(C) of so(4),
    which is the space form on (R^4, so4-dense-form.json).
    """
    text_pins = {pin for pin, (_, argv) in RUNS.items()
                 if argv[0] in ("eval", "yamada") and pin.endswith(".txt")}
    routed = [pin for pin, _ in ROUTES]
    assert len(set(routed)) == len(routed) and not set(routed) & set(NO_SECOND_ROUTE)
    assert set(routed) | set(NO_SECOND_ROUTE) == text_pins
    load = {name: json.loads((PINNED / f"{name}.json").read_text(encoding="utf-8"))
            for name in ("sphere5", "lorentz4-dense", "so4-dense", "so4-dense-tensor",
                         "so4-dense-form")}
    for name in ("sphere5", "lorentz4-dense"):
        model = curvature.model_from_json_dict(load[name])
        assert model.entries == constant_curvature(model.dim, model.metric).entries
    so4 = constant_curvature(4, load["so4-dense-form"]).weight_tensor()
    assert so4 == representation_from_json_dict(load["so4-dense"]).weight_tensor()
    assert so4 == WeightTensor.from_json_dict(load["so4-dense-tensor"])


@pytest.mark.parametrize("pin,argv", ROUTES, ids=[Path(pin).name for pin, _ in ROUTES])
def test_a_second_route_prints_the_pinned_text(monkeypatch, pin, argv):
    monkeypatch.chdir(ROOT)
    assert mismatch(pin, *run(*argv)) is None


# the holonomy text pins rebuilt from the dense oracles, and the one left out, with why
HOLONOMY_FROM_ORACLES = ["cp2", "sphere5", "lorentz4-dense", "flat3"]
HOLONOMY_NOT_FROM_ORACLES = {
    "tests/pinned/holonomy-sphere12.txt": "oracles.holonomy alone took 71 s on its 66 "
    "generators on a 2-vCPU box, against 0.1 s on the 10 of sphere5.json",
}


def oracle_holonomy_lines(model) -> list:
    """The lines ``holonomy`` prints for ``model``, every value from tests/oracles.py.

    The triple is valid when it passes ``oracles.metrized_algebra`` and the
    checks of ``SymmetricTriple.validate`` after it, written densely here:
    the involution is a parity of the brackets, the form does not mix its
    eigenspaces, and the tangent brackets span the holonomy part.
    """
    d, R, g = model.dim, model.riemann, model.metric
    hol = labels, basis, brackets, form, nondegenerate = oracles.holonomy(R, g, d)
    m = len(labels)
    f, B, s = oracles.symmetric_triple(R, g, d, hol)
    n = len(B)
    valid = (oracles.metrized_algebra(f, B) == (True, None)
             and all(s[k] == s[i] * s[j]
                     for i, j, k in itertools.product(range(n), repeat=3) if f[i][j][k])
             and all(s[i] == s[j] for i, j in itertools.product(range(n), repeat=2) if B[i][j])
             and oracles.dense_rank([f[a][b][:m] for a in range(m, n)
                                     for b in range(a + 1, n)], m) == m)
    lie_type = valid and nondegenerate and (oracles.lie_weight_tensor(form, basis, d)
                                            == oracles.curvature_weight_tensor(g, R, d))
    table = {(i, j, k): c for i, j, k in itertools.product(range(m), repeat=3)
             if (c := brackets[i][j][k])}
    yes = {True: "yes", False: "no"}
    return [
        f"dim_h={m}",
        "generator labels: " + (" ".join(f"({a},{b})" for a, b in labels) or "(none)"),
        *cli._bracket_lines(table, m),
        "B_h:",
        *cli._matrix_lines(form),
        f"B_h nondegenerate: {yes[nondegenerate]}",
        f"triple: dim {n} = {m} + {d}, valid: {yes[valid]}",
        f"isomorphic to so{d}: {yes[oracles.so_verdict(g, d, m)]}",
        f"rho(C_h) == Hhat: {yes[lie_type]}",
    ]


def test_every_holonomy_text_pin_is_derived_from_the_oracles_or_has_a_reason():
    text_pins = {pin for pin, (_, argv) in RUNS.items()
                 if argv[0] == "holonomy" and pin.endswith(".txt")}
    derived = {f"tests/pinned/holonomy-{name}.txt" for name in HOLONOMY_FROM_ORACLES}
    assert derived | set(HOLONOMY_NOT_FROM_ORACLES) == text_pins
    assert not derived & set(HOLONOMY_NOT_FROM_ORACLES)


@pytest.mark.parametrize("name", HOLONOMY_FROM_ORACLES)
def test_a_holonomy_text_pin_is_what_the_oracles_derive(name):
    """Each line of the pin, rebuilt from the dense oracles on the pin's input."""
    pin = f"tests/pinned/holonomy-{name}.txt"
    code, argv = RUNS[pin]
    assert (code, argv[:3]) == (0, ["holonomy", "--curvature", f"tests/pinned/{name}.json"])
    assert argv[3:] in ([], ["--format", "text"])
    model = curvature.model_from_json_dict(
        json.loads((PINNED / f"{name}.json").read_text(encoding="utf-8")))
    expected = (ROOT / pin).read_text(encoding="utf-8").splitlines()
    assert oracle_holonomy_lines(model) == expected


DIAGRAMS_NOT_FROM_ORACLES = {
    pin: "the oracles' basis and 4T rows of the 9,749 classes of degree 7 took 19 s on "
    "a 2-vCPU box, and the whole derivation 27 s and 155 MB, against 1 s for degrees 0-6"
    for pin in ("tests/pinned/dims-max-n-7.txt", "tests/pinned/dims-max-n-7-unframed.txt")
}


def oracle_code(matching) -> str:
    """The chords of ``matching`` lettered in order of first occurrence."""
    labels = {}
    return "".join(labels.setdefault(min(p, q), string.ascii_uppercase[len(labels)])
                   for p, q in enumerate(matching))


def test_the_enumerate_and_dims_text_pins_are_what_the_oracles_derive():
    """enumerate: per rotation orbit of the oracle, the least code of its
    matchings, sorted.  dims: the dimension of each kind and degree over the
    oracle's basis of one matching per orbit, by its 4T rows and one rank.
    Every other text pin of the two commands is listed with its reason."""
    framed, unframed = [], []
    for n in range(7):
        basis = [ChordDiagram(min(orbit)) for orbit in oracles.rotation_orbits(n)]
        rows = oracles.four_term_rows_all(basis)
        for kind, lines in (("framed", framed), ("unframed", unframed)):
            lines.append(f"{n} {oracles.quotient_dimension_by_rows(basis, rows, kind)}")
    derived = {
        "tests/pinned/enumerate-n-5.txt": (["enumerate", "--n", "5"], sorted(
            min(map(oracle_code, orbit)) for orbit in oracles.rotation_orbits(5))),
        "tests/pinned/dims-max-n-6.txt": (["dims", "--max-n", "6"], framed),
        "tests/pinned/dims-max-n-6-unframed.txt":
            (["dims", "--max-n", "6", "--unframed"], unframed),
    }
    text_pins = {pin for pin, (_, argv) in RUNS.items()
                 if argv[0] in ("enumerate", "dims") and pin.endswith(".txt")}
    assert set(derived) | set(DIAGRAMS_NOT_FROM_ORACLES) == text_pins
    for pin, (argv, lines) in derived.items():
        assert RUNS[pin] == (0, argv)
        assert (ROOT / pin).read_text(encoding="utf-8").splitlines() == lines, pin


def test_every_pinned_file_belongs_to_one_row():
    """Each row's pin and input files exist, no pin has two rows, and every
    file under tests/pinned/ is a row's pin or input, so a deleted row
    leaves its pin behind.  test_verify_matches_pinned_formats reads the
    two verify-criterion-5 files."""
    assert len(RUNS) == len(ROWS)
    named = set(RUNS) | {word for _, argv in RUNS.values()
                         for word in argv if word.startswith("tests/")}
    assert sorted(path for path in named if not (ROOT / path).is_file()) == []
    unnamed = {path.relative_to(ROOT).as_posix() for path in PINNED.iterdir()} - named
    assert unnamed == {"tests/pinned/runs.txt", "tests/pinned/routes.txt",
                       "tests/pinned/verify-criterion-5.json",
                       "tests/pinned/verify-criterion-5.csv"}


def test_holonomy_of_a_12_sphere_is_fast_and_small():
    """66 generators, a 78-dimensional triple: only nonzero brackets are stored."""
    pin = "tests/pinned/holonomy-sphere12.json.sha256"
    code, out, err, _, cpu_s, peak_mb = fresh(*RUNS[pin][1])
    assert mismatch(pin, code, out, err) is None
    assert cpu_s < 0.7
    assert peak_mb < 30


@pytest.mark.parametrize("argv", [
    ["check", "--lie", str(PINNED / "so4-dense.json")],
    ["realize", "--lie", str(PINNED / "so4-dense.json"),
     "--form", str(PINNED / "so4-dense-form.json")],
], ids=["check-lie", "realize"])
def test_rho_c_is_built_once_per_command(monkeypatch, argv):
    builds = []

    def counted(dim, nonzero):
        builds.append(dim)
        return WeightTensor(dim, nonzero)

    monkeypatch.setattr(chordweight.lie, "WeightTensor", counted)
    assert run(*argv)[0] == 0
    assert builds == [4]


@pytest.mark.parametrize("argv,bound", [
    (["check", "--lie", "{so4}"], 3),
    (["eval", "--lie", "{so4}", "--diagram", "ABCDABCD"], 3),
    (["realize", "--lie", "{so4}", "--form", "{form}"], 4),
    (["holonomy", "--curvature", "{dense8}"], 2),
], ids=["check-lie", "eval-lie", "realize", "holonomy-dense-8"])
def test_each_exact_matrix_is_converted_once(monkeypatch, tmp_path, argv, bound):
    """Every matrix and table is read into its IntegerView once, by the
    constructor of the record that loads it.  The holonomy extraction and
    the triple build theirs from integer numerators, as do the checks, the
    Casimir and every inverse, and linalg builds none at all: the holonomy
    run builds only the loader's metric and curvature.  A round trip of the
    holonomy or triple matrices through dense Fractions shows as 4 more."""
    paths = {"so4": PINNED / "so4-dense.json", "form": PINNED / "so4-dense-form.json"}
    if "{dense8}" in argv:
        model = models.rebase(constant_curvature(8), models.dense_unimodular(8, random.Random(1)))
        paths["dense8"] = write_json(tmp_path / "dense8.json", model_to_json_dict(model))
    callers = []
    build = IntegerView.__init__

    def counted(view, *args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        build(view, *args)

    monkeypatch.setattr(IntegerView, "__init__", counted)
    assert run(*(arg.format(**paths) for arg in argv))[0] == 0
    assert len(callers) <= bound
    assert "chordweight.linalg" not in callers


def test_rho_c_is_lowered_once_per_realize(monkeypatch):
    """curvature_symmetries and triple_from_rep share one lowering of rho(C)."""
    lowerings = []
    lower = chordweight.curvature._lowered_casimir

    def counted(rep, form):
        lowerings.append(rep.dimV)
        return lower(rep, form)

    monkeypatch.setattr(chordweight.curvature, "_lowered_casimir", counted)
    assert run("realize", "--lie", str(PINNED / "so4-dense.json"),
               "--form", str(PINNED / "so4-dense-form.json"))[0] == 0
    assert lowerings == [4]


def test_holonomy_of_a_7_sphere_is_fast(tmp_path):
    """21 generator pairs, 441 pairs of pairs: one process, under 1 s."""
    path = write_json(tmp_path / "sphere7.json",
                      model_to_json_dict(constant_curvature(7)))
    code, out, _, wall_s, *_ = fresh("holonomy", "--curvature", path)
    assert code == 0
    assert out.splitlines()[-3:] == [
        "triple: dim 28 = 21 + 7, valid: yes",
        "isomorphic to so7: yes",
        "rho(C_h) == Hhat: yes",
    ]
    assert wall_s < 1


def test_holonomy_refuses_a_16_dimensional_space_form_at_once(tmp_path):
    """The loader admits dim^4 = 65536; holonomy's pairs^2 * d^3 is over the bound."""
    path = write_json(tmp_path / "sphere16.json",
                      model_to_json_dict(constant_curvature(16)))
    code, out, err, wall_s, *_ = fresh("holonomy", "--curvature", path)
    assert (code, out) == (2, "")
    assert err == (
        "error: the holonomy algebra of a curvature model of dimension 16 needs "
        "pairs^2 * d^3 = 58982400 steps, limit is 10000000\n")
    assert wall_s < 1


def test_dims_json():
    code, out, _ = run("dims", "--max-n", "1", "--format", "json")
    assert json.loads(out) == [
        {"n": 0, "kind": "framed", "dimension": 1},
        {"n": 1, "kind": "framed", "dimension": 1},
    ]


def test_yamada_values():
    assert run("yamada", "--diagram", "AA") == (0, "6\n", "")
    assert run("yamada", "--diagram", "AABB", "--N", "3") == (0, "12\n", "")
    assert run("yamada", "--diagram", "AA", "--N", "7/2") == (0, "35/4\n", "")
    code, out, _ = run("yamada", "--diagram", "AA", "--format", "json")
    assert json.loads(out) == {"diagram": "AA", "value": "6"}


def test_yamada_bad_arguments():
    code, _, err = run("yamada", "--diagram", "ABA")
    assert code == 2
    assert "error:" in err
    assert run("yamada", "--diagram", "AA", "--N", "x")[0] == 2


LONGEST = "9" * 4300  # the most digits an integer may have


@pytest.mark.parametrize("text,value", [
    ("-3/4", Fraction(-3, 4)), ("12", Fraction(12)), (LONGEST, Fraction(int(LONGEST))),
    ("2e-3", None), ("1_0", None), (" 1", None), ("0.5", None), ("1/0", None),
    ("\uff11", None),  # a full-width digit one
    ("1" + LONGEST, None),
], ids=["-3/4", "12", "4300-digits", "2e-3", "1_0", "space-1", "0.5", "1/0",
        "full-width-1", "4301-digits"])
def test_one_strict_rational_grammar_for_files_and_loop_values(text, value):
    """Only "-"? digits ("/" digits)? in ASCII, no integer over 4300 digits,
    in a file and in --N alike; the refusal of a long integer names the
    bound and does not echo the integer."""
    if value is not None:
        assert parse_rational(text, "value") == value
        if len(text) < 10:  # the square of 4300 digits has too many to print
            assert run("yamada", "--diagram", "AA", f"--N={text}") == (
                0, f"{value * value - value}\n", "")
        return
    message = (f"{text!r} is not a rational number" if len(text) <= 4300
               else "has an integer of more than 4300 digits")
    with pytest.raises(JSONFormatError) as error:
        parse_rational(text, "value")
    assert error.value.message == message
    assert run("yamada", "--diagram", "AA", f"--N={text}") == (2, "", f"error: --N {message}\n")


def test_a_printed_value_has_at_most_4300_digits():
    """N^2 - N is printed when it has 4,300 digits (N of 2,150 nines) and
    refused, naming the bound, when it has 4,302 (N of 2,151 nines), on
    every Python: from 3.11 on, str() of the longer value would raise."""
    n = int("9" * 2150)
    assert len(str(n * n - n)) == 4300
    assert run("yamada", "--diagram", "AA", f"--N={n}") == (0, f"{n * n - n}\n", "")
    assert run("yamada", "--diagram", "AA", "--N=" + "9" * 2151) == (
        2, "", "error: the value has an integer of more than 4300 digits\n")


def test_a_negative_loop_value_is_written_with_an_equals_sign():
    """argparse takes a separate "-3/4" for an option; the help says how to write it."""
    assert run("yamada", "--diagram", "AA", "--N=-3/4") == (0, "21/16\n", "")
    code, out, _ = run("yamada", "--help")
    assert code == 0 and "--N=-3/4" in " ".join(out.split())


@pytest.mark.parametrize("argv", [
    ["check", "--tensor", "{doc}"], ["yamada", "--diagram", "AA", "--N", "1e100000000"]])
def test_a_huge_exponent_is_refused_at_once(tmp_path, argv):
    """Fraction("1e100000000") would build a 10^8-digit integer."""
    doc = tmp_path / "exponent.json"
    doc.write_text('{"dim": 4, "entries": [{"a": 0, "b": 0, "c": 0, "d": 0, '
                   '"value": "1e100000000"}]}', encoding="ascii")
    assert doc.stat().st_size == 81
    code, out, err, wall_s, *_ = fresh(*(arg.format(doc=doc) for arg in argv))
    assert (code, out) == (2, "")
    assert err.endswith("'1e100000000' is not a rational number\n")
    assert wall_s < 1


def test_yamada_refuses_a_30_chord_state_sum_at_once():
    labels = string.ascii_uppercase + string.ascii_lowercase[:4]
    code, out, err, wall_s, *_ = fresh("yamada", "--diagram", labels + labels)
    assert (code, out) == (2, "")
    assert err == ("error: state sum needs 2^n = 1073741824 smoothings, "
                   "limit is 10000000\n")
    assert wall_s < 1


def test_yamada_budget_follows_the_work_variable(monkeypatch):
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "100")
    code, out, err, *_ = fresh("yamada", "--diagram", "ABCDEFGABCDEFG")
    assert (code, out) == (2, "")
    assert "2^n = 128 smoothings, limit is 100" in err
    assert fresh("yamada", "--diagram", "ABCDEFABCDEF")[:2] == (0, "66\n")


def test_eval_tensor_file(tmp_path):
    path = write_json(tmp_path / "id2.json", models.identity_tensor(2).to_json_dict())
    assert run("eval", "--tensor", path, "--diagram", "ABAB") == (0, "2\n", "")
    assert run("eval", "--tensor", path, "--diagram", "ABAB", "--naive") == (0, "2\n", "")


def test_eval_lie_and_curvature(tmp_path):
    lie = write_json(tmp_path / "sl2.json",
                     representation_to_json_dict(sl2_standard()))
    assert run("eval", "--lie", lie, "--diagram", "AA") == (0, "3\n", "")
    sphere = write_json(tmp_path / "s3.json",
                        model_to_json_dict(constant_curvature(3)))
    assert run("eval", "--curvature", sphere, "--diagram", "AA") == (0, "6\n", "")


def test_check_passing_inputs(tmp_path):
    lie = write_json(tmp_path / "so3.json",
                     representation_to_json_dict(so_standard(3)))
    assert run("check", "--lie", lie) == (0, CHECK_LIE_PASS, "")


def test_check_failing_tensor(tmp_path):
    doc = {"dim": 2, "entries": [
        {"a": 0, "b": 0, "c": 0, "d": 1, "value": "1"},
    ]}
    path = write_json(tmp_path / "bad.json", doc)
    code, out, _ = run("check", "--tensor", path)
    assert code == 1
    assert "four-term: fail at (0, 1, 0, 1, 0, 0)" in out
    code, out, _ = run("check", "--tensor", path, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False


def test_check_invalid_curvature_model(tmp_path):
    doc = model_to_json_dict(constant_curvature(2))
    doc["metric"] = [["1", "1"], ["0", "1"]]
    path = write_json(tmp_path / "lopsided.json", doc)
    code, out, _ = run("check", "--curvature", path)
    assert code == 1
    assert "curvature-model: fail" in out


def test_holonomy_report(tmp_path):
    sphere = write_json(tmp_path / "s3.json",
                        model_to_json_dict(constant_curvature(3)))
    code, out, _ = run("holonomy", "--curvature", sphere)
    assert code == 0
    assert "dim_h=3" in out
    assert "isomorphic to so3: yes" in out
    assert "rho(C_h) == Hhat: yes" in out
    code, out, _ = run("holonomy", "--curvature", sphere, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim_h"] == 3
    assert payload["so_isomorphic"] is True
    assert payload["casimir_matches"] is True
    assert payload["triple"]["involution"] == [1, 1, 1, -1, -1, -1]


def test_holonomy_json_formats_no_text_line(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a JSON run formatted text")

    monkeypatch.setattr(chordweight.cli, "_bracket_lines", refuse)
    monkeypatch.setattr(chordweight.cli, "_matrix_lines", refuse)
    monkeypatch.chdir(ROOT)
    pin = "tests/pinned/holonomy-cp2.json"
    assert mismatch(pin, *run(*RUNS[pin][1])) is None


@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_holonomy_builds_the_dense_form_once(monkeypatch, fmt):
    """``algebra.form`` builds a dense copy on each read; a run reads the
    holonomy algebra's once, and a JSON run the triple's once more."""
    reads = []
    form = chordweight.lie.MetrizedLieAlgebra.form
    monkeypatch.setattr(chordweight.lie.MetrizedLieAlgebra, "form",
                        property(lambda algebra: reads.append(algebra) or form.fget(algebra)))
    monkeypatch.chdir(ROOT)
    pin = f"tests/pinned/holonomy-cp2.{fmt}"
    assert mismatch(pin, *run(*RUNS[pin][1])) is None
    assert [algebra.dim for algebra in reads] == {"txt": [4], "json": [4, 8]}[fmt]


def test_realize_verdicts(tmp_path):
    so3 = write_json(tmp_path / "so3.json",
                     representation_to_json_dict(so_standard(3)))
    eye = write_json(tmp_path / "eye.json",
                     [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    code, out, _ = run("realize", "--lie", so3, "--form", eye)
    assert code == 0
    assert "verdict: pass" in out
    assert "triple: dim 6 = 3 + 3" in out
    sl2 = write_json(tmp_path / "sl2.json",
                     representation_to_json_dict(sl2_standard()))
    omega = write_json(tmp_path / "omega.json", [["0", "1"], ["-1", "0"]])
    code, out, _ = run("realize", "--lie", sl2, "--form", omega)
    assert code == 1
    assert "verdict: fail(skew) at (0, 0, 1, 1)" in out


def test_verify_passes_criterion_5(monkeypatch):
    criteria = tuple(c for c in acceptance.CRITERIA if c[0] == 5)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    code, out, _ = run("verify")
    assert code == 0
    assert out.splitlines() == [
        "criterion 5 (realizability of representations): PASS - so3 passes "
        "and round-trips exactly; sl2 with the symplectic form fails skew at "
        "(0, 0, 1, 1); so3 on R^3 + R^3 is skew but fails Bianchi at "
        "(0, 1, 3, 4)"
    ]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_matches_pinned_formats(monkeypatch, fmt):
    """One criterion, so the suite is not rerun; the text is checked above."""
    criteria = tuple(c for c in acceptance.CRITERIA if c[0] == 5)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    expected = (PINNED / f"verify-criterion-5.{fmt}").read_text(encoding="utf-8")
    assert run("verify", "--format", fmt) == (0, expected, "")


def plus_one(original):
    return lambda *args: original(*args) + 1


# (criterion, the name in the acceptance module that is forced wrong, the
# forcing as a function of the original, the FAIL detail that verify prints)
FORCED_FAILURES = [
    (1, "yamada_weight", plus_one, "state sum on empty: expected 3, got 4"),
    (2, "evaluate_sum", plus_one,
     "sl2 tensor on a degree-3 four-term vector: expected 0, got 1"),
    (3, "check_exchange_identity", lambda _: lambda rep: (False, (0, 0, 0, 0)),
     "sl2: exchange identity witness: expected None, got (0, 0, 0, 0)"),
    (4, "verify_lie_type", lambda _: lambda triple: (False, "forced"),
     "sphere2: Casimir recovery failure: expected None, got forced"),
    (4, "so_isomorphism", lambda original: lambda hol: not original(hol),
     "sphere2: isomorphic to so(2): expected True, got False"),
    (5, "curvature_symmetries", lambda _: lambda rep, form: ("fail(skew)", (0, 0, 0, 0)),
     "so3 with the identity form: library verdict: expected pass, got fail(skew)"),
    (6, "quotient_dimension", lambda _: lambda n, kind: 99,
     "framed dimension at n=0 by the library: expected 1, got 99"),
    (7, "evaluate_naive", plus_one, "sl2: exhaustive sum on empty: expected 2, got 3"),
    (8, "in_relation_span", lambda _: lambda vector, kind: False,
     "product of AA and ABAB at cut (0, 0) agrees modulo four-term vectors: "
     "expected True, got False"),
]


@pytest.mark.parametrize("number,name,forced,detail", FORCED_FAILURES,
                         ids=[f"{number}-{name}" for number, name, *_ in FORCED_FAILURES])
def test_verify_prints_the_failure_of_each_criterion(monkeypatch, number, name, forced, detail):
    """One library name in the acceptance module is made wrong per criterion."""
    [(_, label, _)] = criteria = tuple(c for c in acceptance.CRITERIA if c[0] == number)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    monkeypatch.setattr(acceptance, name, forced(getattr(acceptance, name)))
    assert run("verify") == (1, f"criterion {number} ({label}): FAIL - {detail}\n", "")


def test_verify_reports_a_raising_library_call_as_a_failure_and_goes_on(monkeypatch):
    def refused(model):
        raise ValueError("forced")

    monkeypatch.setattr(acceptance, "CRITERIA",
                        tuple(c for c in acceptance.CRITERIA if c[0] in (4, 5)))
    monkeypatch.setattr(acceptance, "symmetric_triple", refused)
    code, out, err = run("verify")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "criterion 4 (holonomy and symmetric triple): FAIL - ValueError: forced",
        (PINNED / "verify.txt").read_text(encoding="utf-8").splitlines()[4],
    ]


def test_verify_exits_2_when_the_work_bound_refuses_a_criterion(monkeypatch):
    monkeypatch.setenv("CHORDWEIGHT_MAX_WORK", "1")
    code, out, err = run("verify")
    assert (code, out) == (2, "")
    assert err.startswith("error: degree 1 needs ")


def test_holonomy_gives_both_reasons_when_the_triple_is_invalid(monkeypatch):
    """No known parallel model fails its triple, so the failure is forced."""
    monkeypatch.setattr(chordweight.curvature.SymmetricTriple, "validate",
                        lambda self: (False, "forced failure"))
    code, out, err = run("holonomy", "--curvature", str(PINNED / "cp2.json"))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[-5:] == [
        "triple: dim 8 = 4 + 4, valid: no",
        "  reason: forced failure",
        "isomorphic to so4: no",
        "rho(C_h) == Hhat: no",
        "  reason: symmetric triple invalid: forced failure",
    ]


def test_missing_and_malformed_files(tmp_path):
    code, _, err = run("eval", "--tensor", str(tmp_path / "nope.json"), "--diagram", "AA")
    assert code == 2
    assert "error:" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    code, _, err = run("eval", "--tensor", str(broken), "--diagram", "AA")
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("argv", [["check"], ["eval", "--diagram", "AA"]],
                         ids=["check", "eval"])
def test_a_module_of_dimension_0_is_refused_by_its_field(tmp_path, argv):
    path = write_json(tmp_path / "dimV0.json", {
        "dim": 1, "brackets": [], "form": [[1]], "dimV": 0, "matrices": [[]]})
    assert run(argv[0], "--lie", path, *argv[1:]) == (
        2, "", "error: dimV: expected a positive integer\n")


def test_json_field_path_in_errors(tmp_path):
    doc = {"dim": 2, "entries": [
        {"a": 5, "b": 0, "c": 0, "d": 0, "value": "1"},
    ]}
    path = write_json(tmp_path / "bad.json", doc)
    code, _, err = run("check", "--tensor", path)
    assert code == 2
    assert "entries[0].a" in err


@pytest.mark.parametrize("argv", [["check"], ["eval", "--diagram", "AA"]],
                         ids=["check", "eval"])
def test_a_tensor_file_without_entries_is_refused_by_its_field(tmp_path, argv):
    """A misspelled key is not the zero tensor: ``entries`` is required."""
    path = write_json(tmp_path / "misspelled.json", {"dim": 2, "entires": [
        {"a": 0, "b": 1, "c": 1, "d": 0, "value": "1"}]})
    assert run(argv[0], "--tensor", path, *argv[1:]) == (
        2, "", "error: entries: expected a list\n")
