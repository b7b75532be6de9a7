"""Seeded mutations of the pinned JSON inputs, each run in-process through ``main``.

Every row of ``tests/pinned/runs.txt`` that reads a JSON file is a seed.
A mutant changes one node of one such file, in its structure (a node
deleted, retyped, wrapped, duplicated or truncated, a key added) or in its
value (integers of 4,301 digits, exponents such as ``1e999``, large
dimensions and indices, malformed rationals), and the row is run again on
the mutant.  Each run must end with exit code 0, 1 or 2, and no exception
may escape ``main``: a hostile file is refused, fails a check, or is a valid
input.  The generator is ``random.Random`` with a fixed seed, so every run
sends the same mutants.
"""

import copy
import json
import random

from pins import ROOT, ROWS, run

MUTANTS = 1000
SEED = 20141023

# (argv, index of a JSON input in it), for every row of runs.txt that reads one
SEEDS = [(argv, i) for _, _, argv in ROWS for i, arg in enumerate(argv) if arg.endswith(".json")]

TOO_LONG = "1" + "0" * 4300  # 4,301 digits, one more than a rational may have
# number tokens written into the JSON text as they are, not as Python values
RAW_NUMBERS = ["1e999", "-1e999", "1E400", "1e-999", "0.5", "-0.0", TOO_LONG, "-" + TOO_LONG]
STRINGS = [TOO_LONG, "-" + TOO_LONG, "1/" + TOO_LONG, "1e999", "1/0", "0/0", "-0", " 1",
           "1.5", "0x10", "NaN", "１", "", "--1", "1//2"]
LARGE_INTS = [200, 61, 10 ** 6, 2 ** 64, 10 ** 40, -3, 0]
OTHER_KINDS = [None, True, False, "x", [], {}, [[]], {"dim": 1}, 0, -1]


class Raw:
    """A token to write into the JSON text unquoted."""

    def __init__(self, token):
        self.token = token


def node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from node_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from node_paths(value, path + (i,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, rng: random.Random):
    """doc with one node changed, and a description of the change."""
    path = rng.choice(list(node_paths(doc)))
    node = value_at(doc, path)
    kind = rng.choice(["delete", "retype", "wrap", "duplicate", "truncate", "add key",
                       "number", "string", "large int"])
    if kind == "delete" and path:
        parent = value_at(doc, path[:-1])
        del parent[path[-1]]
        return doc, f"delete {path}"
    if kind == "duplicate" and path and isinstance(value_at(doc, path[:-1]), list):
        value_at(doc, path[:-1]).insert(path[-1], copy.deepcopy(node))
        return doc, f"duplicate {path}"
    if kind == "truncate" and isinstance(node, list):
        del node[len(node) // 2:]
        return doc, f"truncate {path}"
    if kind == "add key" and isinstance(node, dict):
        node[rng.choice(["extra", "dim", "dimV", "entries", "R"])] = rng.choice(LARGE_INTS)
        return doc, f"add a key at {path}"
    if kind not in ("wrap", "number", "string", "large int"):
        kind = "retype"  # also where the kind drawn does not fit the node
    new = {
        "wrap": lambda: [node],
        "number": lambda: Raw(rng.choice(RAW_NUMBERS)),
        "string": lambda: rng.choice(STRINGS),
        "large int": lambda: rng.choice(LARGE_INTS),
        "retype": lambda: rng.choice(OTHER_KINDS),
    }[kind]()
    if not path:
        return new, f"replace the document by {kind}"
    value_at(doc, path[:-1])[path[-1]] = new
    return doc, f"{kind} at {path}"


def to_json(doc) -> str:
    """doc as JSON text, every Raw token unquoted in place."""
    raws = []

    def default(obj):
        raws.append(obj.token)
        return f"@raw{len(raws) - 1}@"

    text = json.dumps(doc, default=default)
    for i, token in enumerate(raws):
        text = text.replace(f'"@raw{i}@"', token, 1)
    return text


def test_every_mutant_of_a_pinned_input_exits_0_1_or_2(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    rng = random.Random(SEED)
    originals = {}
    for k in range(MUTANTS):
        argv, i = rng.choice(SEEDS)
        if argv[i] not in originals:
            originals[argv[i]] = json.loads((ROOT / argv[i]).read_text(encoding="utf-8"))
        doc, change = mutate(copy.deepcopy(originals[argv[i]]), rng)
        path = tmp_path / f"mutant{k}.json"
        path.write_text(to_json(doc), encoding="utf-8")
        mutant_argv = argv[:i] + [str(path)] + argv[i + 1:]
        try:
            code = run(*mutant_argv)[0]
        except Exception as exc:
            raise AssertionError(f"mutant {k} ({change} of {argv[i]}) raised {exc!r}") from exc
        assert code in (0, 1, 2), f"mutant {k} ({change} of {argv[i]}) exited {code}"
