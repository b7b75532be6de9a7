"""Outside-in tracing: wrap the library's public functions and record spans.

Nothing in the library changes.  A ``Tracer`` replaces each traced
function or method, in every ``chordweight`` module namespace that holds
it, by a wrapper that records one span per call: name, start, end, parent
span and job id.  Spans are kept in flat arrays while the jobs run and are
written out only when the benchmark ends.  Per-layer numbers (calls, self
time, counters and ratios) are computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute path).  Several attributes may share a span
# name: the two FormalSum operators are one layer, the JSON parsers another.
TARGETS = (
    ("cli", "chordweight.cli", "main"),
    ("diagrams.canonicalize", "chordweight.diagrams", "ChordDiagram.__post_init__"),
    ("diagrams.enumerate", "chordweight.diagrams", "enumerate_diagrams"),
    ("diagrams.smooth_components", "chordweight.diagrams", "smooth_components"),
    ("diagram_space.four_term_vector", "chordweight.diagram_space", "four_term_vector"),
    ("diagram_space.four_term_relations", "chordweight.diagram_space",
     "four_term_relations"),
    ("formal.add", "chordweight.formal", "FormalSum.__add__"),
    ("formal.add", "chordweight.formal", "FormalSum.__sub__"),
    ("linalg.sparse_rank", "chordweight.linalg", "sparse_rank"),
    ("linalg.solve_in_span", "chordweight.linalg", "solve_in_span"),
    ("linalg.commutator", "chordweight.linalg", "commutator"),
    ("tensors.check_four_term", "chordweight.tensors", "check_four_term"),
    ("tensors.validate_symmetry", "chordweight.tensors", "validate_symmetry"),
    ("tensors.evaluate", "chordweight.tensors", "evaluate"),
    ("lie.algebra_validate", "chordweight.lie", "MetrizedLieAlgebra.validate"),
    ("lie.rep_validate", "chordweight.lie", "Representation.validate"),
    ("lie.weight_tensor", "chordweight.lie", "Representation.weight_tensor"),
    ("lie.structure_tensor", "chordweight.lie", "MetrizedLieAlgebra.structure_tensor"),
    ("lie.exchange_identity", "chordweight.lie", "check_exchange_identity"),
    ("curvature.model_validate", "chordweight.curvature", "CurvatureModel.validate"),
    ("curvature.parallel_four_term", "chordweight.curvature",
     "check_parallel_four_term"),
    ("curvature.holonomy_algebra", "chordweight.curvature", "holonomy_algebra"),
    ("curvature.symmetric_triple", "chordweight.curvature", "symmetric_triple"),
    ("curvature.triple_validate", "chordweight.curvature", "SymmetricTriple.validate"),
    ("curvature.verify_lie_type", "chordweight.curvature", "verify_lie_type"),
    ("curvature.so_isomorphism", "chordweight.curvature", "so_isomorphism"),
    ("curvature.symmetries", "chordweight.curvature", "curvature_symmetries"),
    ("curvature.weight_tensor", "chordweight.curvature", "CurvatureModel.weight_tensor"),
    ("yamada.weight", "chordweight.yamada", "yamada_weight"),
    ("jsonio.load", "chordweight.tensors", "WeightTensor.from_json_dict"),
    ("jsonio.load", "chordweight.lie", "algebra_from_json_dict"),
    ("jsonio.load", "chordweight.lie", "representation_from_json_dict"),
    ("jsonio.load", "chordweight.curvature", "model_from_json_dict"),
)


@dataclass
class Spans:
    """Flat span table; parent is -1 for a root span."""

    names: list
    name: array
    start: array
    end: array
    parent: array
    job: array

    @classmethod
    def empty(cls) -> "Spans":
        return cls([], array("i"), array("d"), array("d"), array("i"), array("i"))

    def __len__(self):
        return len(self.name)

    def add(self, name: str, start: float, end: float, parent: int, job: int) -> int:
        """Append a finished span (used to build synthetic span nests)."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        return len(self.name) - 1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def write_tsv(self, fh) -> None:
        fh.write("span\tparent\tjob\tname\tstart\tend\n")
        for i in range(len(self)):
            fh.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t"
                     f"{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                     f"{self.end[i]!r}\n")


def self_times(spans: Spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Calls nest strictly in a single thread, so the children of a span cover
    disjoint parts of its interval and their durations simply add up.
    """
    out = [spans.end[i] - spans.start[i] for i in range(len(spans))]
    for i in range(len(spans)):
        p = spans.parent[i]
        if p >= 0:
            out[p] -= spans.end[i] - spans.start[i]
    return out


def summarize(spans: Spans) -> dict:
    """Per span name: number of calls and total self time."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for i, t in enumerate(self_times(spans)):
        name = spans.names[spans.name[i]]
        calls[name] += 1
        self_s[name] += t
    return {name: (calls[name], self_s[name]) for name in calls}


def calls_by_job(spans: Spans) -> dict:
    """Per job id: number of calls of each span name."""
    out: dict = {}
    for i in range(len(spans)):
        per_job = out.setdefault(spans.job[i], {})
        name = spans.names[spans.name[i]]
        per_job[name] = per_job.get(name, 0) + 1
    return out


def child_count(spans: Spans, child: str, parent: str) -> int:
    """Number of spans named child whose parent span is named parent."""
    if child not in spans.names or parent not in spans.names:
        return 0
    c, p = spans.names.index(child), spans.names.index(parent)
    return sum(1 for i in range(len(spans))
               if spans.name[i] == c and spans.parent[i] >= 0
               and spans.name[spans.parent[i]] == p)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _resolve(owner, path: str):
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs span-recording wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = Spans.empty()
        self.job = -1
        self.counters = defaultdict(int)
        self._stack: list = []
        self._restore: list = []
        self._tensors: dict = {}
        self._evaluated: set = set()

    # -- counters taken at the layer boundaries, outside the timed span ----

    def _note_tensor(self, args):
        tensor = args[0]
        if id(tensor) not in self._tensors:
            # keep the tensor alive so its id cannot be reused
            self._tensors[id(tensor)] = tensor
            d = tensor.dim
            nnz = sum(1 for _ in tensor.nonzero_items())
            self.counters["tensors.input.count"] += 1
            self.counters["tensors.input.density_sum"] += nnz / d ** 4

    def _before_evaluate(self, args):
        self._note_tensor(args)
        key = (id(args[0]), args[1])
        if key in self._evaluated:
            self.counters["tensors.evaluate.repeats"] += 1
        self._evaluated.add(key)

    def _before_rank(self, args):
        rows = args[0]
        self.counters["linalg.sparse_rank.rows"] += len(rows)
        self.counters["linalg.sparse_rank.nnz"] += sum(len(r) for r in rows)

    def _after_rank(self, args, result):
        self.counters["linalg.sparse_rank.rank"] += result

    def _after_enumerate(self, args, result):
        self.counters["diagrams.enumerate.returned"] += len(result)
        self.counters["diagrams.enumerate.generated"] += _double_factorial(2 * args[0] - 1)

    def _after_relations(self, args, result):
        self.counters["diagram_space.four_term_relations.kept"] += len(result)

    def _hooks(self, name):
        before = {
            "tensors.evaluate": self._before_evaluate,
            "tensors.check_four_term": self._note_tensor,
            "tensors.validate_symmetry": self._note_tensor,
            "linalg.sparse_rank": self._before_rank,
        }.get(name)
        after = {
            "linalg.sparse_rank": self._after_rank,
            "diagrams.enumerate": self._after_enumerate,
            "diagram_space.four_term_relations": self._after_relations,
        }.get(name)
        return before, after

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        nid = spans.name_id(name)
        starts, ends, names, parents, jobs = (
            spans.start, spans.end, spans.name, spans.parent, spans.job)
        stack = self._stack
        clock = time.perf_counter
        before, after = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        for name, module_name, path in TARGETS:
            owner, attr = _resolve(importlib.import_module(module_name), path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                original = raw.__func__
                replacement = classmethod(self._wrap(name, original))
            else:
                original = raw
                replacement = self._wrap(name, original)
            if isinstance(owner, type):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, replacement)
                continue
            # a function imported by name lives in several namespaces
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "chordweight" and not mod_name.startswith("chordweight."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, replacement)

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> dict:
        """Span-derived per-layer values, keyed by metric name."""
        summary = summarize(self.spans)
        c = self.counters
        out = {}
        for name, _, _ in TARGETS:
            calls, self_s = summary.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        generated = child_count(self.spans, "diagram_space.four_term_vector",
                                "diagram_space.four_term_relations")
        kept = c["diagram_space.four_term_relations.kept"]
        rows = c["linalg.sparse_rank.rows"]
        evaluated = out["tensors.evaluate.calls"]
        out.update({
            "diagrams.enumerate.yield": _ratio(c["diagrams.enumerate.returned"],
                                               c["diagrams.enumerate.generated"]),
            "diagram_space.four_term_relations.kept": kept,
            "diagram_space.four_term.keep_ratio": _ratio(kept, generated),
            "linalg.sparse_rank.rows": rows,
            "linalg.sparse_rank.nnz": c["linalg.sparse_rank.nnz"],
            "linalg.sparse_rank.rank": c["linalg.sparse_rank.rank"],
            "linalg.sparse_rank.rank_ratio": _ratio(c["linalg.sparse_rank.rank"], rows),
            "tensors.evaluate.repeat_ratio": _ratio(c["tensors.evaluate.repeats"],
                                                    evaluated),
            "tensors.input.density": _ratio(c["tensors.input.density_sum"],
                                            c["tensors.input.count"]),
        })
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
