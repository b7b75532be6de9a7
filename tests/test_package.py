"""The package's export list, and the allowlist of the function-reach gate."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from types import ModuleType

import chordweight


def test_all_is_exactly_the_public_names_bound_in_the_package():
    for name in chordweight.__all__:
        assert hasattr(chordweight, name), name
    tree = ast.parse(Path(chordweight.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")
              and not isinstance(getattr(chordweight, name), ModuleType)}
    assert sorted(chordweight.__all__) == sorted(public)


def test_every_allowlisted_unreached_function_exists_and_bench_names_it():
    """The allowlist of ``tools/reach.py --runs`` cannot go stale silently:
    each name is a function of the package, and the bench file given for it
    names it, but for ``_reinsert``, which its caller four_term_vector uses."""
    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("reach", root / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)  # a script, not a package
    spec.loader.exec_module(reach)
    for name, bench_file in reach.ALLOWED.items():
        module, *path = name.split(".")
        target = importlib.import_module(f"chordweight.{module}")
        for attr in path:
            target = getattr(target, attr)
        assert callable(target) or isinstance(target, property), name
        assert bench_file.startswith("bench/"), name
        if name != "diagram_space._reinsert":
            text = (root / bench_file).read_text(encoding="utf-8")
            assert re.search(rf"\b{path[-1]}\b", text), name
