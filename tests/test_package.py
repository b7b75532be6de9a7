"""The package's export list."""

import ast
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
