"""The package's internal import graph, read from each module's relative
imports.  The time stepping in `solver` knows nothing of the Bihari bound,
and the plain half (`girsanov`) and the transformed half (`zvonkin`,
`coupling`) do not import each other; a new edge shows here first."""

import ast
from pathlib import Path

import delaysde

PACKAGE = Path(delaysde.__file__).parent

EDGES = {
    "measure": set(),
    "rng": set(),
    "model": {"measure"},
    "solver": {"measure", "model", "rng"},
    "bihari": {"measure", "model", "rng", "solver"},
    "girsanov": {"measure", "model", "rng", "solver"},
    "zvonkin": {"measure", "model", "rng"},
    "coupling": {"measure", "model", "rng", "zvonkin"},
    "harnack": {"coupling", "girsanov", "measure", "rng", "solver", "zvonkin"},
}


def _relative_imports(path: Path) -> set:
    """Sibling modules named by `from .x import ...` and `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found.update(a.name for a in node.names if (PACKAGE / f"{a.name}.py").exists())
    return found


def test_library_import_graph():
    got = {name: _relative_imports(PACKAGE / f"{name}.py") for name in EDGES}
    assert got == EDGES
