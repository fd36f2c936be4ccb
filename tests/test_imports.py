"""Every module of the package uses each name it imports.

Read with the standard library's `ast` only: a name counts as used where it
appears as a name in the module's code, annotations included. The
package's `__init__.py` is its namespace, so everything it imports is
re-exported and used by definition.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "relsingosc"

# imported for a reader outside the module: `benchmarks/tracing.py` patches
# `cli.ThreadPoolExecutor` to trace a pool that `cli` no longer builds
KEPT = {("cli", "ThreadPoolExecutor")}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used and (path.stem, name) not in KEPT)
    assert not unused, f"{path.name} imports names it never uses: " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_the_kept_names_are_still_imported_and_unused():
    # an entry of KEPT that the module now uses, or no longer imports, is stale
    for stem, name in KEPT:
        tree = ast.parse((SRC / f"{stem}.py").read_text())
        assert name in _imported(tree) and name not in _used(tree), (stem, name)
