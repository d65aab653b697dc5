import ast
import sys
from pathlib import Path

import robust_recourse

# The package declares numpy as its one dependency; the standard library and
# the package itself are the only other imports it may use.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "robust_recourse"}


def _imports(path):
    """Top-level names of the modules a source file imports; relative imports give the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "robust_recourse" if node.level else node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(Path(robust_recourse.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {(path.name, name) for path in sources for name in _imports(path)}
    assert {name for _, name in found} >= {"numpy", "robust_recourse"}
    assert sorted((file, name) for file, name in found if name not in ALLOWED) == []
