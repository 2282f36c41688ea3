"""Checks on the source text of the package itself."""

import ast
import pathlib

import pytest

import sketchqr

_MODULES = sorted(p for p in pathlib.Path(sketchqr.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def unused_imports(source):
    """Names a module imports but never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nimport scipy.linalg\nfrom a import b, c\nnp.x(c)\n"
    assert unused_imports(source) == ["os", "scipy", "b"]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_modules_import_only_what_they_use(path):
    # __init__ imports to re-export, so it is left out
    assert unused_imports(path.read_text()) == []
