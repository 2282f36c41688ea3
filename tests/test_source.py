"""Checks on the source text of the package itself, and on the names the
benchmark harness in perfbench/ reads from it."""

import ast
import importlib
import inspect
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


_PERFBENCH = sorted((pathlib.Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


def _resolve(dotted):
    """The object a dotted sketchqr name refers to; AttributeError or
    ImportError if it is gone."""
    first, *rest = dotted.split(".")
    obj = importlib.import_module(first)
    for part in rest:
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def _table_rows(tree, name):
    """The leading string constants of each tuple in the list `name = [...]`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return [tuple(e.value for e in row.elts[:2]) for row in node.value.elts]
    return []


def missing_sketchqr_names(source):
    """The sketchqr names a perfbench file reads that do not exist: its
    imports from sketchqr, every module.attr read on a name bound to
    sketchqr or to one of its modules, the (module, attribute) rows of
    FUNCTIONS and the (sketching class, method) rows of METHODS."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sketchqr":
                    bound[alias.asname or "sketchqr"] = alias.name if alias.asname else "sketchqr"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sketchqr":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = set(bound.values())
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id]] + parts))
    names |= {f"sketchqr.{mod}.{attr}" for mod, attr in _table_rows(tree, "FUNCTIONS")}
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    for cls, meth in _table_rows(tree, "METHODS"):
        if meth not in vars(getattr(sketchqr.sketching, cls, object)):
            missing.append(f"sketchqr.sketching.{cls}.{meth}")
    return missing


def test_missing_sketchqr_names_are_found():
    source = ("import sketchqr\nfrom sketchqr import rhqr, nomod\n"
              "rhqr.rhqr_left(sketchqr.linalg.to_dtype, sketchqr.gone, rhqr.Gone.x)\n"
              "FUNCTIONS = [('rhqr', 'thin_q', 'a', None), ('trim', 'gone', 'b', None)]\n"
              "METHODS = [('SRHTSketch', '__init__', 'c', None), ('SRHTSketch', 'gone', 'd', None)]\n")
    assert missing_sketchqr_names(source) == [
        "sketchqr.gone", "sketchqr.nomod", "sketchqr.rhqr.Gone", "sketchqr.rhqr.Gone.x",
        "sketchqr.trim.gone", "sketchqr.sketching.SRHTSketch.gone"]


@pytest.mark.parametrize("path", _PERFBENCH, ids=lambda p: p.name)
def test_benchmark_reads_only_names_the_package_has(path):
    # the benchmark harness is parsed, not imported: a change to the package
    # that removes or renames a name it reads fails here
    assert missing_sketchqr_names(path.read_text()) == []
