"""Checks of the import lists: the public names of ``bsdkit`` match the
modules' ``__all__``, no module imports a name it never reads, and importing
the package loads neither ``numpy.random`` nor SciPy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bsdkit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bsdkit"


def package_imports() -> list:
    """(module, name) for every name ``bsdkit/__init__.py`` imports from a module."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


@pytest.mark.parametrize("module,name", package_imports())
def test_every_package_name_is_in_its_module_all(module, name):
    assert name in getattr(bsdkit, module).__all__


def unused_imports(path: Path) -> list:
    """The names a module imports and neither reads nor lists in ``__all__``;
    an import line marked ``# noqa: F401`` is an intended re-export."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


# __init__.py files import only to re-export
SOURCES = sorted(p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import os\nimport numpy as np  # noqa: F401\nfrom math import pi, tau\n"
                    "__all__ = ['tau']\n")
    assert unused_imports(path) == ["os (line 1)", "pi (line 3)"]


def test_importing_the_package_loads_neither_numpy_random_nor_scipy():
    # every fresh process pays for what the import loads: numpy.random alone
    # costs about 10 ms, so domains imports it on first use
    code = ("import sys, bsdkit, bsdkit.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'random']))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
