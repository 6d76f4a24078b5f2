"""Every name a module of the package imports is used in that module, and
importing the command line loads none of the heavy standard modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "cfk").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the imports in tree that nothing else in it reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom a.b import c as d, e\nfrom f import g\n"
                     "def h(x: e) -> None:\n    os.path\n")
    assert unused_imports(tree) == ["d (line 2)", "g (line 3)"]


# dataclasses alone brings in inspect, ast, dis and tokenize; typing costs
# about as much again.  Every cfk process pays for what ``import cfk.cli``
# loads, and -S keeps site's own imports (a .pth file may load typing) from
# hiding one.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_the_command_line_loads_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = f"import sys, cfk.cli; print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
