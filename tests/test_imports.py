"""Every name a module of the package imports is used in that module,
importing the command line loads none of the heavy standard modules, and
the complexes and searches load only when a command computes, with the
package's names where they were."""

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
# loads, and -S keeps site's own imports (a .pth file may load typing and
# tempfile) from hiding one.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

# a command that computes nothing loads none of these
COMPUTING_MODULES = ("cfk.complexes", "cfk.exactnum", "cfk.semigroup", "cfk.f2linalg",
                     "cfk.upsilon", "cfk.upsilon2", "fractions", "decimal", "tempfile")


def probe(code: str) -> str:
    """stdout of a fresh ``python -S -c code`` that imports this cfk."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_the_command_line_loads_no_heavy_module():
    modules = HEAVY_MODULES + COMPUTING_MODULES
    out = probe(f"import sys, cfk.cli; print(sorted(set({modules!r}) & set(sys.modules)))")
    assert out == "[]\n"


def run_fresh(argv: list[str]) -> tuple[str, list[str]]:
    """stdout of cli.run(argv) in a fresh interpreter, and the computing modules it loaded."""
    *lines, loaded = probe(f"""
import sys
from cfk import cli
try:
    cli.run({argv!r})
except SystemExit:  # --help
    pass
print(*sorted(set({COMPUTING_MODULES!r}) & set(sys.modules)))
""").splitlines(keepends=True)
    return "".join(lines), loaded.split()


def test_a_hit_help_and_a_syntax_error_load_no_computing_module(tmp_path):
    argv = ["invariants", "T(3,4) # T(2,5)", "--no-timing", "--cache", str(tmp_path)]
    miss, loaded = run_fresh(argv)
    assert loaded == sorted(COMPUTING_MODULES)
    assert run_fresh(argv) == (miss, [])
    assert run_fresh(["--help"])[1] == []
    assert run_fresh(["invariants", "--help"])[1] == []
    assert run_fresh(["distinguish", "T(2,3) # T(2,", "T(2,3)"]) == ("", [])


def test_a_miss_loads_the_computing_modules_and_prints_the_same_bytes(capsys):
    from cfk.cli import run

    argv = ["invariants", "-T(2,3) # T(3,4)", "--no-timing"]
    text, loaded = run_fresh(argv)
    assert loaded == sorted(set(COMPUTING_MODULES) - {"tempfile"})  # no cache to write
    assert run(argv) == 0
    assert text == capsys.readouterr().out


PUBLIC_NAMES = [
    "AlexanderPolynomial", "BifilteredComplex", "BreakpointVerificationError",
    "CertificateError", "DomainError", "Gamma2Certificate", "GammaCertificate",
    "Generator", "InvalidTorusKnotError", "KnotExpressionError", "MergeWitness",
    "NotApplicableError", "PiecewiseLinear", "SectorElement", "StepVector",
    "UnsupportedComplexError", "alexander_torus", "canonical_expression",
    "direct_sum_with_box", "dual", "gamma2_at", "gamma_at", "level",
    "parse_knot_expression", "sector", "staircase_complex", "step_vector", "tensor",
    "torus_knot_complex", "trivial_complex", "upsilon", "upsilon2_at",
    "verify_gamma2_certificate", "verify_gamma_certificate",
]


def test_the_public_names_are_unchanged():
    import cfk

    assert cfk.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from cfk import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(cfk))


@pytest.mark.parametrize("first", [
    "import cfk.upsilon",
    "import cfk.upsilon2",
    "from cfk import cli; cli.run(['invariants', 'T(2,3)', '--no-timing'])",
])
def test_cfk_upsilon_is_the_function_whatever_loads_first(first):
    out = probe(f"""
{first}
import sys, types, cfk
import cfk.upsilon as m
print(type(cfk.upsilon) is types.FunctionType, m is cfk.upsilon,
      type(sys.modules["cfk.upsilon"]) is types.ModuleType)
""")
    assert out.endswith("True True True\n")


def test_an_unknown_attribute_is_an_attribute_error():
    import cfk
    import cfk.cli

    for module in (cfk, cfk.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
    # perfbench's tracer skips a name that cfk.cli does not hold
    assert getattr(cfk.cli, "tensor", None) is None


def test_a_patch_made_before_the_first_miss_is_called():
    # as perfbench's tracer patches cfk.cli.upsilon: the first miss keeps it
    out = probe("""
import sys, cfk, cfk.cli
calls = []
cfk.cli.upsilon = lambda c: calls.append(len(c.generators)) or cfk.upsilon(c)
loaded = "cfk.upsilon" in sys.modules
cfk.cli.run(["invariants", "T(2,5)", "--no-timing"])
print(loaded, calls, cfk.cli.upsilon.__name__)
""")
    assert out.endswith("False [5] <lambda>\n")
