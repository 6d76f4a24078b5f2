"""The certificate verifiers read nothing of the searches they check."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "cfk"

# the top-level definitions of each module that make up the verifiers
VERIFIERS = {
    "upsilon.py": {"_DirectChecker", "verify_gamma_certificate", "_residue", "_span",
                   "sector", "level"},
    "upsilon2.py": {"verify_gamma2_certificate"},
}
SEARCH_NAMES = {"_SectorEngine", "_Memo", "first_entry", "by_threshold", "_scaled_levels",
                "Echelon", "in_span", "f2linalg"}
SEARCH_ATTRIBUTES = {"lam", "layout", "class_columns", "odd_columns", "_reduce", "_rows"}
# the verifiers' keys come from _DirectChecker.keys alone, never from a level recomputed
KEY_FORMULA_HOME = {"upsilon.py": {"_DirectChecker", "verify_gamma_certificate"},
                    "upsilon2.py": {"verify_gamma2_certificate"}}
LEVEL_NAMES = {"level", "level_slope", "check_parameter"}


def search_references(tree: ast.Module, scope: set[str]) -> tuple[list[str], set[str]]:
    """What the top-level definitions in ``scope`` read of the searches.

    Returns the search names and attributes they read, each with its line,
    and the names of every function and class defined within them, nested
    ones included.
    """
    found, defined = [], set()
    for top in tree.body:
        if not (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in scope):
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and node.id in SEARCH_NAMES:
                found.append(f"{node.id} (line {node.lineno})")
            elif (isinstance(node, ast.Attribute)
                  and node.attr in SEARCH_NAMES | SEARCH_ATTRIBUTES):
                found.append(f".{node.attr} (line {node.lineno})")
    return found, defined


def names_read(tree: ast.Module, scope: set[str]) -> set[str]:
    """Every name that the top-level definitions in ``scope`` read, nested ones included."""
    return {node.id for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in scope
            for node in ast.walk(top) if isinstance(node, ast.Name)}


def test_the_verifiers_have_one_key_formula():
    for name, scope in KEY_FORMULA_HOME.items():
        path = SOURCES / name
        tree = ast.parse(path.read_text(), str(path))
        assert {top.name for top in tree.body if hasattr(top, "name")} >= scope, name
        assert names_read(tree, scope) & LEVEL_NAMES == set(), name


def test_a_level_call_is_found():
    tree = ast.parse("def verify(c, t):\n"
                     "    def side(e):\n        return level(t, e)\n"
                     "    return side, check_parameter(t)\n"
                     "def level(t, e):\n    return level_slope(e)\n")
    assert names_read(tree, {"verify"}) & LEVEL_NAMES == {"level", "check_parameter"}


def test_the_verifiers_read_nothing_of_the_searches():
    nested = set()
    for name, scope in VERIFIERS.items():
        path = SOURCES / name
        found, defined = search_references(ast.parse(path.read_text(), str(path)), scope)
        assert found == [], name
        assert scope <= defined, name  # a renamed verifier is not skipped silently
        nested |= defined
    assert {"check_side", "least_class_cycle", "merges"} <= nested


def test_a_search_reference_is_found():
    tree = ast.parse("def level(e):\n    return e.alg\n"
                     "class _DirectChecker:\n"
                     "    def f(self, c):\n        return c.lam, first_entry\n"
                     "def verify(c):\n"
                     "    def check_side():\n        return c.layout.position\n"
                     "    return in_span(c.rows, 0), Echelon()\n"
                     "def gamma(c):\n    return _SectorEngine(c).class_columns\n")
    found, defined = search_references(tree, {"level", "_DirectChecker", "verify"})
    assert found == [".lam (line 5)", "first_entry (line 5)", ".layout (line 8)",
                     "in_span (line 9)", "Echelon (line 9)"]
    assert defined == {"level", "_DirectChecker", "f", "verify", "check_side"}
