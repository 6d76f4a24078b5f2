"""List the statements of cfk's functions that the tier-1 tests never execute.

Run by hand from anywhere, with the tier-1 selection by default or with
pytest arguments of your own:

    python tests/linetrace.py
    python tests/linetrace.py tests/test_cli.py -k distinguish

It runs pytest in this process under ``sys.settrace``, recording the line
events of frames whose code lies in ``src/cfk`` of this checkout, and then
prints ``path:line: function: source`` for each statement in a function
body, a method's included, that raised no line event.  Module-level code
is not listed, and neither are docstrings, ``global`` statements or the
``try:`` line, which compile to no code of their own.  A statement counts
as executed when any line it spans (for a compound statement, any line of
its header) raised an event.  Only the standard library is used.  The
tier-1 run of 723 tests takes about 4 min 10 s under the trace on 2 CPUs
with Python 3.11.7, against about 1 min untraced.

Code that runs in a child process is not traced.  The tests that start a
fresh interpreter (``tests/test_imports.py``, the ``python -m cfk`` tests
in ``tests/test_cli.py``) are the only ones that reach some statements,
so those show up here although they run: ``cfk.cli.__getattr__``'s bind
branch, where another module reads a computing name first, and the
``sys.exit`` of ``cfk.cli.main``.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cfk"
TIER_1 = ["-q", "--continue-on-collection-errors"]


def statement_spans(tree: ast.Module):
    """(qualified function name, first line, last line) of each function-body statement.

    A compound statement spans its header only: the lines before its first
    child statement.
    """
    def header_end(node) -> int:
        starts = [part[0].lineno for part in (getattr(node, name, None) for name in
                                              ("body", "handlers", "orelse", "finalbody"))
                  if isinstance(part, list) and part]
        return max(node.lineno, min(starts) - 1) if starts else node.end_lineno

    def walk(body, function, prefix):
        # function is the innermost function around body, None outside any
        for node in body:
            if function is not None and not _compiles_to_nothing(node, body):
                first = min([d.lineno for d in getattr(node, "decorator_list", ())]
                            + [node.lineno])
                yield function, first, header_end(node)
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, function, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(node.body, prefix + node.name, f"{prefix}{node.name}.")
            else:
                for handler in getattr(node, "handlers", ()):
                    if function is not None:
                        yield function, handler.lineno, header_end(handler)
                    yield from walk(handler.body, function, prefix)
                for name in ("body", "orelse", "finalbody"):
                    part = getattr(node, name, None)
                    if isinstance(part, list):
                        yield from walk(part, function, prefix)

    yield from walk(tree.body, None, "")


def _compiles_to_nothing(node: ast.stmt, body: list) -> bool:
    docstring = (node is body[0] and isinstance(node, ast.Expr)
                 and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))
    return docstring or isinstance(node, (ast.Global, ast.Nonlocal, ast.Try))


def traced_run(args: list[str]) -> tuple[int, dict[str, bytearray]]:
    """pytest's exit code for args and, per file of the package, a flag per executed line.

    The flags are allocated up front and the trace functions allocate
    nothing, so the tests that measure memory or count garbage cycles see
    what they see untraced.
    """
    import pytest

    hits = {str(path): bytearray(len(path.read_bytes().splitlines()) + 2)
            for path in PACKAGE.glob("*.py")}

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename][frame.f_lineno] = 1
        return line

    def enter(frame, event, arg):
        # called on each new frame: trace its lines only if its code is cfk's
        return line if frame.f_code.co_filename in hits else None

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    code, hits = traced_run(argv or TIER_1)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        seen = hits[str(path)]
        for function, first, last in statement_spans(ast.parse(source, str(path))):
            if not any(seen[first:last + 1]):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {function}: {lines[first - 1].strip()}")
    print(f"{missed} statements never executed; pytest exited {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
