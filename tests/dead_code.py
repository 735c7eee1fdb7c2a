"""Dead-code check of the package: run the test suite under a line tracer
and list every statement inside a function of ``src/bnineq`` that never ran.

The suite runs in this process through ``pytest.main``, with a
``sys.settrace`` (and ``threading.settrace``) tracer that records the lines
of frames whose code lies under ``src/bnineq`` and ignores every other
frame.  The statements are read with ``ast``: every statement inside a
function body, nested functions included, less docstrings and the nested
``def`` and ``class`` lines themselves.  A simple statement counts as run
when any of its lines ran, a compound one (``if``, ``for``, ``try``, ...)
when a line of its header did.  Module-level code is not counted; the
import runs all of it.

The script prints ``module.py:line`` for each statement that never ran and
then ``N of M function statements executed``.  It exits 1 if any statement
never ran or the suite failed.  It needs nothing beyond the test extra: no
coverage package.  The file has no ``test_`` prefix, so pytest does not
collect it.  A traced run takes about twice as long as an untraced one.

Run from the repository root::

    python tests/dead_code.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "bnineq"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def function_statements(tree: ast.Module) -> dict[int, range]:
    """The first line of every statement inside a function body of ``tree``,
    each with the lines that count as its running: all of a simple
    statement, the header of a compound one."""
    spans = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.stmt) or isinstance(node, DEFINITIONS):
                continue
            # A docstring, like any bare string statement, compiles to no code.
            if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
                continue
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            spans[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return spans


def traced_suite() -> tuple[int, set[tuple[str, int]]]:
    """Run the suite under the tracer: pytest's exit code and the
    (file, line) pairs that ran under ``SOURCE``."""
    ran = set()
    prefix = str(SOURCE) + os.sep

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SOURCE.parent))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")]
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    code, ran = traced_suite()
    total = dead = 0
    for path in sorted(SOURCE.glob("*.py")):
        spans = function_statements(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for line, span in sorted(spans.items()):
            total += 1
            if not any((str(path), n) in ran for n in span):
                dead += 1
                print(f"{path.name}:{line}")
    print(f"{total - dead} of {total} function statements executed")
    if code != 0:
        print(f"the suite failed (pytest exit code {code})")
    return 1 if dead or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
