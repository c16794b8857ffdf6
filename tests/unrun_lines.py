"""Print every src/edrkit statement that a pytest run never executes.

Runs pytest in this process under sys.settrace, records the lines executed
in src/edrkit frames only, and prints, per module, each statement none of
whose lines ran: its line number and first source line.  A compound
statement (def, if, for, ...) counts as run when its header ran.
Docstrings and `global`/`nonlocal` declarations run no code and are not
listed.  Code that runs only in a subprocess (the CLI tests that start
`python -m edrkit.cli`) is not traced, so it shows as unrun.

The standard library only, no coverage package.  Tracing slows the suite
about four times (8 minutes against 2 on a 2-vCPU x86 VM), so the runtime
budgets of tests/test_acceptance.py may fail under it; the listing is
printed all the same.  Arguments go to pytest:

    python3 tests/unrun_lines.py                  # the whole suite
    python3 tests/unrun_lines.py tests/test_reduction.py -x
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "edrkit"


def statement_spans(tree: ast.Module) -> list:
    """(first line, lines that show it ran) for each statement of a module."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        spans.append((node.lineno, range(start, max(end, node.lineno) + 1)))
    return spans


def main(argv: list) -> int:
    import pytest

    src = str(SRC)
    executed = {}
    wanted = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        keep = wanted.get(code)
        if keep is None:
            keep = wanted[code] = code.co_filename.startswith(src)
        if not keep:
            return None
        executed.setdefault(code.co_filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        ran = executed.get(str(path), set())
        unrun = sorted(
            first for first, span in statement_spans(ast.parse(text)) if not ran.intersection(span)
        )
        total += len(unrun)
        print(f"{path.relative_to(ROOT)}: {len(unrun)} unrun statements")
        for line in unrun:
            print(f"  {line:5d}  {lines[line - 1].strip()}")
    print(f"{total} unrun statements; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
