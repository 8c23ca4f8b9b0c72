"""Line coverage of the package by the Tier-1 suite, as a gate.

Runs the Tier-1 tests in this process under ``sys.settrace``, tracing
only frames whose code lives in ``src/diracmech``, and lists each
statement of the package that no test executed.  It exits 1 if the
suite fails, if any such statement is not in ``ALLOWED``, or if a
statement there did run, so the list cannot go stale.

    python tools/linecov.py

Line events differ between Python versions; the allowlist is kept for
Python 3.11.  ``nonlocal`` and ``global`` statements and docstrings have
no line event and are not counted.  A compound statement counts as run
when its header ran.  Arguments after the script name go to pytest.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diracmech"

# (file, statement text) -> why no Tier-1 test runs it in this process.  A key
# stands for every statement of that text in the file.
ALLOWED = {
    ("__main__.py", "sys.exit(main())"): "runs as ``python -m diracmech``, in subprocess tests only",
    ("cli.py", "sys.exit(main())"): "runs when cli.py is the main module only",
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): (
        "a closed stdout pipe, made in a subprocess test only"
    ),
    ("cli.py", "return 1"): "the return after the closed-pipe branch above",
}


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: Path) -> list:
    """(own lines, first line, text) of each statement of the file that has
    a line event: a simple statement owns all its lines, a compound one the
    lines of its header."""
    source = path.read_text()
    lines = source.splitlines()
    out = []
    for parent in ast.walk(ast.parse(source, filename=str(path))):
        for node in _blocks(parent):
            if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if _is_docstring(node, parent):
                continue
            children = [child.lineno for child in _blocks(node)]
            last = min(children) - 1 if children else node.end_lineno
            own = range(node.lineno, max(last, node.lineno) + 1)
            out.append((own, node.lineno, lines[node.lineno - 1].strip()))
    return out


def _blocks(node) -> list:
    """The statements and except clauses of the blocks directly in ``node``."""
    fields = (getattr(node, f, None) for f in ("body", "orelse", "finalbody", "handlers"))
    return [child for block in fields if isinstance(block, list) for child in block]


def run_traced(pytest_args) -> tuple:
    """(exit code of the suite, {file name: lines run})."""
    import pytest  # imported before tracing starts, so its own import is not traced

    prefix = str(PACKAGE) + os.sep
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def scope(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen.setdefault(name, set())
        return local

    os.chdir(ROOT)
    sys.settrace(scope)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(code), {Path(name).name: lines for name, lines in seen.items()}


def main(argv) -> int:
    code, seen = run_traced(argv)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = seen.get(path.name, set())
        missed += [(path.name, first, text) for own, first, text in statements(path) if ran.isdisjoint(own)]
    unexpected = [m for m in missed if (m[0], m[2]) not in ALLOWED]
    stale = sorted(set(ALLOWED) - {(name, text) for name, _, text in missed})
    for name, first, text in missed:
        mark = "allowed" if (name, text) in ALLOWED else "MISSED "
        print(f"linecov: {mark} {name}:{first}: {text}")
    for name, text in stale:
        print(f"linecov: STALE   {name}: {text!r} is allowed but ran")
    print(f"linecov: {len(missed)} statements not run, {len(unexpected)} not allowed, {len(stale)} stale")
    if code != 0:
        print(f"linecov: the suite failed (pytest exit code {code})")
    return 1 if code or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
