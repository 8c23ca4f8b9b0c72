"""Which statements of the package the benchmark's traffic runs.

Runs one round of each benchmark workload at seeds 1 and 2, through
``bench/workloads.py``'s ``inputs``, ``setup`` and ``make_ops``, and the
command-line runs that CI makes, all in this process under
``sys.settrace``.  It then prints each statement of ``src/diracmech``
that ran in none of them, with the function that holds it: an error
branch, or code that serves no traffic and can go once no test needs it.

    python tools/traffic.py

It exits 1 if an op's own check fails, an op raises an engine error, or a
command exits nonzero; the statements it prints do not change the exit
code.  It writes nothing under ``bench/``: the op and command outputs go
to a temporary directory.  Line events differ between Python versions;
CI runs it on Python 3.11.
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import linecov

ROOT = linecov.ROOT
SEEDS = (1, 2)


def _cli_runs(out_dir: str) -> list:
    """The argument lists of the command-line runs CI makes."""
    return [
        ["simulate", "--system", "ball_magnetic", "--potential", "0.5*(x^2+y^2)", "--ic", "0,0,1,0,0",
         "--t-end", "0.1", "--out", f"{out_dir}/orbit.csv"],
        ["simulate", "--system", "skater_free", "--ic", "0,0,0,1,1", "--t-end", "3", "--stride", "10",
         "--out", f"{out_dir}/skater.csv"],
        ["inspect", "--system", "ball_harmonic", "--q", "0.1,0.2", "--eta", "1,0,0", "--program"],
        ["check", "--system", "all", "--seed", "0"],
        ["check", "--system", "all", "--seed", "1"],
    ]


def run_traffic() -> list:
    """Run the workloads and the command-line runs; the failures, as lines."""
    import workloads  # bench/workloads.py

    from diracmech import cli
    from diracmech.errors import EngineError

    failures = []
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in SEEDS:
            for workload in workloads.WORKLOADS:
                op_inputs = workloads.inputs(workload, seed)
                ctx = workloads.setup(workload, op_inputs)
                for op in workloads.make_ops(workload, op_inputs, ctx, seed, out_dir):
                    try:
                        reason = op.check(op.run())
                    except EngineError as err:
                        reason = f"{type(err).__name__}: {err}"
                    if reason:
                        failures.append(f"{op.label} at seed {seed}: {reason}")
        for argv in _cli_runs(out_dir):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(argv)
            if code != 0:
                failures.append(f"diracmech {' '.join(argv)} exited {code}: {out.getvalue()[-500:]}")
    return failures


def functions(path: Path) -> list:
    """(first line, last line, dotted name) of each function and class of
    the file, outer ones before the ones they hold."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((child.lineno, child.end_lineno, prefix + child.name))
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), "")
    return out


def owner(spans: list, line: int) -> str:
    """The innermost function or class of ``spans`` holding ``line``."""
    inside = [name for first, last, name in spans if first <= line <= last]
    return inside[-1] if inside else "<module>"


def main() -> int:
    sys.dont_write_bytecode = True  # leaves no __pycache__ under bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    failures, seen = linecov.trace_package(run_traffic)
    missed = linecov.not_run(seen)
    spans = {name: functions(linecov.PACKAGE / name) for name in {m[0] for m in missed}}
    for name, first, text in sorted(missed):
        print(f"traffic: not run {name}:{first} in {owner(spans[name], first)}: {text}")
    print(f"traffic: {len(missed)} statements not run")
    for failure in failures:
        print(f"traffic: FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
