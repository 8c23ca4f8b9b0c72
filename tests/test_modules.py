"""Module boundaries: no module of the package reaches into another
module's private (underscore) names."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracmech

PACKAGE_DIR = Path(diracmech.__file__).parent
MODULES = {p.stem for p in PACKAGE_DIR.glob("*.py")} - {"__init__"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_module(node: ast.ImportFrom, name: str | None = None):
    """The package module an import refers to, or None for outside ones."""
    if node.level == 1 and node.module is None:
        return name if name in MODULES else None
    if node.level == 1:
        return node.module.split(".")[0]
    if node.module and node.module.split(".")[0] == "diracmech":
        parts = node.module.split(".")
        return parts[1] if len(parts) > 1 else (name if name in MODULES else None)
    return None


def _private_reads(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                target = _package_module(node, alias.name)
                if target is None:
                    continue
                if target == alias.name:
                    aliases[alias.asname or alias.name] = target
                elif _is_private(alias.name):
                    found.append(f"imports {target}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "diracmech" and len(parts) > 1 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or not _is_private(node.attr):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in aliases:
            found.append(f"reads {aliases[value.id]}.{node.attr}")
        elif (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "diracmech"
            and value.attr in MODULES
        ):
            found.append(f"reads {value.attr}.{node.attr}")
    return [f"{path.name} {what}" for what in found]


def test_private_name_detector_sees_imports_and_attribute_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import numcore\n"
        "from .dirac import _check_reduced, solve_consistency\n"
        "import diracmech.frame as fr\n"
        "x = numcore._scalar(1.0) + numcore.value_of(2.0)\n"
        "y = fr._check_point\n"
        "import diracmech.integrate\n"
        "z = diracmech.integrate._compensated_add\n"
    )
    assert sorted(_private_reads(probe)) == [
        "probe.py imports dirac._check_reduced",
        "probe.py reads frame._check_point",
        "probe.py reads integrate._compensated_add",
        "probe.py reads numcore._scalar",
    ]


def test_no_module_uses_private_names_of_another():
    assert MODULES >= {"numcore", "tracing", "exprparse", "dirac", "systems", "cli"}
    offenders = [hit for p in sorted(PACKAGE_DIR.glob("*.py")) for hit in _private_reads(p)]
    assert offenders == []


def _caught_names(path: Path) -> set:
    """Names of the exception classes a module's ``except`` clauses catch."""
    caught = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught.update(t.id for t in types if isinstance(t, ast.Name))
    return caught


def _running_maxima(path: Path) -> list:
    """The lines of ``path`` that write ``x = max(x, ...)``, with x in any
    argument position."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "max"
            and ast.unparse(node.targets[0]) in map(ast.unparse, node.value.args)
        ):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_running_maximum_detector_sees_any_target(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "worst = max(worst, err)\n"
        "self.top[0] = max(err, self.top[0])\n"
        "scale = max(norm, 1e-30)\n"
        "worst = max(errors)\n"
    )
    assert _running_maxima(path) == ["sample.py:1", "sample.py:2"]


def test_no_file_keeps_a_running_maximum():
    # max(x, nan) is x, so a running maximum drops a nan error unless it
    # comes first; numcore.max_abs returns nan as soon as it meets one
    files = sorted(PACKAGE_DIR.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert [line for path in files for line in _running_maxima(path)] == []


def test_only_numcore_catches_float_errors():
    # generated code catches float errors by itself and then runs the
    # function it was traced from, so no other module needs to
    offenders = {
        p.name: sorted(_caught_names(p) & {"OverflowError", "ZeroDivisionError"})
        for p in sorted(PACKAGE_DIR.glob("*.py"))
        if p.stem != "numcore"
    }
    assert {name: hit for name, hit in offenders.items() if hit} == {}
    assert "OverflowError" in _caught_names(PACKAGE_DIR / "numcore.py")


def test_tracer_carries_no_partials():
    # the tracing scalar records float operations only; the derivative rules
    # are DualScalar's
    from diracmech import tracing

    assert "partials" not in tracing.Tracer.__slots__


def test_no_module_caches_a_false_program():
    # a compiled program is a drop-in for the function it was traced from,
    # so no caller keeps a sentinel for an untraceable one
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                first = node.values[0]
                if isinstance(first, ast.Call) and getattr(first.func, "id", None) == "compile_traced":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_generated_code_has_one_exit_to_its_reference():
    from diracmech import numcore, tracing

    def fn(x, y):
        return numcore.log(x) / y + numcore.sqrt(y) * x**0.5

    source, _, _ = tracing._source(fn, 2)
    assert "raise give_up" in source
    assert "return None" not in source
    assert source.count("reference(") == 1
    assert source.splitlines()[-1] == "    return reference(x0, x1)"
    program = tracing.compile_traced(fn, 2)
    assert program(4.0, 1.0) == fn(4.0, 1.0)
    with pytest.raises(numcore.NumericDomainError, match="log of a non-positive value"):
        program(-1.0, 1.0)  # a guard gives up, and the reference raises


def test_compile_traced_returns_an_untraceable_function_itself():
    from diracmech import tracing

    def fn(x):
        return x if x > 0.0 else -x

    assert tracing.compile_traced(fn, 1) is fn


def _strings(path: Path) -> list:
    """The string constants of a module that are not docstrings."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    ]


def test_only_tracing_writes_program_text():
    # numcore's rules record guards, signs, calls and raw powers through the
    # tracer's methods, and pass it no text
    fragments = ("give_up", "raise", "0.0", "**", " = ", "==", "<", " if ", "traced", "reference")
    assert [s for s in _strings(PACKAGE_DIR / "numcore.py") if any(f in s for f in fragments)] == []
    assert "    except (give_up, *float_errors): pass" in _strings(PACKAGE_DIR / "tracing.py")


_CODE_BUILTINS = {"exec", "compile", "eval"}


def _code_builtin_calls(path: Path) -> list:
    """Calls of the builtins that run program text, by name or through
    ``builtins``; ``re.compile`` and other methods are not among them."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in _CODE_BUILTINS:
            found.append(f"{path.name}:{node.lineno} {fn.id}")
        elif (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "builtins"
            and fn.attr in _CODE_BUILTINS
        ):
            found.append(f"{path.name}:{node.lineno} builtins.{fn.attr}")
    return found


def test_code_builtin_detector_sees_names_and_builtins(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import builtins, re\n"
        "exec(compile('x = 1', '<p>', 'exec'), {})\n"
        "builtins.eval('1')\n"
        "pattern = re.compile('x')\n"
    )
    assert sorted(_code_builtin_calls(probe)) == [
        "probe.py:2 compile", "probe.py:2 exec", "probe.py:3 builtins.eval"
    ]


def test_only_tracing_runs_program_text():
    # generated code, the integrator's step included, is written and
    # compiled in one module
    calls = {p.stem: _code_builtin_calls(p) for p in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {stem: hits for stem, hits in calls.items() if hits and stem != "tracing"} == {}
    assert calls["tracing"], "tracing compiles no program"


@pytest.mark.parametrize("module", sorted(MODULES - {"__main__"}))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # numcore imports tracing, and a tracer's ** reaches numcore.power when
    # called: no import order may meet a half-initialized module
    src = str(PACKAGE_DIR.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", f"import diracmech.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_bench_traced_layers_name_functions_of_the_package():
    # bench/tracing.py wraps these functions by name for its per-layer
    # metrics, so a function moved out of its module breaks the traced run
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]
    )
    assert len(layers) >= 4
    missing = [
        f"{module}.{name}"
        for module, names, _ in layers
        for name in names or ()
        if not inspect.isfunction(getattr(importlib.import_module(f"diracmech.{module}"), name, None))
    ]
    assert missing == []


# The names under which the bench scripts hold the engine's modules, as
# variables or as keys of ``workloads.setup``'s context (``dm`` is the package).
BENCH_ALIASES = {
    "dm": "diracmech",
    "checks": "diracmech.checks",
    "cli": "diracmech.cli",
    "exprparse": "diracmech.exprparse",
}


def _bench_alias(node):
    """``dm`` for the expression ``dm`` or ``ctx["dm"]``, else None."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        key = node.slice.value
    else:
        key = getattr(node, "id", None)
    return key if key in BENCH_ALIASES else None


def test_bench_reads_only_names_the_package_defines():
    # a name the bench reads but the package lost fails only in a bench run
    read = set()
    for path in sorted((Path(__file__).parents[1] / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and _bench_alias(node.value):
                read.add((_bench_alias(node.value), node.attr))
    assert {
        ("dm", "reduced_vector_field"),
        ("dm", "rk4_step"),
        ("checks", "ENERGY_DRIFT_TOL"),
        ("checks", "available_checks"),
        ("cli", "RunConfig"),
        ("exprparse", "parse_text"),
    } <= read
    missing = sorted(
        f"{alias}.{name}"
        for alias, name in read
        if not hasattr(importlib.import_module(BENCH_ALIASES[alias]), name)
    )
    assert missing == []


def test_the_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 1
