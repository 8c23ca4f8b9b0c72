"""Module boundaries: no module of the package reaches into another
module's private (underscore) names."""

import ast
from pathlib import Path

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
    assert MODULES >= {"numcore", "exprparse", "dirac", "systems", "cli"}
    offenders = [hit for p in sorted(PACKAGE_DIR.glob("*.py")) for hit in _private_reads(p)]
    assert offenders == []
