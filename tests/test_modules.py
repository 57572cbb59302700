"""Module boundaries of the package: no module of ``durastm`` imports a
private (``_``-prefixed) name of another, or reaches one through a module it
imported.  What one module needs from another is public API."""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "durastm"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    modules = set()  # local names bound to durastm modules
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and node.module.split(".")[0] != "durastm":
            continue
        package = node.module in (None, "durastm")
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"line {node.lineno}: imports {alias.name}")
            if package:  # ``from . import histories as H``
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(
                f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_private_names_of_another() -> None:
    offenders = {path.name: _private_uses(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert len(offenders) >= 9
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_private_use_detector_sees_each_form() -> None:
    source = ("from __future__ import annotations\n"
              "from .dtms2 import _closure\n"
              "from durastm.opacity import _legal\n"
              "from . import histories as H\n"
              "from durastm import explorer as E\n"
              "from .histories import Domain\n"
              "H._txn_moves, E._Pipeline, H.wf_start\n")
    assert len(_private_uses(source)) == 4
