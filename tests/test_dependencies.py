"""Every third-party module ``repro`` imports at load time is declared.

A clean ``pip install .`` installs only ``pyproject.toml``'s
``dependencies``; a module imported at the top level of any ``repro``
file but missing there breaks ``import`` for every user.  Optional
accelerators (e.g. numba) are imported lazily or under ``try`` and are
not top-level statements, so they are exempt.  Stdlib only.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"


def declared_dependencies() -> set[str]:
    """Import names of ``[project] dependencies`` (tomllib is 3.11+)."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block, "pyproject.toml has no [project] dependencies list"
    names = re.findall(r"[\"']\s*([A-Za-z0-9_.\-]+)", block.group(1))
    return {name.lower().replace("-", "_") for name in names}


def top_level_imports(path: Path) -> set[str]:
    """Root module names imported by the module body's own statements."""
    roots = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_top_level_third_party_imports_are_declared():
    declared = declared_dependencies()
    undeclared = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for root in top_level_imports(path):
            if (
                root == "repro"
                or root in sys.stdlib_module_names
                or root in declared
            ):
                continue
            undeclared.setdefault(root, []).append(
                str(path.relative_to(ROOT))
            )
    assert not undeclared, f"undeclared dependencies: {undeclared}"


def test_scanner_sees_numpy_and_scipy():
    """Guard against a scanner that silently finds nothing."""
    seen = set()
    for path in SOURCE.rglob("*.py"):
        seen |= top_level_imports(path)
    assert {"numpy", "scipy"} <= seen
