"""Every third-party module ``src/repro`` imports is a declared dependency.

Walks every ``import`` statement in the package (module level and
deferred ones alike: a lazy import is still needed at run time), keeps
the top-level module name, drops the standard library
(``sys.stdlib_module_names``) and ``repro`` itself, and requires each
remaining name in ``[project].dependencies`` of ``pyproject.toml``.
Distribution names are compared to module names after normalising
``-`` to ``_`` and case; every dependency so far imports under its own
name.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _normalise(name: str) -> str:
    return name.replace("-", "_").lower()


def _declared() -> Set[str]:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {
        _normalise(re.match(r"[A-Za-z0-9_.-]+", req).group(0))
        for req in requirements
    }


def _imported() -> Dict[str, List[str]]:
    """Top-level third-party module -> ``path:line`` sites importing it."""
    sites: Dict[str, List[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                sites.setdefault(top, []).append(where)
    return sites


def test_third_party_imports_are_declared():
    imported = _imported()
    assert "numpy" in imported, "the import scan found nothing"
    declared = _declared()
    missing = {
        module: where
        for module, where in imported.items()
        if _normalise(module) not in declared
    }
    assert not missing, (
        "imported by src/repro but missing from [project].dependencies: "
        + "; ".join(f"{m} ({', '.join(w)})" for m, w in sorted(missing.items()))
    )
