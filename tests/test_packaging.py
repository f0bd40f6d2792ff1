"""The package stays pure stdlib: no third-party import, no dependency."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "dgla").glob("*.py"))


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports of one source file."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_dgla(path):
    foreign = _imported_modules(path) - set(sys.stdlib_module_names) - {"dgla"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_importing_the_cli_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast and dis: ~0.9 MiB and ~15 ms on
    # every cold start of the CLI
    code = (
        "import sys; before = set(sys.modules); import dgla.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT / "src",
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "dgla.cli" in added
    assert not {"dataclasses", "inspect", "ast", "dis"} & set(added)
