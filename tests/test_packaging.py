"""Packaging: the runtime imports match the declared dependencies, and
importing the CLI loads no scipy and no configparser."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "neutralkahler"


def third_party_imports():
    """Top-level names of the modules ``src/neutralkahler`` imports from
    outside the standard library and outside the package itself."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {PACKAGE.name}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is in the standard library "
                                                       "from Python 3.11 on")
def test_dependencies_are_the_third_party_imports():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for req in project["dependencies"]}
    assert third_party_imports() == declared


def cli_import_loads(package: str) -> list[str]:
    """The modules of ``package`` that a fresh ``import neutralkahler.cli`` loads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, neutralkahler.cli; "
         f"print(*sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_cli_import_loads_no_scipy():
    assert cli_import_loads("scipy") == []


def test_cli_import_loads_no_configparser():
    # only --config reads a file; runs without it skip the import
    assert cli_import_loads("configparser") == []
