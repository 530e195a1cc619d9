"""Each module imports on its own in a fresh interpreter, warning-free, and
uses every name it imports; the package root loads nothing but the error
types."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import opembed

SRC = Path(opembed.__file__).resolve().parents[1]
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(opembed.__path__))


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_root_loads_only_the_errors():
    result = _python("-c", "import sys, opembed; print(*sorted(m for m in sys.modules "
                           "if m.split('.')[0] in ('opembed', 'numpy')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["opembed", "opembed.errors"]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_on_its_own(name):
    result = _python("-c", f"import opembed.{name}")
    assert result.returncode == 0, result.stderr


def test_cli_help_runs_warning_free():
    result = _python("-m", "opembed.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert "train-embedding" in result.stdout


def _unused_imports(path: Path) -> list[str]:
    """Each name the module at path imports and never reads, with its line.
    No linter is a dependency, so this reads the module's syntax tree."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


# the package root is not scanned: it imports the error types only to export them
@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_reads_every_name_it_imports(name):
    assert _unused_imports(SRC / "opembed" / f"{name}.py") == []
