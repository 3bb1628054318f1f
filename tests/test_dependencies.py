import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def third_party_imports():
    """Top-level names the package imports that are neither stdlib nor its own."""
    names = set()
    for path in (ROOT / "src" / "bectension").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"bectension"}


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower()
                for spec in project["dependencies"]}
    imported = third_party_imports()
    assert {"numpy", "orjson"} <= imported  # the scan sees the package's imports
    assert imported <= declared
