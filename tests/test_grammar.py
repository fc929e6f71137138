"""pyproject.toml declares `requires-python >= 3.10`: every Python file of
the package, its tests and its benchmark parses under that grammar."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests", "perfbench") for p in (REPO / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(REPO)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
