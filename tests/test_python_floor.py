"""The package, its tests and its benchmark parse under the oldest Python
that `pyproject.toml` declares; CI runs tier 1 on that version too."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_every_source_file_parses_under_the_declared_floor():
    floor = declared_floor()
    assert floor == (3, 10)
    paths = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
