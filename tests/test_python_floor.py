"""The package's source parses under the oldest Python that ``pyproject.toml`` declares.

Tests run on one interpreter, so a newer syntax (an ``except*``, a type
parameter list) would pass them and still fail on the declared floor. The
timestamp and date grammars are the package's own, so syntax is what is
left to pin.
"""

import ast
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "crowdmetrics").glob("*.py"))


def declared_floor() -> tuple[int, int]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", project["requires-python"]).groups()
    return int(major), int(minor)


def test_readme_states_the_declared_floor():
    major, minor = declared_floor()
    assert f"Requires Python {major}.{minor}+" in (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_floor())


def test_newer_syntax_would_fail():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=declared_floor())
