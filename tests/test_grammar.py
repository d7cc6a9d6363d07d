"""Every .py file under src/, tests/, tools/ and perfbench/ parses as Python 3.10.

pyproject.toml declares requires-python >= 3.10 while the suite may run on
a newer interpreter. This checks grammar only, with
`ast.parse(..., feature_version=(3, 10))`: a call to a standard-library
function added after 3.10 still passes here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "tools", "perfbench") for path in (ROOT / top).rglob("*.py"))


def parse_as_310(text, filename="<text>"):
    return ast.parse(text, filename=filename, feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_source_parses_as_python_3_10(path):
    parse_as_310(path.read_text(encoding="utf-8"), str(path))


def test_newer_grammar_is_rejected():
    assert len(SOURCES) > 10
    with pytest.raises(SyntaxError):  # except* is 3.11 grammar
        parse_as_310("try:\n    pass\nexcept* ValueError:\n    pass\n")
