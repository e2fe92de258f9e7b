"""The package parses under the oldest Python that pyproject.toml admits.

Each module under src/trilogic goes through `ast.parse` with
`feature_version` set to the `requires-python` floor, so syntax newer than
the floor, such as an `except*` clause under a 3.10 floor, fails here on
any newer interpreter too. The grammar check is all `ast` offers:
a standard-library name added after the floor is not caught.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trilogic"


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text,
                      re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_modules_parse_at_the_floor():
    floor = declared_floor()
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "__init__.py" in modules
    failures = {}
    for path in modules:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=floor)
        except SyntaxError as e:
            failures[str(path.relative_to(PACKAGE))] = f"{e.lineno}: {e.msg}"
    assert failures == {}
