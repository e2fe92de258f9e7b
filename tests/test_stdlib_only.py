"""The package stays on the standard library alone, and off the network.

Every import in every module under src/trilogic, those inside functions
included, names a standard library module or trilogic itself.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trilogic"

NETWORK_MODULES = {"urllib", "http", "socket", "ssl"}


def imported_names(path: Path) -> set[str]:
    """The top-level name of each absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_stdlib_and_offline():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "__init__.py" in modules
    allowed = set(sys.stdlib_module_names) | {"trilogic"}
    outside, network = {}, {}
    for path in modules:
        names = imported_names(path)
        where = str(path.relative_to(PACKAGE))
        if names - allowed:
            outside[where] = sorted(names - allowed)
        if names & NETWORK_MODULES:
            network[where] = sorted(names & NETWORK_MODULES)
    assert outside == {}
    assert network == {}
