"""Start-up footprint: importing trilogic and solving one problem stay lean.

The thread pool, statistics and csv are imported where they are used
(evaluate with jobs > 1, pearson, a CSV report), so a process that never
reaches them never pays for them. The other LAZY_MODULES are imported
nowhere in the package; the guard keeps it that way.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import DATA_DIR

SRC = Path(__file__).resolve().parent.parent / "src"

# modules a trilogic process loads only on the code paths that need them
LAZY_MODULES = (
    "ssl", "http.client", "urllib.request", "email", "socket", "hashlib",
    "logging", "concurrent.futures", "statistics", "csv",
)

# prints the modules loaded after interpreter start-up
_SCRIPT = """
import json, sys
at_start = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import trilogic, trilogic.cli
if len(sys.argv) > 2:
    trilogic.cli.main(sys.argv[2:])
print(json.dumps(sorted(set(sys.modules) - at_start)))
"""


def loaded_lazy_modules(*argv: str) -> list[str]:
    """The LAZY_MODULES a fresh interpreter loads by importing trilogic
    and, given argv, by one `trilogic` command after it."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", _SCRIPT, str(SRC), *argv],
        capture_output=True, text=True, check=True, timeout=60)
    loaded = set(json.loads(out.stdout.splitlines()[-1]))
    return [m for m in LAZY_MODULES if m in loaded]


def test_import_loads_no_lazy_module():
    assert loaded_lazy_modules() == []


def test_one_solve_loads_no_lazy_module():
    assert loaded_lazy_modules("solve", str(DATA_DIR / "anne.p9"),
                               "--dialect", "prover9",
                               "--engine", "resolution") == []


def test_package_namespace_holds_only_its_modules():
    # every name is reached through its module; `import trilogic` loads
    # the eight modules and binds nothing else
    code = ("import json, sys, types; sys.path.insert(0, sys.argv[1]); "
            "import trilogic; print(json.dumps(sorted("
            "(n, isinstance(v, types.ModuleType)) for n, v in "
            "vars(trilogic).items() if not n.startswith('_'))))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert json.loads(out.stdout) == [
        [name, True] for name in ("chaining", "dialects", "fol", "harness",
                                  "normalize", "resolution", "sat",
                                  "testkit")]
