"""Start-up footprint: importing trilogic and solving one problem stay lean.

The thread pool and statistics are imported where they are used
(evaluate with jobs > 1, pearson), so a process that never reaches them
never pays for them. The other LAZY_MODULES are imported nowhere in the
package; the guard keeps it that way.
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
    "logging", "concurrent.futures", "statistics",
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
