"""A first-order reasoning workbench with three solver styles.

One shared formula and clause model feeds three engines: resolution
saturation, grounding plus CDCL satisfiability, and typed forward
chaining. Around them sit a model-enumeration oracle, a seeded problem
generator, a batch evaluation harness with an error taxonomy, and a CLI.
Each name lives in its module (`trilogic.fol`, `trilogic.harness`, ...).
"""

# every module, so that `import trilogic` costs the whole start-up, which
# perfbench times, and `trilogic.harness` works after a bare import
from . import chaining, dialects, fol, harness, normalize, resolution, sat, testkit

__version__ = "0.1.0"
