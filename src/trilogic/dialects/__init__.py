"""Parsers for the three solver input dialects."""

from .prover9 import parse_prover9
from .pyke import parse_pyke
from .z3 import parse_z3

DIALECTS = ("prover9", "z3", "pyke")
