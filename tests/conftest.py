"""Shared helpers for the test suite."""

import sys
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


def read_fixture(name: str) -> str:
    return (DATA_DIR / name).read_text(encoding="utf-8")


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def call_at_depth(depth: int, fn, *args):
    """fn(*args), called from the frame `depth` frames deep in the stack."""
    frame, held = sys._getframe(), 0
    while frame is not None:
        held += 1
        frame = frame.f_back

    def down(n):
        return fn(*args) if n <= 0 else down(n - 1)

    return down(depth - held - 1)
