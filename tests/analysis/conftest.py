"""Shared fixtures of the analyzer tests."""

from pathlib import Path

import pytest

from repro_lint import Baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def src_report():
    """One full lint of ``src/`` with every rule and an empty baseline — the
    several-second run the whole-tree gate tests and the dead-pragma guard
    all assert over."""
    return run_lint([REPO_ROOT / "src"], baseline=Baseline(), root=REPO_ROOT)
