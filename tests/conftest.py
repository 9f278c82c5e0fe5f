import os
from pathlib import Path

import pytest

from bddsolve import bdd, model

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def cold_caches():
    """Each test starts with the process-wide skeleton and template caches empty."""
    model.SKELETONS.clear()
    bdd.TEMPLATES.clear()


@pytest.fixture
def cli_env():
    """Environment for a child `python -m bddsolve.cli` that imports this checkout."""
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited]))}
