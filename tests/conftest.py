import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nrabi import CouplingMatrix

# pyproject's `pythonpath = ["src"]` puts the sources on this process's path
# only; the CLI tests that run `python -m nrabi.cli` need them too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile(
    "nrabi",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("nrabi")


def coupling_matrix(values, n):
    """Symmetric zero-diagonal matrix from upper-triangle values (row-major)."""
    a = np.zeros((n, n))
    a[np.triu_indices(n, k=1)] = values
    return CouplingMatrix(a + a.T)


def random_coupling_matrix(rng, n, lo=0.0, hi=2.0):
    k = n * (n - 1) // 2
    return coupling_matrix(rng.uniform(lo, hi, k), n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
