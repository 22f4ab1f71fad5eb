import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


def labelled(label, first, *rest):
    """A table row whose first value is a list or a dict, its test id made
    of `label` and the other values (a class by its name), so that adding
    or deleting a row renames no other test."""
    return pytest.param(first, *rest, id="-".join(
        getattr(value, "__name__", str(value)) for value in (label, *rest)))


def random_orthogonal(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
