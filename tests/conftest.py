import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathrisk

sys.path.insert(0, str(Path(__file__).parent))


def run_fresh(*args, cwd=None):
    """`python *args` in a fresh interpreter that imports this package from
    where the tests import it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pathrisk.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def fresh_json(script, *args, cwd=None):
    """The JSON value on the last line `script` prints, run with `args` in
    a fresh interpreter. The test process has imported every module
    already, and the tests before have interned and freed strings, so the
    interpreter may rebuild its table of interned strings (1.9 MB) inside
    a tracemalloc window there; a fresh one measures only its script."""
    proc = run_fresh("-c", script, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
