"""`holonorm-verify`'s identity checks and degeneracy report, pinned.

`holonorm_outputs.json` holds, for D in {1, 2, 3, 8} at seed 0, every
check's name, `passed` and statistic except the density check's, and the
whole `degeneracy` dict, as `holonorm_report.json` writes them. The file is
data, not a rerun of the code under test: a change to the holonorm map or
the transformer block that moves a written digit fails here.

The density check is stubbed. Its statistic is not pinned, it draws from
its own generator, and at D = 8 its bin grid alone would take gigabytes.
"""

import json
from pathlib import Path

import pytest

from pathrisk import cli, holonorm

PINNED = json.loads((Path(__file__).parent / "holonorm_outputs.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("dim", sorted(PINNED, key=int))
def test_holonorm_verify_matches_the_pinned_outputs(dim, tmp_path,
                                                     monkeypatch):
    monkeypatch.setattr(holonorm, "density_transform_check",
                        lambda cfg: {"passes": True,
                                     "mean_abs_rel_error": 0.0})
    out = tmp_path / "out"
    assert cli.main(["holonorm-verify", "--dim", dim, "--seed", "0",
                     "--samples", "10000", "--out", str(out)]) == 0
    report = json.loads((out / "holonorm_report.json")
                        .read_text(encoding="utf-8"))
    checks = [c for c in report["checks"] if c["name"] != "density_transform"]
    assert checks == PINNED[dim]["checks"]
    assert report["degeneracy"] == PINNED[dim]["degeneracy"]
