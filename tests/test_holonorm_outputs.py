"""`holonorm-verify`'s reports, pinned.

`holonorm_outputs.json` holds, for D in {1, 2, 3, 8} at seed 0 and the
default 100,000 samples, every check's name, `passed` and statistic except
the density check's, and the whole `degeneracy` dict, as
`holonorm_report.json` writes them; for D in {1, 2, 3} it also holds the
whole `density` dict. The file is data, not a rerun of the code under
test: a change to the holonorm map, the transformer block or the
Monte-Carlo density check that moves a written digit fails here.

At D = 8 the density check is stubbed: its bin grid alone would take
gigabytes.
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
    pinned = PINNED[dim]
    if "density" not in pinned:
        monkeypatch.setattr(holonorm, "density_transform_check",
                            lambda cfg: {"passes": True,
                                         "mean_abs_rel_error": 0.0})
    out = tmp_path / "out"
    code = cli.main(["holonorm-verify", "--dim", dim, "--seed", "0",
                     "--samples", "100000", "--out", str(out)])
    report = json.loads((out / "holonorm_report.json")
                        .read_text(encoding="utf-8"))
    assert code == (0 if report["passed"] else 1)
    checks = [c for c in report["checks"] if c["name"] != "density_transform"]
    assert checks == pinned["checks"]
    assert report["degeneracy"] == pinned["degeneracy"]
    if "density" in pinned:
        assert report["density"] == pinned["density"]
