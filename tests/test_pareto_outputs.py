"""`pareto --seed 0`'s report, pinned.

`pareto_outputs.json` holds `pareto.json` as the default sweep (9
candidates, 40 records each, tau 0.9) writes it at seed 0: the candidate
labels, each candidate's objective pair (disfluency risk, grounding
risk), the Pareto indices and candidates, and the non-alignment verdict.
The file is data, not a rerun of the code under test: a change to the
sweep's draws, its losses or the expectile that moves a written digit
fails here.
"""

import json
from pathlib import Path

from pathrisk import cli

PINNED = json.loads((Path(__file__).parent / "pareto_outputs.json")
                    .read_text(encoding="utf-8"))


def test_pareto_matches_the_pinned_output(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["pareto", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads((out / "pareto.json").read_text(encoding="utf-8"))
    assert report == PINNED
