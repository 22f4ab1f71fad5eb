import json

import pytest

from pathrisk import cli, fixtures


def _outputs(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("subcommand", ["game", "holonorm-verify"])
def test_reruns_are_byte_identical(tmp_path, subcommand):
    if subcommand == "game":
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(fixtures.coupled_game_scenario()))
        argv = ["game", "--scenario", str(scenario)]
    else:
        argv = ["holonorm-verify", "--dim", "2", "--seed", "0"]
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(argv + ["--out", str(out)]) == 0
        runs.append(_outputs(out))
    first, second = runs
    assert first == second
    assert "manifest.json" in first and len(first) == 3


def test_game_reports_one_exact_round(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(fixtures.coupled_game_scenario()))
    out = tmp_path / "out"
    assert cli.main(["game", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
    result = json.loads((out / "equilibrium.json").read_text())
    equilibrium = result["equilibrium"]
    assert (equilibrium["rounds"], equilibrium["residual"],
            equilibrium["feasible"]) == (1, 0.0, True)
    assert equilibrium["history"] == [{"round": 1, "residual": 0.0}]
    assert (out / "iterations.csv").read_text() == "round,residual\n1,0\n"
    steps = result["stackelberg"]["steps"]
    assert [s["residual"] for s in steps] == [0.0, 0.0]
