import json

import numpy as np
import pytest

from pathrisk import cli, fixtures
from pathrisk.game import (AgentSpec, GameError, MeanField,
                           QuadraticTargetCost, SharedConstraints,
                           best_response, deployment_gate, equilibrium_risks,
                           load_scenario, project_box_ball, solve_nash,
                           stackelberg_loop)
from oracles import grid_best_response_on_ray, grid_project_box_ball

GRID_STEPS = 201
RAY_STEPS = 10001


def _box_cases(kind, count, seed):
    """Seeded 2-d (point, lo, hi, radius) cases whose box meets the ball.

    kind "origin": the box contains the origin; "offset": it excludes it;
    "outside": the box contains the origin and the point lies outside it.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        if kind == "offset":
            lo = rng.uniform(-2.0, 1.5, size=2)
            lo[rng.integers(2)] = rng.uniform(0.1, 1.5)
        else:
            lo = rng.uniform(-2.0, -0.1, size=2)
        hi = lo + rng.uniform(0.3, 3.0, size=2)
        if kind != "offset":
            hi = np.maximum(hi, rng.uniform(0.1, 1.0, size=2))
        closest = np.clip(np.zeros(2), lo, hi)
        radius = float(np.linalg.norm(closest)) + rng.uniform(0.05, 2.0)
        point = rng.uniform(-4.0, 4.0, size=2)
        inside_box = np.all((lo <= point) & (point <= hi))
        if kind == "outside" and inside_box:
            continue
        cases.append((point, lo, hi, radius))
    return cases


def _objective(x, point):
    return float(np.sum((np.asarray(x) - point) ** 2))


class TestProjection:
    @pytest.mark.parametrize("kind,seed", [("origin", 0), ("offset", 1),
                                           ("outside", 2)])
    def test_matches_grid_oracle(self, kind, seed):
        for point, lo, hi, radius in _box_cases(kind, 12, seed):
            x = project_box_ball(point, lo, hi, radius)
            assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
            assert float(np.linalg.norm(x)) <= radius + 1e-12
            grid = grid_project_box_ball(point, lo, hi, radius,
                                         steps=GRID_STEPS)
            resolution = float(np.max(hi - lo)) / (GRID_STEPS - 1)
            assert _objective(x, point) <= \
                _objective(grid, point) + resolution

    def test_point_in_both_sets_is_fixed(self):
        point = np.array([0.3, -0.2])
        x = project_box_ball(point, np.full(2, -1.0), np.full(2, 1.0), 1.0)
        assert np.array_equal(x, point)


def _agent(name, target, lo=-10.0, hi=10.0, lam=0.0, kappa=1.0):
    target = np.asarray(target, dtype=float)
    return AgentSpec(pathology=name, lo=np.full(target.size, lo),
                     hi=np.full(target.size, hi),
                     cost=QuadraticTargetCost(target=target, lam=lam,
                                              kappa=kappa))


class TestBestResponse:
    def test_binding_budget_matches_ray_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            target = rng.uniform(-3.0, 3.0, size=3)
            radius = 0.5 * float(np.linalg.norm(target))
            kappa = 2.0
            theta = best_response(_agent("a", target, kappa=kappa),
                                  kappa * radius ** 2, kappa)
            oracle = grid_best_response_on_ray(target, radius,
                                               steps=RAY_STEPS)
            assert np.linalg.norm(theta) == pytest.approx(radius, rel=1e-12)
            assert np.abs(theta - oracle).max() <= radius / (RAY_STEPS - 1)

    def test_compute_penalty_shrinks_target(self):
        target = np.array([1.0, -2.0])
        theta = best_response(_agent("a", target, lam=1.0, kappa=1.0),
                              100.0, 1.0)
        assert np.allclose(theta, target / 2.0, atol=1e-15)


class TestSolve:
    def test_coupled_scenario_respects_shared_cap(self, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = fixtures.coupled_game_scenario()
        path.write_text(json.dumps(scenario))
        parsed = load_scenario(path)
        constraints = parsed["constraints"]
        state = solve_nash(parsed["specs"], parsed["mean_fields"],
                           constraints)
        used = [constraints.kappa * float(t @ t) for t in state.thetas]
        assert sum(used) <= constraints.cloud_cap + 1e-9
        shares = constraints.budgets(len(used))
        assert all(u <= b * (1 + 1e-12) for u, b in zip(used, shares))
        # the cap is half the agents' total target norm, so some shares bind
        assert any(u == pytest.approx(b, rel=1e-12)
                   for u, b in zip(used, shares))
        assert (state.rounds, state.residual, state.feasible) == \
            (1, 0.0, True)

    def test_infeasible_box_raises(self):
        spec = _agent("a", [1.0, 1.0], lo=2.0, hi=3.0)
        with pytest.raises(GameError, match="admits no theta"):
            solve_nash([spec], [MeanField(quality=1.0)],
                       SharedConstraints(cloud_cap=1.0))


class TestGate:
    def test_inclusive_at_threshold(self):
        assert deployment_gate({"a": 0.25}, {"a": 0.25}).accepted
        rejected = deployment_gate({"a": 0.25}, {"a": 0.2499})
        assert not rejected.accepted
        assert rejected.violations[0][0] == "a"

    def test_least_restrictive_accepted_is_componentwise_largest(self):
        specs = [_agent("a", [1.0]), _agent("b", [2.0])]
        state = solve_nash(specs, [MeanField(quality=1.0)] * 2,
                           SharedConstraints(cloud_cap=100.0))
        risks = {"a": 0.5, "b": 1.0}
        schedule = [{"a": 0.5, "b": 1.0}, {"a": 2.0, "b": 3.0},
                    {"a": 1.0, "b": 1.5}, {"a": 0.4, "b": 5.0}]
        loop = stackelberg_loop(schedule, specs, state, risks_override=risks)
        assert [step["gate"].accepted for step in loop["trace"]] == \
            [True, True, True, False]
        assert loop["least_restrictive_accepted"] == {"a": 2.0, "b": 3.0}
        assert equilibrium_risks(specs, state) == {"a": 0.0, "b": 0.0}


def _scenario(tmp_path, **overrides):
    obj = {"kappa": 1.0, "cloud_cap": 4.0,
           "agents": [{"pathology": "a0", "lo": -1.0, "hi": 1.0,
                       "target": [0.5, 0.5]},
                      {"pathology": "a1", "lo": -1.0, "hi": 1.0,
                       "target": [-0.5, 0.2]}]}
    obj.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return path


class TestScenarioValidation:
    def test_eps_key_naming_no_agent_raises(self, tmp_path):
        path = _scenario(tmp_path,
                         epsilon_schedule=[{"a0": 0.0, "a_1": 0.0}])
        with pytest.raises(GameError, match="a_1"):
            load_scenario(path)

    def test_eps_default_and_agent_keys_parse(self, tmp_path):
        path = _scenario(tmp_path,
                         epsilon_schedule=[{"default": 0.5, "a1": 0.1}])
        assert load_scenario(path)["schedule"] == [{"a0": 0.5, "a1": 0.1}]

    def test_mean_field_key_naming_no_agent_raises(self, tmp_path):
        path = _scenario(tmp_path, tau_data=0.5,
                         mean_field={"a_1": {"quality": 0.1}})
        with pytest.raises(GameError, match="a_1"):
            load_scenario(path)

    def test_empty_agents_raises(self, tmp_path):
        with pytest.raises(GameError, match="no agents"):
            load_scenario(_scenario(tmp_path, agents=[]))

    def test_duplicate_pathology_raises(self, tmp_path):
        agents = [{"pathology": "a0", "target": [0.1]},
                  {"pathology": "a0", "target": [0.2]}]
        with pytest.raises(GameError, match="a0"):
            load_scenario(_scenario(tmp_path, agents=agents))

    @pytest.mark.parametrize("lo", [[-1.0], [-1.0, -1.0, -1.0]])
    def test_box_length_mismatch_raises(self, tmp_path, lo):
        agents = [{"pathology": "a0", "lo": lo, "hi": 1.0,
                   "target": [0.1, 0.2]}]
        with pytest.raises(GameError, match="a0"):
            load_scenario(_scenario(tmp_path, agents=agents))

    def test_cli_exits_2_on_invalid_scenario(self, tmp_path, capsys):
        path = _scenario(tmp_path, agents=[])
        assert cli.main(["game", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert "no agents" in capsys.readouterr().err

    def test_ignored_keys_do_not_change_the_solve(self, tmp_path):
        plain = load_scenario(_scenario(tmp_path))
        legacy = load_scenario(_scenario(
            tmp_path, tol=1.0, max_rounds=1, mode="jacobi",
            mean_field={"a0": {"quality": 0.9,
                               "samples": [[[0.0], [0.0]]]}}))
        assert "cfg" not in legacy
        a = solve_nash(plain["specs"], plain["mean_fields"],
                       plain["constraints"])
        b = solve_nash(legacy["specs"], legacy["mean_fields"],
                       legacy["constraints"])
        assert all(np.array_equal(s, t) for s, t in zip(a.thetas, b.thetas))
        assert legacy["mean_fields"][0].quality == 0.9
