import json
import math

import numpy as np
import pytest

import corpora
from pathrisk import cli
from pathrisk.game import (AgentSpec, GameError, InfeasibleGameError,
                           SharedConstraints, best_response, load_scenario,
                           solve_nash, stackelberg_loop)
from pathrisk.registry import DetectorOutcome, pathology_ids
from pathrisk.risk import deployment_gate, resolve_eps, risk_report
from oracles import grid_variational_equilibrium

GRID_STEPS = 41


def _agent(name, target, lo=-10.0, hi=10.0, quality=1.0):
    target = np.asarray(target, dtype=float)
    return AgentSpec(pathology=name, target=target,
                     lo=np.full(target.size, lo),
                     hi=np.full(target.size, hi), quality=quality)


def _solve(specs, cap, kappa=1.0, lam=0.0):
    return solve_nash(specs, SharedConstraints(cloud_cap=cap, kappa=kappa,
                                               lam=lam))


def _compute(thetas, kappa=1.0):
    return kappa * sum(float(t @ t) for t in thetas)


def _parsed(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return load_scenario(path)


class TestBestResponse:
    def test_compute_penalty_shrinks_target(self):
        target = np.array([1.0, -2.0])
        theta = best_response(_agent("a", target), 0.0,
                              SharedConstraints(cloud_cap=1.0, lam=1.0))
        assert np.allclose(theta, target / 2.0, atol=1e-15)

    def test_price_adds_to_the_penalty_then_the_box_clips(self):
        spec = _agent("a", [3.0, -1.0], lo=[0.5, -0.2], hi=[1.0, 1.0])
        shared = SharedConstraints(cloud_cap=1.0, lam=1.0)
        # 1 + lam kappa + price kappa = 4: (0.75, -0.25), then the clip
        assert np.array_equal(best_response(spec, 2.0, shared),
                              np.array([0.75, -0.2]))
        # at an infinite price, the box point nearest the origin
        assert np.array_equal(best_response(spec, math.inf, shared),
                              np.array([0.5, 0.0]))


# Two agents x two dims, box endpoints on multiples of the grid step 0.05,
# so the grid holds each box's point nearest the origin. "origin": both
# boxes contain the origin and the targets; "offset": a box excludes the
# origin and its lower bound binds at the equilibrium; "clipped": a box
# cuts a target and still binds at the equilibrium, with lambda > 0.
# Each case is (agents as (target, lo, hi), lambda, kappa, cap).
GAME_CASES = {
    "origin": ([([0.8, -0.6], [-1.0, -1.0], [1.0, 1.0]),
                ([-0.3, 0.9], [-1.0, -1.0], [1.0, 1.0])], 0.0, 1.0, 0.95),
    "offset": ([([0.4, 0.9], [0.35, -1.0], [2.35, 1.0]),
                ([0.7, 1.2], [-1.0, -0.5], [1.0, 1.5])], 0.0, 1.0, 1.3),
    "clipped": ([([3.5, -1.4], [-0.5, -1.0], [1.5, 1.0]),
                 ([-1.6, 0.4], [-1.0, -1.0], [1.0, 1.0])], 0.5, 2.0, 6.5),
}


class TestSolve:
    @pytest.mark.parametrize("case", sorted(GAME_CASES))
    def test_matches_brute_force_grid(self, case):
        agents, lam, kappa, cap = GAME_CASES[case]
        specs = [_agent(f"a{i}", t, lo=lo, hi=hi)
                 for i, (t, lo, hi) in enumerate(agents)]
        state = _solve(specs, cap, kappa=kappa, lam=lam)
        assert state.price > 0.0   # every case's cap binds
        on_bound = False
        for spec, theta in zip(specs, state.thetas):
            assert np.all((spec.lo <= theta) & (theta <= spec.hi))
            on_bound |= bool(np.any((theta == spec.lo) | (theta == spec.hi)))
        assert on_bound == (case != "origin")
        assert _compute(state.thetas, kappa) <= cap
        value = sum(state.costs)
        grid_thetas, grid_value = grid_variational_equilibrium(
            [(np.asarray(t), np.asarray(lo), np.asarray(hi), lam)
             for t, lo, hi in agents], kappa, cap, steps=GRID_STEPS)
        # no feasible grid point beats the equilibrium
        assert value <= grid_value + 1e-12
        # Rounding each coordinate of the equilibrium one step toward its
        # box's point nearest the origin gives a feasible grid point at
        # most h per coordinate away. The objective is quadratic with
        # Hessian 2(1 + lam kappa) I, so that point, and with it the grid
        # optimum, is within |grad| |d| + (1 + lam kappa) |d|^2 of value;
        # strong convexity then bounds the distance between the optima.
        h = 2.0 / (GRID_STEPS - 1)
        step = 2.0 * h   # |d| over 4 coordinates
        grad = np.concatenate([
            2.0 * (t - s.target) + 2.0 * lam * kappa * t
            for s, t in zip(specs, state.thetas)])
        curvature = 1.0 + lam * kappa
        gap = float(np.linalg.norm(grad)) * step + curvature * step ** 2
        assert grid_value - value <= gap
        distance = float(np.linalg.norm(np.concatenate(state.thetas)
                                        - np.concatenate(grid_thetas)))
        assert distance <= math.sqrt(gap)

    @pytest.mark.parametrize("seed,hi,kappa", [(0, 1.0, 1.0), (1, 1.0, 1.0),
                                               (2, 1.0, 1.0), (0, 0.4, 2.0)])
    def test_kkt_on_the_benchmark_shaped_scenario(self, tmp_path, seed, hi,
                                                  kappa):
        scenario = corpora.coupled_game_scenario(num_agents=35, dim=64,
                                                 seed=seed)
        scenario["kappa"] = kappa
        for agent in scenario["agents"]:
            agent["hi"] = hi   # hi = 0.4 makes boxes clip the targets
        parsed = _parsed(tmp_path, scenario)
        specs, constraints = parsed["specs"], parsed["constraints"]
        state = solve_nash(specs, constraints)
        mu, kappa, cap = state.price, constraints.kappa, constraints.cloud_cap
        used = _compute(state.thetas, kappa)
        assert mu > 0.0 and used <= cap
        assert mu * (cap - used) <= 1e-12 * mu * cap
        for spec, theta in zip(specs, state.thetas):
            assert np.array_equal(theta, np.clip(
                spec.target / (1.0 + (constraints.lam + mu) * kappa),
                spec.lo, spec.hi))
        # mu is the least such price: one float lower, the cap is exceeded
        below = np.nextafter(mu, 0.0)
        assert _compute([best_response(s, below, constraints)
                         for s in specs], kappa) > cap

    def test_coupled_scenario_respects_shared_cap(self, tmp_path):
        parsed = _parsed(tmp_path, corpora.coupled_game_scenario())
        constraints = parsed["constraints"]
        state = solve_nash(parsed["specs"], constraints)
        used = _compute(state.thetas, constraints.kappa)
        # the cap is half the agents' total target norm and no box binds,
        # so theta_i = t_i / (1 + mu) with (1 + mu)^2 = 2
        assert used <= constraints.cloud_cap
        assert used == pytest.approx(constraints.cloud_cap, rel=1e-12)
        assert state.price == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)

    def test_slack_cap_gives_zero_price(self):
        specs = [_agent("a", [0.5, -0.5]), _agent("b", [0.2, 0.1])]
        state = _solve(specs, cap=1.0)
        assert state.price == 0.0
        assert all(np.array_equal(t, s.target)
                   for s, t in zip(specs, state.thetas))

    def test_cap_at_minimum_compute_terminates(self):
        # agent a's first coordinate has 0 on its box boundary: it reaches
        # 0 only as the price goes to infinity, and the cap equals the
        # boxes' minimum compute (1.0, from a's second coordinate)
        specs = [_agent("a", [0.5, 1.5], lo=[0.0, 1.0], hi=[1.0, 2.0]),
                 _agent("b", [0.5, 0.3], lo=-1.0, hi=1.0)]
        state = _solve(specs, cap=1.0)
        assert math.isfinite(state.price) and state.price > 1e6
        assert _compute(state.thetas) <= 1.0
        assert state.thetas[0][1] == 1.0
        assert 0.0 < state.thetas[0][0] < 1e-6
        below = np.nextafter(state.price, 0.0)
        shared = SharedConstraints(cloud_cap=1.0)
        assert _compute([best_response(s, below, shared)
                         for s in specs]) > 1.0

    def test_infeasible_box_raises(self):
        spec = _agent("a", [1.0, 1.0], lo=2.0, hi=3.0)
        with pytest.raises(InfeasibleGameError, match="admits no theta"):
            _solve([spec], cap=1.0)

    def test_quality_below_tau_data_raises(self):
        specs = [_agent("a", [0.5]), _agent("b", [0.5], quality=0.4)]
        with pytest.raises(InfeasibleGameError,
                           match="b: data quality 0.4 below tau_data 0.5"):
            solve_nash(specs, SharedConstraints(cloud_cap=1.0, tau_data=0.5))


class TestGate:
    def test_inclusive_at_threshold(self):
        assert deployment_gate({"a": 0.25}, {"a": 0.25}).accepted
        rejected = deployment_gate({"a": 0.25}, {"a": 0.2499})
        assert not rejected.accepted
        assert rejected.violations[0][0] == "a"

    def test_least_restrictive_accepted_is_componentwise_largest(self):
        risks = {"a": 0.5, "b": 1.0}
        schedule = [{"a": 0.5, "b": 1.0}, {"a": 2.0, "b": 3.0},
                    {"a": 1.0, "b": 1.5}, {"a": 0.4, "b": 5.0}]
        loop = stackelberg_loop(schedule, risks)
        assert [step["gate"].accepted for step in loop["trace"]] == \
            [True, True, True, False]
        assert loop["least_restrictive_accepted"] == {"a": 2.0, "b": 3.0}

    def test_slack_equilibrium_has_zero_risk(self):
        specs = [_agent("a", [1.0]), _agent("b", [2.0])]
        state = _solve(specs, cap=100.0)
        assert [s.risk(t) for s, t in zip(specs, state.thetas)] == [0.0, 0.0]

    @pytest.mark.parametrize("eps,violators", [
        # delusion: R == eps
        pytest.param({"default": 0.5}, ["hallucination"],
                     id="eps0-violators0"),
        pytest.param({"default": "inf"}, [], id="eps1-violators1"),
        pytest.param({"default": 0.25, "hallucination": "inf"}, ["delusion"],
                     id="eps2-violators2"),
        pytest.param({"delusion": 0.49, "bluffing": 0.25}, ["delusion"],
                     id="eps3-violators3"),
        pytest.param([0.25] * 35, ["hallucination", "delusion"],
                     id="eps4-violators4")])
    def test_risk_report_and_leader_loop_agree(self, eps, violators):
        risks = {"delusion": 0.5, "bluffing": 0.25, "hallucination": 1.0}
        # the expectile of one loss that is a power of two is that loss,
        # exactly
        outcomes = [DetectorOutcome(p, (f"{p}-0",), r, 0.5)
                    for p, r in risks.items()]
        report = risk_report(outcomes, eps=eps)
        assert {e.pathology: e.expectile for e in report.entries} == risks
        loop = stackelberg_loop([resolve_eps(eps, pathology_ids())], risks)
        gate = loop["trace"][0]["gate"]
        # violations come worst slack first
        assert [v[0] for v in gate.violations] == violators
        assert gate.accepted == report.feasible == (not violators)
        assert sorted(e.pathology for e in report.entries if not e.ok) == \
            sorted(violators)


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

    @pytest.mark.parametrize("lo", [
        pytest.param([-1.0], id="lo0"),
        pytest.param([-1.0, -1.0, -1.0], id="lo1")])
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

    def test_share_weights_is_rejected(self, tmp_path):
        with pytest.raises(GameError, match="share_weights"):
            load_scenario(_scenario(tmp_path, share_weights=[1.0, 2.0]))

    @pytest.mark.parametrize("key,value", [
        ("tol", 1.0), ("max_rounds", 1), ("mode", "jacobi")])
    def test_solver_settings_are_rejected(self, tmp_path, capsys, key,
                                          value):
        path = _scenario(tmp_path, **{key: value})
        assert cli.main(["game", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"field '{key}': unknown field" in capsys.readouterr().err

    def test_ignored_keys_do_not_change_the_solve(self, tmp_path):
        # a mean field's samples are the one key the scenario ignores
        plain = load_scenario(_scenario(tmp_path))
        legacy = load_scenario(_scenario(
            tmp_path, mean_field={"a0": {"quality": 0.9,
                                         "samples": [[[0.0], [0.0]]]}}))
        a = solve_nash(plain["specs"], plain["constraints"])
        b = solve_nash(legacy["specs"], legacy["constraints"])
        assert all(np.array_equal(s, t) for s, t in zip(a.thetas, b.thetas))
        assert [s.quality for s in legacy["specs"]] == [0.9, 1.0]
