import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pathrisk.registry import DetectorOutcome, pathology_ids
from pathrisk.risk import (EXPECTILE_TOL, ConvergenceError, ExpectileConfig,
                           RiskError, bernoulli_expectile, expectile,
                           expectile_foc_residual, pareto_scan,
                           resolve_eps, risk_report)
from oracles import (asymmetric_objective, grid_expectile, naive_pareto)

_losses = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
_loss_lists = st.lists(_losses, min_size=1, max_size=40)
_loss_pairs = st.lists(st.tuples(_losses, _losses), min_size=1, max_size=40)
# ExpectileConfig accepts tau in [1/2, 1), where the expectile is coherent
_taus = st.floats(min_value=0.5, max_value=0.95)
_coherent_taus = st.floats(min_value=0.5, max_value=0.999)


def _tol_slack(cfg, *samples):
    """Bound on the summed errors of the computed expectiles of samples.

    The first-order condition g(r) = tau E(L - r)+ - (1 - tau) E(r - L)+
    falls in r with slope at least min(tau, 1 - tau), and `expectile`
    stops once |g| <= EXPECTILE_TOL * max(1, mean |L|). So each returned
    value lies within EXPECTILE_TOL * max(1, mean |L|) / min(tau, 1 - tau)
    of the exact one.
    """
    scales = sum(max(1.0, float(np.abs(s).mean())) for s in samples)
    return EXPECTILE_TOL * scales / min(cfg.tau, 1.0 - cfg.tau)


class TestExpectileBasics:
    def test_tau_half_is_mean(self, rng):
        losses = rng.uniform(size=500)
        value = expectile(losses, ExpectileConfig(tau=0.5))
        assert value == pytest.approx(float(losses.mean()), abs=1e-10)

    def test_constant_losses(self):
        for tau in (0.5, 0.7, 0.9):
            assert expectile([3.25] * 7, ExpectileConfig(tau=tau)) == \
                pytest.approx(3.25)

    def test_bernoulli_half(self):
        losses = [0.0] * 500 + [1.0] * 500
        assert expectile(losses, ExpectileConfig(tau=0.9)) == \
            pytest.approx(0.9, abs=1e-6)
        assert expectile(losses, ExpectileConfig(tau=0.6)) == \
            pytest.approx(0.6, abs=1e-6)
        # oracle: dense grid of the asymmetric quadratic objective
        assert grid_expectile(losses, 0.9) == pytest.approx(0.9, abs=1e-4)
        assert grid_expectile(losses, 0.6) == pytest.approx(0.6, abs=1e-4)

    def test_single_sample(self):
        assert expectile([0.7]) == pytest.approx(0.7)

    def test_errors(self):
        with pytest.raises(RiskError):
            expectile([])
        with pytest.raises(RiskError):
            expectile([1.0, float("nan")])
        with pytest.raises(RiskError):
            ExpectileConfig(tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, 0.1, 0.2, 0.4999, math.nan])
    def test_rejects_tau_below_half(self, tau):
        # below 1/2 the expectile is superadditive, so no coherent risk
        with pytest.raises(RiskError, match=r"outside \[0.5,1\)"):
            ExpectileConfig(tau=tau)


class TestExpectileOracle:
    def test_grid_oracle_matches_naive_objective(self, rng):
        # oracle of the oracle: prefix-sum evaluation equals the direct one
        losses = rng.uniform(size=50)
        tau = 0.8
        grid = np.arange(losses.min(), losses.max() + 1e-3, 1e-3)
        direct = grid[np.argmin([asymmetric_objective(losses, r, tau)
                                 for r in grid])]
        assert grid_expectile(losses, tau, step=1e-3) == \
            pytest.approx(float(direct), abs=1e-12)

    def test_agreement_on_random_fixtures(self):
        for seed in range(100):
            local = np.random.default_rng(seed)
            tau = float(local.uniform(0.5, 0.95))
            n = int(local.choice([10, 100, 1000]))
            losses = local.uniform(size=n)
            fixed_point = expectile(losses, ExpectileConfig(tau=tau))
            oracle = grid_expectile(losses, tau, step=1e-4)
            assert abs(fixed_point - oracle) <= 1e-4 + 1e-12

    def test_large_sample_converges(self, rng):
        losses = rng.lognormal(size=100_000)
        cfg = ExpectileConfig(tau=0.9)
        value = expectile(losses, cfg)
        assert expectile_foc_residual(losses, value, 0.9) <= EXPECTILE_TOL
        assert losses.min() <= value <= losses.max()


class TestExpectileProperties:
    @settings(deadline=None)
    @given(_loss_lists, _taus)
    def test_between_min_and_max(self, losses, tau):
        value = expectile(losses, ExpectileConfig(tau=tau))
        assert min(losses) - 1e-9 <= value <= max(losses) + 1e-9

    @settings(deadline=None)
    @given(_loss_lists, _taus, st.floats(min_value=-50, max_value=50,
                                         allow_nan=False))
    def test_translation_equivariance(self, losses, tau, shift):
        cfg = ExpectileConfig(tau=tau)
        base = expectile(losses, cfg)
        shifted = expectile([x + shift for x in losses], cfg)
        assert shifted == pytest.approx(base + shift, abs=1e-7)

    @settings(deadline=None)
    @given(_loss_lists, _taus, st.floats(min_value=0.01, max_value=50.0))
    def test_positive_homogeneity(self, losses, tau, scale):
        cfg = ExpectileConfig(tau=tau)
        base = expectile(losses, cfg)
        scaled = expectile([scale * x for x in losses], cfg)
        assert scaled == pytest.approx(scale * base, abs=1e-7 * max(1, scale))

    @settings(deadline=None)
    @given(_loss_lists)
    def test_monotone_in_tau(self, losses):
        values = [expectile(losses, ExpectileConfig(tau=t))
                  for t in (0.5, 0.6, 0.7, 0.8, 0.9)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9

    @settings(deadline=None)
    @given(_loss_pairs, _coherent_taus)
    def test_subadditive_for_tau_at_least_half(self, pairs, tau):
        cfg = ExpectileConfig(tau=tau)
        x, y = (np.array(v) for v in zip(*pairs))
        z = x + y
        # z rounds each sum by at most half a spacing, and the expectile
        # is monotone and translation equivariant
        rounding = 0.5 * float(np.spacing(np.abs(z)).max())
        assert expectile(z, cfg) <= expectile(x, cfg) + expectile(y, cfg) \
            + _tol_slack(cfg, x, y, z) + rounding

    @settings(deadline=None)
    @given(_loss_pairs, _coherent_taus)
    def test_monotone_in_the_losses(self, pairs, tau):
        cfg = ExpectileConfig(tau=tau)
        x, gaps = (np.array(v) for v in zip(*pairs))
        y = x + np.abs(gaps)   # y >= x pointwise, also after rounding
        assert expectile(x, cfg) <= expectile(y, cfg) + _tol_slack(cfg, x, y)

    def test_convergence_on_random_fixtures(self):
        for seed in range(20):
            local = np.random.default_rng(seed)
            n = int(local.choice([10, 1000, 100_000]))
            losses = local.standard_normal(n) ** 2
            cfg = ExpectileConfig(tau=float(local.uniform(0.5, 0.95)))
            value = expectile(losses, cfg)
            assert (expectile_foc_residual(losses, value, cfg.tau)
                    <= EXPECTILE_TOL)


class TestBinaryMonotonicity:
    def test_endpoints_and_midpoint(self):
        assert bernoulli_expectile(0.0, 0.9) == 0.0
        assert bernoulli_expectile(1.0, 0.9) == pytest.approx(1.0)
        assert bernoulli_expectile(0.5, 0.9) == pytest.approx(0.9)

    def test_check_table(self):
        values = [bernoulli_expectile(p, 0.9)
                  for p in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)]
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0)

    def test_closed_form_matches_engine_on_rational_p(self):
        for ones, n in ((1, 4), (3, 8), (7, 10)):
            losses = [1.0] * ones + [0.0] * (n - ones)
            engine = expectile(losses, ExpectileConfig(tau=0.7))
            assert engine == pytest.approx(
                bernoulli_expectile(ones / n, 0.7), abs=1e-9)


def _outcome(pathology, severity, threshold=0.5):
    return DetectorOutcome(pathology=pathology, unit="r",
                           severity=severity, threshold=threshold)


class TestRiskReport:
    def test_all_zero_losses_feasible(self):
        outcomes = [_outcome("delusion", 0.0) for _ in range(5)]
        report = risk_report(outcomes, eps={"default": 0.1})
        assert report.feasible
        assert report.entry("delusion").expectile == pytest.approx(0.0)

    def test_violation_names_pathology(self):
        outcomes = [_outcome("delusion", 0.5, threshold=0.9)]
        report = risk_report(outcomes, eps={"default": 0.4})
        assert not report.feasible
        entry = report.entry("delusion")
        assert entry.expectile == pytest.approx(0.5)
        assert not entry.ok

    def test_unavailable_excluded_from_gate(self):
        outcomes = [_outcome("delusion", 0.0)]
        report = risk_report(outcomes, eps={"default": 0.1})
        assert report.feasible
        assert "hallucination" in report.unavailable
        assert report.total_ids == 35
        assert report.distinct_pathologies == 34

    def test_report_matches_grid_oracle(self, rng):
        outcomes = []
        for pathology in ("delusion", "exaggeration", "bluffing"):
            for sev in rng.uniform(size=60):
                outcomes.append(_outcome(pathology, float(sev)))
        cfg = ExpectileConfig(tau=0.9)
        report = risk_report(outcomes, eps={"default": 1.0}, cfg=cfg)
        for entry in report.entries:
            losses = [o.severity for o in outcomes
                      if o.pathology == entry.pathology]
            assert abs(entry.expectile
                       - grid_expectile(losses, 0.9)) <= 1e-4 + 1e-12

    def test_gate_flips_with_single_risk(self):
        outcomes = [_outcome("delusion", 0.3), _outcome("bluffing", 0.2)]
        eps = {"default": 1.0, "delusion": 0.31}
        assert risk_report(outcomes, eps=eps).feasible
        eps["delusion"] = 0.29
        assert not risk_report(outcomes, eps=eps).feasible

    def test_boundary_inclusive(self):
        outcomes = [_outcome("delusion", 0.5), _outcome("delusion", 0.5)]
        report = risk_report(outcomes, eps={"default": 0.5})
        assert report.feasible   # R == eps accepts

    def test_eps_vector_length_mismatch(self):
        with pytest.raises(RiskError, match="length"):
            resolve_eps([0.1, 0.2], pathology_ids())

    def test_eps_vector_in_registry_order(self):
        eps = resolve_eps([0.5] * 35, pathology_ids())
        assert set(eps) == set(pathology_ids())

    def test_eps_unknown_name(self):
        with pytest.raises(RiskError, match="unknown"):
            resolve_eps({"not_a_pathology": 0.1}, pathology_ids())

    def test_empty_outcomes_error(self):
        with pytest.raises(RiskError):
            risk_report([], eps={"default": 0.1})


class TestParetoScan:
    def test_incomparable_points_both_survive(self):
        result = pareto_scan(["a", "b"], [(1.0, 0.0), (0.0, 1.0)])
        assert result["pareto_candidates"] == ["a", "b"]
        assert result["non_aligned"]

    def test_dominated_point_removed(self):
        result = pareto_scan(["a", "b"], [(0.0, 0.0), (1.0, 1.0)])
        assert result["pareto_candidates"] == ["a"]
        assert not result["non_aligned"]

    def test_needs_two_candidates(self):
        with pytest.raises(RiskError):
            pareto_scan(["a"], [(0.0, 0.0)])

    def test_matches_naive_oracle(self, rng):
        # continuous points, then integer grids with ties and duplicate
        # points, in 1 to 4 objectives
        inputs = [rng.uniform(size=(40, 2))]
        inputs += [rng.integers(0, levels, size=(n, k)).astype(float)
                   for k in (1, 2, 3, 4) for levels in (2, 3, 5)
                   for n in (2, 7, 40)]
        for points in inputs:
            values = [tuple(v) for v in points]
            result = pareto_scan(list(range(len(values))), values)
            assert result["pareto_indices"] == naive_pareto(values)

    def test_objective_tuples_of_unequal_length_are_rejected(self):
        with pytest.raises(RiskError, match="same length"):
            pareto_scan(["a", "b"], [(0.0, 1.0), (0.0,)])


class TestSweep:
    def test_fluency_grounding_sweep_anti_monotone(self):
        from pathrisk.fixtures import pareto_sweep
        labels, values = pareto_sweep(num_candidates=7, seed=3)
        disfluency = [v[0] for v in values]
        grounding = [v[1] for v in values]
        assert all(b < a for a, b in zip(disfluency, disfluency[1:]))
        assert all(b > a for a, b in zip(grounding, grounding[1:]))
        result = pareto_scan(labels, values)
        assert result["non_aligned"]
        assert len(result["pareto_indices"]) >= 2
