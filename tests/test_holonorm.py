import math
import tracemalloc

import numpy as np
import pytest

from pathrisk import holonorm
from pathrisk.holonorm import (DensityCheckConfig, HolonormError,
                               HolonormModel,
                               constant_param_degeneracy_check,
                               density_transform_check,
                               det_jacobian_inverse_hn,
                               finite_difference_jacobian_det, forward, hn,
                               holonorm_density, inverse_hn,
                               matrix_determinant_lemma_check)
from oracles import chi_cdf, whole_sample_density_check

DIMS = [1, 2, 3, 8, 32]


def _points_in_ball(rng, dim, count, max_norm):
    """Uniform directions with radii uniform in [0, max_norm)."""
    directions = rng.standard_normal((count, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return directions * rng.uniform(0.0, max_norm, size=(count, 1))


@pytest.mark.parametrize("dim", DIMS)
def test_inverse_round_trip(dim, rng):
    for y in _points_in_ball(rng, dim, 200, 0.95):
        assert np.abs(hn(inverse_hn(y)) - y).max() <= 1e-12
    for x in rng.standard_normal((200, dim)):
        assert np.abs(inverse_hn(hn(x)) - x).max() <= 1e-12


@pytest.mark.parametrize("dim", DIMS)
def test_hn_maps_into_the_open_unit_ball(dim, rng):
    for x in 10.0 * rng.standard_normal((50, dim)):
        y = hn(x)
        assert np.linalg.norm(y) < 1.0
        # direction is kept
        assert np.allclose(y * np.linalg.norm(x), x * np.linalg.norm(y))


def test_hn_maps_each_row_of_a_matrix(rng):
    rows = 10.0 * rng.standard_normal((6, 3))
    assert np.array_equal(hn(rows), np.stack([hn(x) for x in rows]))


@pytest.mark.parametrize("dim", DIMS)
def test_jacobian_determinant_matches_finite_difference(dim, rng):
    for y in _points_in_ball(rng, dim, 50, 0.85):
        closed = det_jacobian_inverse_hn(y)
        fd = finite_difference_jacobian_det(inverse_hn, y)
        assert abs(fd - closed) / abs(closed) <= 1e-5


def test_inverse_and_determinant_reject_points_outside_the_ball():
    edge = np.array([0.6, 0.8])
    with pytest.raises(HolonormError):
        inverse_hn(edge)
    with pytest.raises(HolonormError):
        det_jacobian_inverse_hn(1.5 * edge)


@pytest.mark.parametrize("dim", DIMS)
def test_matrix_determinant_lemma(dim, rng):
    for _ in range(50):
        alpha = rng.uniform(0.5, 2.0)
        beta = rng.uniform(0.0, 2.0)
        lhs, rhs, err = matrix_determinant_lemma_check(
            alpha, beta, rng.standard_normal(dim))
        assert err == abs(lhs - rhs)
        assert err / abs(rhs) <= 1e-8


def test_matrix_determinant_lemma_rejects_zero_alpha():
    with pytest.raises(HolonormError):
        matrix_determinant_lemma_check(0.0, 1.0, np.ones(3))


@pytest.mark.parametrize("dim", DIMS)
def test_constant_param_degeneracy(dim, rng):
    model = HolonormModel.build(num_layers=1, model_dim=dim,
                                num_heads=2 if dim % 2 == 0 else 1,
                                ff_dim=2 * dim, seed=dim)
    probes = [rng.standard_normal((5, dim)) for _ in range(10)]
    result = constant_param_degeneracy_check(model, probes)
    assert result["probes"] == 10
    assert result["degenerate_mha_constant"]
    assert result["max_degenerate_mha_diff"] <= result["tolerance"]
    assert result["live_mha_distinct"]
    assert result["residual_path_transmits_input"]
    assert result["feedforward_pointwise_consistent"]


def test_degeneracy_check_needs_two_probes_of_one_shape(rng):
    model = HolonormModel.build(num_layers=1, model_dim=4, num_heads=2,
                                ff_dim=8, seed=0)
    with pytest.raises(HolonormError):
        constant_param_degeneracy_check(model, [rng.standard_normal((5, 4))])
    with pytest.raises(HolonormError):
        constant_param_degeneracy_check(
            model, [rng.standard_normal((5, 4)), rng.standard_normal((6, 4))])


def test_build_rejects_a_head_count_that_does_not_divide_the_dim():
    with pytest.raises(HolonormError, match="must divide"):
        HolonormModel.build(num_layers=1, model_dim=4, num_heads=3,
                            ff_dim=8, seed=0)


def test_forward_under_constants_keeps_the_shape_and_checks_the_dim(rng):
    model = HolonormModel.build(num_layers=2, model_dim=4, num_heads=2,
                                ff_dim=8, seed=0)
    tokens = rng.standard_normal((5, 4))
    live = forward(model, tokens)
    constant = forward(model, tokens, model.constants)
    assert live.shape == constant.shape == (5, 4)
    assert not np.allclose(live, constant)
    with pytest.raises(HolonormError, match="token dim 3 != model dim 4"):
        forward(model, rng.standard_normal((5, 3)))


RADII = [0.3, 0.6, 0.8, 0.9, 0.95]
# Simpson panels per 0.05 of radius: every radius in RADII ends a panel
PANELS_PER_STEP = 250
# worst error measured on this grid over DIMS x RADII: 4.1e-13
DENSITY_TOL = 1e-12


def test_chi_cdf_series_matches_closed_forms():
    # worst error measured: 1.1e-14, at r = 19 (s = 0.95), D = 2
    for r in (0.1, 1.0, 3.0, 19.0):
        assert abs(chi_cdf(1, r) - math.erf(r / math.sqrt(2.0))) <= 2e-14
        assert abs(chi_cdf(2, r) + math.expm1(-0.5 * r * r)) <= 2e-14


@pytest.mark.parametrize("dim", DIMS)
def test_density_integrates_to_the_radial_cdf(dim):
    """||Y|| = R / (1 + R) with R ~ chi_dim, so the shell integral of
    holonorm_density from 0 to s is P(dim/2, r^2/2) at r = s / (1 - s)."""
    h = 0.05 / (2 * PANELS_PER_STEP)
    grid = h * np.arange(round(max(RADII) / 0.05) * 2 * PANELS_PER_STEP + 1)
    sphere = 2.0 * math.pi ** (0.5 * dim) / math.gamma(0.5 * dim)
    point = np.zeros(dim)
    f = np.empty(grid.size)
    for i, s in enumerate(grid):
        point[0] = s
        f[i] = sphere * s ** (dim - 1) * holonorm_density(point)
    simpson = np.concatenate([[0.0], np.cumsum(
        h / 3.0 * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))])
    for s in RADII:
        integral = simpson[round(s / 0.05) * PANELS_PER_STEP]
        assert abs(integral - chi_cdf(dim, s / (1.0 - s))) <= DENSITY_TOL


def test_density_check_without_a_full_bin_fails_and_says_why():
    """No bin can hold more samples than were drawn: the bins widen to 4
    per axis, nothing is compared, and the check fails, not the input."""
    report = density_transform_check(DensityCheckConfig(
        dimension=3, samples=10_000, min_bin_count=10_001))
    assert report["passes"] is False
    assert report["mean_abs_rel_error"] == math.inf
    assert (report["bins_per_axis"], report["bins_used"]) == (4, 0)
    assert report["widened"]
    assert report["notes"][-1] == ("no bin holds 10001 samples at 4 bins "
                                   "per axis; no density was compared")


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_density_check_equals_the_whole_sample(dim, seed):
    # 100,000 samples make 2, 4 and 5 blocks at D = 1, 2 and 3, the last
    # one shorter
    cfg = DensityCheckConfig(dimension=dim, seed=seed)
    assert density_transform_check(cfg) == whole_sample_density_check(cfg)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_density_check_in_blocks_of_a_few_rows(dim, rows, monkeypatch):
    monkeypatch.setattr(holonorm, "_BLOCK_ELEMENTS", rows * dim)
    cfg = DensityCheckConfig(dimension=dim, samples=10_000, seed=dim)
    assert density_transform_check(cfg) == whole_sample_density_check(cfg)


@pytest.mark.parametrize("dim, widths", [
    pytest.param(1, [40, 20, 10, 5, 2], id="1-widths0"),
    pytest.param(2, [20, 10, 5, 2], id="2-widths1")])
@pytest.mark.parametrize("rows", [None, 3])
def test_widening_draws_the_sample_again(dim, widths, rows, monkeypatch):
    """No bin can hold more samples than were drawn, so the bins halve down
    to 2 per axis, and each grid bins the same seeded sample drawn again."""
    if rows is not None:
        monkeypatch.setattr(holonorm, "_BLOCK_ELEMENTS", rows * dim)
    grids = []
    binned_sample = holonorm._binned_sample

    def counted(cfg, bins):
        grids.append(bins)
        return binned_sample(cfg, bins)

    monkeypatch.setattr(holonorm, "_binned_sample", counted)
    cfg = DensityCheckConfig(dimension=dim, samples=10_000,
                             min_bin_count=10_001)
    report = density_transform_check(cfg)
    assert report == whole_sample_density_check(cfg)
    assert grids == widths and report["bins_per_axis"] == 2
    assert report["notes"][-1] == ("no bin holds 10001 samples at 2 bins "
                                   "per axis; no density was compared")


def test_density_check_memory_is_one_block_not_the_sample():
    # the 10^6 x 2 draw alone would take 16 MB, and hn's image as much again
    cfg = DensityCheckConfig(dimension=2, samples=1_000_000)
    tracemalloc.start()
    try:
        report = density_transform_check(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["bins_used"] > 0
    assert peak < 8_000_000
