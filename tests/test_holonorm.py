import numpy as np
import pytest

from pathrisk.holonorm import (HolonormError, HolonormModel,
                               constant_param_degeneracy_check,
                               det_jacobian_inverse_hn,
                               finite_difference_jacobian_det, hn, inverse_hn,
                               matrix_determinant_lemma_check)

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
