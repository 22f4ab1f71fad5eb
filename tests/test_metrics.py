import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pathrisk.metrics import (InsufficientDataError, LOG_2PI_E, MetricError,
                              avg_pairwise_similarity, coherence,
                              contextual_distance, fluency,
                              mutual_information, semantic_entropy, sim,
                              sim_matrix, sim_row_blocks, windowed_slope)
from pathrisk.records import KnowledgeBase
from oracles import cov_semantic_entropy, loop_mutual_information

RAW = False
CLAMPED = True

_vectors = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=8)
# entries are 0 or at least 1e-3 in magnitude, so no squared norm underflows
_entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                     st.floats(-1e3, -1e-3))


@st.composite
def _kernel_inputs(draw):
    """(a, b) with nonzero rows of one width; b also holds positive and
    negative multiples of a's rows, near-parallel and antiparallel pairs
    whose cosine the clip to [-1, 1] can bind on."""
    d = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=d, max_size=d).filter(
        lambda r: any(x != 0.0 for x in r))
    a = np.array(draw(st.lists(row, min_size=1, max_size=5)))
    b = draw(st.lists(row, min_size=0, max_size=5))
    scale = draw(st.floats(1e-2, 1e2))
    b = np.array(b + [scale * r for r in a] + [-scale * r for r in a])
    return a, b


class TestSim:
    def test_identity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert sim(v, v, RAW) == pytest.approx(1.0)
        assert sim(v, v, CLAMPED) == pytest.approx(1.0)

    def test_antipodal(self):
        v = np.array([1.0, 2.0])
        assert sim(v, -v, RAW) == pytest.approx(-1.0)
        assert sim(v, -v, CLAMPED) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert sim([1.0, 0.0], [0.0, 1.0], RAW) == pytest.approx(0.0)
        assert sim([1.0, 0.0], [0.0, 1.0], CLAMPED) == pytest.approx(0.5)

    def test_zero_vector_error(self):
        with pytest.raises(MetricError, match="zero vector"):
            sim([0.0, 0.0], [1.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(MetricError):
            sim([1.0], [1.0, 0.0])

    @given(_vectors)
    def test_self_similarity_one(self, values):
        v = np.asarray(values)
        if np.linalg.norm(v) == 0.0:
            return
        assert sim(v, v, RAW) == pytest.approx(1.0, abs=1e-12)

    @given(_vectors, _vectors)
    def test_symmetry(self, a_vals, b_vals):
        n = min(len(a_vals), len(b_vals))
        a = np.asarray(a_vals[:n])
        b = np.asarray(b_vals[:n])
        if np.linalg.norm(a) == 0.0 or np.linalg.norm(b) == 0.0:
            return
        assert sim(a, b, RAW) == pytest.approx(sim(b, a, RAW), abs=1e-12)


class TestSimMatrix:
    @settings(max_examples=200, deadline=None)
    @given(_kernel_inputs(), st.booleans())
    def test_equals_scalar_sim(self, ab, clamp):
        a, b = ab
        for left, right in ((a, b), (a, a)):
            matrix = sim_matrix(left, right, clamp=clamp)
            assert matrix.shape == (len(left), len(right))
            for i, x in enumerate(left):
                for j, y in enumerate(right):
                    assert matrix[i, j] == pytest.approx(
                        sim(x, y, clamp), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_kernel_inputs(), st.integers(1, 4))
    def test_row_blocks_make_up_the_matrix(self, ab, rows):
        a, b = ab
        for left, right in ((a, b), (a, a)):
            blocks = list(sim_row_blocks(left, right, rows))
            assert [len(block) for block in blocks[:-1]] == \
                [rows] * (len(blocks) - 1)
            # a block's product may round apart from the whole one's
            np.testing.assert_allclose(
                np.vstack(blocks), sim_matrix(left, right),
                rtol=0, atol=1e-12)

    def test_clip_binds_on_parallel_rows(self):
        # unclipped, a . 3a / (|a| |3a|) rounds to just above 1 for this a
        a = np.array([[0.1, 0.1, 1.3]])
        b = np.vstack([3.0 * a, -3.0 * a])
        assert sim_matrix(a, b, clamp=False).tolist() == [[1.0, -1.0]]
        assert sim_matrix(a, b).tolist() == [[1.0, 0.0]]

    def test_zero_row_error(self):
        with pytest.raises(MetricError, match="zero vector"):
            sim_matrix([[1.0, 0.0], [0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(MetricError, match="zero vector"):
            sim_matrix([[1.0, 0.0]], [[0.0, 0.0]])

    def test_width_mismatch_error(self):
        with pytest.raises(MetricError, match="shape mismatch"):
            sim_matrix([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
        with pytest.raises(MetricError, match="shape mismatch"):
            sim_matrix([1.0, 0.0], [[1.0, 0.0]])


class TestFluency:
    def test_certain_tokens(self):
        assert fluency([0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_constant_probability(self):
        assert fluency([math.log(0.5)] * 2) == pytest.approx(0.5)

    def test_geometric_mean(self):
        # exp((ln 0.9 + ln 0.1)/2) = sqrt(0.09) = 0.3
        assert fluency([math.log(0.9), math.log(0.1)]) == pytest.approx(0.3)

    def test_empty_error(self):
        with pytest.raises(MetricError):
            fluency([])

    def test_positive_logprob_error(self):
        with pytest.raises(MetricError):
            fluency([0.5])

    @given(st.lists(st.floats(min_value=-20.0, max_value=0.0,
                              allow_nan=False), min_size=1, max_size=12))
    def test_bounds_and_monotonicity(self, logs):
        value = fluency(logs)
        assert 0.0 < value <= 1.0
        bumped = list(logs)
        bumped[0] = min(0.0, bumped[0] + 1.0)
        assert fluency(bumped) >= value - 1e-12


class TestMutualInformation:
    BINS, SEED = 2, 5

    def test_identical_samples_near_ln2(self, rng):
        xs = rng.uniform(size=1000)
        estimate = mutual_information(xs, xs, self.BINS, self.SEED)
        assert estimate >= 0.6
        # oracle: exact plug-in on the known 2-bin contingency of the data;
        # binning a monotone scalar map of xs yields the same partition
        lo, hi = xs.min(), xs.max()
        b = np.minimum((2 * (xs - lo) / (hi - lo)).astype(int), 1)
        counts = np.bincount(b, minlength=2) / xs.size
        oracle = -float(np.sum(counts[counts > 0]
                               * np.log(counts[counts > 0])))
        assert estimate == pytest.approx(oracle, abs=1e-9)

    def test_independent_samples_near_zero(self, rng):
        xs = rng.uniform(size=1000)
        ys = rng.uniform(size=1000)
        assert mutual_information(xs, ys, self.BINS, self.SEED) <= 0.05

    def test_constant_marginal_zero(self, rng):
        xs = rng.uniform(size=1000)
        ys = np.full(1000, 0.7)
        assert mutual_information(xs, ys, self.BINS, self.SEED) == 0.0

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            mutual_information([1.0] * 10, [1.0] * 10, self.BINS,
                               self.SEED)

    def test_deterministic_given_seed(self, rng):
        xs = rng.standard_normal((500, 3))
        ys = rng.standard_normal((500, 3))
        assert mutual_information(xs, ys, 2, 9) == \
            mutual_information(xs, ys, 2, 9)

    def test_dependence_beats_shuffle_statistically(self):
        # MI(x, x) >= MI(x, shuffled x) in at least 99 of 100 seeded trials
        wins = 0
        for seed in range(100):
            local = np.random.default_rng(seed)
            xs = local.uniform(size=1000)
            shuffled = local.permutation(xs)
            if mutual_information(xs, xs, 2, seed) >= \
                    mutual_information(xs, shuffled, 2, seed):
                wins += 1
        assert wins >= 99

    @pytest.mark.parametrize("n,dx,dy,bins,seed", [
        (16, 1, 1, 2, 0), (64, 3, 5, 4, 1), (100, 64, 64, 4, 7),
        (200, 768, 8, 3, 2), (90, 2, 1, 2, 12345)])
    def test_matches_the_loop_oracle(self, n, dx, dy, bins, seed):
        local = np.random.default_rng([n, dx, dy, seed])
        xs = local.standard_normal((n, dx))
        # ys depend on xs through a random map, plus noise
        ys = np.tanh(xs @ local.standard_normal((dx, dy))) \
            + 0.3 * local.standard_normal((n, dy))
        assert mutual_information(xs, ys, bins, seed) == pytest.approx(
            loop_mutual_information(xs, ys, bins, seed), abs=1e-12)

    def test_peak_stays_below_two_stacked_sample_matrices(self):
        # 72 samples of d = 768 a side, as bluffing hands over on a wide
        # trace corpus: the x side is stacked, projected and freed before
        # the y side is stacked, so the two never coexist
        n, d = 72, 768
        local = np.random.default_rng(0)
        xs = [local.standard_normal(d) for _ in range(n)]
        ys = [local.standard_normal(d) for _ in range(n)]
        tracemalloc.start()
        try:
            mutual_information(xs, ys, 4, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * d * 8


class TestCoherence:
    KB = KnowledgeBase(entries=(("a", np.array([1.0, 0.0])),
                                ("b", np.array([0.0, 1.0]))))

    def test_exact_match(self):
        assert coherence([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                         self.KB) == pytest.approx(1.0)

    def test_orthogonal_claim_clamp_midpoint(self):
        kb = KnowledgeBase(entries=(("a", np.array([1.0, 0.0])),))
        assert coherence([np.array([0.0, 1.0])], kb) == pytest.approx(0.5)

    def test_mixed_mean(self):
        kb = KnowledgeBase(entries=(("a", np.array([1.0, 0.0])),))
        value = coherence([np.array([1.0, 0.0]), np.array([0.0, 1.0])], kb)
        assert value == pytest.approx(0.75)

    def test_empty_inputs(self):
        with pytest.raises(MetricError):
            coherence([], self.KB)


class TestAvgPairwiseSimilarity:
    def test_identical(self):
        vecs = [np.array([1.0, 1.0])] * 4
        assert avg_pairwise_similarity(vecs) == pytest.approx(1.0)

    def test_orthogonal_pair(self):
        assert avg_pairwise_similarity([np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0])]) == \
            pytest.approx(0.0)

    def test_three_vector_enumeration(self):
        vecs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                np.array([0.0, 1.0])]
        assert avg_pairwise_similarity(vecs) == pytest.approx(1.0 / 3.0)

    def test_too_few(self):
        with pytest.raises(MetricError):
            avg_pairwise_similarity([np.array([1.0])])


class TestSemanticEntropy:
    def test_unit_variance_1d(self):
        samples = [0.0, math.sqrt(2.0)]   # ddof=1 variance exactly 1
        assert semantic_entropy(samples) == pytest.approx(0.5 * LOG_2PI_E)

    def test_identical_samples_with_ridge(self):
        samples = np.tile([1.0, 2.0, 3.0], (5, 1))
        assert semantic_entropy(samples, ridge=1.0) == \
            pytest.approx(3 * 0.5 * LOG_2PI_E)

    def test_scaling_shifts_entropy(self, rng):
        samples = rng.standard_normal(50)
        base = semantic_entropy(samples)
        assert semantic_entropy(2.0 * samples) == \
            pytest.approx(base + math.log(2.0), abs=1e-9)

    def test_contraction_decreases_entropy(self, rng):
        samples = rng.standard_normal((40, 3))
        mean = samples.mean(axis=0)
        contracted = mean + 0.5 * (samples - mean)
        assert semantic_entropy(contracted) < semantic_entropy(samples)

    def test_singular_without_ridge(self):
        with pytest.raises(MetricError, match="singular"):
            semantic_entropy(np.tile([1.0, 2.0], (5, 1)), ridge=0.0)

    def test_needs_enough_samples(self):
        with pytest.raises(InsufficientDataError, match="d\\+1 = 5"):
            semantic_entropy(np.zeros((2, 4)), ridge=0.0)
        with pytest.raises(InsufficientDataError):
            semantic_entropy(np.ones((4, 4)), ridge=0.0)   # n = d

    def test_negative_ridge(self):
        with pytest.raises(MetricError, match="ridge must be >= 0"):
            semantic_entropy(np.ones((3, 2)), ridge=-1e-9)

    # (n, d, ridge): n < d, n = d, n > d and n = 1 with a ridge; n > d
    # without one. Unit-scale samples keep det(Sigma + ridge I) well
    # conditioned, so both formulas are accurate to a few ulps of logdet.
    @pytest.mark.parametrize("n, d, ridge", [
        (1, 6, 1e-3), (1, 768, 1.0), (2, 6, 0.05), (3, 6, 1.0),
        (8, 64, 0.05), (8, 768, 0.05), (8, 768, 1.0), (6, 6, 0.05),
        (6, 6, 1.0), (9, 6, 0.05), (40, 6, 1.0), (40, 6, 0.0),
        (200, 64, 0.0)])
    def test_matches_covariance_oracle(self, n, d, ridge):
        rng = np.random.default_rng([n, d])
        for _ in range(5):
            samples = rng.standard_normal((n, d))
            samples += 3.0 * rng.standard_normal(d)   # off the origin
            expected = cov_semantic_entropy(samples, ridge)
            assert abs(expected) > 1.0   # a relative error means something
            got = semantic_entropy(samples, ridge=ridge)
            assert abs(got - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("d", [64, 768])
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_at_a_small_ridge(self, n, d):
        # integer samples far from the origin, centred Gram known in closed
        # form; cond(Sigma + ridge I) is 1e12 (d = 64) to 2e15 (d = 768)
        ridge = 1e-6
        offset = np.full(d, 1000.0)
        offset[::2] = -3000.0
        v, w = np.zeros(d), np.zeros(d)
        v[:d // 2] = 7.0 * np.arange(1, d // 2 + 1)
        w[d // 2:] = -5.0 * np.arange(1, d // 2 + 1)
        vv, ww = v @ v, w @ w
        if n == 2:   # centred rows +-v, m = 1
            samples, det = [offset + v, offset - v], ridge + 2.0 * vv
        else:        # centred rows v, w - v, -w, m = 2
            samples = [offset + v, offset + w - v, offset - w]
            det = ridge ** 2 + ridge * (vv + ww) + 0.75 * vv * ww
        expected = 0.5 * (d * LOG_2PI_E + (d - n + 1) * math.log(ridge)
                          + math.log(det))
        got = semantic_entropy(np.array(samples), ridge=ridge)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_no_d_by_d_matrix_when_n_below_d(self):
        samples = np.random.default_rng(0).standard_normal((8, 768))
        tracemalloc.start()
        try:
            semantic_entropy(samples, ridge=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000   # one 768 x 768 float array is 4.7 MB


class TestContextualDistance:
    def test_zero_at_identity(self):
        assert contextual_distance([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_three_four_five(self):
        assert contextual_distance([0.0, 0.0], [3.0, 4.0]) == \
            pytest.approx(5.0)

    @given(_vectors, _vectors)
    def test_symmetry(self, a_vals, b_vals):
        n = min(len(a_vals), len(b_vals))
        a, b = np.asarray(a_vals[:n]), np.asarray(b_vals[:n])
        assert contextual_distance(a, b) == \
            pytest.approx(contextual_distance(b, a))


class TestWindowedSlope:
    def test_linear_series(self):
        assert windowed_slope([1.0, 3.0, 5.0, 7.0], 4) == pytest.approx(2.0)
        # a window longer than the series fits all of it
        assert windowed_slope([1.0, 3.0, 5.0, 7.0], 9) == pytest.approx(2.0)

    def test_uses_last_window(self):
        series = [0.0] * 10 + [1.0, 2.0, 3.0, 4.0, 5.0]
        assert windowed_slope(series, window=5) == pytest.approx(1.0)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            windowed_slope([1.0], 5)

    @pytest.mark.parametrize("window", [1, 0, -2])
    def test_a_window_below_two_points_is_rejected(self, window):
        # never read as the whole series
        with pytest.raises(InsufficientDataError):
            windowed_slope([0.0, 1.0, 3.0, 6.0], window)
