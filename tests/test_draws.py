import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from pathrisk.draws import Generator


def oracle_uniforms(seed, count):
    """The top 53 bits of each 8 little-endian bytes of
    random.Random(seed).randbytes, scaled to [0, 1)."""
    data = random.Random(seed).randbytes(8 * count)
    return [(struct.unpack("<Q", data[8 * i:8 * i + 8])[0] >> 11) * 2.0 ** -53
            for i in range(count)]


def oracle_normals(seed, count):
    """Box-Muller's cosine branch on consecutive pairs of those uniforms."""
    u = oracle_uniforms(seed, 2 * count)
    return [math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)
            for u1, u2 in zip(u[0::2], u[1::2])]


@pytest.mark.parametrize("seed", [0, 1, 2 ** 40])
def test_uniforms_and_normals_match_the_pure_python_oracle(seed):
    expected = oracle_uniforms(seed, 1000)
    assert Generator(seed).uniforms(0.0, 1.0, 1000).tolist() == expected
    assert Generator(seed).uniforms(-3.0, 5.0, 1000).tolist() == [
        -3.0 + 8.0 * u for u in expected]
    # numpy's vectorised log1p may differ from libm's in the last bit
    # (measured: up to 4.4e-16 on a normal)
    drawn = Generator(seed).normals(1000)
    for got, want in zip(drawn, oracle_normals(seed, 1000)):
        assert math.isclose(got, want, rel_tol=1e-14, abs_tol=1e-15)


def test_integer_draws_continue_the_same_stream():
    rng, reference = Generator(3), random.Random(3)
    rng.normals(5)
    reference.randbytes(80)
    assert [rng.randrange(2, 51) for _ in range(20)] == [
        reference.randrange(2, 51) for _ in range(20)]


def test_shapes_and_a_scalar_draw():
    rng = Generator(0)
    assert rng.uniforms(0.0, 1.0, (2, 3)).shape == (2, 3)
    assert rng.normals((4, 0)).shape == (4, 0)
    assert rng.normals().shape == ()
    assert 0.5 <= float(rng.uniforms(0.5, 2.0)) < 2.0


@pytest.mark.parametrize("seed", [-1, 1.5, "0"])
def test_a_seed_that_is_not_a_nonnegative_integer_is_rejected(seed):
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        Generator(seed)


# 21,845 rows of 3 are the D = 3 row block of the density check's draw:
# 65,535 values, so the chunks of 4,096 values never line up with it
@pytest.mark.parametrize("rows, splits", [
    pytest.param(1, [1], id="1-splits0"),
    pytest.param(10_000, [1, 3, 4095, 4097, 7], id="10000-splits1"),
    pytest.param(65_542, [21_845, 21_845, 21_845], id="65542-splits2")])
@pytest.mark.parametrize("draw", ["uniforms", "normals"])
def test_a_split_draw_equals_the_one_shot_draw(rows, splits, draw):
    def drawn(rng, count):
        if draw == "uniforms":
            return rng.uniforms(-1.0, 1.0, (count, 3))
        return rng.normals((count, 3))

    one_shot = drawn(Generator(7), rows)
    rng = Generator(7)
    pieces = [drawn(rng, count) for count in splits]
    pieces.append(drawn(rng, rows - sum(splits)))
    assert np.array_equal(np.concatenate(pieces), one_shot)


def ks_statistic(sample, cdf):
    """sup |F_n - F| of `sample` against the CDF values `cdf(sorted)`."""
    f = cdf(np.sort(sample))
    n = f.size
    return max(float((np.arange(1, n + 1) / n - f).max()),
               float((f - np.arange(n) / n).max()))


# the alpha = 0.01 critical value of the one-sample KS statistic
def ks_bound(n):
    return 1.628 / math.sqrt(n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normals_and_uniforms_pass_a_ks_test(seed):
    n = 100_000
    rng = Generator(seed)
    erf = np.vectorize(math.erf)
    assert ks_statistic(rng.normals(n), lambda x: 0.5 * (
        1.0 + erf(x / math.sqrt(2.0)))) < ks_bound(n)
    assert ks_statistic(rng.uniforms(0.0, 1.0, n), lambda x: x) < ks_bound(n)


def test_a_draw_takes_its_output_and_one_chunk_of_memory():
    # the output alone is 512 KB; the one-shot draw's temporaries at
    # 65,536 normals would take another 2.5 MB
    tracemalloc.start()
    try:
        Generator(0).normals(65_536)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
