"""Holonorm map, holonorm transformer block, and numerical verification of
its determinant and density-transformation identities.

The holonorm map hn(x) = x / (1 + ||x||) is a bijection from R^D onto the
open unit ball; it serves both as the pre-attention normalization and as
the feedforward nonlinearity of the block

    z_l = (id + f o hn) o (id + MHA o hn)(z_{l-1}),

with f(x) = W2 hn(W1 x + b1) + b2 and MHA standard scaled dot-product
multihead self-attention. No positional encoding is added, so the forward
map is permutation equivariant.

Every draw, the model's weights and the density check's Monte-Carlo
sample alike, comes from `draws.Generator`, the standard library's
generator. The density-transformation check draws its sample in row
blocks of at most _BLOCK_ELEMENTS entries and keeps only the bin counts,
so its memory does not grow with the number of samples; the generator
gives the same values in blocks as in one draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .draws import Generator


class HolonormError(ValueError):
    pass


def hn(x):
    """x / (1 + ||x||) along the last axis: one vector, or the rows of a
    matrix. Maps R^D into the open unit ball, preserving direction. Total
    function; hn(0) = 0."""
    x = np.asarray(x, dtype=float)
    return x / (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))


def inverse_hn(y):
    """y / (1 - ||y||), the inverse of hn, valid for ||y|| < 1 - 1e-12."""
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(y))
    if r >= 1.0 - 1e-12:
        raise HolonormError(f"inverse holonorm undefined at ||y|| = {r} "
                            ">= 1 - 1e-12")
    return y / (1.0 - r)


def det_jacobian_inverse_hn(y):
    """det of the Jacobian of inverse_hn at y: (1 - ||y||)^-(D+1)."""
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(y))
    if r >= 1.0:
        raise HolonormError(f"||y|| = {r} outside the unit ball")
    d = y.size
    return (1.0 - r) ** (-(d + 1))


def finite_difference_jacobian_det(func, y, h=1e-6):
    """Central-difference Jacobian determinant; the independent oracle for
    det_jacobian_inverse_hn."""
    y = np.asarray(y, dtype=float)
    d = y.size
    jac = np.empty((d, d))
    for j in range(d):
        step = np.zeros(d)
        step[j] = h
        jac[:, j] = (func(y + step) - func(y - step)) / (2.0 * h)
    return float(np.linalg.det(jac))


def matrix_determinant_lemma_check(alpha, beta, u):
    """Compare det(alpha I + beta u u^T) computed densely (LU) against the
    rank-one update identity alpha^(D-1) (alpha + beta ||u||^2).

    Returns (lhs, rhs, absolute error).
    """
    if alpha == 0.0:
        raise HolonormError("alpha must be nonzero")
    u = np.asarray(u, dtype=float)
    d = u.size
    dense = alpha * np.eye(d) + beta * np.outer(u, u)
    lhs = float(np.linalg.det(dense))
    rhs = float(alpha ** (d - 1) * (alpha + beta * float(u @ u)))
    return lhs, rhs, abs(lhs - rhs)


# --- the transformer block ----------------------------------------------------


@dataclass(eq=False)
class HolonormLayer:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w1: np.ndarray   # (d_ff, D)
    b1: np.ndarray
    w2: np.ndarray   # (D, d_ff)
    b2: np.ndarray


@dataclass(eq=False)
class HolonormModel:
    """Parameters of an L-layer holonorm transformer: its layers, its head
    count, and the constant (q, k, v) vectors that the degeneracy check
    passes to attention in place of the per-token projections. Parameters
    are uniform(-1/sqrt(D), 1/sqrt(D)), drawn in that order from
    draws.Generator(seed).
    """

    layers: tuple
    num_heads: int
    constants: tuple

    @classmethod
    def build(cls, num_layers, model_dim, num_heads, ff_dim, seed):
        if model_dim % num_heads != 0:
            raise HolonormError(f"num_heads {num_heads} must divide "
                                f"model_dim {model_dim}")
        rng = Generator(seed)
        scale = 1.0 / math.sqrt(model_dim)

        def mat(rows, cols):
            return rng.uniforms(-scale, scale, (rows, cols))

        layers = []
        for _ in range(num_layers):
            layers.append(HolonormLayer(
                wq=mat(model_dim, model_dim), wk=mat(model_dim, model_dim),
                wv=mat(model_dim, model_dim), wo=mat(model_dim, model_dim),
                w1=mat(ff_dim, model_dim),
                b1=rng.uniforms(-scale, scale, ff_dim),
                w2=mat(model_dim, ff_dim),
                b2=rng.uniforms(-scale, scale, model_dim)))
        constants = tuple(rng.uniforms(-scale, scale, model_dim)
                          for _ in range(3))  # q, k, v
        return cls(layers=tuple(layers), num_heads=num_heads,
                   constants=constants)


def _softmax_rows(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def multihead_attention(layer, inputs, num_heads, constants=None):
    """Scaled dot-product multihead self-attention with output projection.

    inputs: (n, D) already holonorm-normalized rows. Given constants, a
    (q, k, v) triple of D-vectors, every token's query, key and value is
    that constant in place of its projection, so the result does not
    depend on the inputs.
    """
    n, d = inputs.shape
    if constants is None:
        q, k, v = (inputs @ w.T for w in (layer.wq, layer.wk, layer.wv))
    else:
        q, k, v = (np.tile(c, (n, 1)) for c in constants)
    head_dim = d // num_heads
    out = np.empty_like(q)
    for h in range(num_heads):
        sl = slice(h * head_dim, (h + 1) * head_dim)
        scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(head_dim)
        out[:, sl] = _softmax_rows(scores) @ v[:, sl]
    return out @ layer.wo.T


def feedforward(layer, x):
    """Pointwise two-layer map W2 hn(W1 x + b1) + b2 on a (n, D) batch."""
    return hn(x @ layer.w1.T + layer.b1) @ layer.w2.T + layer.b2


def forward(model, tokens, constants=None):
    """Apply all layers: z <- z + MHA(hn(z)); z <- z + f(hn(z)). Given
    constants, a (q, k, v) triple, every attention sublayer uses them as
    multihead_attention does."""
    z = np.asarray(tokens, dtype=float)
    if z.ndim != 2 or z.shape[0] == 0:
        raise HolonormError("tokens must be a nonempty (n, D) array")
    model_dim = model.constants[0].size
    if z.shape[1] != model_dim:
        raise HolonormError(f"token dim {z.shape[1]} != model dim "
                            f"{model_dim}")
    for layer in model.layers:
        z = z + multihead_attention(layer, hn(z), model.num_heads, constants)
        z = z + feedforward(layer, hn(z))
    return z


def constant_param_degeneracy_check(model, probe_inputs, tol=1e-12):
    """Evaluate the input-insensitivity of attention under constant q/k/v.

    The first layer's MHA o hn sublayer, run with model.constants as its
    q/k/v, must emit identical values on all equal-length probes (max abs
    difference <= tol); run with its live projections, the same probes
    must produce distinct sublayer outputs. The residual path still
    transmits the input, so full-block outputs under the constants are
    reported separately rather than asserted constant. The feedforward
    sublayer is pointwise: a token's value must be unchanged when the
    other tokens are permuted around it.
    """
    probes = [np.asarray(p, dtype=float) for p in probe_inputs]
    if len(probes) < 2:
        raise HolonormError("need >= 2 probe inputs")
    lengths = {p.shape for p in probes}
    if len(lengths) > 1:
        raise HolonormError(f"probe shapes differ: {sorted(lengths)}")

    layer = model.layers[0]
    normed = [hn(p) for p in probes]
    deg_outputs = [multihead_attention(layer, x, model.num_heads,
                                       model.constants) for x in normed]
    max_deg_diff = max(float(np.abs(a - deg_outputs[0]).max())
                       for a in deg_outputs[1:])

    live_outputs = [multihead_attention(layer, x, model.num_heads)
                    for x in normed]
    min_live_diff = min(float(np.abs(live_outputs[i] - live_outputs[j]).max())
                        for i in range(len(probes))
                        for j in range(i + 1, len(probes)))

    full_outputs = [forward(model, p, model.constants) for p in probes]
    max_full_diff = max(float(np.abs(a - full_outputs[0]).max())
                        for a in full_outputs[1:])

    # pointwise feedforward: permuting the other tokens must not move a
    # token's sublayer value
    probe = probes[0]
    n = probe.shape[0]
    perm = np.roll(np.arange(n), 1)
    ff_base = feedforward(layer, hn(probe))
    ff_perm = feedforward(layer, hn(probe[perm]))
    ff_consistent = float(np.abs(ff_perm - ff_base[perm]).max()) == 0.0

    return {"probes": len(probes),
            "degenerate_mha_constant": max_deg_diff <= tol,
            "max_degenerate_mha_diff": max_deg_diff,
            "live_mha_distinct": min_live_diff > tol,
            "min_live_mha_diff": min_live_diff,
            "max_degenerate_full_block_diff": max_full_diff,
            "residual_path_transmits_input": max_full_diff > tol,
            "feedforward_pointwise_consistent": ff_consistent,
            "tolerance": tol}


# --- density transformation ----------------------------------------------------


@dataclass(frozen=True)
class DensityCheckConfig:
    """Monte-Carlo check of the pushforward density of hn under a standard
    normal source."""

    dimension: int
    samples: int = 100_000
    seed: int = 0
    tolerance: float = 0.1
    min_bin_count: int = 50

    def __post_init__(self):
        if self.dimension < 1:
            raise HolonormError("dimension must be >= 1")
        if self.samples < 10_000:
            raise HolonormError("acceptance runs need >= 10^4 samples")
        if not self.tolerance >= 0.0:  # also rejects nan
            raise HolonormError(f"tolerance {self.tolerance} must be >= 0")

    def default_bins(self):
        return {1: 40, 2: 20}.get(self.dimension, 8)


def holonorm_density(y):
    """The transformed density p_Y(y) = p_X(y/(1-||y||)) (1-||y||)^-(D+1)
    for X standard normal, y inside the unit ball."""
    y = np.asarray(y, dtype=float)
    r = float(np.linalg.norm(y))
    if r >= 1.0:
        return 0.0
    d = y.size
    x = y / (1.0 - r)
    log_px = -0.5 * (d * math.log(2.0 * math.pi) + float(x @ x))
    return math.exp(log_px) * (1.0 - r) ** (-(d + 1))


# the most entries of one row block of the Monte-Carlo draw; a block holds
# at least one row
_BLOCK_ELEMENTS = 1 << 16


def _binned_sample(cfg, bins):
    """Draw cfg.samples standard normal rows from draws.Generator(cfg.seed),
    map them by hn, and return how many land inside the unit ball and their
    counts on the bins^D grid over [-1, 1]^D.

    The draw is made in row blocks of at most _BLOCK_ELEMENTS entries (never
    less than one row); the generator fills row-major and takes the same
    bytes for each value, so the blocks are the one-shot draw's rows in
    order, also for an odd block size such as D = 3's 65,535 entries. Both
    results are integer sums, so they equal the whole sample's."""
    d = cfg.dimension
    rows = max(1, _BLOCK_ELEMENTS // d)
    rng = Generator(cfg.seed)
    edges = [np.linspace(-1.0, 1.0, bins + 1)] * d
    counts = np.zeros((bins,) * d)
    inside = 0
    for start in range(0, cfg.samples, rows):
        y = hn(rng.normals((min(rows, cfg.samples - start), d)))
        inside += int(np.count_nonzero(np.linalg.norm(y, axis=1) < 1.0))
        counts += np.histogramdd(y, bins=edges)[0]
    return inside, counts


def density_transform_check(cfg):
    """Histogram Y = hn(X) over the unit ball and compare the empirical bin
    densities against the closed-form transformed density at bin centers.

    The error statistic is the mean absolute relative error over bins
    holding at least min_bin_count samples; the check passes when it is
    at or below cfg.tolerance. While no bin reaches the count floor and
    the grid has more than 4 bins per axis, the bins per axis are halved
    (integer division) and the report notes it: 40 -> 20 -> 10 -> 5 -> 2
    at D = 1, 20 -> 10 -> 5 -> 2 at D = 2 and 8 -> 4 above. If no bin
    reaches the floor on the last grid either, nothing is compared: the
    check fails with an infinite error and a note that says why.

    Memory is O(_BLOCK_ELEMENTS + bins^D), whatever cfg.samples: the draw
    is streamed through hn and the histogram in row blocks, and each
    widening draws the same seeded sample again at the coarser grid.
    """
    d = cfg.dimension
    bins = cfg.default_bins()
    widened = False
    notes = []
    while True:
        inside, counts = _binned_sample(cfg, bins)
        flat_counts = counts.ravel()
        mask = flat_counts >= cfg.min_bin_count
        if mask.any() or bins <= 4:
            break
        bins //= 2
        widened = True
        notes.append(f"no bin reached {cfg.min_bin_count} samples; "
                     f"widened to {bins} bins per axis")
    width = 2.0 / bins
    volume = width ** d
    centers_1d = np.linspace(-1.0 + width / 2.0, 1.0 - width / 2.0, bins)
    grids = np.meshgrid(*([centers_1d] * d), indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=1)
    rel_errors = []
    for count, center in zip(flat_counts[mask], centers[mask]):
        theory = holonorm_density(center)
        if theory <= 0.0:
            continue
        empirical = count / (cfg.samples * volume)
        rel_errors.append(abs(empirical - theory) / theory)
    if mask.any():
        mean_rel_error = float(np.mean(rel_errors))
    else:
        mean_rel_error = math.inf
        notes.append(f"no bin holds {cfg.min_bin_count} samples at {bins} "
                     f"bins per axis; no density was compared")
    return {"dimension": d,
            "samples": cfg.samples,
            "bins_per_axis": bins,
            "bins_used": int(mask.sum()),
            "mean_abs_rel_error": mean_rel_error,
            "passes": mean_rel_error <= cfg.tolerance,
            "tolerance": cfg.tolerance,
            "mass_inside_unit_ball": inside / cfg.samples,
            "widened": widened,
            "notes": notes}
