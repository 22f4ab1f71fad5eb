"""Metric primitives the detector formulas are assembled from.

All functions are pure and deterministic (the mutual-information estimator
is seeded through its config), so they can be mapped over records in
parallel without coordination.

Similarity is cosine. Detector thresholds operate on the clamped scale
(1 + cos)/2 in [0, 1]: 0 antipodal, 0.5 orthogonal, 1 identical.
`sim_matrix` is the one kernel for similarity over sets of embeddings
(pairs of outputs, claims x KB entries), and `sim_row_blocks` gives it in
row blocks; the scalar `sim` is their reference.
"""

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI_E = math.log(2.0 * math.pi * math.e)


class MetricError(ValueError):
    """Metric preconditions violated (zero vector, empty input, ...)."""


class InsufficientDataError(MetricError):
    """Too few samples for the requested estimate."""


@dataclass(frozen=True)
class MIEstimatorConfig:
    """One random projection per side followed by equal-width binning and
    a plug-in estimate. Adequate for the near-zero versus clearly-positive
    decisions the detectors make; not a calibrated MI estimator. `audit`
    takes the seed from --seed only, so its manifest holds the seed used."""

    num_bins_per_axis: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.num_bins_per_axis < 2:
            raise MetricError("num_bins_per_axis must be at least 2")

    @property
    def min_samples(self):
        return 4 * self.num_bins_per_axis ** 2


def sim(a, b, clamp=True):
    """Cosine similarity; clamped to [0,1] via (1+cos)/2 when clamp."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise MetricError(f"shape mismatch {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise MetricError("similarity undefined for a zero vector")
    c = float(np.dot(a, b) / (na * nb))
    c = min(1.0, max(-1.0, c))
    return (1.0 + c) / 2.0 if clamp else c


def _row_norms(x):
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if not norms.all():
        raise MetricError("similarity undefined for a zero vector")
    return norms


def _columns(a, b):
    """a and b as 2-d float arrays of one width, and the row norms of b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise MetricError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b, _row_norms(b)


def _sim_block(a, b, nb, clamp):
    if np.may_share_memory(a, b):
        # a @ a.T runs syrk, whose blocks can round equal entries apart
        a = a.copy()
    na = _row_norms(a)
    s = a @ b.T
    for row, norm in zip(s, na):
        row /= norm * nb   # as in sim: one division by the norm product
    np.clip(s, -1.0, 1.0, out=s)
    if clamp:
        s += 1.0
        s /= 2.0
    return s


def sim_matrix(a, b, clamp=True):
    """`sim` of every row of a against every row of b, as a
    (len(a), len(b)) array. Built in place on the one product a @ b.T."""
    return _sim_block(*_columns(a, b), clamp)


def sim_row_blocks(a, b, rows):
    """`sim_matrix(a, b)` in blocks of `rows` rows of a (the last may be
    shorter), in order. The norms of b are taken once; a block that
    shares memory with b is copied, not b, so the memory beyond the
    inputs is one block and its rows."""
    a, b, nb = _columns(a, b)
    for start in range(0, len(a), rows):
        yield _sim_block(a[start:start + rows], b, nb, True)


def fluency(token_logprobs):
    """Geometric-mean token probability exp(mean log p) in (0, 1]."""
    lp = np.asarray(token_logprobs, dtype=float)
    if lp.size == 0:
        raise MetricError("fluency of an empty token sequence")
    if np.any(lp > 0.0) or not np.all(np.isfinite(lp)):
        raise MetricError("log-probabilities must be finite and <= 0")
    return float(math.exp(lp.mean()))


def _as_sample_matrix(xs):
    arr = np.asarray(xs, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise MetricError("expected a sequence of vectors")
    return arr


def _bin_indices(values, bins):
    """The equal-width bin of each value over [min, max]; all 0 when the
    values are equal."""
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.zeros(len(values), dtype=np.int64)
    return np.minimum((bins * (values - lo) / (hi - lo)).astype(np.int64),
                      bins - 1)


def mutual_information(xs, ys, cfg=MIEstimatorConfig()):
    """Plug-in MI (nats) of jointly binned random projections of paired
    samples, one projection per side. Nonnegative; deterministic given
    cfg.seed."""
    X = _as_sample_matrix(xs)
    Y = _as_sample_matrix(ys)
    if X.shape[0] != Y.shape[0]:
        raise MetricError("paired samples must have equal length")
    n = X.shape[0]
    if n < cfg.min_samples:
        raise InsufficientDataError(
            f"need >= {cfg.min_samples} samples for "
            f"{cfg.num_bins_per_axis} bins per axis, got {n}")
    rng = np.random.default_rng(cfg.seed)
    px = rng.standard_normal(X.shape[1])
    py = rng.standard_normal(Y.shape[1])
    bins = cfg.num_bins_per_axis
    iu = _bin_indices(X @ px, bins)
    iv = _bin_indices(Y @ py, bins)
    joint = np.bincount(iu * bins + iv, minlength=bins * bins) / n
    pu = joint.reshape(bins, bins).sum(axis=1)
    pv = joint.reshape(bins, bins).sum(axis=0)
    mask = joint > 0
    outer = np.outer(pu, pv).ravel()
    mi = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    return max(0.0, mi)


def coherence(claim_embeddings, kb):
    """Mean over claims of the max clamped similarity to any KB entry.

    Computed on the clamped [0,1] scale so the score is a coherence
    fraction comparable to tau_C.
    """
    if len(claim_embeddings) == 0:
        raise MetricError("coherence needs at least one claim")
    matrix = kb.embedding_matrix()
    if matrix.size == 0:
        raise MetricError("coherence against an empty knowledge base")
    return float(sim_matrix(claim_embeddings, matrix).max(axis=1).mean())


def avg_pairwise_similarity(vectors):
    """Mean raw cosine over all unordered pairs; needs >= 2 vectors."""
    v = np.asarray(vectors, dtype=float)
    t = len(v)
    if t < 2:
        raise MetricError("average pairwise similarity needs >= 2 vectors")
    s = sim_matrix(v, v, clamp=False)
    s[np.tri(t, dtype=bool)] = 0.0   # keep the strict upper triangle
    return float(s.sum()) * 2.0 / (t * (t - 1))


def semantic_entropy(embeddings, ridge=0.0):
    """Gaussian differential entropy 0.5 log((2 pi e)^d det(Sigma + ridge I))
    of the sample covariance. May be negative; callers that need a
    monotone signal use its slope over time.

    Sigma = Z'Z / m with m = max(n - 1, 1), where the n - 1 Helmert rows
    Z_j = (x_1 + ... + x_j - j x_{j+1}) / sqrt(j (j + 1)) span the centred
    samples orthonormally: Z'Z = X'X for the centred X, without the
    all-ones null direction that rounding would perturb at a small ridge.
    det(r I_d + Z'Z / m) = r^(d-k) det(r I_k + G), where G is the smaller
    k x k Gram matrix: Z Z' / m when n - 1 <= d, else Z'Z / m. No d x d
    array is formed when n <= d; memory is O(min(n, d)^2) beyond the input.
    """
    E = _as_sample_matrix(embeddings)
    n, d = E.shape
    if ridge < 0.0:
        raise MetricError("ridge must be >= 0")
    if ridge == 0.0 and n < d + 1:
        raise InsufficientDataError(
            f"need >= d+1 = {d + 1} samples for a full-rank covariance "
            f"(got {n}); pass ridge > 0 otherwise")
    j = np.arange(1.0, n)[:, None]
    Z = (np.cumsum(E[:-1], axis=0) - j * E[1:]) / np.sqrt(j * (j + 1.0))
    gram = Z @ Z.T if n - 1 <= d else Z.T @ Z
    k = len(gram)
    gram /= max(n - 1, 1)
    gram[np.diag_indices(k)] += ridge
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0 or not math.isfinite(logdet):
        raise MetricError("singular covariance; pass ridge > 0")
    if d > k:   # ridge > 0 here: ridge == 0 needs n > d
        logdet += (d - k) * math.log(ridge)
    return float(0.5 * (d * LOG_2PI_E + logdet))


def contextual_distance(c_t, c_tk):
    """Euclidean distance between two context vectors."""
    a = np.asarray(c_t, dtype=float)
    b = np.asarray(c_tk, dtype=float)
    if a.shape != b.shape:
        raise MetricError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def windowed_slope(series, window):
    """Least-squares slope of the last `window` >= 2 points of a series.

    Robust single-number time derivative; used wherever a detector needs
    the sign of dD_avg/dt or dH_t/dt.
    """
    y = np.asarray(series, dtype=float)[-window:]
    if window < 2 or y.size < 2:
        raise InsufficientDataError("slope needs >= 2 points")
    x = np.arange(y.size, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))
