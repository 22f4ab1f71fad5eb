"""Independent oracles used by the test suite.

These deliberately avoid the package's solution paths: the expectile
oracle evaluates the asymmetric quadratic objective on a dense grid, the
pareto oracle is a naive double loop, and the game oracle grid-walks the
joint feasible set of two agents. The canonical JSON oracle is the
two-pass encoder the package used before it streamed: a canonicalised deep
copy handed to the standard library's json.dumps. The pair-detector
oracles are the double loops over the scalar `sim` that cognitive
stereotypy and hypersignification ran before the similarity kernel. The
semantic-warming oracle forms the redundancy and entropy of every style
prefix, as the detector did before it formed only those in its window. The
entropy oracle is the d x d covariance formula semantic_entropy used
before it moved to the smaller Gram matrix. The chi CDF is the
incomplete-gamma power series, so the holonorm density is checked without
scipy. The density-check oracle is the whole-sample check the package ran
before it drew its Monte-Carlo sample in row blocks. The validation oracle
is a loop over every (record, detector) pair that checks each required
field with its own `getattr` or annotation lookup, where validate_corpus
groups records by the fields they carry.
"""

import json
import math

import numpy as np


def asymmetric_objective(losses, r, tau):
    """E[w_tau(L - r) (L - r)^2] on the empirical distribution."""
    z = np.asarray(losses, dtype=float) - r
    w = np.where(z > 0, tau, 1.0 - tau)
    return float(np.mean(w * z * z))


def grid_expectile(losses, tau, step=1e-4):
    """Argmin of the asymmetric quadratic over a dense grid [min, max].

    The objective is evaluated exactly on every grid point via prefix
    sums, so this stays affordable at n = 1e5 while remaining a direct
    minimization, independent of the fixed-point iteration.
    """
    L = np.sort(np.asarray(losses, dtype=float).ravel())
    n = L.size
    lo, hi = float(L[0]), float(L[-1])
    if hi == lo:
        return lo
    grid = np.arange(lo, hi + step, step)
    c1 = np.concatenate([[0.0], np.cumsum(L)])
    c2 = np.concatenate([[0.0], np.cumsum(L * L)])
    k = np.searchsorted(L, grid, side="right")   # |{L <= r}|, w_tau(0)=1-tau
    s1_below, s2_below = c1[k], c2[k]
    s1_above, s2_above = c1[n] - c1[k], c2[n] - c2[k]
    below = (1.0 - tau) * (s2_below - 2.0 * grid * s1_below
                           + grid * grid * k)
    above = tau * (s2_above - 2.0 * grid * s1_above
                   + grid * grid * (n - k))
    objective = (below + above) / n
    return float(grid[np.argmin(objective)])


def naive_pareto(values):
    """Indices of non-dominated points under componentwise <=."""
    survivors = []
    for i, vi in enumerate(values):
        dominated = False
        for j, vj in enumerate(values):
            if j == i:
                continue
            if all(a <= b for a, b in zip(vj, vi)) and tuple(vj) != tuple(vi):
                dominated = True
                break
        if not dominated:
            survivors.append(i)
    return survivors


def grid_variational_equilibrium(agents, kappa, cap, steps=41):
    """Brute-force minimizer of sum_i ||theta_i - t_i||^2 + lam_i kappa
    ||theta_i||^2 over two agents' 2-d boxes and the shared cap
    sum_i kappa ||theta_i||^2 <= cap, on a grid of `steps` points per box
    axis (steps^4 joint points). agents is two (target, lo, hi, lam)
    tuples. Returns (thetas, objective) of the best feasible grid point."""
    points, costs, computes = [], [], []
    for target, lo, hi, lam in agents:
        xs, ys = np.meshgrid(np.linspace(lo[0], hi[0], steps),
                             np.linspace(lo[1], hi[1], steps), indexing="ij")
        grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
        norm2 = np.sum(grid * grid, axis=1)
        points.append(grid)
        costs.append(np.sum((grid - target) ** 2, axis=1)
                     + lam * kappa * norm2)
        computes.append(kappa * norm2)
    best, best_value = None, np.inf
    for i in range(len(points[0])):
        value = np.where(computes[0][i] + computes[1] <= cap,
                         costs[0][i] + costs[1], np.inf)
        j = int(np.argmin(value))
        if value[j] < best_value:
            best, best_value = (i, j), float(value[j])
    return [points[0][best[0]], points[1][best[1]]], best_value


def chi_cdf(dim, r):
    """P(R <= r) for R ~ chi with `dim` degrees of freedom: the regularized
    lower incomplete gamma P(dim/2, r^2/2), from its power series
    x^a e^-x / Gamma(a + 1) * sum_n x^n / ((a + 1) ... (a + n))."""
    a, x = 0.5 * dim, 0.5 * r * r
    if x == 0.0:
        return 0.0
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= x / (a + n)
        total += term
    return math.exp(a * math.log(x) - x - math.lgamma(a + 1.0)) * total


def _canon(obj):
    if hasattr(obj, "to_json_dict"):
        return _canon(obj.to_json_dict())
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            return "inf" if f > 0 else ("-inf" if f < 0 else "nan")
        r = round(f, 12)
        return r + 0.0   # normalize -0.0
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    return obj


def canonical_json(obj):
    """Canonical JSON text of obj via a deep copy and json.dumps; an
    object with to_json_dict() is copied as that dict."""
    return json.dumps(_canon(obj), sort_keys=True, indent=1,
                      separators=(",", ": "))


def _loop_output_pair(records, input_bound, better):
    from pathrisk.metrics import sim
    found = None
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            if sim(records[i].input_embedding,
                   records[j].input_embedding) >= input_bound:
                continue
            s = sim(records[i].output_embedding, records[j].output_embedding)
            if found is None or better(s, found[0]):
                found = (s, f"{records[i].id},{records[j].id}")
    return found


def loop_cognitive_stereotypy(records):
    """(min clamped output similarity over pairs with distinct inputs,
    witness ids) or None; the first pair in (i, j) order wins a tie."""
    return _loop_output_pair(records, 1.0 - 1e-9, lambda s, b: s < b)


def loop_hypersignification(records, s_lo):
    """(max clamped output similarity over pairs whose clamped input
    similarity is below s_lo, witness ids) or None; first pair wins."""
    return _loop_output_pair(records, s_lo, lambda s, b: s > b)


def cov_semantic_entropy(embeddings, ridge):
    """0.5 log((2 pi e)^d det(Sigma + ridge I_d)) from the full d x d
    sample covariance (ddof 1; the zero matrix for a single sample)."""
    E = np.atleast_2d(np.asarray(embeddings, dtype=float))
    n, d = E.shape
    if n < 2:
        cov = np.zeros((d, d))
    else:
        cov = np.atleast_2d(np.cov(E, rowvar=False, ddof=1))
    sign, logdet = np.linalg.slogdet(cov + ridge * np.eye(d))
    assert sign > 0
    return 0.5 * (d * math.log(2.0 * math.pi * math.e) + logdet)


def every_prefix_semantic_warming(records, cfg):
    """(severity, evidence) of semantic_warming from the redundancy and
    entropy of every style prefix, lengths 2..T, each slope the
    least-squares fit to the last cfg.window values; and the prefix
    lengths whose entropy raised a MetricError. Such a prefix inside the
    window raises its error."""
    from pathrisk import metrics
    from pathrisk.registry import fmt
    styles = np.asarray([r.style_embedding for r in records], dtype=float)
    lengths = range(2, len(styles) + 1)
    redundancy, entropy = [], []
    for t in lengths:
        redundancy.append(metrics.avg_pairwise_similarity(styles[:t]))
        try:
            entropy.append(metrics.semantic_entropy(
                styles[:t], ridge=cfg.entropy_ridge))
        except metrics.MetricError as exc:
            entropy.append(exc)

    def slope(series):
        window = series[-cfg.window:]
        for value in window:
            if isinstance(value, Exception):
                raise value
        y = np.asarray(window, dtype=float)
        x = np.arange(len(y), dtype=float)
        xc = x - x.mean()
        return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))

    rising, falling = slope(redundancy), slope(entropy)
    fluency = float(np.mean([metrics.fluency(r.output_token_logprobs)
                             for r in records]))
    severity = fluency if rising > 0.0 or falling < 0.0 else 0.0
    undefined = [t for t, h in zip(lengths, entropy)
                 if isinstance(h, Exception)]
    return severity, {"redundancy_slope": fmt(rising),
                      "entropy_slope": fmt(falling),
                      "mean_fluency": fmt(fluency)}, undefined


def _carries(record, field):
    # "annotations.k" names the key k of the record's annotations
    if field.startswith("annotations."):
        return field.split(".", 1)[1] in record.annotations
    return getattr(record, field) is not None


def loop_validation(records):
    """{detector: {record id: fields the record lacks for it}}, with ()
    for a record the detector can score and the wrong-kind reason for a
    record of the kind the detector does not read, checked field by field
    for every (record, detector) pair."""
    from pathrisk.records import ClassificationRecord, TraceRecord
    from pathrisk import registry
    out = {}
    for table, reads, kind in (
            (registry.GENERATIVE_DETECTORS, TraceRecord, "trace"),
            (registry.DISCRIMINATIVE_DETECTORS, ClassificationRecord,
             "classification")):
        for name, required in table.items():
            out[name] = {
                rec.id: (tuple(f for f in required if not _carries(rec, f))
                         if isinstance(rec, reads)
                         else (f"<requires a {kind} record>",))
                for rec in records}
    return out


def whole_sample_density_check(cfg):
    """density_transform_check's report from the whole sample at once: one
    n x D draw, its image under hn, one histogramdd per grid, and the
    widening loop over that one histogrammed sample. The transformed
    density itself is the package's holonorm_density, which
    test_density_integrates_to_the_radial_cdf checks against chi_cdf."""
    from pathrisk.holonorm import holonorm_density
    d = cfg.dimension
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((cfg.samples, d))
    y = x / (1.0 + np.linalg.norm(x, axis=1, keepdims=True))
    inside = float(np.mean(np.linalg.norm(y, axis=1) < 1.0))

    bins = cfg.default_bins()
    widened = False
    notes = []
    while True:
        edges = [np.linspace(-1.0, 1.0, bins + 1)] * d
        counts, _ = np.histogramdd(y, bins=edges)
        width = 2.0 / bins
        volume = width ** d
        centers_1d = np.linspace(-1.0 + width / 2.0, 1.0 - width / 2.0, bins)
        grids = np.meshgrid(*([centers_1d] * d), indexing="ij")
        centers = np.stack([g.ravel() for g in grids], axis=1)
        flat_counts = counts.ravel()
        mask = flat_counts >= cfg.min_bin_count
        if mask.any() or bins <= 4:
            break
        bins //= 2
        widened = True
        notes.append(f"no bin reached {cfg.min_bin_count} samples; "
                     f"widened to {bins} bins per axis")
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
            "mass_inside_unit_ball": inside,
            "widened": widened,
            "notes": notes}
