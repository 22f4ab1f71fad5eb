"""Independent oracles used by the test suite.

These deliberately avoid the package's solution paths: the expectile
oracle evaluates the asymmetric quadratic objective on a dense grid, the
pareto oracle is a naive double loop, and the projection oracles grid-walk
the feasible set. The canonical JSON oracle is the two-pass encoder the
package used before it streamed: a canonicalised deep copy handed to the
standard library's json.dumps. The pair-detector oracles are the double
loops over the scalar `sim` that cognitive stereotypy and
hypersignification ran before the similarity kernel. The entropy oracle is
the d x d covariance formula semantic_entropy used before it moved to the
smaller Gram matrix. The validation oracle is the loop over every
(record, detector) pair that validate_corpus ran before it grouped records
by their missing fields.
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


def grid_project_box_ball(point, lo, hi, radius, steps=401):
    """Brute-force nearest feasible point on a 2-d grid (oracle for the
    Dykstra projection)."""
    xs = np.linspace(lo[0], hi[0], steps)
    ys = np.linspace(lo[1], hi[1], steps)
    best, best_d = None, np.inf
    for x in xs:
        for y in ys:
            if x * x + y * y > radius * radius:
                continue
            d = (x - point[0]) ** 2 + (y - point[1]) ** 2
            if d < best_d:
                best, best_d = np.array([x, y]), d
    return best


def grid_best_response_on_ray(target, radius, steps=100001):
    """Argmin of ||theta - target||^2 along the ray toward target inside a
    centered ball (KKT oracle for the binding-budget best response)."""
    direction = target / np.linalg.norm(target)
    ts = np.linspace(0.0, radius, steps)
    costs = [(float(np.sum((t * direction - target) ** 2)), t) for t in ts]
    _, t_best = min(costs)
    return t_best * direction


def _canon(obj):
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
    """Canonical JSON text of obj via a deep copy and json.dumps."""
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


def loop_validation(records):
    """{detector: {record id: fields the record lacks for it}}, with ()
    for a record the detector can score, from one `missing_fields` call
    per (record, detector) pair."""
    from pathrisk.registry import REGISTRY, missing_fields
    return {name: {rec.id: missing_fields(rec, info) for rec in records}
            for name, info in REGISTRY.items()}
