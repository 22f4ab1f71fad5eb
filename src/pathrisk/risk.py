"""Expectile value-at-risk engine, risk reports, the deployment gate
inputs, and the Pareto non-alignment scan.

The expectile at level tau is the unique minimizer of the asymmetric
quadratic E[w_tau(L - r) (L - r)^2] with w_tau(z) = tau for z > 0 and
(1 - tau) otherwise. It is computed by the weighted-mean fixed point

    r <- [tau * sum_{L>r} L + (1-tau) * sum_{L<=r} L]
         / [tau * #{L>r} + (1-tau) * #{L<=r}]

initialized at the sample mean, iterated until the first-order condition
balances. At tau = 0.5 this is the mean; for tau > 0.5 it up-weights
upper-tail losses.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .registry import (ALIAS_GROUPS, REGISTRY, distinct_pathology_count,
                       pathology_ids)


class RiskError(ValueError):
    pass


class ConvergenceError(RiskError):
    def __init__(self, residual, max_iter):
        super().__init__(f"expectile iteration did not converge within "
                         f"{max_iter} iterations (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ExpectileConfig:
    tau: float = 0.9
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not (0.0 < self.tau < 1.0):
            raise RiskError(f"tau {self.tau} outside (0,1)")
        if self.tol <= 0.0:
            raise RiskError("tol must be positive")


def expectile_foc_residual(losses, r, tau):
    """Scale-relative imbalance of the first-order condition at r."""
    L = np.asarray(losses, dtype=float)
    up = tau * float(np.maximum(L - r, 0.0).mean())
    down = (1.0 - tau) * float(np.maximum(r - L, 0.0).mean())
    scale = max(1.0, float(np.abs(L).mean()))
    return abs(up - down) / scale


def expectile(losses, cfg=ExpectileConfig()):
    """Empirical expectile of a nonempty finite loss sample."""
    L = np.asarray(losses, dtype=float).ravel()
    if L.size == 0:
        raise RiskError("expectile of an empty loss sample")
    if not np.all(np.isfinite(L)):
        raise RiskError("loss sample contains non-finite values")
    tau = cfg.tau
    r = float(L.mean())
    for _ in range(cfg.max_iter):
        above = L > r
        n_above = int(above.sum())
        num = tau * float(L[above].sum()) + (1.0 - tau) * float(L[~above].sum())
        den = tau * n_above + (1.0 - tau) * (L.size - n_above)
        r_new = num / den
        if expectile_foc_residual(L, r_new, tau) <= cfg.tol:
            return r_new
        if r_new == r:
            break
        r = r_new
    residual = expectile_foc_residual(L, r, tau)
    if residual <= cfg.tol:
        return r
    raise ConvergenceError(residual, cfg.max_iter)


def bernoulli_expectile(p, tau):
    """Closed-form expectile of a Bernoulli(p) indicator.

    Solving tau * p * (1 - r) = (1 - tau) * (1 - p) * r gives
    r = tau p / (tau p + (1 - tau)(1 - p)); monotone in p, 0 at p = 0,
    1 at p = 1.
    """
    if not (0.0 <= p <= 1.0):
        raise RiskError(f"p {p} outside [0,1]")
    num = tau * p
    den = tau * p + (1.0 - tau) * (1.0 - p)
    return num / den if den > 0.0 else 0.0


def expvar_binary_monotonicity_check(p_grid, tau=0.9):
    """Tabulate the Bernoulli expectile over a probability grid and assert
    the two properties the binary-indicator risk relies on: the value is 0
    at p = 0 and monotone non-decreasing in the failure probability."""
    ps = [float(p) for p in p_grid]
    values = [bernoulli_expectile(p, tau) for p in ps]
    order = np.argsort(ps)
    sorted_vals = [values[i] for i in order]
    monotone = all(b >= a - 1e-15
                   for a, b in zip(sorted_vals, sorted_vals[1:]))
    zero_at_zero = all(abs(v) < 1e-15
                       for p, v in zip(ps, values) if p == 0.0)
    return {"tau": tau,
            "table": list(zip(ps, values)),
            "monotone": monotone,
            "zero_at_zero": zero_at_zero}


@dataclass(frozen=True)
class RiskEntry:
    pathology: str
    tau: float
    n: int
    expectile: float
    mean: float
    fired_rate: float
    eps: float
    ok: bool

    def to_json_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class RiskReport:
    entries: tuple
    unavailable: tuple
    feasible: bool
    tau: float

    @property
    def total_ids(self):
        return len(pathology_ids())

    @property
    def distinct_pathologies(self):
        return distinct_pathology_count()

    def entry(self, pathology):
        for e in self.entries:
            if e.pathology == pathology:
                return e
        return None

    def to_json_dict(self):
        return {"tau": self.tau,
                "feasible": self.feasible,
                "total_ids": self.total_ids,
                "distinct_pathologies": self.distinct_pathologies,
                "available": len(self.entries),
                "unavailable": list(self.unavailable),
                "alias_groups": ["/".join(g) for g in ALIAS_GROUPS],
                "entries": [e.to_json_dict() for e in self.entries]}

    def csv_rows(self):
        header = ("pathology", "tau", "n", "R", "eps", "feasible")
        rows = [(e.pathology, e.tau, e.n, e.expectile, e.eps, e.ok)
                for e in self.entries]
        return header, rows


def resolve_eps(eps):
    """Normalize an epsilon specification to a per-pathology map.

    Accepts a scalar (applied everywhere), a full-length sequence in
    registry order, or a mapping with optional "default" key. Unknown
    pathology names and length mismatches are errors.
    """
    ids = pathology_ids()
    if eps is None:
        return {name: math.inf for name in ids}
    if isinstance(eps, (int, float)):
        return {name: float(eps) for name in ids}
    if isinstance(eps, dict):
        unknown = set(eps) - set(ids) - {"default"}
        if unknown:
            raise RiskError(f"unknown pathology ids in eps: "
                            f"{sorted(unknown)}")
        default = float(eps.get("default", math.inf))
        return {name: float(eps.get(name, default)) for name in ids}
    values = list(eps)
    if len(values) != len(ids):
        raise RiskError(f"eps vector length {len(values)} does not match "
                        f"registry size {len(ids)}")
    return {name: float(v) for name, v in zip(ids, values)}


def risk_report(outcomes, eps=None, cfg=ExpectileConfig()):
    """Per-pathology expectile risk with the deployment-feasibility verdict.

    Pathologies with no loss samples are reported as unavailable and are
    excluded from the gate; the verdict is the conjunction of R_i <= eps_i
    over available pathologies (boundary inclusive).
    """
    eps_map = resolve_eps(eps)
    grouped = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.pathology, []).append(outcome)
    entries = []
    for name in pathology_ids():
        group = grouped.get(name)
        if not group:
            continue
        losses = [o.loss for o in group]
        value = expectile(losses, cfg)
        entries.append(RiskEntry(
            pathology=name, tau=cfg.tau, n=len(losses), expectile=value,
            mean=float(np.mean(losses)),
            fired_rate=float(np.mean([o.fired for o in group])),
            eps=eps_map[name], ok=value <= eps_map[name]))
    if not entries:
        raise RiskError("no pathology has any loss sample")
    unavailable = tuple(name for name in pathology_ids()
                        if name not in grouped)
    feasible = all(e.ok for e in entries)
    return RiskReport(entries=tuple(entries), unavailable=unavailable,
                      feasible=feasible, tau=cfg.tau)


def pareto_scan(candidates, objectives):
    """Non-dominated candidates under componentwise <= on objective values.

    `objectives` is either a sequence of per-candidate objective tuples or
    a sequence of callables evaluated on each candidate. Returns a dict
    with the surviving candidates, all objective values, and whether the
    scan certifies non-alignment (Pareto set of size >= 2).
    """
    candidates = list(candidates)
    objectives = list(objectives)
    if len(candidates) < 2:
        raise RiskError("pareto scan needs >= 2 candidates")
    if not objectives:
        raise RiskError("no objectives supplied")
    if callable(objectives[0]):
        values = []
        for cand in candidates:
            try:
                values.append(tuple(float(f(cand)) for f in objectives))
            except Exception as exc:
                raise RiskError(f"objective evaluation failed on candidate "
                                f"{cand!r}: {exc}") from exc
    else:
        values = [tuple(float(v) for v in vs) for vs in objectives]
        if len(values) != len(candidates):
            raise RiskError("one objective tuple per candidate required")
    n = len(candidates)

    def dominates(a, b):
        return all(x <= y for x, y in zip(a, b)) and a != b

    pareto_idx = [i for i in range(n)
                  if not any(dominates(values[j], values[i])
                             for j in range(n) if j != i)]
    return {"pareto_indices": pareto_idx,
            "pareto_candidates": [candidates[i] for i in pareto_idx],
            "values": values,
            "non_aligned": len(pareto_idx) >= 2}
