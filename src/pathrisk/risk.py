"""Expectile value-at-risk engine, epsilon thresholds, the deployment
gate, risk reports, and the Pareto non-alignment scan.

The expectile at level tau is the unique minimizer of the asymmetric
quadratic E[w_tau(L - r) (L - r)^2] with w_tau(z) = tau for z > 0 and
(1 - tau) otherwise. It is computed by the weighted-mean fixed point

    r <- [tau * sum_{L>r} L + (1-tau) * sum_{L<=r} L]
         / [tau * #{L>r} + (1-tau) * #{L<=r}]

initialized at the sample mean, iterated until the first-order condition
balances. At tau = 0.5 this is the mean; for tau > 0.5 it up-weights
upper-tail losses. `ExpectileConfig` accepts only tau in [0.5, 1): below
0.5 the expectile is superadditive, hence no coherent risk measure
(Bellini, Klar, Mueller and Rosazza Gianin, Insurance: Mathematics and
Economics 2014).

The one gate is `deployment_gate`: `risk_report` and the delegation
game's leader loop both call it, on thresholds from `resolve_eps`.
"""

import json
import math
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from .records import decode_number
from .registry import (ALIAS_GROUPS, distinct_pathology_count, group_by,
                       pathology_ids)


class RiskError(ValueError):
    pass


# `expectile` stops once the first-order condition's scale-relative
# imbalance is at most EXPECTILE_TOL, within EXPECTILE_MAX_ITER steps
EXPECTILE_TOL = 1e-10
EXPECTILE_MAX_ITER = 200


class ConvergenceError(RiskError):
    def __init__(self, residual):
        super().__init__(f"expectile iteration did not converge within "
                         f"{EXPECTILE_MAX_ITER} iterations "
                         f"(residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class ExpectileConfig:
    tau: float = 0.9

    def __post_init__(self):
        if not (0.5 <= self.tau < 1.0):
            raise RiskError(f"tau {self.tau} outside [0.5,1)")


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
    for _ in range(EXPECTILE_MAX_ITER):
        above = L > r
        n_above = int(above.sum())
        num = tau * float(L[above].sum()) + (1.0 - tau) * float(L[~above].sum())
        den = tau * n_above + (1.0 - tau) * (L.size - n_above)
        r_new = num / den
        if expectile_foc_residual(L, r_new, tau) <= EXPECTILE_TOL:
            return r_new
        if r_new == r:
            break
        r = r_new
    residual = expectile_foc_residual(L, r, tau)
    if residual <= EXPECTILE_TOL:
        return r
    raise ConvergenceError(residual)


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


def decode_eps(value):
    """A threshold as a float: a number above -inf, or "inf" for none. The
    reports write inf as "inf", which this reads back."""
    try:
        eps = math.inf if value == "inf" else decode_number(value)
        if eps > -math.inf:
            return eps
    except (ValueError, OverflowError):
        pass
    raise ValueError(f'must be a number or "inf", not {json.dumps(value)}')


def resolve_eps(spec, names, where=None):
    """{name: eps} for each of `names`, from an epsilon specification: an
    object keyed by name with an optional "default" (itself "inf" when
    absent), or an array in `names` order. Each value is decoded by
    `decode_eps`. A key that is neither a name nor "default", a length
    mismatch or a bad value raises RiskError naming `where` and the key."""

    def fail(message):
        return RiskError(message if where is None else f"{where}: {message}")

    def value(key, raw):
        try:
            return decode_eps(raw)
        except ValueError as exc:
            raise fail(f"key {key!r} {exc}") from None

    if type(spec) is dict:
        unknown = sorted(spec.keys() - {"default"} - set(names))
        if unknown:
            raise fail(f"unknown keys {unknown}: each key is one of the "
                       f"names or \"default\"")
        values = {key: value(key, raw) for key, raw in spec.items()}
        default = values.get("default", math.inf)
        return {name: values.get(name, default) for name in names}
    if type(spec) is not list:
        raise fail("expected an object or an array")
    if len(spec) != len(names):
        raise fail(f"vector length {len(spec)} does not match the "
                   f"{len(names)} names")
    return {name: value(i, raw) for i, (name, raw) in
            enumerate(zip(names, spec))}


@dataclass(frozen=True)
class GateResult:
    accepted: bool
    violations: tuple   # (pathology, risk, eps, slack) sorted by slack desc
    risks: dict
    eps: dict

    def to_json_dict(self):
        return {"accepted": self.accepted,
                "violations": [{"pathology": p, "risk": r, "eps": e,
                                "slack": s}
                               for p, r, e, s in self.violations],
                "risks": dict(sorted(self.risks.items())),
                "eps": dict(sorted(self.eps.items()))}


def deployment_gate(risks, eps):
    """Accept iff every risk satisfies R_i <= eps_i (inclusive).

    risks and eps are {pathology: value} maps, eps holding a threshold for
    each pathology of risks; pathologies without a risk value are not
    gated. Violations are listed by slack R_i - eps_i, worst first.
    """
    violations = sorted(((p, r, eps[p], r - eps[p])
                         for p, r in risks.items() if not r <= eps[p]),
                        key=lambda v: (-v[3], v[0]))
    return GateResult(accepted=not violations, violations=tuple(violations),
                      risks=dict(risks), eps=dict(eps))


def risk_report(outcomes, eps=None, cfg=ExpectileConfig()):
    """Per-pathology expectile risk with the deployment-feasibility verdict.

    `eps` is an epsilon specification over the registry ids (see
    `resolve_eps`); None leaves every pathology unbounded. Pathologies
    with no loss samples are reported as unavailable and are not gated;
    the others go through `deployment_gate`.
    """
    ids = pathology_ids()
    eps_map = resolve_eps({} if eps is None else eps, ids)
    grouped = {group[0].pathology: group
               for group in group_by(outcomes, attrgetter("pathology"))}
    if not grouped:
        raise RiskError("no pathology has any loss sample")
    losses = {name: [o.loss for o in grouped[name]]
              for name in ids if name in grouped}
    risks = {name: expectile(loss, cfg) for name, loss in losses.items()}
    gate = deployment_gate(risks, eps_map)
    violated = {v[0] for v in gate.violations}
    entries = tuple(RiskEntry(
        pathology=name, tau=cfg.tau, n=len(losses[name]),
        expectile=risks[name], mean=float(np.mean(losses[name])),
        fired_rate=float(np.mean([o.fired for o in grouped[name]])),
        eps=eps_map[name], ok=name not in violated) for name in losses)
    unavailable = tuple(name for name in ids if name not in grouped)
    return RiskReport(entries=entries, unavailable=unavailable,
                      feasible=gate.accepted, tau=cfg.tau)


def pareto_scan(candidates, objectives):
    """Non-dominated candidates under componentwise <= on objective values.

    `objectives` holds one tuple of objective values per candidate, all of
    one length. A point dominates another when it is <= in every objective
    and differs in one; equal points do not dominate each other. All pairs
    are compared at once, as an n x n x k array of booleans. Returns a
    dict with the surviving candidates in ascending index order, all
    objective values, and whether the scan certifies non-alignment (Pareto
    set of size >= 2).
    """
    candidates = list(candidates)
    if len(candidates) < 2:
        raise RiskError("pareto scan needs >= 2 candidates")
    values = [tuple(float(v) for v in vs) for vs in objectives]
    if len(values) != len(candidates):
        raise RiskError("one objective tuple per candidate required")
    if len({len(v) for v in values}) != 1:
        raise RiskError("objective tuples must all have the same length")
    points = np.array(values, dtype=float)
    # [j, i]: point j is <= point i in every objective / equal to it
    below = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    equal = (points[:, None, :] == points[None, :, :]).all(axis=2)
    pareto_idx = np.flatnonzero(~(below & ~equal).any(axis=0)).tolist()
    return {"pareto_indices": pareto_idx,
            "pareto_candidates": [candidates[i] for i in pareto_idx],
            "values": values,
            "non_aligned": len(pareto_idx) >= 2}
