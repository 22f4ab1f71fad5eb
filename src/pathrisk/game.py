"""Delegated game among pathology-owning agents under a shared compute cap,
with the human-leader threshold loop and the deployment gate.

Each agent i picks a parameter vector theta_i in a box, minimizing

    J_i(theta_i) = ||theta_i - target_i||^2 + lambda * kappa ||theta_i||^2

subject to the shared budget sum_i kappa ||theta_i||^2 <= cloud_cap. The
cap is split into fixed per-agent shares (equal by default, weights
overridable), so no agent's cost or feasible set depends on another's
choice: the agents decouple. Each agent's equilibrium strategy is its
exact best response, the Euclidean projection of
target_i / (1 + lambda kappa) onto its box intersected with the ball of
radius sqrt(share_i / kappa), so the equilibrium is reached in one round
with Nash residual 0 and there are no solver settings. Data quality
Qual(mu_i) >= tau_data is checked, never computed.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np


class GameError(ValueError):
    pass


class InfeasibleGameError(GameError):
    pass


@dataclass(eq=False)
class QuadraticTargetCost:
    """Default surrogate: risk term ||theta - target||^2 plus the compute
    penalty lambda * kappa ||theta||^2. Completing the square gives
    (1 + lambda kappa) ||theta - target / (1 + lambda kappa)||^2 plus a
    constant, so its minimizer over a convex set is a projection."""

    target: np.ndarray
    lam: float = 0.0
    kappa: float = 1.0

    def risk_term(self, theta):
        diff = np.asarray(theta, dtype=float) - self.target
        return float(diff @ diff)

    def compute_term(self, theta):
        theta = np.asarray(theta, dtype=float)
        return self.lam * self.kappa * float(theta @ theta)

    def value(self, theta):
        return self.risk_term(theta) + self.compute_term(theta)


@dataclass(eq=False)
class AgentSpec:
    pathology: str
    lo: np.ndarray
    hi: np.ndarray
    cost: QuadraticTargetCost

    def __post_init__(self):
        size = self.cost.target.size
        if self.lo.shape != (size,) or self.hi.shape != (size,):
            raise GameError(
                f"{self.pathology}: lo/hi lengths {self.lo.size}/"
                f"{self.hi.size} differ from target length {size}")
        if np.any(self.lo > self.hi):
            raise GameError(f"{self.pathology}: empty box")

    @property
    def dim(self):
        return self.lo.size


@dataclass(eq=False)
class MeanField:
    """Per-agent data distribution, represented by its annotated quality
    score: the data-quality floor is the only thing the game reads."""

    quality: float

    def __post_init__(self):
        if not (0.0 <= self.quality <= 1.0):
            raise GameError(f"quality {self.quality} outside [0,1]")


@dataclass(frozen=True)
class SharedConstraints:
    cloud_cap: float
    tau_data: float = 0.0
    kappa: float = 1.0
    share_weights: Optional[tuple] = None

    def __post_init__(self):
        if self.cloud_cap <= 0.0:
            raise GameError("cloud_cap must be positive")
        if self.kappa <= 0.0:
            raise GameError("kappa must be positive")

    def budgets(self, n_agents):
        """Per-agent compute budgets summing to cloud_cap (equal share by
        default)."""
        if self.share_weights is None:
            return np.full(n_agents, self.cloud_cap / n_agents)
        w = np.asarray(self.share_weights, dtype=float)
        if w.size != n_agents or np.any(w <= 0):
            raise GameError("share_weights must be positive, one per agent")
        return self.cloud_cap * w / w.sum()


@dataclass(eq=False)
class GameState:
    """Equilibrium strategies and their costs. Every theta is an exact best
    response to a problem no other agent's choice enters, so the solve is
    one round with Nash residual 0; the class constants carry that into
    the report schema."""

    thetas: list
    costs: list
    rounds = 1
    residual = 0.0
    feasible = True
    history = ((1, 0.0),)   # (round, residual) pairs

    def to_json_dict(self, specs):
        return {"rounds": self.rounds,
                "residual": self.residual,
                "feasible": self.feasible,
                "agents": [{"pathology": s.pathology,
                            "theta": t.tolist(),
                            "cost": c,
                            "risk": s.cost.risk_term(t)}
                           for s, t, c in zip(specs, self.thetas,
                                              self.costs)],
                "history": [{"round": r, "residual": res}
                            for r, res in self.history]}


def project_box(theta, lo, hi):
    return np.minimum(np.maximum(theta, lo), hi)


def project_box_ball(point, lo, hi, radius):
    """Euclidean projection of point onto the box [lo, hi] intersected with
    the ball of the given radius around the origin.

    By KKT the projection is clip(t * point, lo, hi) for the largest t in
    [0, 1] whose image lies in the ball, with t = 1 / (1 + the ball's
    multiplier). Every |clip(t * point, lo, hi)_j| is nondecreasing in t,
    so bisection on the scalar t finds that t to adjacent floats. When the
    box misses the ball the image at t = 0, the box point nearest the
    origin, is returned; check_feasibility rejects that case first.
    """
    point = np.asarray(point, dtype=float)
    limit = radius * radius

    def inside(t):
        x = project_box(t * point, lo, hi)
        return float(x @ x) <= limit

    if inside(1.0):
        return project_box(point, lo, hi)
    t_in, t_out, mid = 0.0, 1.0, 0.5
    while t_in < mid < t_out:
        if inside(mid):
            t_in = mid
        else:
            t_out = mid
        mid = 0.5 * (t_in + t_out)
    return project_box(t_in * point, lo, hi)


def check_feasibility(specs, mean_fields, constraints):
    """Raise unless every agent's box intersects its budget ball and every
    mean field meets the data-quality floor."""
    budgets = constraints.budgets(len(specs))
    for spec, mf, budget in zip(specs, mean_fields, budgets):
        if mf.quality < constraints.tau_data:
            raise InfeasibleGameError(
                f"{spec.pathology}: data quality {mf.quality} below "
                f"tau_data {constraints.tau_data}")
        closest = project_box(np.zeros(spec.dim), spec.lo, spec.hi)
        if constraints.kappa * float(closest @ closest) > budget + 1e-12:
            raise InfeasibleGameError(
                f"{spec.pathology}: cloud_cap share {budget:.6g} admits no "
                f"theta in the box")


def best_response(spec, budget, kappa):
    """The minimizer of the agent's cost over its box intersected with the
    budget ball kappa ||theta||^2 <= budget."""
    center = spec.cost.target / (1.0 + spec.cost.lam * spec.cost.kappa)
    return project_box_ball(center, spec.lo, spec.hi,
                            math.sqrt(budget / kappa))


def solve_nash(specs, mean_fields, constraints):
    """Nash equilibrium: each agent's best response to its share of the
    cap. Raises InfeasibleGameError when a share admits no theta in the
    box or a data-quality floor fails, and GameError when the strategies
    together exceed the shared cap."""
    if len(specs) != len(mean_fields):
        raise GameError("one mean field per agent required")
    check_feasibility(specs, mean_fields, constraints)
    budgets = constraints.budgets(len(specs))
    thetas = [best_response(s, b, constraints.kappa)
              for s, b in zip(specs, budgets)]
    if constraints.kappa * sum(float(t @ t) for t in thetas) > \
            constraints.cloud_cap + 1e-9:
        raise GameError("equilibrium violates the shared compute cap")
    return GameState(thetas=thetas,
                     costs=[s.cost.value(t) for s, t in zip(specs, thetas)])


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
                "eps": {k: (v if math.isfinite(v) else "inf")
                        for k, v in sorted(self.eps.items())}}


def deployment_gate(risks, eps):
    """Accept iff every available risk satisfies R_i <= eps_i (inclusive).

    risks and eps are {pathology: value} maps; pathologies without a risk
    value are not gated. Rejections list violators by slack, worst first.
    """
    violations = []
    for pathology in sorted(risks):
        if pathology not in eps:
            raise GameError(f"no epsilon threshold for {pathology!r}")
        slack = risks[pathology] - eps[pathology]
        if slack > 0.0:
            violations.append((pathology, risks[pathology], eps[pathology],
                               slack))
    violations.sort(key=lambda v: (-v[3], v[0]))
    return GateResult(accepted=not violations, violations=tuple(violations),
                      risks=dict(risks), eps=dict(eps))


def equilibrium_risks(specs, state):
    """Risk term of each agent's cost at equilibrium (compute penalty
    excluded), the R_i the gate compares against the thresholds."""
    return {s.pathology: s.cost.risk_term(t)
            for s, t in zip(specs, state.thetas)}


def stackelberg_loop(schedule, specs, state, risks_override=None):
    """Leader loop: gate the followers' equilibrium `state` against each
    epsilon vector and report the least-restrictive accepted epsilon under
    the componentwise order when one exists. No threshold enters an
    agent's cost, so one equilibrium serves every step."""
    schedule = list(schedule)
    if not schedule:
        raise GameError("empty epsilon schedule")
    risks = (dict(risks_override) if risks_override is not None
             else equilibrium_risks(specs, state))
    trace = [{"eps": dict(eps), "gate": deployment_gate(risks, eps)}
             for eps in schedule]
    accepted = [step["eps"] for step in trace if step["gate"].accepted]

    def leq(a, b):
        return all(a[k] <= b[k] for k in a)

    best = None
    for eps in accepted:
        if all(leq(other, eps) for other in accepted):
            best = eps
            break
    return {"trace": trace, "accepted": accepted,
            "least_restrictive_accepted": best}


# --- scenario files ------------------------------------------------------------


def _parse_eps_entry(entry, pathologies):
    if isinstance(entry, dict):
        unknown = sorted(set(entry) - {"default"} - set(pathologies))
        if unknown:
            raise GameError(f"epsilon keys {unknown} name no agent")
        default = float(entry.get("default", math.inf))
        return {p: float(entry.get(p, default)) for p in pathologies}
    values = [float(v) for v in entry]
    if len(values) != len(pathologies):
        raise GameError(f"epsilon vector length {len(values)} != number of "
                        f"agents {len(pathologies)}")
    return dict(zip(pathologies, values))


def load_scenario(path):
    """Parse a scenario JSON file into solver inputs.

    Layout: kappa, cloud_cap, tau_data, optional lambda and share_weights,
    a non-empty agents array ({pathology, lo, hi, target}, lo/hi scalars
    or vectors of the target's length, pathologies distinct), a mean_field
    map ({pathology: {quality}}), an optional epsilon_schedule (vectors,
    or maps keyed by agent pathology with an optional default), and
    optional audit-derived risks. The game has no solver settings: the
    keys tol, max_rounds and mode and mean_field samples are ignored.
    Malformed agents, and epsilon or mean_field keys that name no agent,
    raise GameError.
    """
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    lam = float(obj.get("lambda", 0.0))
    kappa = float(obj.get("kappa", 1.0))
    if not obj["agents"]:
        raise GameError("scenario has no agents")
    specs = []
    for agent in obj["agents"]:
        dim = len(agent["target"])
        lo = agent.get("lo", -math.inf)
        hi = agent.get("hi", math.inf)
        lo_vec = np.full(dim, float(lo)) if np.isscalar(lo) \
            else np.asarray(lo, dtype=float)
        hi_vec = np.full(dim, float(hi)) if np.isscalar(hi) \
            else np.asarray(hi, dtype=float)
        specs.append(AgentSpec(
            pathology=str(agent["pathology"]), lo=lo_vec, hi=hi_vec,
            cost=QuadraticTargetCost(
                target=np.asarray(agent["target"], dtype=float),
                lam=float(agent.get("lambda", lam)), kappa=kappa)))
    pathologies = [s.pathology for s in specs]
    repeated = sorted(p for p, n in Counter(pathologies).items() if n > 1)
    if repeated:
        raise GameError(f"agents {repeated} appear more than once")
    mf_obj = obj.get("mean_field", {})
    unknown = sorted(set(mf_obj) - set(pathologies))
    if unknown:
        raise GameError(f"mean_field keys {unknown} name no agent")
    mean_fields = [MeanField(quality=float(
        mf_obj.get(p, {"quality": 1.0})["quality"])) for p in pathologies]
    weights = obj.get("share_weights")
    constraints = SharedConstraints(
        cloud_cap=float(obj["cloud_cap"]),
        tau_data=float(obj.get("tau_data", 0.0)),
        kappa=kappa,
        share_weights=tuple(weights) if weights is not None else None)
    schedule = [_parse_eps_entry(e, pathologies)
                for e in obj.get("epsilon_schedule", [])]
    risks = obj.get("risks")
    if risks is not None:
        risks = {str(k): float(v) for k, v in risks.items()}
    return {"specs": specs, "mean_fields": mean_fields,
            "constraints": constraints, "schedule": schedule,
            "risks": risks, "seed": int(obj.get("seed", 0))}
