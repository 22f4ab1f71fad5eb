"""Delegated game among pathology-owning agents under a shared compute cap,
with the human-leader threshold loop and the deployment gate.

Each agent i picks a parameter vector theta_i in its box [lo_i, hi_i],
minimizing

    J_i(theta_i) = ||theta_i - target_i||^2 + lambda_i * kappa ||theta_i||^2

subject to the shared cap sum_i kappa ||theta_i||^2 <= cloud_cap. The
solve returns the normalized (variational) equilibrium of this jointly
constrained game (Rosen, Econometrica 1965): one price mu >= 0 on the cap,
the same for every agent, at which each agent minimizes J_i + mu * kappa
||theta_i||^2 over its box. That minimizer is, per coordinate,

    clip(target_i / (1 + lambda_i kappa + mu kappa), lo_i, hi_i),

and mu is complementary to the cap: mu = 0 when the profile at mu = 0
fits, otherwise the cap binds. Total compute does not increase with mu,
so mu is found by doubling and bisection. The costs are separable, so the
equilibrium also minimizes sum_i J_i over the boxes and the cap. The data
quality of each agent's mean field, quality >= tau_data, is checked,
never computed.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


class GameError(ValueError):
    pass


class InfeasibleGameError(GameError):
    pass


@dataclass(eq=False)
class QuadraticTargetCost:
    """Default surrogate: risk term ||theta - target||^2 plus the compute
    penalty lambda * kappa ||theta||^2, with kappa the weight of compute
    that `SharedConstraints` holds for every agent. Completing the square
    gives (1 + lambda kappa) ||theta - target / (1 + lambda kappa)||^2 plus
    a constant, so its minimizer over a box is a per-coordinate clip."""

    target: np.ndarray
    lam: float = 0.0

    def risk_term(self, theta):
        diff = np.asarray(theta, dtype=float) - self.target
        return float(diff @ diff)

    def compute_term(self, theta, kappa):
        theta = np.asarray(theta, dtype=float)
        return self.lam * kappa * float(theta @ theta)

    def value(self, theta, kappa):
        return self.risk_term(theta) + self.compute_term(theta, kappa)


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
    """The one cap all agents share, sum_i kappa ||theta_i||^2 <=
    cloud_cap, which the equilibrium prices, and the data-quality floor
    every agent's mean field must meet. kappa, the weight of compute, is
    also the one weight in each agent's compute penalty."""

    cloud_cap: float
    tau_data: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        if self.cloud_cap <= 0.0:
            raise GameError("cloud_cap must be positive")
        if self.kappa <= 0.0:
            raise GameError("kappa must be positive")


@dataclass(eq=False)
class GameState:
    """Equilibrium strategies, their costs, and the price on the shared
    cap at which every theta is its agent's best response."""

    thetas: list
    costs: list
    price: float

    def to_json_dict(self, specs):
        return {"price": self.price,
                "agents": [{"pathology": s.pathology,
                            "theta": t.tolist(),
                            "cost": c,
                            "risk": s.cost.risk_term(t)}
                           for s, t, c in zip(specs, self.thetas,
                                              self.costs)]}


def best_response(spec, price, kappa):
    """The minimizer of the agent's cost plus price * kappa ||theta||^2
    over its box. At an infinite price it is the box point nearest the
    origin."""
    cost = spec.cost
    scale = 1.0 + cost.lam * kappa + price * kappa
    return np.clip(cost.target / scale, spec.lo, spec.hi)


def _profile(specs, price, kappa):
    """(every agent's best response at price, their total compute)."""
    thetas = [best_response(s, price, kappa) for s in specs]
    return thetas, kappa * sum(float(t @ t) for t in thetas)


def check_feasibility(specs, mean_fields, constraints):
    """Raise unless the boxes' minimum compute fits the cap and every mean
    field meets the data-quality floor."""
    for spec, mf in zip(specs, mean_fields):
        if mf.quality < constraints.tau_data:
            raise InfeasibleGameError(
                f"{spec.pathology}: data quality {mf.quality} below "
                f"tau_data {constraints.tau_data}")
    _, least = _profile(specs, math.inf, constraints.kappa)
    if not least <= constraints.cloud_cap:
        raise InfeasibleGameError(
            f"cloud_cap {constraints.cloud_cap:.6g} admits no theta in the "
            f"boxes: their minimum compute is {least:.6g}")


def solve_nash(specs, mean_fields, constraints):
    """Variational equilibrium: the best responses at the least price
    mu >= 0 whose profile fits the shared cap. mu is 0 when the cap is
    slack; otherwise it is bracketed by doubling and bisected to adjacent
    floats, and the profile at the feasible end is returned. Raises
    InfeasibleGameError when the boxes' minimum compute exceeds the cap or
    a data-quality floor fails."""
    if len(specs) != len(mean_fields):
        raise GameError("one mean field per agent required")
    check_feasibility(specs, mean_fields, constraints)
    kappa, cap = constraints.kappa, constraints.cloud_cap
    price = 0.0
    thetas, used = _profile(specs, price, kappa)
    if used > cap:
        # compute does not increase with the price and fits at an infinite
        # one, so doubling ends by the time the price overflows to inf
        low, price = 0.0, 1.0
        thetas, used = _profile(specs, price, kappa)
        while used > cap:
            low, price = price, 2.0 * price
            thetas, used = _profile(specs, price, kappa)
        mid = 0.5 * (low + price)
        while low < mid < price:
            trial, used = _profile(specs, mid, kappa)
            if used > cap:
                low = mid
            else:
                price, thetas = mid, trial
            mid = 0.5 * (low + price)
    return GameState(thetas=thetas,
                     costs=[s.cost.value(t, kappa)
                            for s, t in zip(specs, thetas)],
                     price=price)


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

    Layout: kappa, cloud_cap, tau_data, optional lambda, a non-empty
    agents array ({pathology, lo, hi, target}, lo/hi scalars or vectors
    of the target's length, pathologies distinct), a mean_field map
    ({pathology: {quality}}), an optional epsilon_schedule (vectors, or
    maps keyed by agent pathology with an optional default), and optional
    audit-derived risks. The cap is shared through one price, so there are
    no per-agent shares: a share_weights key raises GameError rather than
    being dropped. The game has no solver settings: the keys tol,
    max_rounds and mode and mean_field samples are ignored. Malformed
    agents, and epsilon or mean_field keys that name no agent, raise
    GameError.
    """
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if "share_weights" in obj:
        raise GameError("share_weights is not supported: the agents share "
                        "cloud_cap through one price, not fixed shares")
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
                lam=float(agent.get("lambda", lam)))))
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
    constraints = SharedConstraints(
        cloud_cap=float(obj["cloud_cap"]),
        tau_data=float(obj.get("tau_data", 0.0)),
        kappa=kappa)
    schedule = [_parse_eps_entry(e, pathologies)
                for e in obj.get("epsilon_schedule", [])]
    risks = obj.get("risks")
    if risks is not None:
        risks = {str(k): float(v) for k, v in risks.items()}
    return {"specs": specs, "mean_fields": mean_fields,
            "constraints": constraints, "schedule": schedule,
            "risks": risks, "seed": int(obj.get("seed", 0))}
