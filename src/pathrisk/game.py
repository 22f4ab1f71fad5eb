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
never computed. The leader loop gates through `risk.deployment_gate`.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .records import declare, decode_object, read_json
from .risk import deployment_gate, resolve_eps


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


# keys of scenarios for earlier solvers that the solve never reads: the
# solver settings tol, max_rounds and mode, and a mean field's samples.
# The top level and the mean-field entries accept and ignore any of them.
IGNORED_KEYS = ("tol", "max_rounds", "mode", "samples")

# defaults: kappa 1, tau_data 0, lambda (every agent's) 0, seed 0; an
# agent's lo -inf and hi inf; a mean field's quality 1
_SCENARIO = declare(("kappa", "number"), ("cloud_cap", "number", True),
                    ("tau_data", "number"), ("lambda", "number"),
                    ("seed", "integer"), ("agents", "array", True),
                    ("mean_field", "object"), ("epsilon_schedule", "array"),
                    ("risks", "object"))
_AGENT = declare(("pathology", "id", True), ("target", "vector", True),
                 ("lo", "bound"), ("hi", "bound"))
_MEAN_FIELD = declare(("quality", "probability", True))


def load_scenario(path):
    """Parse a scenario JSON file into solver inputs.

    The fields and their `records` kinds are declared in _SCENARIO,
    _AGENT (pathologies distinct, vector bounds of the target's length)
    and _MEAN_FIELD. mean_field and risks are keyed by agent; each
    epsilon_schedule entry is resolved over the agents by
    `risk.resolve_eps`. An unknown key (but IGNORED_KEYS) or a null value
    raises. Every error but malformed JSON is a GameError naming the file,
    the entry (such as agents[3] or epsilon_schedule[0]) and the field.
    """
    obj = read_json(path)
    try:
        return _scenario(obj)
    except ValueError as exc:
        raise GameError(f"scenario {path}: {exc}") from None


def _agent(obj, where, lam):
    fields = decode_object(_AGENT, obj, where, ignored=())
    size = fields["target"].size
    lo, hi = (np.full(size, b) if type(b) is float else b
              for b in (fields.get("lo", -math.inf),
                        fields.get("hi", math.inf)))
    return AgentSpec(pathology=fields["pathology"], lo=lo, hi=hi,
                     cost=QuadraticTargetCost(target=fields["target"], lam=lam))


def _scenario(obj):
    top = decode_object(_SCENARIO, obj, None, ignored=IGNORED_KEYS)
    if not top["agents"]:
        raise GameError("agents: the scenario has no agents")
    specs = [_agent(agent, f"agents[{i}]", top.get("lambda", 0.0))
             for i, agent in enumerate(top["agents"])]
    names = [s.pathology for s in specs]
    repeated = sorted(p for p, n in Counter(names).items() if n > 1)
    if repeated:
        raise GameError(f"agents {repeated} appear more than once")
    entries = decode_object(declare(*((p, "object") for p in names)),
                            top.get("mean_field", {}), "mean_field",
                            ignored=())
    mean_fields = [MeanField(decode_object(
        _MEAN_FIELD, entries[p], f"mean_field[{json.dumps(p)}]",
        ignored=IGNORED_KEYS)["quality"] if p in entries else 1.0)
        for p in names]
    schedule = [resolve_eps(spec, names, f"epsilon_schedule[{i}]")
                for i, spec in enumerate(top.get("epsilon_schedule", ()))]
    risks = None if "risks" not in top else decode_object(
        declare(*((p, "number") for p in names)), top["risks"], "risks",
        ignored=())
    return {"specs": specs, "mean_fields": mean_fields,
            "constraints": SharedConstraints(
                cloud_cap=top["cloud_cap"], tau_data=top.get("tau_data", 0.0),
                kappa=top.get("kappa", 1.0)),
            "schedule": schedule, "risks": risks,
            "seed": top.get("seed", 0)}
