"""Delegated game among pathology-owning agents under a shared compute cap,
with the human-leader threshold loop and the deployment gate.

Each agent i picks a parameter vector theta_i in its box [lo_i, hi_i],
minimizing

    J_i(theta_i) = ||theta_i - target_i||^2 + lambda * kappa ||theta_i||^2

subject to the shared cap sum_i kappa ||theta_i||^2 <= cloud_cap; lambda
and kappa are the same for every agent and held by `SharedConstraints`.
The solve returns the normalized (variational) equilibrium of this jointly
constrained game (Rosen, Econometrica 1965): one price mu >= 0 on the cap,
the same for every agent, at which each agent minimizes J_i + mu * kappa
||theta_i||^2 over its box. Completing the square, that minimizer is, per
coordinate,

    clip(target_i / (1 + lambda kappa + mu kappa), lo_i, hi_i),

and mu is complementary to the cap: mu = 0 when the profile at mu = 0
fits, otherwise the cap binds. Total compute does not increase with mu,
so mu is found by doubling and bisection. The costs are separable, so the
equilibrium also minimizes sum_i J_i over the boxes and the cap. Each
agent's data quality, quality >= tau_data, is checked, never computed.
The leader loop gates a map of risks through `risk.deployment_gate`.
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
class AgentSpec:
    """One agent: the pathology it owns, the target of its risk term, its
    box [lo, hi] and the annotated quality of its data, the only thing
    the game reads of its mean field."""

    pathology: str
    target: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    quality: float = 1.0

    def __post_init__(self):
        size = self.target.size
        if self.lo.shape != (size,) or self.hi.shape != (size,):
            raise GameError(
                f"{self.pathology}: lo/hi lengths {self.lo.size}/"
                f"{self.hi.size} differ from target length {size}")
        if np.any(self.lo > self.hi):
            raise GameError(f"{self.pathology}: empty box")
        if not (0.0 <= self.quality <= 1.0):
            raise GameError(
                f"{self.pathology}: quality {self.quality} outside [0,1]")

    def risk(self, theta):
        """The risk term ||theta - target||^2 of the agent's cost, the R_i
        the gate compares against the thresholds."""
        diff = theta - self.target
        return float(diff @ diff)


@dataclass(frozen=True)
class SharedConstraints:
    """The one cap all agents share, sum_i kappa ||theta_i||^2 <=
    cloud_cap, which the equilibrium prices, and the data-quality floor
    every agent must meet. kappa, the weight of compute, and lam, the
    weight of the compute penalty, are the same for every agent."""

    cloud_cap: float
    tau_data: float = 0.0
    kappa: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.cloud_cap <= 0.0:
            raise GameError("cloud_cap must be positive")
        if self.kappa <= 0.0:
            raise GameError("kappa must be positive")
        # a negative lambda makes the cost non-convex in theta
        if not self.lam >= 0.0:
            raise GameError("lambda must be non-negative")


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
                            "risk": s.risk(t)}
                           for s, t, c in zip(specs, self.thetas,
                                              self.costs)]}


def best_response(spec, price, constraints):
    """The minimizer of the agent's cost plus price * kappa ||theta||^2
    over its box. At an infinite price it is the box point nearest the
    origin."""
    lam, kappa = constraints.lam, constraints.kappa
    scale = 1.0 + lam * kappa + price * kappa
    return np.clip(spec.target / scale, spec.lo, spec.hi)


def _profile(specs, price, constraints):
    """(every agent's best response at price, their total compute)."""
    thetas = [best_response(s, price, constraints) for s in specs]
    return thetas, constraints.kappa * sum(float(t @ t) for t in thetas)


def solve_nash(specs, constraints):
    """Variational equilibrium: the best responses at the least price
    mu >= 0 whose profile fits the shared cap. mu is 0 when the cap is
    slack; otherwise it is bracketed by doubling and bisected to adjacent
    floats, and the profile at the feasible end is returned. Raises
    InfeasibleGameError when an agent's data quality is below tau_data or
    the boxes' minimum compute exceeds the cap."""
    for spec in specs:
        if spec.quality < constraints.tau_data:
            raise InfeasibleGameError(
                f"{spec.pathology}: data quality {spec.quality} below "
                f"tau_data {constraints.tau_data}")
    cap = constraints.cloud_cap
    _, least = _profile(specs, math.inf, constraints)
    if not least <= cap:
        raise InfeasibleGameError(
            f"cloud_cap {cap:.6g} admits no theta in the boxes: their "
            f"minimum compute is {least:.6g}")
    price = 0.0
    thetas, used = _profile(specs, price, constraints)
    if used > cap:
        # compute does not increase with the price and fits at an infinite
        # one, so doubling ends by the time the price overflows to inf
        low, price = 0.0, 1.0
        thetas, used = _profile(specs, price, constraints)
        while used > cap:
            low, price = price, 2.0 * price
            thetas, used = _profile(specs, price, constraints)
        mid = 0.5 * (low + price)
        while low < mid < price:
            trial, used = _profile(specs, mid, constraints)
            if used > cap:
                low = mid
            else:
                price, thetas = mid, trial
            mid = 0.5 * (low + price)
    lam, kappa = constraints.lam, constraints.kappa
    return GameState(thetas=thetas,
                     costs=[s.risk(t) + lam * kappa * float(t @ t)
                            for s, t in zip(specs, thetas)],
                     price=price)


def stackelberg_loop(schedule, risks):
    """Leader loop: gate `risks`, {pathology: R_i}, against each epsilon
    vector and report the least-restrictive accepted epsilon under the
    componentwise order when one exists. No threshold enters an agent's
    cost, so one equilibrium's risks serve every step."""
    trace = [{"eps": dict(eps), "gate": deployment_gate(risks, eps)}
             for eps in schedule]
    if not trace:
        raise GameError("empty epsilon schedule")
    accepted = [step["eps"] for step in trace if step["gate"].accepted]

    def leq(a, b):
        return all(a[k] <= b[k] for k in a)

    best = None
    for eps in accepted:
        if all(leq(other, eps) for other in accepted):
            best = eps
            break
    return {"trace": trace, "least_restrictive_accepted": best}


# --- scenario files ------------------------------------------------------------


# defaults: kappa 1, tau_data 0, lambda 0, seed 0; an agent's lo -inf and
# hi inf; a mean field's quality 1
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
    `risk.resolve_eps`. An unknown key (but a mean field's samples) or a
    null value raises. Every error but malformed JSON is a GameError
    naming the file, the entry (such as agents[3] or epsilon_schedule[0])
    and the field.
    """
    obj = read_json(path)
    try:
        return _scenario(obj)
    except ValueError as exc:
        raise GameError(f"scenario {path}: {exc}") from None


def _agent(fields, quality):
    size = fields["target"].size
    lo, hi = (np.full(size, b) if type(b) is float else b
              for b in (fields.get("lo", -math.inf),
                        fields.get("hi", math.inf)))
    return AgentSpec(pathology=fields["pathology"], target=fields["target"],
                     lo=lo, hi=hi, quality=quality)


def _scenario(obj):
    top = decode_object(_SCENARIO, obj, None, ignored=())
    if not top["agents"]:
        raise GameError("agents: the scenario has no agents")
    agents = [decode_object(_AGENT, agent, f"agents[{i}]", ignored=())
              for i, agent in enumerate(top["agents"])]
    names = [a["pathology"] for a in agents]
    repeated = sorted(p for p, n in Counter(names).items() if n > 1)
    if repeated:
        raise GameError(f"agents {repeated} appear more than once")
    entries = decode_object(declare(*((p, "object") for p in names)),
                            top.get("mean_field", {}), "mean_field",
                            ignored=())
    # a mean field may carry its samples, which the game never reads
    quality = {p: decode_object(_MEAN_FIELD, entry,
                                f"mean_field[{json.dumps(p)}]",
                                ignored=("samples",))["quality"]
               for p, entry in entries.items()}
    specs = [_agent(a, quality.get(a["pathology"], 1.0)) for a in agents]
    schedule = [resolve_eps(spec, names, f"epsilon_schedule[{i}]")
                for i, spec in enumerate(top.get("epsilon_schedule", ()))]
    risks = None if "risks" not in top else decode_object(
        declare(*((p, "number") for p in names)), top["risks"], "risks",
        ignored=())
    return {"specs": specs,
            "constraints": SharedConstraints(
                cloud_cap=top["cloud_cap"], tau_data=top.get("tau_data", 0.0),
                kappa=top.get("kappa", 1.0), lam=top.get("lambda", 0.0)),
            "schedule": schedule, "risks": risks,
            "seed": top.get("seed", 0)}
