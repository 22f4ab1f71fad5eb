"""The fluency-versus-grounding sweep behind the Pareto demonstration.

Embeddings live in d_e = 4; `_E[i]` are the basis vectors.
"""

import numpy as np

from .metrics import sim_matrix
from .risk import ExpectileConfig, expectile

D_E = 4
_E = [np.eye(D_E)[i] for i in range(D_E)]


def pareto_sweep(num_candidates=9, records_per_candidate=40, seed=7,
                 tau=0.9):
    """Fluency-versus-grounding family: raising the fluency level makes
    outputs decouple from inputs, so the disfluency risk and the
    grounding risk move in opposite directions by construction.

    Returns (candidate labels, objective pairs); both objectives are
    expectile risks over per-record losses.
    """
    rng = np.random.default_rng(seed)
    cfg = ExpectileConfig(tau=tau)
    labels = []
    values = []
    levels = np.linspace(0.1, 0.9, num_candidates)
    filler = _E[3]
    for s in levels:
        # one draw per candidate: the same stream as one row per record
        raw = rng.standard_normal((records_per_candidate, D_E))
        inp = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        out = (1.0 - s) * inp + s * filler
        out = out / np.linalg.norm(out, axis=1, keepdims=True)
        grounding_losses = 1.0 - np.diagonal(sim_matrix(out, inp))
        labels.append(f"fluency={s:.3f}")
        values.append((expectile([1.0 - s] * records_per_candidate, cfg),
                       expectile(grounding_losses, cfg)))
    return labels, values
