"""The fluency-versus-grounding sweep behind the Pareto demonstration.

Embeddings live in d_e = 4; `_E[i]` are the basis vectors. The inputs are
standard normal rows from `draws.Generator(seed)`, the standard library's
generator, which gives the same values drawn per candidate as in one draw.
"""

import numpy as np

from .draws import Generator
from .metrics import sim_matrix
from .risk import ExpectileConfig, expectile

D_E = 4
_E = [np.eye(D_E)[i] for i in range(D_E)]


def pareto_sweep(num_candidates=9, records_per_candidate=40, seed=7,
                 tau=0.9):
    """Fluency-versus-grounding family: raising the fluency level makes
    outputs decouple from inputs, so the disfluency risk and the
    grounding risk move in opposite directions by construction.

    Returns (candidate labels, objective pairs). The disfluency risk is
    1 - s, the expectile of the loss 1 - s that every record of the
    candidate has; the grounding risk is the expectile of the per-record
    grounding losses.
    """
    rng = Generator(seed)
    cfg = ExpectileConfig(tau=tau)
    labels = []
    values = []
    levels = np.linspace(0.1, 0.9, num_candidates)
    filler = _E[3]
    for s in levels:
        # one draw per candidate: the same stream as one row per record
        raw = rng.normals((records_per_candidate, D_E))
        inp = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        out = (1.0 - s) * inp + s * filler
        out = out / np.linalg.norm(out, axis=1, keepdims=True)
        grounding_losses = 1.0 - np.diagonal(sim_matrix(out, inp))
        labels.append(f"fluency={s:.3f}")
        values.append((1.0 - s, expectile(grounding_losses, cfg)))
    return labels, values
