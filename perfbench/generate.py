"""Seeded input generator for the pathrisk benchmark.

Builds every workload's input files with numpy and json only; it never
imports pathrisk, so the program under test receives nothing but files.
The same (workload, seed) always gives byte-identical files.

    python3 perfbench/generate.py --workload trace_pairwise --seed 1 --out DIR

Besides the program's inputs, each directory gets `expected.json`: the
outcome count per detector that the layout implies, which the benchmark
checks the audit against.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

# Record-level generative detectors: one outcome per record that carries
# every field, which every generated trace record does.
RECORD_DETECTORS = (
    "abductive_leap", "confabulation", "contextual_drift", "delusion",
    "exaggeration", "hallucination", "illusion", "pragmatic_misunderstanding",
    "referential_hallucination", "semantic_compression", "semantic_reheating",
    "semiotic_frankenstein", "simulated_authority", "uncanny_valley")
SEQUENCE_DETECTORS = ("semantic_drift", "semantic_warming")
CORPUS_DETECTORS = ("bluffing", "cognitive_stereotypy", "hypersignification")
DISCRIMINATIVE_DETECTORS = (
    "accent_bias", "adversarial_vulnerability", "ambiguity_collapse",
    "bias_amplification", "calibration_failure", "concept_drift_sensitivity",
    "latency_induced_decision_drift", "misclassification_under_uncertainty",
    "noise_overfitting", "overfitting", "prosodic_misclassification",
    "semantic_boundary_confusion", "spurious_correlation",
    "turn_boundary_failure")

# Sizes are scaled so that one repetition of each workload takes a few
# seconds on one core; see perfbench/README.md for why each workload exists.
WORKLOADS = {
    "trace_pairwise": {"kind": "trace", "conversations": 48, "turns": 8,
                       "dim": 64, "claims": 1, "kb_size": 16,
                       "weak_pairs": 4, "context": 4},
    "trace_wide_kb": {"kind": "trace", "conversations": 9, "turns": 8,
                      "dim": 768, "claims": 8, "kb_size": 128,
                      "weak_pairs": 4, "context": 4},
    "classify_gate": {"kind": "classification", "records": 5000,
                      "features": 16, "classes": 4},
    "verify_solve": {"kind": "verify", "holonorm_dims": [2],
                     "holonorm_seed": 0,
                     "agents": 35, "agent_dim": 64, "eps_steps": 16,
                     "pareto_candidates": 120, "pareto_records": 200},
}

EXPERT_STYLE_ID = "expert_style_centroid"


def _vec(x):
    """Embedding as JSON floats with six decimals, as dumped embeddings
    usually are; the rounding is part of the seeded input."""
    return [round(float(v), 6) for v in x]


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")


def _trace_workload(params, rng, out):
    dim = params["dim"]
    n_conv, turns = params["conversations"], params["turns"]
    n = n_conv * turns

    kb_ids = [f"kb_{i:03d}" for i in range(params["kb_size"] - 1)]
    kb_vecs = [_unit(rng, dim) for _ in kb_ids]
    centroid = _unit(rng, dim)
    kb_ids.append(EXPERT_STYLE_ID)
    kb_vecs.append(centroid)
    _write_json(out / "kb.json", {
        "source_tag": "perfbench",
        "entries": [{"entity_id": e, "embedding": _vec(v)}
                    for e, v in zip(kb_ids, kb_vecs)]})

    inputs = [_unit(rng, dim) for _ in range(n)]
    # hypersignification only scores input pairs with clamped similarity
    # below s_lo = 0.3, which random directions never reach: plant a few
    # near-antipodal inputs across conversations.
    for k in range(params["weak_pairs"]):
        i, j = k * turns, (n_conv - 1 - k) * turns + 1
        inputs[j] = -inputs[i] + 0.05 * rng.standard_normal(dim)

    rows = []
    for idx in range(n):
        conv, turn = divmod(idx, turns)
        inp = inputs[idx]
        out_vec = 0.6 * inp + 0.8 * _unit(rng, dim)
        claims = []
        for _ in range(params["claims"]):
            if rng.random() < 0.5:
                anchor = kb_vecs[int(rng.integers(len(kb_vecs) - 1))]
                claims.append(anchor + 0.1 * rng.standard_normal(dim)
                              / np.sqrt(dim))
            else:
                claims.append(_unit(rng, dim))
        # half the styles sit near the expert centroid, so
        # simulated_authority goes on to compute coherence for them
        if idx % 2 == 0:
            style = centroid + 0.2 * rng.standard_normal(dim) / np.sqrt(dim)
        else:
            style = _unit(rng, dim)
        entities = [kb_ids[int(rng.integers(len(kb_ids)))]]
        entities.append(f"ghost_{idx}" if rng.random() < 0.2
                        else kb_ids[int(rng.integers(len(kb_ids)))])
        rows.append({
            "id": f"r{conv:04d}-{turn}",
            "input_embedding": _vec(inp),
            "output_embedding": _vec(out_vec),
            "truth_embedding": _vec(_unit(rng, dim)),
            "intent_embedding": _vec(inp + 0.5 * _unit(rng, dim)),
            "context_vectors": [_vec(rng.standard_normal(dim) / np.sqrt(dim))
                                for _ in range(params["context"])],
            "output_token_logprobs": [round(float(v), 6) for v in
                                      rng.uniform(-2.0, -0.01, size=6)],
            "prob_output_given_input": round(float(rng.uniform(0.05, 0.95)),
                                             6),
            "prob_truth_given_input": round(float(rng.uniform(0.01, 0.95)),
                                            6),
            "in_real_manifold": bool(rng.random() < 0.7),
            "in_train_set": bool(rng.random() < 0.3),
            "referenced_entities": entities,
            "claim_embeddings": [_vec(c) for c in claims],
            "style_embedding": _vec(style),
            "discomfort_score": round(float(rng.random()), 6),
            "output_magnitude": round(float(rng.uniform(0.5, 4.0)), 6),
            "truth_magnitude": round(float(rng.uniform(0.5, 4.0)), 6),
            "latent_dim": int(rng.integers(2, 65)),
            "input_dim": int(rng.integers(64, 129)),
            "has_inference_path": bool(rng.random() < 0.5),
            "annotations": {"conversation_id": f"c{conv:04d}",
                            "content_id": f"m{idx // 2:05d}",
                            "source_id": f"s{idx % 2}"},
        })
    _write_jsonl(out / "corpus.jsonl", rows)

    observational = rng.dirichlet(np.ones(3), size=3)
    interventional = rng.dirichlet(np.ones(3), size=3)
    _write_json(out / "fixtures.json", [{
        "x_name": "X", "y_name": "Y", "edge_x_to_y": True,
        "observational_conditional": observational.tolist(),
        "interventional_table": interventional.tolist()}])
    _write_json(out / "eps.json", {"default": 0.5})

    expected = {name: n for name in RECORD_DETECTORS}
    expected.update({name: n_conv for name in SEQUENCE_DETECTORS})
    expected.update({name: 1 for name in CORPUS_DETECTORS})
    expected["misattribution"] = n // 2
    expected["causal_inference_failure"] = 1
    return {"records": n, "outcomes": dict(sorted(expected.items()))}


# Pair layouts of the classification corpus: consecutive records 2j, 2j+1
# form pair j, and its kind rotates so every pair detector is eligible.
_PAIR_KINDS = ("perturbation", "noise", "latency", "spurious", "span",
               "content")


def _classification_workload(params, rng, out):
    n, n_feat, n_cls = params["records"], params["features"], params["classes"]
    weights = rng.standard_normal((n_feat, n_cls))
    features = rng.standard_normal((n, n_feat))
    for i in range(0, n, 2):
        if _PAIR_KINDS[(i // 2) % len(_PAIR_KINDS)] == "perturbation":
            # well inside eps_adv = 0.1 even after six-decimal rounding
            features[i + 1] = features[i] + 0.005 * rng.standard_normal(n_feat)
    logits = features @ weights + 0.5 * rng.standard_normal((n, n_cls))
    rows = []
    for i in range(n):
        z = logits[i] - logits[i].max()
        probs = np.exp(z) / np.exp(z).sum()
        pred = int(np.argmax(probs))
        true = pred if rng.random() < 0.8 else int(rng.integers(n_cls))
        row = {"id": f"x{i:06d}",
               "features": _vec(features[i]),
               "predicted_label": pred,
               "true_label": true,
               "class_probabilities": probs.tolist(),
               "group": f"g{i % 4}",
               "timestamp_index": i,
               "is_ood": bool(rng.random() < 0.1)}
        ann = {"in_train_set": "true" if i % 2 == 0 else "false"}
        j, second = divmod(i, 2)
        kind = _PAIR_KINDS[j % len(_PAIR_KINDS)]
        if kind == "perturbation":
            row["perturbation_pair_id"] = f"p{j}"
        elif kind == "noise":
            row["noise_pair_id"] = f"n{j}"
            ann["noise_role"] = "noisy" if second else "clean"
        elif kind == "latency":
            row["latency_pair_id"] = f"l{j}"
        elif kind == "spurious":
            ann["spurious_pair_id"] = f"s{j}"
            ann["spurious_role"] = "resampled" if second else "clean"
        elif kind == "span":
            ann["span_pair_id"] = f"w{j}"
            ann["span_role"] = "narrow" if second else "wide"
            row["segment_bounds"] = [40, 60] if second else [0, 100]
        else:
            ann["content_id"] = f"c{j}"
            ann["prosody"] = "flat" if second else "rising"
        if kind != "span" and i % 5 == 0:
            start = int(rng.integers(0, 50))
            row["segment_bounds"] = [start, start + 10]
            row["ref_segment_bounds"] = [start + int(rng.integers(-3, 4)),
                                         start + 10]
        if i % 5 == 1:
            row["plausible_labels"] = sorted(
                {pred, int(rng.integers(n_cls))} | {(pred + 1) % n_cls})
        row["annotations"] = ann
        rows.append(row)
    _write_jsonl(out / "corpus.jsonl", rows)
    _write_json(out / "eps.json", {"default": 0.5})
    return {"records": n,
            "outcomes": {name: 1 for name in DISCRIMINATIVE_DETECTORS}}


def _verify_workload(params, rng, out):
    # same layout as pathrisk.fixtures.coupled_game_scenario, written here
    # so the generator stays independent of the package
    agents = []
    for a in range(params["agents"]):
        target = rng.uniform(-1.0, 1.0, size=params["agent_dim"])
        agents.append({"pathology": f"agent_{a:02d}", "lo": -1.0, "hi": 1.0,
                       "target": target.tolist()})
    total = sum(float(np.dot(a["target"], a["target"])) for a in agents)
    schedule = [{"default": float(v)} for v in
                np.geomspace(4.0, 0.01, params["eps_steps"])]
    _write_json(out / "scenario.json", {
        "seed": int(rng.integers(2 ** 31)), "kappa": 1.0,
        "cloud_cap": 0.5 * total, "tau_data": 0.5, "lambda": 0.0,
        "agents": agents,
        "mean_field": {a["pathology"]: {"quality": 0.9,
                                        "samples": [[[0.0], [0.0]]]}
                       for a in agents},
        "epsilon_schedule": schedule})
    return {"agents": params["agents"]}


_BUILDERS = {"trace": _trace_workload,
             "classification": _classification_workload,
             "verify": _verify_workload}


def generate(workload, seed, out):
    """Write the inputs of `workload` for `seed` into directory `out` and
    return the layout summary also saved as expected.json."""
    params = WORKLOADS[workload]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    index = sorted(WORKLOADS).index(workload)
    rng = np.random.default_rng([seed, index])
    expected = _BUILDERS[params["kind"]](params, rng, out)
    expected.update({"workload": workload, "seed": seed, "params": params})
    _write_json(out / "expected.json", expected)
    return expected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
