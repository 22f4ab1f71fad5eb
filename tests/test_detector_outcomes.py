"""Every detector's outcome on its positive and negative fixture, pinned.

`detector_outcomes.json` holds, for each of the 35 detectors and each
fixture polarity, the outcomes as pathology, record ids, severity,
threshold, fired and every evidence string. A generative fixture is
audited whole, keeping the detector's own outcomes; a discriminative one
is folded by `score_discriminative`. The file is data, not a rerun of the
code under test: a detector that changes a digit of any of these fails.

semantic_warming's slopes come from eigenvalues and Gram sums whose last
digits depend on the LAPACK/BLAS build, so they are compared as floats
within 1e-9 relative; every other value is compared exactly.
"""

import json
from pathlib import Path

import pytest

import corpora
from pathrisk.discriminative import score_discriminative
from pathrisk.generative import audit_generative
from pathrisk.registry import GENERATIVE_DETECTORS, REGISTRY

PINNED = json.loads((Path(__file__).parent / "detector_outcomes.json")
                    .read_text(encoding="utf-8"))
FLOAT_EVIDENCE = {"semantic_warming": ("redundancy_slope", "entropy_slope")}


def _row(o):
    return {"pathology": o.pathology, "record_ids": list(o.record_ids),
            "severity": o.severity, "threshold": o.threshold,
            "fired": o.fired, "evidence": dict(o.evidence)}


def _outcomes(pathology, positive):
    if pathology in GENERATIVE_DETECTORS:
        bundle = corpora.generative_fixture(pathology, positive)
        result = audit_generative(bundle["records"], kb=bundle["kb"],
                                  fixtures=bundle["causal_fixtures"])
        return [_row(o) for o in result.outcomes if o.pathology == pathology]
    return [_row(score_discriminative(
        pathology, corpora.discriminative_fixture(pathology, positive)))]


def test_every_detector_is_pinned():
    assert set(PINNED) == set(REGISTRY)


@pytest.mark.parametrize("polarity", ["positive", "negative"])
@pytest.mark.parametrize("pathology", sorted(REGISTRY))
def test_fixture_outcomes_match_the_pinned_file(pathology, polarity):
    got = _outcomes(pathology, polarity == "positive")
    want = PINNED[pathology][polarity]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g_ev, w_ev = dict(g.pop("evidence")), dict(w["evidence"])
        w = {k: v for k, v in w.items() if k != "evidence"}
        for key in FLOAT_EVIDENCE.get(pathology, ()):
            assert float(g_ev.pop(key)) == pytest.approx(
                float(w_ev.pop(key)), rel=1e-9, abs=0.0)
        assert g == w
        assert g_ev == w_ev
