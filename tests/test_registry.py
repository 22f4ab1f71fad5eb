"""The registry's one table: each detector's declared loss kind holds on
every fixture the tests have.

The kind is declared, not inferred from the values a detector happens to
take: an "event" detector must score only 0 or 1, a "graded" one must
reach a value strictly inside (0, 1) on some fixture, and the "rate"
detectors are exactly those whose severity `discriminative._event_rate`
folds.
"""

import pytest

import corpora
from pathrisk import discriminative, generative
from pathrisk.registry import (DISCRIMINATIVE_DETECTORS, GENERATIVE_DETECTORS,
                               REGISTRY, Arity)
from test_generative import _differential_cases

_LOSSES = {"event", "graded", "extreme", "rate", "statistic"}


def _declared(loss):
    return {name for name, row in REGISTRY.items() if row.loss == loss}


def _trace_cases():
    """(records, kb, causal fixtures) of every trace corpus of the tests:
    each generative fixture of either polarity, each graded fixture, the
    demo corpus, the planted corpora and every `_differential_cases`
    corpus."""
    for pathology in GENERATIVE_DETECTORS:
        for positive in (True, False):
            bundle = corpora.generative_fixture(pathology, positive)
            yield bundle["records"], bundle["kb"], bundle["causal_fixtures"]
    for bundle in corpora.graded_fixtures().values():
        yield bundle["records"], bundle["kb"], bundle["causal_fixtures"]
    yield (corpora.demo_trace_corpus(), corpora.standard_kb(),
           [corpora.demo_causal_fixture()])
    yield corpora.planted_trace_corpus(200, 0.1, 0)[0], None, ()
    yield corpora.expectile_flip_corpus()[0], None, ()
    for _, records, kb, fixtures in _differential_cases():
        yield records, kb, fixtures


def _classification_cases():
    """The rows of every classification corpus of the tests: each
    discriminative fixture of either polarity and the demo corpus."""
    for pathology in DISCRIMINATIVE_DETECTORS:
        for positive in (True, False):
            yield corpora.discriminative_rows(pathology, positive)
    yield corpora.demo_classification_rows()


@pytest.fixture(scope="module")
def severities():
    """{detector: the set of severities it scored} over every trace and
    classification corpus of the tests."""
    found = {name: set() for name in REGISTRY}
    for records, kb, fixtures in _trace_cases():
        result = generative.audit_generative(records, kb=kb,
                                             fixtures=fixtures)
        for outcome in result.outcomes:
            found[outcome.pathology].add(outcome.severity)
    for rows in _classification_cases():
        result = discriminative.audit_discriminative(
            corpora.classification_corpus(rows))
        for outcome in result.outcomes:
            found[outcome.pathology].add(outcome.severity)
    return found


def test_every_row_declares_one_of_the_five_loss_kinds():
    assert {name: row.loss for name, row in REGISTRY.items()
            if row.loss not in _LOSSES} == {}
    assert _declared("event") == {"hallucination", "semantic_reheating"}
    assert _declared("extreme") == {"cognitive_stereotypy",
                                    "hypersignification"}
    # a discriminative detector folds the whole corpus into one outcome
    assert {name for name, row in REGISTRY.items()
            if row.corpus == "classification"} == set(DISCRIMINATIVE_DETECTORS)
    assert {row.arity for name, row in REGISTRY.items()
            if name in DISCRIMINATIVE_DETECTORS} == {Arity.CORPUS}


def test_every_detector_scores_some_corpus(severities):
    # guards the tests below: a detector that never scores would pass them
    assert [name for name, values in severities.items() if not values] == []


def test_an_event_detector_scores_only_zero_or_one(severities):
    assert {name: sorted(severities[name] - {0.0, 1.0})
            for name in _declared("event")
            if severities[name] - {0.0, 1.0}} == {}


def test_a_graded_detector_reaches_a_value_inside_zero_one(severities):
    assert [name for name in sorted(_declared("graded"))
            if not any(0.0 < v < 1.0 for v in severities[name])] == []


def test_the_rate_detectors_are_those_that_fold_through_event_rate(
        monkeypatch):
    scoring, callers = [], set()
    real_rate = discriminative._event_rate
    real_score = discriminative.score_discriminative

    def event_rate(*args):
        callers.add(scoring[-1])
        return real_rate(*args)

    def score(pathology, *args, **kwargs):
        scoring.append(pathology)
        return real_score(pathology, *args, **kwargs)

    monkeypatch.setattr(discriminative, "_event_rate", event_rate)
    monkeypatch.setattr(discriminative, "score_discriminative", score)
    for rows in _classification_cases():
        discriminative.audit_discriminative(
            corpora.classification_corpus(rows))
    assert set(scoring) == set(DISCRIMINATIVE_DETECTORS)
    assert callers == _declared("rate")
