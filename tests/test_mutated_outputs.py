"""risk and report on mutated copies of the two files they read.

A valid outcomes.json and risk_report.json come from one audit and one
risk run of the demo corpus. Each example mutates one value of one of
them: it deletes it, gives it another JSON type, nests it one level
deeper, or makes it a huge or non-finite number; or it cuts the file's
bytes short. The console script must then give a verdict, exit 0, 2 or
3, and print no traceback: every mutation is either still a valid file
or a rejected input. Hypothesis runs derandomized with a fixed example
budget, so each run tries the same mutations.
"""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpora
from pathrisk import cli

_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])

# what a value becomes: another JSON type, a huge or a non-finite number
_REPLACEMENTS = (None, True, False, 0, -1, 0.5, 1.5, "", "x", "inf", [], {},
                 10 ** 400, -10 ** 400, 1e308, -1e308, float("inf"),
                 float("-inf"), float("nan"))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(outcomes.json, risk_report.json, eps.json) of the demo corpus."""
    root = tmp_path_factory.mktemp("valid")
    corpus, kb, causal = (root / "corpus.jsonl", root / "kb.json",
                          root / "fixtures.json")
    corpora.write_input(corpus, corpora.demo_trace_corpus())
    corpora.write_input(kb, corpora.standard_kb())
    corpora.write_input(causal, corpora.demo_causal_fixture())
    eps = root / "eps.json"
    eps.write_text(json.dumps({"default": 0.5}))
    assert cli.main(["audit", "--corpus", str(corpus), "--kb", str(kb),
                     "--fixtures", str(causal),
                     "--out", str(root / "audited")]) == 0
    outcomes = root / "audited" / "outcomes.json"
    assert cli.main(["risk", "--outcomes", str(outcomes), "--eps", str(eps),
                     "--gate", "--out", str(root / "risked")]) == 3
    return outcomes, root / "risked" / "risk_report.json", eps


def _paths(value, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


@st.composite
def _mutated(draw, text):
    """The text of a JSON file with one mutation drawn."""
    doc = json.loads(text)
    how = draw(st.sampled_from(("delete", "replace", "nest", "truncate")))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return json.dumps(draw(st.sampled_from(_REPLACEMENTS)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "delete":
        del parent[key]
    elif how == "replace":
        parent[key] = draw(st.sampled_from(_REPLACEMENTS))
    else:
        parent[key] = draw(st.sampled_from(([parent[key]],
                                            {"x": parent[key]})))
    return json.dumps(doc)


def _console_script(argv):
    """(exit code, standard error) of the console script run on argv."""
    stderr = io.StringIO()
    with mock.patch.object(sys, "argv", ["pathrisk", *argv]), \
            contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.entry()
        except SystemExit as exc:
            return exc.code, stderr.getvalue()
    raise AssertionError("the console script did not exit")


def _run(tmp_path_factory, text, argv):
    """Write `text` as the mutated file and run argv with it in place of
    {mutated}; the verdict must be a pass, a rejected input or a gate."""
    root = tmp_path_factory.mktemp("mutated", numbered=True)
    path = root / "mutated.json"
    path.write_text(text, encoding="utf-8")
    code, err = _console_script(
        [str(path) if arg == "{mutated}" else arg for arg in argv]
        + ["--out", str(root / "out")])
    assert "Traceback" not in err
    assert code in (0, 2, 3), err


@given(data=st.data())
@_SETTINGS
def test_risk_on_mutated_outcomes_gives_a_verdict(valid, tmp_path_factory,
                                                  data):
    outcomes, _, eps = valid
    text = data.draw(_mutated(outcomes.read_text()))
    _run(tmp_path_factory, text, ["risk", "--outcomes", "{mutated}",
                                  "--eps", str(eps), "--gate"])


@given(data=st.data())
@_SETTINGS
def test_report_on_mutated_outcomes_gives_a_verdict(valid, tmp_path_factory,
                                                    data):
    outcomes, risk_report, _ = valid
    text = data.draw(_mutated(outcomes.read_text()))
    _run(tmp_path_factory, text, ["report", "--risk", str(risk_report),
                                  "--outcomes", "{mutated}"])


@given(data=st.data())
@_SETTINGS
def test_report_on_a_mutated_risk_report_gives_a_verdict(valid,
                                                         tmp_path_factory,
                                                         data):
    _, risk_report, _ = valid
    text = data.draw(_mutated(risk_report.read_text()))
    _run(tmp_path_factory, text, ["report", "--risk", "{mutated}"])
