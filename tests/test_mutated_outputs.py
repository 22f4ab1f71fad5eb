"""audit, risk, report and game on mutated copies of the files they read.

The audit reads a trace corpus with its knowledge base, causal fixtures
and config, or a classification corpus; a valid outcomes.json and
risk_report.json come from one audit and one risk run of the demo corpus,
which risk gates against an --eps file; game reads a scenario that sets
every field. Each example mutates one value of one of these files (of one
line of a corpus): it deletes it, gives it another JSON type, nests it one
level deeper, or makes it a huge or non-finite number; or it cuts the
bytes short. The console script must then give a verdict, exit 0, 2 or 3,
and print no traceback: every mutation is either still a valid file or a
rejected input. Hypothesis runs derandomized with a fixed example
budget, so each run tries the same mutations. A drawn example hits a given
one-value mutation rarely, so one line of each corpus, the config under
either schema, the knowledge base and the causal fixtures are also swept:
each of their values replaced by each replacement, deleted and nested in
turn.
"""

import contextlib
import dataclasses
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpora
from pathrisk import cli
from pathrisk.discriminative import DiscriminativeConfig
from pathrisk.generative import GenerativeConfig

_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None,
                     database=None,
                     suppress_health_check=[HealthCheck.too_slow])

# what a value becomes: another JSON type, a huge or a non-finite number
_REPLACEMENTS = (None, True, False, 0, -1, 0.5, 1.5, "", "x", "inf", [], {},
                 10 ** 400, -10 ** 400, 1e308, -1e308, float("inf"),
                 float("-inf"), float("nan"))


def _config():
    """A config that sets every field of both sections to its default."""
    return {section: {f.name: getattr(cls(), f.name)
                      for f in dataclasses.fields(cls) if f.name != "seed"}
            for section, cls in (("generative", GenerativeConfig),
                                 ("discriminative", DiscriminativeConfig))}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{schema: {flag: path}} of the valid inputs of an audit of the demo
    trace corpus and of the demo classification corpus; both read one
    config."""
    root = tmp_path_factory.mktemp("inputs")
    config = root / "config.json"
    config.write_text(json.dumps(_config()))
    trace = {"--corpus": root / "corpus.jsonl", "--kb": root / "kb.json",
             "--fixtures": root / "fixtures.json", "--config": config}
    classification = {"--corpus": root / "classification.jsonl",
                      "--config": config}
    corpora.write_input(trace["--corpus"], corpora.demo_trace_corpus())
    corpora.write_input(trace["--kb"], corpora.standard_kb())
    corpora.write_input(trace["--fixtures"], corpora.demo_causal_fixture())
    corpora.write_input(classification["--corpus"],
                        corpora.demo_classification_rows())
    return {"trace": trace, "classification": classification}


def _audit(schema, paths):
    """The argv of an audit of `schema` that reads {flag: path}."""
    return ["audit", "--schema", schema,
            *(arg for flag, path in paths.items()
              for arg in (flag, str(path)))]


@pytest.fixture(scope="module")
def valid(tmp_path_factory, inputs):
    """(outcomes.json, risk_report.json, eps.json) of the demo corpus."""
    root = tmp_path_factory.mktemp("valid")
    eps = root / "eps.json"
    eps.write_text(json.dumps({"default": 0.5, "hallucination": 0.25,
                               "semantic_drift": 1.0}))
    assert cli.main(_audit("trace", inputs["trace"])
                    + ["--out", str(root / "audited")]) == 0
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


def _parent(doc, path):
    """(the container of the value at a nonempty `path`, its key there)."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    return parent, path[-1]


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
    parent, key = _parent(doc, path)
    if how == "delete":
        del parent[key]
    elif how == "replace":
        parent[key] = draw(st.sampled_from(_REPLACEMENTS))
    else:
        parent[key] = draw(st.sampled_from(([parent[key]],
                                            {"x": parent[key]})))
    return json.dumps(doc)


@st.composite
def _mutated_line(draw, text):
    """The text of a JSON lines file with one line mutated as `_mutated`
    mutates a file."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = draw(_mutated(lines[i]))
    return "\n".join(lines) + "\n"


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


def _run(tmp_path_factory, text, argv, verdicts=(0, 2, 3)):
    """Write `text` as the mutated file and run argv with it in place of
    {mutated}; the verdict must be one of `verdicts`: a pass, a rejected
    input or a gate."""
    root = tmp_path_factory.mktemp("mutated", numbered=True)
    path = root / "mutated.json"
    path.write_text(text, encoding="utf-8")
    code, err = _console_script(
        [str(path) if arg == "{mutated}" else arg for arg in argv]
        + ["--out", str(root / "out")])
    assert "Traceback" not in err
    assert code in verdicts, err


@pytest.mark.parametrize("schema, flag", [
    ("trace", "--corpus"), ("trace", "--kb"), ("trace", "--fixtures"),
    ("trace", "--config"), ("classification", "--corpus"),
    ("classification", "--config")])
@given(data=st.data())
@_SETTINGS
def test_audit_on_a_mutated_input_gives_a_verdict(inputs, tmp_path_factory,
                                                  schema, flag, data):
    # one line of a corpus, or the whole of any other input
    path = inputs[schema][flag]
    mutation = _mutated_line if flag == "--corpus" else _mutated
    argv = [arg if arg != str(path) else "{mutated}"
            for arg in _audit(schema, inputs[schema])]
    _run(tmp_path_factory, data.draw(mutation(path.read_text())), argv,
         verdicts=(0, 2))


def _one_value_mutations(doc):
    """(path, mutation, JSON text) of each one-value mutation of the JSON
    document `doc`: each value replaced by each of _REPLACEMENTS and,
    below the root, deleted and nested one level deeper in a list and in
    an object. `doc` itself is left as it was."""
    text = json.dumps(doc)
    for path in list(_paths(doc)):
        changes = [("replace", value) for value in _REPLACEMENTS]
        if path:
            changes += [("delete", None), ("nest", list), ("nest", dict)]
        for how, value in changes:
            if not path:
                yield path, value, json.dumps(value)
                continue
            mutated = json.loads(text)
            parent, key = _parent(mutated, path)
            if how == "delete":
                del parent[key]
            elif how == "replace":
                parent[key] = value
            else:
                parent[key] = ([parent[key]] if value is list
                               else {"x": parent[key]})
            yield path, (how, value), json.dumps(mutated)


@pytest.mark.parametrize("schema, flag", [
    pytest.param("trace", "--corpus", id="trace"),
    pytest.param("classification", "--corpus", id="classification"),
    pytest.param("trace", "--config", id="trace-config"),
    pytest.param("classification", "--config", id="classification-config"),
    pytest.param("trace", "--kb", id="trace-kb"),
    pytest.param("trace", "--fixtures", id="trace-fixtures")])
def test_every_one_value_mutation_of_a_line_gives_a_verdict(inputs, tmp_path,
                                                            schema, flag):
    # the examples above draw a given one-value mutation near 1 % of the
    # time; this tries each: every value of one corpus line, or of the whole
    # config, knowledge base or causal fixtures, replaced by each of
    # _REPLACEMENTS, deleted and nested, in one audit apiece. The trace line
    # is the last one of the demo corpus, given the fields of every other
    # line as well
    paths = dict(inputs[schema])
    lines = paths[flag].read_text().splitlines()
    if (schema, flag) == ("trace", "--corpus"):
        doc = {}
        for line in lines:
            doc.update(json.loads(line))
        i = len(lines) - 1
    else:
        doc, i = json.loads(lines[0]), 0
    paths[flag] = tmp_path / f"mutated{paths[flag].suffix}"
    argv = _audit(schema, paths) + ["--out", str(tmp_path / "out"),
                                    "--force"]

    def audit(text):
        lines[i] = text
        paths[flag].write_text("\n".join(lines) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                return cli.main(argv)
            except Exception as exc:   # a bug: the console script exits 4
                return repr(exc)

    assert audit(json.dumps(doc)) == 0
    faults = []
    for path, mutation, text in _one_value_mutations(doc):
        code = audit(text)
        if code not in (0, 2):
            faults.append((path, mutation, code))
    assert not faults, faults[:3]


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


@given(data=st.data())
@_SETTINGS
def test_risk_on_a_mutated_eps_gives_a_verdict(valid, tmp_path_factory,
                                               data):
    outcomes, _, eps = valid
    text = data.draw(_mutated(eps.read_text()))
    _run(tmp_path_factory, text, ["risk", "--outcomes", str(outcomes),
                                  "--eps", "{mutated}", "--gate"])


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    """A game scenario that sets every field: four agents on two
    coordinates, one with vector bounds, a mean field, an epsilon schedule
    in both forms and the agents' risks."""
    scenario = corpora.coupled_game_scenario(num_agents=4, dim=2)
    scenario["agents"][0].update(lo=[-1.0, -0.5], hi=[1.0, 0.5])
    scenario["epsilon_schedule"].append([2.0, 1.0, 0.5, 0.25])
    scenario["risks"] = {agent["pathology"]: 0.5 * i for i, agent
                         in enumerate(scenario["agents"])}
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["game", "--scenario", str(path), "--out",
                     str(path.parent / "out")]) == 0
    return path


@given(data=st.data())
@_SETTINGS
def test_game_on_a_mutated_scenario_gives_a_verdict(scenario,
                                                    tmp_path_factory, data):
    text = data.draw(_mutated(scenario.read_text()))
    _run(tmp_path_factory, text, ["game", "--scenario", "{mutated}"],
         verdicts=(0, 2))
