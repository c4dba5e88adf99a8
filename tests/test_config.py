"""Scenario file parsing: strict structure checks and batched domain checks."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlt.cli import main

from mlt.config import (
    ConfigError,
    collect_violations,
    load_scenario_file,
    parse_scenario,
    read_document,
)
from mlt.agents import AttributeGenerator, ProviderProfile, ReporterProfile
from mlt.evaluation import Thresholds
from mlt.session import AttributeSpec
from mlt.trust import AggregationParams

from conftest import SCENARIO_DIR

SHIPPED = [
    "acceptance_base.json",
    "acceptance_ablation.json",
    "acceptance_countsweep.json",
    "drifting_provider.json",
    "wifi_cafe.json",
]


def base_doc():
    """A minimal valid scenario document for mutation tests."""
    return {
        "schema_version": 1,
        "session": {
            "id": "doc-test",
            "location": [48.2, 16.37],
            "start_time": 0.0,
            "end_time": 7200.0,
            "provider_id": "prov",
            "service_type": "wifi-hotspot",
            "attributes": [
                {"name": "speed", "unit": "mbps"},
                {"name": "security", "kind": "ordinal", "levels": ["Low", "Medium", "High"]},
            ],
            "promise": [10.0, "Medium"],
        },
        "provider": {
            "attributes": [
                {"mean": 10.0, "jitter_stddev": 1.0},
                {"mean": 2.0},
            ],
            "honesty_gap": 0.1,
        },
        "bystanders": [
            {"reporter": {"kind": "honest"}, "schedule": {"first_offset": 600.0, "interval": 1200.0, "count": 3}}
        ],
        "consumers": [
            {"reporter": {"kind": "honest"}, "usage_start": 0.0, "usage_end": 3600.0, "sample_interval": 600.0}
        ],
        "query_time": 5400.0,
        "seed": 7,
    }


class TestShippedScenarios:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_loads_and_validates(self, name):
        scenario, thresholds = load_scenario_file(SCENARIO_DIR / name)
        assert scenario.query_time == 5400.0
        assert collect_violations(read_document(SCENARIO_DIR / name)) == []

    def test_count_sweep_file_narrows_the_middle_band(self):
        _, thresholds = load_scenario_file(SCENARIO_DIR / "acceptance_countsweep.json")
        assert thresholds == Thresholds(0.39, 0.61)

    def test_wifi_cafe_mixes_reporter_kinds(self):
        scenario, thresholds = load_scenario_file(SCENARIO_DIR / "wifi_cafe.json")
        assert thresholds == Thresholds()
        assert [b.profile.kind for b in scenario.bystanders] == ["honest", "biased", "malicious"]
        assert [c.profile.kind for c in scenario.consumers] == ["honest", "honest", "malicious"]
        assert scenario.bystanders[1].profile.bias_offset == 0.25
        assert scenario.consumers[2].profile.malicious_strategy == "inverted"

    def test_drifting_provider_actually_drifts(self):
        scenario, _ = load_scenario_file(SCENARIO_DIR / "drifting_provider.json")
        assert all(g.drift_per_hour < 0 for g in scenario.provider.attributes)
        assert all(g.jitter_stddev > 0 for g in scenario.provider.attributes)


class TestParsing:
    def test_round_trip_of_the_mutation_base(self):
        scenario, thresholds = parse_scenario(base_doc())
        assert scenario.seed == 7
        assert scenario.session.promise.values == (10.0, 2.0)
        assert thresholds == Thresholds()
        assert [b.id for b in scenario.bystanders] == ["b00"]
        assert [c.id for c in scenario.consumers] == ["c00"]

    def test_explicit_ids_override_defaults(self):
        doc = base_doc()
        doc["bystanders"][0]["id"] = "corner-table"
        scenario, _ = parse_scenario(doc)
        assert scenario.bystanders[0].id == "corner-table"

    def test_params_and_thresholds_are_optional_blocks(self):
        doc = base_doc()
        doc["params"] = {"alpha": 0.6, "beta": 0.4, "mode": "verbatim"}
        doc["thresholds"] = [0.2, 0.8]
        scenario, thresholds = parse_scenario(doc)
        assert (scenario.params.alpha, scenario.params.beta) == (0.6, 0.4)
        assert scenario.params.mode == "verbatim"
        assert thresholds == Thresholds(0.2, 0.8)

    def test_ordinal_promise_parsed_from_label(self):
        scenario, _ = parse_scenario(base_doc())
        assert scenario.session.promise.schema.attributes[1].kind == "ordinal"
        assert scenario.session.promise.values[1] == 2.0


# (mutation, ConfigError fragment): each document has a domain fault and,
# later in the same object, a structural one.
_BEHIND_A_DOMAIN_FAULT = [
    (lambda d: (d["provider"]["attributes"][0].update(mean=-1),
                d["provider"]["attributes"][1].update(color="red")),
     "provider.attributes[1]: unknown field(s): color"),
    (lambda d: (d["session"]["attributes"][0].update(kind="x"),
                d["session"]["promise"].__setitem__(0, math.nan)),
     "session.promise[0]: expected a finite number"),
    (lambda d: (d["bystanders"][0]["reporter"].update(kind="biased", bias_offset=5),
                d["bystanders"][0]["schedule"].update(count="3")),
     "bystanders[0].schedule.count: expected an integer"),
    (lambda d: (d["consumers"][0]["reporter"].update(kind="x"),
                d["consumers"][0].update(sample_interval="x")),
     "consumers[0].sample_interval: expected a number"),
]


class TestStructuralErrors:
    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.update(extra=1), "$: unknown field"),
            (lambda d: d.pop("seed"), "missing field(s): seed"),
            (lambda d: d.update(schema_version=2), "schema_version"),
            (lambda d: d.update(query_time=True), "$.query_time: expected a number"),
            (lambda d: d.update(seed="7"), "$.seed: expected an integer"),
            (lambda d: d.update(bystanders={}), "$.bystanders: expected a list"),
            (lambda d: d["session"].update(surprise=1), "session: unknown field"),
            (lambda d: d["session"]["attributes"][0].update(color="red"),
             "session.attributes[0]: unknown field"),
            (lambda d: d["session"].update(location=[1.0]), "session.location"),
            (lambda d: d["provider"]["attributes"][0].pop("mean"),
             "provider.attributes[0]: missing field(s): mean"),
            (lambda d: d["bystanders"][0]["schedule"].update(count=2.5),
             "bystanders[0].schedule.count: expected an integer"),
            (lambda d: d["consumers"][0]["reporter"].update(kind=3),
             "consumers[0].reporter.kind: expected a string"),
            (lambda d: d.update(thresholds=[0.2]), "thresholds"),
            (lambda d: d.update(thresholds=[0.2, "x"]), "thresholds"),
            (lambda d: d["provider"]["attributes"][0].update(drift_per_hour=math.nan),
             "provider.attributes[0].drift_per_hour: expected a finite number"),
            (lambda d: d["provider"]["attributes"][0].update(mean=math.inf),
             "provider.attributes[0].mean: expected a finite number"),
            (lambda d: d["session"].update(end_time=math.inf),
             "session.end_time: expected a finite number"),
            (lambda d: d["session"].update(location=[math.nan, 16.37]),
             "session.location[0]: expected a finite number"),
            (lambda d: d.update(thresholds=[0.2, math.nan]),
             "thresholds[1]: expected a finite number"),
            (lambda d: d["session"]["promise"].__setitem__(0, math.inf),
             "session.promise[0]: expected a finite number"),
            (lambda d: d.update(query_time=10**400), "$.query_time: expected a finite number"),
            (lambda d: d["bystanders"][0]["schedule"].update(count=10**400),
             "bystanders[0].schedule.count: expected a finite number"),
            (lambda d: d["session"].update(id=3), "session.id: expected a string"),
            (lambda d: d["session"].update(provider_id=None), "session.provider_id: expected a string"),
            (lambda d: d["session"].update(service_type=[]), "session.service_type: expected a string"),
            (lambda d: d["session"].update(attributes={}), "session.attributes: expected a list"),
            (lambda d: d["session"]["attributes"][0].update(kind=1),
             "session.attributes[0].kind: expected a string"),
            (lambda d: d["session"]["attributes"][0].update(unit=None),
             "session.attributes[0].unit: expected a string"),
            (lambda d: d["session"]["attributes"][1].update(levels="Low"),
             "session.attributes[1].levels: expected a list of strings"),
            (lambda d: d["session"]["attributes"][1].update(base=1.5),
             "session.attributes[1].base: expected an integer"),
            (lambda d: d["provider"].update(honesty_gap="0.1"), "provider.honesty_gap: expected a number"),
            (lambda d: d["bystanders"][0]["reporter"].update(bias_offset=None),
             "bystanders[0].reporter.bias_offset: expected a number"),
            (lambda d: d["consumers"][0]["reporter"].update(strategy=0),
             "consumers[0].reporter.strategy: expected a string"),
            (lambda d: d["bystanders"][0].update(id=5), "bystanders[0].id: expected a string"),
            (lambda d: d["consumers"][0].update(usage_start="0"),
             "consumers[0].usage_start: expected a number"),
            (lambda d: d.update(params={"gamma": 1}), "params: unknown field(s): gamma"),
            (lambda d: d.update(params={"alpha": "0.5"}), "params.alpha: expected a number"),
            (lambda d: d.update(params={"mode": 1}), "params.mode: expected a string"),
            # a domain fault earlier in the same object does not hide a structural one
            *_BEHIND_A_DOMAIN_FAULT,
        ],
    )
    def test_malformed_documents_name_the_path(self, mutate, fragment):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            parse_scenario(doc)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "key,message",
        [("params", "params: expected an object"), ("thresholds", "thresholds: expected [low_cut, high_cut]")],
    )
    def test_null_optional_block_is_not_omitted(self, tmp_path, key, message):
        doc = base_doc()
        doc[key] = None
        with pytest.raises(ConfigError) as err:
            parse_scenario(doc)
        assert str(err.value) == message
        path = tmp_path / "null.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _cli("validate", "--scenario", str(path)) == 2
        assert _cli("run", "--scenario", str(path), "--experiment", "full", "--replications", "2",
                    "--jobs", "1") == 2

    def test_validate_exits_2_on_a_structural_fault_behind_a_domain_fault(self, tmp_path):
        mutate, _ = _BEHIND_A_DOMAIN_FAULT[0]
        doc = base_doc()
        mutate(doc)
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert _cli("validate", "--scenario", str(path)) == 2

    def test_collect_violations_reraises_structural_errors(self):
        doc = base_doc()
        doc["session"]["attributes"][0]["color"] = "red"
        with pytest.raises(ConfigError):
            collect_violations(doc)


class TestDomainViolations:
    def test_single_violation_is_reported(self):
        doc = base_doc()
        doc["query_time"] = 9999.0
        assert parse_violates(doc)
        messages = collect_violations(doc)
        assert len(messages) == 1
        assert "query_time" in messages[0]

    def test_many_violations_reported_in_one_pass(self):
        doc = base_doc()
        doc["seed"] = -3
        doc["query_time"] = 9999.0
        doc["bystanders"][0]["id"] = "dup"
        doc["bystanders"][0]["schedule"]["first_offset"] = 7000.0
        doc["consumers"][0]["id"] = "dup"
        doc["consumers"][0]["usage_end"] = 8000.0
        messages = collect_violations(doc)
        joined = "\n".join(messages)
        assert len(messages) == 5
        assert "seed" in joined
        assert "query_time" in joined
        assert "'dup'" in joined          # schedule overflow names the reporter
        assert "usage_end" in joined
        assert "unique" in joined

    def test_zero_promise_element_is_a_session_violation(self):
        doc = base_doc()
        doc["session"]["promise"][0] = 0.0
        messages = collect_violations(doc)
        assert len(messages) == 1
        assert "session" in messages[0] and "ratio" in messages[0]

    def test_provider_structure_is_checked_when_the_session_fails(self):
        # the session's zero promise must not hide a malformed provider block
        doc = base_doc()
        doc["session"]["promise"][0] = 0.0
        doc["provider"]["attributes"][0]["color"] = "red"
        with pytest.raises(ConfigError, match=r"provider\.attributes\[0\]: unknown field"):
            collect_violations(doc)

    def test_provider_violation_is_listed_next_to_the_session_one(self):
        doc = base_doc()
        doc["session"]["promise"][0] = 0.0
        doc["provider"]["attributes"][0]["mean"] = -1.0
        messages = collect_violations(doc)
        assert len(messages) == 2
        assert messages[0].startswith("session:") and "ratio" in messages[0]
        assert messages[1].startswith("provider:") and "mean" in messages[1]

    def test_provider_gap_is_listed_next_to_a_failed_session(self):
        doc = base_doc()
        doc["session"]["promise"][0] = 0.0
        doc["provider"]["honesty_gap"] = 1.5
        assert collect_violations(doc) == [
            "session: session 'doc-test': promised value for 'speed' is 0, "
            "which makes the observed-to-promised ratio undefined",
            "provider: honesty_gap must be in [0, 1], got 1.5",
        ]

    def test_empty_reporter_id_is_a_violation(self):
        # the simulator's reports refuse an empty id, so the run would fail
        doc = base_doc()
        doc["consumers"][0]["id"] = ""
        messages = collect_violations(doc)
        assert len(messages) == 1
        assert "non-empty" in messages[0]

    def test_continuous_attribute_with_a_base_is_a_session_violation(self):
        doc = json.loads((SCENARIO_DIR / "wifi_cafe.json").read_text())
        doc["session"]["attributes"][0]["base"] = -3
        messages = collect_violations(doc)
        assert len(messages) == 1
        assert messages[0].startswith("session:") and "take no base" in messages[0]

    def test_bad_reporter_profile_is_a_roster_violation(self):
        doc = base_doc()
        doc["bystanders"][0]["reporter"] = {"kind": "malicious"}
        messages = collect_violations(doc)
        assert messages and "bystander 0" in messages[0]


def parse_violates(doc):
    try:
        parse_scenario(copy.deepcopy(doc))
    except ConfigError:
        return False
    except ValueError:
        return True
    return False


class TestReadDocument:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_document(tmp_path / "nope.json")

    def test_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read the scenario file"):
            read_document(tmp_path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_document(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"id": "caf\u00e9"}'.encode("latin-1"))
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_document(path)

    def test_load_scenario_file_wraps_both_steps(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(base_doc()), encoding="utf-8")
        scenario, _ = load_scenario_file(path)
        assert scenario.session.id == "doc-test"


def _paths(node, path=()):
    """(path, value) for every node under a parsed document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


_BASE = base_doc()
_LEAVES = [p for p, v in _paths(_BASE) if not isinstance(v, (dict, list))]
_KEYS = [p for p, v in _paths(_BASE) if isinstance(p[-1], str)]
_UNKNOWN = [("surprise",)] + [p + ("surprise",) for p, v in _paths(_BASE) if isinstance(v, dict)]
# No value here is a positive sub-second number, and a run stays short with
# two mutations: lifting end_time, query_time and usage_end to 1e308 together
# would take three, and only that would let a consumer sample without end.
_HOSTILE = [math.nan, math.inf, -math.inf, -1, 0, 1e308, "x", True, None, [], {}]

_mutations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_LEAVES), st.sampled_from(_HOSTILE)),
    st.tuples(st.just("set"), st.sampled_from(_UNKNOWN), st.just(1)),
    st.tuples(st.just("drop"), st.sampled_from(_KEYS), st.none()),
)


def _mutate(doc, mutation):
    op, path, value = mutation
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


# An optional file key and the value its model takes when the key is omitted.
# A reporter's strategy is left out: its default, None, has no JSON spelling
# that the file accepts (null is a wrong type, not an omission).
_DEFAULTS = [
    (("session", "attributes", 0, "kind"), AttributeSpec.kind),
    (("session", "attributes", 1, "unit"), AttributeSpec.unit),
    (("session", "attributes", 0, "levels"), list(AttributeSpec.ordinal_levels)),
    (("session", "attributes", 1, "base"), AttributeSpec.ordinal_base),
    (("provider", "attributes", 1, "jitter_stddev"), AttributeGenerator.jitter_stddev),
    (("provider", "attributes", 1, "drift_per_hour"), AttributeGenerator.drift_per_hour),
    (("provider", "honesty_gap"), ProviderProfile.honesty_gap),
    (("bystanders", 0, "reporter", "bias_offset"), ReporterProfile.bias_offset),
    (("bystanders", 0, "id"), "b00"),
    (("consumers", 0, "id"), "c00"),
    (("params",), {}),
    (("params", "alpha"), AggregationParams.alpha),
    (("params", "beta"), AggregationParams.beta),
    (("params", "mode"), AggregationParams.mode),
    (("thresholds",), [Thresholds.low_cut, Thresholds.high_cut]),
]


@pytest.mark.parametrize("path,default", _DEFAULTS, ids=[".".join(map(str, p)) for p, _ in _DEFAULTS])
def test_an_omitted_optional_field_takes_the_model_default(path, default):
    given, omitted = base_doc(), base_doc()
    if len(path) > 1 and path[0] == "params":
        given["params"], omitted["params"] = {}, {}
    _mutate(given, ("set", path, default))
    if path[-1] in _get(omitted, path[:-1]):
        _mutate(omitted, ("drop", path, None))
    assert parse_scenario(given) == parse_scenario(omitted)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=150, deadline=None)
@given(mutations=st.lists(_mutations, min_size=1, max_size=2))
def test_validate_and_run_agree_on_mutated_documents(fuzz_path, mutations):
    doc = base_doc()
    for mutation in mutations:
        try:
            _mutate(doc, mutation)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this path
    fuzz_path.write_text(json.dumps(doc), encoding="utf-8")
    path = str(fuzz_path)
    validated = _cli("validate", "--scenario", path)
    ran = _cli("run", "--scenario", path, "--experiment", "full", "--seed", "1",
               "--replications", "2", "--jobs", "1")
    assert validated in (0, 2, 3)
    if validated == 0:
        assert ran in (0, 3)
    else:
        assert ran == validated
