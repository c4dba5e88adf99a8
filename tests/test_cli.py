"""Command line behaviour: output formats, seed resolution, exit codes."""

import copy
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlt.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main

from conftest import SCENARIO_DIR

BASE = str(SCENARIO_DIR / "acceptance_base.json")
ABLATION = str(SCENARIO_DIR / "acceptance_ablation.json")
DRIFT = str(SCENARIO_DIR / "drifting_provider.json")
WIFI = str(SCENARIO_DIR / "wifi_cafe.json")


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("MLT_SEED", raising=False)


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def base_doc(path=BASE):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestPaperExamples:
    def test_all_pass(self, capsys):
        assert main(["paper-examples"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4/4 passed" in out
        assert out.count(" PASS") == 4
        assert "wifi-instantaneous" in out
        assert out == (
            "wifi-instantaneous: computed [0.929630] expected [0.93] +/-0.005 PASS\n"
            "bystander-freshness: computed [0.066667, 0.266667, 0.666667] "
            "expected [0.07, 0.27, 0.67] +/-0.005 PASS\n"
            "consumer-coverage: computed [0.642857, 0.285714, 0.071429] "
            "expected [0.64, 0.29, 0.07] +/-0.005 PASS\n"
            "reporter-credibility: computed [0.812500, 0.862500, 0.712500, 0.387500] "
            "expected [0.8125, 0.8625, 0.7125, 0.3875] +/-0.005 PASS\n"
            "4/4 passed\n"
        )

    def test_perturbation_is_detected(self, capsys):
        assert main(["paper-examples", "--perturb", "consumer-coverage"]) == 1
        out = capsys.readouterr().out
        assert "3/4 passed" in out
        assert out.count(" FAIL") == 1
        for line in out.splitlines():
            if line.startswith("consumer-coverage"):
                assert line.endswith("FAIL")

    def test_unknown_perturbation_name(self, capsys):
        assert main(["paper-examples", "--perturb", "bogus"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_shipped_file_is_ok(self, capsys):
        assert main(["validate", "--scenario", BASE]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "OK"

    def test_domain_violations_listed(self, tmp_path, capsys):
        doc = base_doc()
        doc["query_time"] = 9999.0
        doc["seed"] = -1
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l]
        assert len(lines) == 2
        assert all(l.startswith("violation:") for l in lines)

    def test_structural_error(self, tmp_path, capsys):
        doc = base_doc()
        doc["surprise"] = 1
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_provider_structural_error_beside_a_session_violation(self, tmp_path, capsys):
        doc = base_doc()
        doc["session"]["promise"][0] = 0
        doc["provider"]["attributes"][0]["color"] = "red"
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == EXIT_CONFIG
        assert "provider.attributes[0]: unknown field" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--scenario", "/nonexistent.json"]) == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path)]) == EXIT_CONFIG
        assert "cannot read the scenario file" in capsys.readouterr().err


def run_args(experiment, scenario=BASE, replications="3", *extra):
    return [
        "run",
        "--scenario", scenario,
        "--experiment", experiment,
        "--replications", replications,
        "--jobs", "1",
        *extra,
    ]


class TestRunFormats:
    def test_count_sweep_csv_shape(self, capsys):
        assert main(run_args("count-sweep")) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "reporters,adversary_frac,accuracy,precision,recall,stderr_accuracy"
        assert len(lines) == 11  # header plus one row per reporter count
        assert out.endswith("\n")
        assert lines[1].startswith("1,0.250000,")

    def test_ablation_csv_shape(self, capsys):
        assert main(run_args("ablation")) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "adversary_frac,credibility,accuracy,precision,recall,stderr_accuracy"
        arms = [l.split(",")[1] for l in lines[1:]]
        assert arms == ["on", "off", "on", "off"]

    def test_estimator_csv_shape(self, capsys):
        assert main(run_args("estimator-compare", DRIFT)) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "estimator,accuracy,precision,recall,stderr_accuracy"
        assert [l.split(",")[0] for l in lines[1:]] == ["instantaneous", "accumulated"]

    def test_full_runs_declared_roster(self, capsys):
        assert main(run_args("full", str(SCENARIO_DIR / "wifi_cafe.json"))) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("6,0.333333,")

    def test_json_format(self, capsys):
        assert main(run_args("ablation", BASE, "3", "--format", "json")) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "ablation"
        assert len(payload["results"]) == 4
        first = payload["results"][0]
        assert first["n_samples"] == 3
        assert set(first["per_level"]) == {"lowly", "moderately", "highly"}
        counts = first["per_level"]["highly"]["counts"]
        assert set(counts) == {"correct", "detected", "actual", "correct_not"}

    def test_table_format(self, capsys):
        assert main(run_args("count-sweep", BASE, "3", "--format", "table")) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "reporters", "adversary_frac", "accuracy", "precision", "recall", "stderr_accuracy",
        ]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 12


class TestRunSeedAndOutput:
    def config_seed(self, capsys, *extra):
        assert main(run_args("ablation", BASE, "2", "--format", "json", *extra)) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        return payload["results"][0]["config"]["seed"]

    def test_seed_defaults_to_the_file(self, capsys):
        assert self.config_seed(capsys) == 20260823

    def test_seed_flag_overrides(self, capsys):
        assert self.config_seed(capsys, "--seed", "5") == 5

    def test_env_seed_used_as_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MLT_SEED", "123")
        assert self.config_seed(capsys) == 123

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MLT_SEED", "123")
        assert self.config_seed(capsys, "--seed", "5") == 5

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MLT_SEED", "not-a-number")
        assert main(run_args("ablation")) == EXIT_CONFIG
        assert "MLT_SEED" in capsys.readouterr().err

    def test_negative_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("MLT_SEED", "-1")
        assert main(run_args("ablation")) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed: must be a non-negative integer, got -1\n"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        assert main(run_args("ablation")) == EXIT_OK
        stdout_text = capsys.readouterr().out
        out = tmp_path / "result.csv"
        assert main(run_args("ablation", BASE, "3", "--out", str(out))) == EXIT_OK
        assert out.read_bytes() == stdout_text.encode()

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(run_args("count-sweep", BASE, "3", "--out", str(first))) == EXIT_OK
        assert main(run_args("count-sweep", BASE, "3", "--out", str(second))) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_out_to_directory_fails_with_io_code(self, tmp_path, capsys):
        assert main(run_args("ablation", BASE, "2", "--out", str(tmp_path))) == EXIT_IO
        assert "i/o error:" in capsys.readouterr().err


class TestRunErrors:
    def test_bad_scenario_file(self, tmp_path, capsys):
        doc = base_doc()
        doc["surprise"] = 1
        path = write_doc(tmp_path, doc)
        assert main(run_args("ablation", path)) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(run_args("full", str(tmp_path))) == EXIT_CONFIG
        assert "cannot read the scenario file" in capsys.readouterr().err

    def test_invariant_breaking_scenario(self, tmp_path, capsys):
        doc = base_doc()
        doc["query_time"] = 9999.0
        path = write_doc(tmp_path, doc)
        assert main(run_args("ablation", path)) == EXIT_INVARIANT
        assert "scenario invariant violation:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, scenario, attribute, generator",
        [
            pytest.param(kind, scenario, attribute, generator, id=name + suffix)
            for kind, suffix in (("full", ""), ("ablation", "-ablation"))
            for name, scenario, attribute, generator in (
                ("huge-jitter", BASE, 0, {"mean": 10, "jitter_stddev": 1e308}),
                ("huge-mean-and-drift", BASE, 0, {"mean": 1e308, "drift_per_hour": 1e308}),
                ("ordinal-huge-jitter", WIFI, 1, {"mean": 2, "jitter_stddev": 1e308}),
                ("ordinal-huge-mean-and-drift", WIFI, 1,
                 {"mean": 1e308, "drift_per_hour": 1e308}),
                ("continuous-minus-infinity", WIFI, 0, {"mean": 10, "drift_per_hour": -1.7e308}),
            )
        ],
    )
    def test_overflowing_sample_is_an_invariant_violation(self, tmp_path, capsys, kind, scenario,
                                                          attribute, generator):
        # finite numbers that validate, but whose samples overflow to infinity
        # (an ordinal one would otherwise be rounded, a -inf one floored at 0);
        # "ablation" runs two candidates per slot under two rosters
        with open(scenario, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["provider"]["attributes"][attribute] = generator
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == EXIT_OK
        assert main(run_args(kind, path)) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("scenario invariant violation:")
        assert "is not finite" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("mode", ["verbatim", "normalized"])
    def test_offsets_past_the_float_range(self, tmp_path, capsys, mode):
        # two probes at 1e308 and two usages of 1e308 s sum past the float
        # range; with no drift, the run must score exactly like the same
        # session on a scale of thousands of seconds
        def scenario(scale, name):
            with open(WIFI, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["session"]["end_time"] = 1.7 * scale
            doc["query_time"] = 1.6 * scale
            doc["params"]["mode"] = mode
            doc["bystanders"] = [
                {"id": f"b0{i}", "reporter": {"kind": "honest"},
                 "schedule": {"first_offset": scale, "interval": 900, "count": 1}}
                for i in range(2)
            ]
            doc["consumers"] = [
                {"id": f"c0{i}", "reporter": {"kind": "honest"}, "usage_start": 0,
                 "usage_end": scale, "sample_interval": scale / 2}
                for i in range(2)
            ]
            return write_doc(tmp_path, doc, name)

        huge, small = scenario(1e308, "huge.json"), scenario(1e3, "small.json")
        assert main(["validate", "--scenario", huge]) == EXIT_OK
        capsys.readouterr()
        assert main(run_args("full", huge, "20")) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert main(run_args("full", small, "20")) == EXIT_OK
        assert out == capsys.readouterr().out

    def test_zero_replications(self, capsys):
        assert main(run_args("ablation", BASE, "0")) == EXIT_CONFIG
        assert "--replications" in capsys.readouterr().err

    def test_zero_jobs(self, capsys):
        args = run_args("ablation")
        args[args.index("--jobs") + 1] = "0"
        assert main(args) == EXIT_CONFIG

    def test_unknown_experiment_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(run_args("drift-sweep"))
        assert exc.value.code == 2


class TestValidateAndRunAgree:
    @pytest.mark.parametrize(
        "mutate,code",
        [
            (lambda d: d.update(query_time=7200 + 5e-10), EXIT_OK),
            (lambda d: d.update(query_time=9999.0), EXIT_INVARIANT),
            (lambda d: d["provider"]["attributes"][0].update(drift_per_hour=math.nan), EXIT_CONFIG),
            (lambda d: d["provider"]["attributes"][0].update(jitter_stddev=math.nan), EXIT_CONFIG),
            (lambda d: d["provider"]["attributes"][0].update(mean=math.inf), EXIT_CONFIG),
            (lambda d: d["session"].update(end_time=math.inf), EXIT_CONFIG),
            (lambda d: d["consumers"][0].update(sample_interval=math.nan), EXIT_CONFIG),
        ],
        ids=["query-time-dust", "query-time-late", "nan-drift", "nan-jitter", "inf-mean",
             "inf-end-time", "nan-sample-interval"],
    )
    def test_same_exit_code(self, tmp_path, capsys, mutate, code):
        doc = base_doc()
        mutate(doc)
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == code
        assert main(run_args("full", path)) == code


def write_with_a_duplicate(tmp_path, doc, obj, key):
    """Write doc with obj, an object inside it, giving key twice: first 1.5,
    then the value obj has, which a plain json.load would keep."""
    text, own = json.dumps(doc), json.dumps(obj)
    assert text.count(own) == 1
    path = tmp_path / "scenario.json"
    twice = "{" + json.dumps(key) + ": 1.5, " + own[1:]
    path.write_text(text.replace(own, twice), encoding="utf-8")
    return str(path)


class TestDuplicateFields:
    """A field given twice in one object is a malformed file, at any depth."""

    @pytest.mark.parametrize("where, key", [(lambda d: d, "seed"),
                                            (lambda d: d["provider"]["attributes"][0], "mean")],
                             ids=["top-level", "nested"])
    def test_validate_and_run_reject_it(self, tmp_path, capsys, where, key):
        doc = base_doc()
        path = write_with_a_duplicate(tmp_path, doc, where(doc), key)
        assert main(["validate", "--scenario", path]) == EXIT_CONFIG
        assert f"field {key!r} is given more than once" in capsys.readouterr().err
        assert main(run_args("full", path)) == EXIT_CONFIG
        assert f"field {key!r} is given more than once" in capsys.readouterr().err


def _deeply_nested(tmp_path):
    """A file of 100,000 nested JSON arrays, past the parser's recursion limit."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return str(path)


def _bogus_mode(tmp_path):
    """The base document with an aggregation mode that does not exist."""
    doc = base_doc()
    doc["params"]["mode"] = "bogus"
    return write_doc(tmp_path, doc)


def _with_doc(mutate):
    """argv builder: `mlt run --experiment full` on the base document after mutate."""
    def argv(tmp_path):
        doc = base_doc()
        mutate(doc)
        return run_args("full", write_doc(tmp_path, doc))
    return argv


class TestExitCodeContract:
    """Every exit code the README lists, triggered through cli.main."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (lambda tmp: run_args("ablation", BASE, "2"), EXIT_OK),
            (lambda tmp: ["paper-examples", "--perturb", "consumer-coverage"], 1),
            (_with_doc(lambda d: d.update(surprise=1)), EXIT_CONFIG),
            (lambda tmp: run_args("ablation", BASE, "2", "--format", "xml"), EXIT_CONFIG),
            (_with_doc(lambda d: d["provider"]["attributes"][0].update(jitter_stddev=1e308)),
             EXIT_INVARIANT),
            (lambda tmp: run_args("ablation", BASE, "2", "--out", str(tmp)), EXIT_IO),
            (_with_doc(lambda d: d.update(bystanders=[], consumers=[])), EXIT_INVARIANT),
            (lambda tmp: ["validate", "--scenario", _deeply_nested(tmp)], EXIT_CONFIG),
            (lambda tmp: run_args("full", _deeply_nested(tmp)), EXIT_CONFIG),
            (lambda tmp: run_args("ablation", BASE, "2", "--seed", "-1"), EXIT_CONFIG),
            (lambda tmp: ["validate", "--scenario", _bogus_mode(tmp)], EXIT_INVARIANT),
            (lambda tmp: run_args("full", _bogus_mode(tmp)), EXIT_INVARIANT),
        ],
        ids=["run", "failed-golden-check", "malformed-file", "bad-flag", "overflowing-sample",
             "out-is-a-directory", "full-run-without-reporters", "validate-deeply-nested-file",
             "run-deeply-nested-file", "negative-seed-flag", "validate-unknown-mode",
             "run-unknown-mode"],
    )
    def test_exit_code(self, tmp_path, capsys, argv, code):
        try:
            got = main(argv(tmp_path))
        except SystemExit as exc:  # argparse rejects a bad flag by exiting
            got = exc.code
        assert got == code

    def test_a_file_without_reporters_validates_and_runs_the_synthesized_kinds(self, tmp_path,
                                                                               capsys):
        doc = base_doc()
        doc.update(bystanders=[], consumers=[])
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == EXIT_OK
        assert main(run_args("ablation", path)) == EXIT_OK
        main(run_args("full", path))  # its exit code is the full-run-without-reporters row above
        assert capsys.readouterr().err == ("scenario invariant violation: no consumer or "
                                           "bystander reports to aggregate\n")


class TestSessionCap:
    """A session may ask for at most simulator._MAX_CELLS truth values (events
    x attributes).  validate and run count each reporter's events without
    building them and reject a session past the cap with exit 3."""

    @pytest.mark.parametrize(
        "scenario, mutate, reporter",
        [
            (ABLATION, lambda d: d["consumers"][0].update(sample_interval=5e-324), "consumer 'c00'"),
            (WIFI, lambda d: d["consumers"][0].update(sample_interval=1e-6), "consumer 'c00'"),
            (WIFI, lambda d: d["bystanders"][0]["schedule"].update(count=10**12, interval=1e-9),
             "bystander 'b00'"),
        ],
        ids=["sample-count-past-the-float-range", "billions-of-samples", "a-trillion-probes"],
    )
    def test_validate_and_run_reject_a_session_past_the_cap(self, tmp_path, capsys, scenario,
                                                            mutate, reporter):
        doc = base_doc(scenario)
        mutate(doc)
        path = write_doc(tmp_path, doc)
        # validate first: it builds no events, so a session past the cap that
        # slipped through could not exhaust memory here
        assert main(["validate", "--scenario", path]) == EXIT_INVARIANT
        assert f"violation: {reporter}: its " in capsys.readouterr().err
        assert main(run_args("full", path)) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("scenario invariant violation:")
        assert f"{reporter}: its " in err


EXTREMES = (0, -0.0, 5e-324, 1e-300, 1e300, sys.float_info.max, -1, 2**63, 2**64)
SHIPPED = {path.name: json.loads(path.read_text(encoding="utf-8"))
           for path in sorted(SCENARIO_DIR.glob("*.json"))}


def numeric_leaves(node, path=()) -> list[tuple]:
    """The path to every number in a parsed JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, child in children for leaf in numeric_leaves(child, path + (key,))]


class TestExtremeNumbers:
    """A shipped scenario with one or two numbers set to an extreme value
    exits 0, 2 or 3, never with a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_validate_and_run_exit_with_a_documented_code(self, data):
        doc = copy.deepcopy(SHIPPED[data.draw(st.sampled_from(sorted(SHIPPED)))])
        leaves = data.draw(st.lists(st.sampled_from(numeric_leaves(doc)), min_size=1, max_size=2,
                                    unique=True))
        for *parents, key in leaves:
            node = doc
            for parent in parents:
                node = node[parent]
            node[key] = data.draw(st.sampled_from(EXTREMES))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_doc(Path(tmp), doc)
            for argv in (["validate", "--scenario", path], run_args("full", path, "2")):
                assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_INVARIANT)

    def test_an_ordinal_base_past_int64_runs(self, tmp_path, capsys):
        # its level range once made an object array that numpy could not clamp with
        doc = base_doc(WIFI)
        doc["session"]["attributes"][1]["base"] = 2**64
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == EXIT_OK
        assert main(run_args("full", path)) == EXIT_OK


class TestConsoleScript:
    def test_entry_point_runs_golden_checks(self):
        proc = subprocess.run(
            ["mlt", "paper-examples"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "4/4 passed" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mlt.cli", "validate", "--scenario", BASE],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"
