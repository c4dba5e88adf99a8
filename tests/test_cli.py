"""Command line behaviour: output formats, seed resolution, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from mlt.cli import EXIT_CONFIG, EXIT_INVARIANT, EXIT_IO, EXIT_OK, main

from conftest import SCENARIO_DIR

BASE = str(SCENARIO_DIR / "acceptance_base.json")
DRIFT = str(SCENARIO_DIR / "drifting_provider.json")
WIFI = str(SCENARIO_DIR / "wifi_cafe.json")


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("MLT_SEED", raising=False)


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def base_doc():
    with open(BASE, encoding="utf-8") as fh:
        return json.load(fh)


class TestPaperExamples:
    def test_all_pass(self, capsys):
        assert main(["paper-examples"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "4/4 passed" in out
        assert out.count(" PASS") == 4
        assert "wifi-instantaneous" in out

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
        "scenario, attribute, generator",
        [
            (BASE, 0, {"mean": 10, "jitter_stddev": 1e308}),
            (BASE, 0, {"mean": 1e308, "drift_per_hour": 1e308}),
            (WIFI, 1, {"mean": 2, "jitter_stddev": 1e308}),
            (WIFI, 1, {"mean": 1e308, "drift_per_hour": 1e308}),
            (WIFI, 0, {"mean": 10, "drift_per_hour": -1.7e308}),
        ],
        ids=["huge-jitter", "huge-mean-and-drift", "ordinal-huge-jitter",
             "ordinal-huge-mean-and-drift", "continuous-minus-infinity"],
    )
    def test_overflowing_sample_is_an_invariant_violation(self, tmp_path, capsys, scenario,
                                                          attribute, generator):
        # finite numbers that validate, but whose samples overflow to infinity
        # (an ordinal one would otherwise be rounded, a -inf one floored at 0)
        with open(scenario, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["provider"]["attributes"][attribute] = generator
        path = write_doc(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == EXIT_OK
        assert main(run_args("full", path)) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("scenario invariant violation:")
        assert "is not finite" in err
        assert len(err.splitlines()) == 1

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
