"""End-to-end acceptance checks.

Each test prints one summary line (visible even under -q) with the measured
numbers, the bar they must clear, and PASS or FAIL, then asserts the bar.
The experiment-based checks run the shipped scenario files at full
replication counts, so this module carries most of the suite's runtime.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import mlt
from mlt.config import load_scenario_file
from mlt.experiments import (
    ABLATION,
    COUNT_SWEEP,
    ESTIMATOR_COMPARE,
    ExperimentSpec,
    run_experiment_suite,
)
from mlt.golden import run_golden_checks
from mlt.simulator import run_scenario
from mlt.trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    aggregate,
    coverage_weights,
    credibilities,
    freshness_weights,
    instantaneous_trust,
    update_accumulated,
)
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector

from conftest import SCENARIO_DIR, aggregate_basic, trace_events


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {detail} {'PASS' if ok else 'FAIL'}")


def accuracies(results, key):
    return {r.config[key]: r.accuracy for r in results}


def test_golden_examples_match_within_tolerance(capsys):
    start = time.perf_counter()
    checks = run_golden_checks()
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks) and len(checks) == 4 and elapsed < 1.0
    report(
        capsys,
        "golden-examples",
        ok,
        f"{sum(c.passed for c in checks)}/4 within 0.005, {elapsed:.2f}s (budget 1s)",
    )
    assert ok


def test_equations_hold_on_randomized_batches(capsys):
    """1000 fresh random cases per equation, checked against numpy re-derivations."""
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    cases = 1000

    schema = AttributeSchema(
        tuple(AttributeSpec(f"a{i}") for i in range(4))
    )
    for _ in range(cases):
        prom = rng.uniform(0.5, 100.0, 4)
        obs = rng.uniform(0.0, 2.0, 4) * prom
        got = instantaneous_trust(
            [PerformanceVector(tuple(obs), schema).values], PerformanceVector(tuple(prom), schema)
        )[0]
        want = float(np.minimum(1.0, obs / prom).mean())
        assert abs(got - want) < 1e-12 and 0.0 <= got <= 1.0

    for _ in range(cases):
        prev, inst, alpha = rng.random(3)
        got = update_accumulated(prev, inst, alpha)
        assert got == alpha * prev + (1.0 - alpha) * inst
        assert min(prev, inst) - 1e-12 <= got <= max(prev, inst) + 1e-12

    for _ in range(cases):
        n = int(rng.integers(1, 7))
        ts = rng.uniform(0.1, 5000.0, n)
        reports = tuple(
            InstantaneousReport(f"b{i}", float(rng.random()), float(t))
            for i, t in enumerate(ts)
        )
        weights, degenerate = freshness_weights(reports)
        assert not degenerate
        assert np.allclose(weights, ts / ts.sum(), atol=1e-12)

    for _ in range(cases):
        n = int(rng.integers(1, 7))
        dur = rng.uniform(1.0, 5000.0, n)
        reports = tuple(
            AccumulatedReport(f"c{i}", float(rng.random()), float(d), 1)
            for i, d in enumerate(dur)
        )
        assert np.allclose(coverage_weights(reports), dur / dur.sum(), atol=1e-12)

    for _ in range(cases):
        values = rng.random(int(rng.integers(1, 9)))
        got = np.asarray(credibilities(tuple(values)))
        want = 1.0 - np.abs(values - values.mean())
        assert np.allclose(got, want, atol=1e-12)
        assert ((got >= 0.0) & (got <= 1.0)).all()

    for _ in range(cases):
        n_c = int(rng.integers(1, 5))
        n_b = int(rng.integers(1, 5))
        t_c, t_b = rng.random(n_c), rng.random(n_b)
        dur = rng.uniform(1.0, 5000.0, n_c)
        ts = rng.uniform(0.1, 5000.0, n_b)
        beta = float(rng.random())
        cr = tuple(
            AccumulatedReport(f"c{i}", float(t), float(d), 1)
            for i, (t, d) in enumerate(zip(t_c, dur))
        )
        br = tuple(
            InstantaneousReport(f"b{i}", float(t), float(s))
            for i, (t, s) in enumerate(zip(t_b, ts))
        )
        pool = np.concatenate([t_c, t_b])
        cred = 1.0 - np.abs(pool - pool.mean())
        cred_c, cred_b = cred[:n_c], cred[n_c:]
        g = dur / dur.sum()
        f = ts / ts.sum()
        want_verbatim = beta * (cred_c * g * t_c).sum() + (1 - beta) * (cred_b * f * t_b).sum()
        want_normalized = beta * (cred_c * g * t_c).sum() / (cred_c * g).sum() + (
            1 - beta
        ) * (cred_b * f * t_b).sum() / (cred_b * f).sum()
        got_v = aggregate(cr, br, AggregationParams(beta=beta, mode="verbatim")).overall
        got_n = aggregate(cr, br, AggregationParams(beta=beta, mode="normalized")).overall
        assert abs(got_v - want_verbatim) < 1e-12
        assert abs(got_n - want_normalized) < 1e-12

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(
        capsys,
        "equation-randomization",
        ok,
        f"6 equations x {cases} random cases vs numpy, {elapsed:.2f}s (budget 10s)",
    )
    assert ok


def test_stripped_aggregate_equals_plain_mean(capsys):
    """Equal weights, unit credibility, and beta at the consumer share must
    reduce the weighted aggregate to the plain mean of all reports."""
    rng = np.random.default_rng(31337)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        total = int(rng.integers(1, 6))
        n_c = int(rng.integers(0, total + 1))
        # equal coverage and equal probe offsets give every report of a group
        # the weight 1.0/n exactly
        cr = tuple(AccumulatedReport(f"c{i}", float(rng.random()), 1.0, 1) for i in range(n_c))
        br = tuple(
            InstantaneousReport(f"b{i}", float(rng.random()), 1.0) for i in range(total - n_c)
        )
        params = AggregationParams(beta=n_c / total, mode="verbatim")
        stripped = aggregate(cr, br, params, use_credibility=False).overall
        worst = max(worst, abs(stripped - aggregate_basic(cr, br)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12
    report(
        capsys,
        "plain-mean-oracle",
        ok,
        f"500 pools of <=5 reporters, worst gap {worst:.2e} (tolerance 1e-12), {elapsed:.2f}s",
    )
    assert ok


def ablation_accuracies(scenario, thresholds):
    """(adversary_frac, credibility) -> accuracy of the credibility-ablation regime."""
    spec = ExperimentSpec(
        kind=ABLATION,
        replications=1000,
        reporters=10,
        adversary_frac=0.25,
        thresholds=thresholds,
        vary_provider=False,
    )
    results = run_experiment_suite(scenario, spec)
    return {(r.config["adversary_frac"], r.config["credibility"]): r.accuracy for r in results}


def count_curve(scenario, thresholds):
    """Accuracy at 1..10 reporters in the reporter-count regime."""
    spec = ExperimentSpec(
        kind=COUNT_SWEEP,
        replications=1000,
        reporters=10,
        adversary_frac=0.25,
        trust_range=(0.01, 0.99),
        thresholds=thresholds,
    )
    acc = accuracies(run_experiment_suite(scenario, spec), "reporters")
    return [acc[n] for n in range(1, 11)]


def estimator_accuracies(scenario, thresholds):
    """estimator -> accuracy in the drifting-provider regime."""
    spec = ExperimentSpec(
        kind=ESTIMATOR_COMPARE,
        replications=1000,
        reporters=2,
        adversary_frac=0.0,
        thresholds=thresholds,
    )
    return accuracies(run_experiment_suite(scenario, spec), "estimator")


def test_credibility_weighting_rescues_adversarial_sessions(capsys):
    scenario, thresholds = load_scenario_file(SCENARIO_DIR / "acceptance_ablation.json")
    start = time.perf_counter()
    acc = ablation_accuracies(scenario, thresholds)
    elapsed = time.perf_counter() - start
    gap = acc[(0.25, "on")] - acc[(0.25, "off")]
    clean = abs(acc[(0.0, "on")] - acc[(0.0, "off")])
    ok = gap >= 0.10 and clean < 0.02 and elapsed < 30.0
    report(
        capsys,
        "credibility-ablation",
        ok,
        f"25% adversaries on-off gap {gap:+.4f} (need >= +0.10), "
        f"clean diff {clean:.4f} (need < 0.02), {elapsed:.1f}s (budget 30s)",
    )
    assert ok


def test_more_reporters_beat_one_reporter(capsys):
    scenario, thresholds = load_scenario_file(SCENARIO_DIR / "acceptance_countsweep.json")
    start = time.perf_counter()
    curve = count_curve(scenario, thresholds)
    elapsed = time.perf_counter() - start
    gap = curve[-1] - curve[0]
    min_step = min(b - a for a, b in zip(curve, curve[1:]))
    ok = gap >= 0.20 and min_step >= -0.02 and elapsed < 120.0
    report(
        capsys,
        "reporter-count-sweep",
        ok,
        f"N=1 {curve[0]:.3f} to N=10 {curve[-1]:.3f}, gap {gap:+.4f} (need >= +0.20), "
        f"worst step {min_step:+.4f} (need >= -0.02), {elapsed:.1f}s (budget 120s)",
    )
    assert ok


def test_accumulated_estimator_tracks_a_drifting_provider(capsys):
    scenario, thresholds = load_scenario_file(SCENARIO_DIR / "drifting_provider.json")
    # the comparison only means something when performance actually moves
    assert all(g.drift_per_hour != 0.0 for g in scenario.provider.attributes)
    assert all(g.jitter_stddev > 0.0 for g in scenario.provider.attributes)
    start = time.perf_counter()
    acc = estimator_accuracies(scenario, thresholds)
    elapsed = time.perf_counter() - start
    ok = acc["accumulated"] >= acc["instantaneous"]
    report(
        capsys,
        "drift-estimators",
        ok,
        f"accumulated {acc['accumulated']:.3f} vs instantaneous {acc['instantaneous']:.3f} "
        f"(need accumulated >= instantaneous), {elapsed:.1f}s",
    )
    assert ok


# The bars are claims about expectations, so each is also checked as one: the
# statistic at each of a fixed set of scenario seeds, chosen before any stream
# layout was compared on them, and the lower end of the two-sided 95% t
# interval on its mean must clear the single-seed test's bar.
SEEDS = range(1, 21)
T_95_19 = 2.093  # t quantile at 0.975 with 19 degrees of freedom


def assert_bar_across_seeds(capsys, name, file, statistic, bar):
    scenario, thresholds = load_scenario_file(SCENARIO_DIR / file)
    start = time.perf_counter()
    values = np.array([statistic(replace(scenario, seed=seed), thresholds) for seed in SEEDS])
    elapsed = time.perf_counter() - start
    mean, sd = values.mean(), values.std(ddof=1)
    lower = mean - T_95_19 * sd / math.sqrt(len(values))
    ok = lower >= bar
    report(
        capsys,
        f"{name}-{len(values)}-seeds",
        ok,
        f"mean {mean:+.4f}, sd {sd:.4f}, 95% lower bound {lower:+.4f} (need >= {bar:+.2f}), "
        f"{int((values < bar).sum())} of {len(values)} seeds below the bar, {elapsed:.1f}s",
    )
    assert ok


def test_credibility_gap_clears_its_bar_across_seeds(capsys):
    def gap(scenario, thresholds):
        acc = ablation_accuracies(scenario, thresholds)
        return acc[(0.25, "on")] - acc[(0.25, "off")]

    assert_bar_across_seeds(capsys, "credibility-ablation", "acceptance_ablation.json", gap, 0.10)


def test_reporter_count_gap_clears_its_bar_across_seeds(capsys):
    def gap(scenario, thresholds):
        curve = count_curve(scenario, thresholds)
        return curve[-1] - curve[0]

    assert_bar_across_seeds(capsys, "reporter-count-sweep", "acceptance_countsweep.json", gap, 0.20)


def test_accumulated_estimator_wins_across_seeds(capsys):
    def difference(scenario, thresholds):
        acc = estimator_accuracies(scenario, thresholds)
        return acc["accumulated"] - acc["instantaneous"]

    assert_bar_across_seeds(capsys, "drift-estimators", "drifting_provider.json", difference, 0.0)


def test_cli_reruns_are_byte_identical(capsys, tmp_path):
    # Each run is a fresh interpreter on the `mlt` this process imported,
    # whatever PYTHONPATH it inherits; PYTHONHASHSEED stays unpinned so
    # output that depends on the hash seed would differ between the runs.
    package_root = str(Path(mlt.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    args = [
        sys.executable, "-m", "mlt.cli", "run",
        "--scenario", str(SCENARIO_DIR / "acceptance_base.json"),
        "--experiment", "count-sweep",
        "--replications", "40",
        "--seed", "77",
        "--jobs", "1",
    ]
    start = time.perf_counter()
    outputs = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            args + ["--out", str(path)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(
        capsys,
        "cli-reproducibility",
        ok,
        f"two invocations, {len(outputs[0])} bytes each, identical={outputs[0] == outputs[1]}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_trace_replays_to_the_reported_values(capsys):
    scenario, _ = load_scenario_file(SCENARIO_DIR / "wifi_cafe.json")
    trace = run_scenario(scenario)
    events = trace_events(trace)
    exact = True

    for consumer in trace.consumer_reports:
        samples = [
            e.value
            for e in events
            if e.kind == "sample" and e.reporter_id == consumer.reporter_id
        ]
        folded = [
            e.value
            for e in events
            if e.kind == "accumulate" and e.reporter_id == consumer.reporter_id
        ]
        acc = samples[0]
        replay = [acc]
        for value in samples[1:]:
            acc = update_accumulated(acc, value, scenario.params.alpha)
            replay.append(acc)
        exact &= replay == folded and acc == consumer.trust

    for bystander in trace.bystander_reports:
        probes = [
            e
            for e in events
            if e.kind == "probe" and e.reporter_id == bystander.reporter_id
        ]
        last = max(probes, key=lambda e: e.offset)
        exact &= (last.offset, last.value) == (
            bystander.timestamp_offset,
            bystander.trust,
        )

    n = len(trace.consumer_reports) + len(trace.bystander_reports)
    report(
        capsys,
        "trace-replay",
        exact,
        f"{n} reports rebuilt from {len(events)} events, exact float match",
    )
    assert exact
