"""Benchmark for mlt: end-to-end metrics per workload, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count-sweep --seed 1 --seconds 30 --trace 0

Workloads: count-sweep, wifi-ablation, aggregate-query (see README.md).
With --trace 0 the workload runs untraced and reports every end-to-end
metric; with --trace 1 the same work runs in-process with
each layer of the package wrapped from outside (tracing.py) and reports the
per-layer metrics.  Progress lines and a run record come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The package runs straight from src/, so nothing is installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPAWN = os.path.join(ROOT, "perfbench", "spawn.py")

REPLICATIONS = 1000          # the CLI default
SETUPS_PER_SWEEP = 2         # set-up interpreters timed after each sweep
QUERY_CHUNKS = 10            # aggregate-query: a set-up interpreter before each chunk
JOBS_CHECK_REPLICATIONS = 100
TRACE_QUERY_CYCLES = 8       # passes over the query cycle in a traced run
WINDOW_MIN_QUERIES = 1200    # a window: whole cycles over the sets
CHILD_LIMIT_S = 150.0
NPROC = os.cpu_count() or 1


@dataclass(frozen=True)
class Sweep:
    """One `mlt run` sweep and the rows its CSV output must have."""

    experiment: str
    scenario: str
    jobs: int
    points: int
    header: str
    keys: tuple[tuple[str, str], ...]  # the first two columns of each row, in order

    @property
    def outcomes(self) -> int:
        """Scored (sweep point x replication) outcomes of one sweep."""
        return self.points * REPLICATIONS

    def args(self, seed: int, jobs: int, replications: int = REPLICATIONS) -> list[str]:
        return ["run", "--scenario", self.scenario, "--experiment", self.experiment,
                "--replications", str(replications), "--seed", str(seed), "--jobs", str(jobs)]


SWEEPS = {
    "count-sweep": Sweep(
        "count-sweep", "scenarios/acceptance_countsweep.json", min(2, NPROC), 10,
        "reporters,adversary_frac,accuracy,precision,recall,stderr_accuracy",
        tuple((str(n), "0.250000") for n in range(1, 11)),
    ),
    "wifi-ablation": Sweep(
        "ablation", "scenarios/wifi_cafe.json", 1, 2,
        "adversary_frac,credibility,accuracy,precision,recall,stderr_accuracy",
        (("0.000000", "on"), ("0.000000", "off"), ("0.250000", "on"), ("0.250000", "off")),
    ),
}
WORKLOADS = (*SWEEPS, "aggregate-query")


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


class Tally:
    """Operations attempted and failed in one run, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str], attempted: int = 1, failed: int = 1) -> bool:
        """Count `attempted` operations, `failed` of them failing if there are problems."""
        self.attempted += attempted
        if problems:
            self.failed += failed
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def check(self, what: str, problems: list[str]) -> None:
        """A check that is not an operation: it fails the run without counting."""
        self.problems.extend(f"{what}: {p}" for p in problems)


@dataclass(frozen=True)
class Child:
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    peak_rss_mb: float  # the child and the workers it waited for


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MLT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str]) -> Child:
    """Run `python <args>` in the checkout through spawn.py, which times it and reports its peak RSS."""
    proc = subprocess.Popen([sys.executable, SPAWN, sys.executable, *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the spawner, the command and its workers
        out, err = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = err.decode(errors="replace").splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return Child(proc.returncode or -1, out, "\n".join(lines), math.nan, math.nan)
    return Child(report["returncode"], out, "\n".join(lines[:-1]), report["wall_s"],
                 report["peak_rss_kb"] / 1024.0)


def child_problems(child: Child) -> list[str]:
    if child.returncode == 0:
        return []
    tail = child.stderr.strip().splitlines()[-3:]
    return [f"exit {child.returncode}: " + " | ".join(tail)]


def csv_problems(text: str, sweep: Sweep, replications: int) -> list[str]:
    """Everything wrong with one sweep's CSV output (empty when it is right)."""
    lines = text.splitlines()
    if not lines or lines[0] != sweep.header:
        return [f"unexpected header {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(sweep.keys):
        return [f"expected {len(sweep.keys)} rows (points x arms), got {len(rows)}"]
    problems = []
    for i, (row, keys) in enumerate(zip(rows, sweep.keys)):
        if len(row) != 6 or tuple(row[:2]) != keys:
            problems.append(f"row {i} {row} does not start with {keys}")
            continue
        try:
            acc, precision, recall, stderr = (float(v) for v in row[2:])
        except ValueError:
            problems.append(f"row {i} {row} is not numeric")
            continue
        for name, v in (("accuracy", acc), ("precision", precision), ("recall", recall)):
            if not 0.0 <= v <= 1.0:
                problems.append(f"row {i}: {name} {v} not in [0, 1]")
        expected = math.sqrt(acc * (1.0 - acc) / replications)
        if not abs(stderr - expected) <= 2e-6:
            problems.append(f"row {i}: stderr_accuracy {stderr} != sqrt(acc(1-acc)/n) = {expected:.6f}")
    return problems


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, so machine-speed drift can be seen."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


class Setup:
    """Wall times of fresh interpreters running `code`, spread over a run.

    The first, untimed run writes the bytecode caches, which users pay for
    once rather than on every start; if it fails the program cannot run
    here at all.  Later runs are timed one at a time between the workload's
    units, so set-up sees the same phases of the machine as the workload.
    """

    def __init__(self, code: str):
        self.code = code
        self.walls: list[float] = []
        warm = run_child(["-c", code])
        if warm.returncode != 0:
            raise BenchError("the mlt package could not be started: "
                             + "; ".join(child_problems(warm)))

    def time(self, tally: Tally, times: int = 1) -> None:
        for _ in range(times):
            child = run_child(["-c", self.code])
            if tally.record("setup", child_problems(child)):
                self.walls.append(child.wall_s)

    def median(self) -> float:
        if not self.walls:
            raise BenchError("no set-up run succeeded")
        return statistics.median(self.walls)


class QueryLoop:
    """Closed loop with one caller over report sets, in order, in whole windows.

    A window is the smallest number of whole cycles over the sets with at
    least WINDOW_MIN_QUERIES queries, so it holds every set size of the
    cycle.  `run()` may be called several times; the latency of every query
    (ns) and the wall time of every window accumulate.  Every result must
    equal the first one for its set.
    """

    def __init__(self, sets, query):
        self.sets = sets
        self.query = query
        self.window = len(sets) * math.ceil(WINDOW_MIN_QUERIES / len(sets))
        self.first: list = [None] * len(sets)
        self.latencies = array("q")
        self.window_s: list[float] = []
        self.failed = 0
        self.problems: list[str] = []  # the first few failures

    def run(self, budget_s: float) -> None:
        clock = time.perf_counter_ns
        n = len(self.sets)
        latencies = self.latencies
        window_start = clock()
        end = window_start + int(budget_s * 1e9)
        now = window_start
        while now < end or len(latencies) % self.window:
            i = len(latencies) % n
            t0 = clock()
            try:
                result = self.query(self.sets[i])
            except ValueError as e:
                result = e
            now = clock()
            latencies.append(now - t0)
            if self.first[i] is None:
                self.first[i] = result
            if isinstance(result, ValueError) or result != self.first[i]:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"set {i}: {result!r}")
            if len(latencies) % self.window == 0:
                self.window_s.append((now - window_start) / 1e9)
                window_start = now

    def windows(self):
        """Latencies in ns, one row per window."""
        return np.asarray(self.latencies, dtype=float).reshape(-1, self.window)

    def queries_per_s(self) -> float:
        """Completed queries over the loop's time, all windows together.

        The machine spends long stretches, often half a run, in slow phases,
        so a median over windows flips between a fast and a slow value from
        run to run; the rate over the whole loop moves in proportion to the
        slow share.
        """
        return len(self.latencies) / sum(self.window_s)

    def latency_us(self) -> dict[str, float]:
        """p50 and p99 of each window, averaged over the windows (run record only)."""
        rows = self.windows()
        return {"p50": float(np.percentile(rows, 50, axis=1).mean()) / 1e3,
                "p99": float(np.percentile(rows, 99, axis=1).mean()) / 1e3}

    def count(self, tally: Tally, check) -> None:
        """Count the queries and check one result per set with `check`."""
        tally.record("query", self.problems, attempted=len(self.latencies), failed=self.failed)
        for i, (report_set, result) in enumerate(zip(self.sets, self.first)):
            problem = None if isinstance(result, ValueError) else check(report_set, result)
            if problem:
                tally.check("query", [f"set {i}: {problem}"])


def git_commit() -> str:
    """HEAD of the checkout if it is a git repository, else 'unknown'."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


# --------------------------------------------------------------------------- untraced runs

def sweep_run(name: str, seed: int, seconds: float, tally: Tally, record: dict) -> dict:
    sweep = SWEEPS[name]
    setup = Setup("import mlt; from mlt.config import load_scenario_file; "
                  f"load_scenario_file({sweep.scenario!r})")
    record["probe_ms_before"] = speed_probe_ms()
    rates, rss, first, crashes = [], [], None, 0
    start = time.perf_counter()
    step = 0.0  # wall time of the last sweep with its set-ups
    # stop where one more sweep would overrun the budget by more than half of itself
    while (time.perf_counter() - start + step / 2 < seconds or not rates) and crashes < 3:
        step_start = time.perf_counter()
        child = run_child(["-m", "mlt.cli", *sweep.args(seed, sweep.jobs)])
        problems = child_problems(child)
        if problems:
            crashes += 1
        else:
            # a sweep that ran to the end is timed even if its output is wrong
            rates.append(sweep.outcomes / child.wall_s)
            rss.append(child.peak_rss_mb)
            problems = csv_problems(child.stdout.decode(), sweep, REPLICATIONS)
            if first is None:
                first = child.stdout
            elif child.stdout != first:
                problems.append("stdout differs from the first pass with the same seed")
        tally.record(f"sweep {len(rates) + crashes}", problems)
        print(f"  sweep: {child.wall_s:.3f} s", file=sys.stderr)
        setup.time(tally, SETUPS_PER_SWEEP)
        step = time.perf_counter() - step_start
    record["probe_ms_after"] = speed_probe_ms()

    # output must not depend on --jobs (README); checked at a small replication count
    if NPROC >= 2:
        outs = []
        for jobs in (1, 2):
            child = run_child(["-m", "mlt.cli", *sweep.args(seed, jobs, JOBS_CHECK_REPLICATIONS)])
            if tally.record(f"jobs {jobs} check run", child_problems(child)):
                outs.append(child.stdout)
        if len(outs) == 2 and outs[0] != outs[1]:
            tally.check("jobs", ["--jobs 1 and --jobs 2 print different output"])

    if not rates:
        raise BenchError("no sweep succeeded: " + "; ".join(tally.problems[-3:]))
    record.update(jobs=sweep.jobs, replications=REPLICATIONS, outcomes_per_sweep=sweep.outcomes,
                  timed_units=len(rates), unit_rate_quartiles=quartiles(rates),
                  setup_runs=len(setup.walls))
    return {"outcomes_per_s": statistics.median(rates), "setup_s": setup.median(),
            "peak_rss_mb": max(rss)}


def query_run(seed: int, seconds: float, tally: Tally, record: dict) -> dict:
    import queries

    setup = Setup("import sys; sys.path.insert(0, 'perfbench'); import queries; "
                  f"queries.build_sets({seed})")
    sets = queries.build_sets(seed)
    loop = QueryLoop(sets, queries.query)
    record["probe_ms_before"] = speed_probe_ms()
    deadline = time.perf_counter() + seconds  # set-ups included, as in the sweeps
    for k in range(QUERY_CHUNKS):
        setup.time(tally)
        loop.run((deadline - time.perf_counter()) / (QUERY_CHUNKS - k))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["probe_ms_after"] = speed_probe_ms()

    loop.count(tally, queries.check)
    record.update(cycle=len(sets), crowd_sets=sum(queries.is_crowd(s) for s in sets),
                  timed_units=len(loop.latencies), windows=len(loop.window_s),
                  latency_us_quartiles=[q / 1e3 for q in quartiles(list(loop.latencies))],
                  window_latency_us=loop.latency_us(), setup_runs=len(setup.walls))
    # an outcome here is one query: a report set aggregated and classified
    return {"outcomes_per_s": loop.queries_per_s(), "setup_s": setup.median(),
            "peak_rss_mb": peak_rss_mb}


# --------------------------------------------------------------------------- traced runs

def _run_cli_in_process(args: list[str]) -> tuple[float, str, int]:
    import mlt.cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = mlt.cli.main(args)
    return time.perf_counter() - start, out.getvalue(), code


def sweep_trace(name: str, seed: int, tally: Tally, record: dict) -> dict:
    import mlt.cli
    import tracing

    sweep = SWEEPS[name]
    outs = {}

    def run(label, jobs):
        wall, text, code = _run_cli_in_process(sweep.args(seed, jobs))
        problems = [f"exit {code}"] if code else csv_problems(text, sweep, REPLICATIONS)
        tally.record(label, problems)
        outs[label] = text
        print(f"  {label}: {wall:.3f} s", file=sys.stderr)
        return wall

    untraced = run("untraced --jobs 1", 1)
    tracer = tracing.Tracer()
    tracer.install(tracing.SWEEP_TARGETS + tracing.POOL_TARGET)
    tracer.wrap_mapping("cli.format", mlt.cli._FORMATTERS, "csv")
    try:
        traced = run("traced --jobs 1", 1)
    finally:
        tracer.uninstall()
    stats = tracer.take()
    pool = stats["experiments.pool_start"]
    if sweep.jobs > 1:
        # pool starts are counted in the parent at the workload's own --jobs
        pool_tracer = tracing.Tracer()
        pool_tracer.install(tracing.POOL_TARGET)
        try:
            run(f"--jobs {sweep.jobs}", sweep.jobs)
        finally:
            pool_tracer.uninstall()
        pool = pool_tracer.take()["experiments.pool_start"]
    if len(set(outs.values())) != 1:
        tally.check("trace", ["tracing or --jobs changed the sweep's output"])

    n = sweep.outcomes

    def count(key):
        return stats[key][0]

    def self_us(*keys):
        return sum(stats[k][2] for k in keys) / 1e3

    aggregates = ("trust.aggregate.discarded", "trust.aggregate.used")
    calls = sum(count(k) for k in aggregates)
    record.update(jobs=sweep.jobs, replications=REPLICATIONS, outcomes=n,
                  traced_s=traced, untraced_s=untraced)
    metrics = {
        "experiments.sessions_per_outcome": count("simulator.run_scenario") / n,
        "experiments.pool_starts_per_sweep": pool[0],
        "experiments.pool_start_ms": pool[1] / pool[0] / 1e6 if pool[0] else 0.0,
        "experiments.self_us_per_outcome": self_us("experiments.run_experiment_suite") / n,
        "simulator.self_us_per_outcome": self_us("simulator.run_scenario") / n,
        "agents.samples_per_outcome": count("agents.sample_true_performance") / n,
        "agents.sample_true_performance.self_us_per_outcome":
            self_us("agents.sample_true_performance") / n,
        "agents.observe.self_us_per_outcome": self_us("agents.observe") / n,
        "session.validations_per_outcome": count("session.validate") / n,
        "session.validate.self_us_per_outcome": self_us("session.validate") / n,
        "trust.instantaneous_trust.self_us_per_outcome": self_us("trust.instantaneous_trust") / n,
        "trust.update_accumulated.self_us_per_outcome": self_us("trust.update_accumulated") / n,
        "trust.aggregate.calls_per_outcome": calls / n,
        "trust.aggregate.used_frac": count("trust.aggregate.used") / calls,
        "trust.aggregate.self_us_per_outcome": self_us(*aggregates) / n,
        "evaluation.self_us_per_outcome": self_us("evaluation.classify", "evaluation.score") / n,
        "cli.format_ms": stats["cli.format"][1] / 1e6,
        "config.load_ms": stats["config.load_scenario_file"][1] / 1e6,
        "trust.aggregate.session_self_us": self_us(*aggregates) / calls,
        "evaluation.classify.self_us": self_us("evaluation.classify") / count("evaluation.classify"),
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    for part in ("credibilities", "freshness_weights", "coverage_weights"):
        key = f"trust.{part}"
        metrics[f"{key}.session_self_us"] = self_us(key) / count(key) if count(key) else 0.0
    return metrics


def query_trace(seed: int, tally: Tally, record: dict) -> dict:
    import queries
    import tracing

    sets = queries.build_sets(seed)
    groups = {
        "session": [s for s in sets if not queries.is_crowd(s)],
        "crowd": [s for s in sets if queries.is_crowd(s)],
    }

    # untraced and traced passes alternate, so machine-speed drift hits both alike
    tracer = tracing.Tracer()
    walls = {False: 0.0, True: 0.0}
    stats = {}
    for g, report_sets in groups.items():
        first = {}
        for _ in range(TRACE_QUERY_CYCLES):
            for traced in (False, True):
                if traced:
                    tracer.install(tracing.QUERY_TARGETS)
                try:
                    start = time.perf_counter()
                    results = [queries.query(s) for s in report_sets]
                    walls[traced] += time.perf_counter() - start
                finally:
                    tracer.uninstall()
                first.setdefault(traced, results)
        stats[g] = tracer.take()
        problems = [] if first[True] == first[False] else ["tracing changed a result"]
        for report_set, result in zip(report_sets, first[True]):
            problem = queries.check(report_set, result)
            if problem:
                problems.append(problem)
        tally.record(f"{g} queries", problems,
                     attempted=2 * TRACE_QUERY_CYCLES * len(report_sets), failed=len(problems))

    def per_call(group, key):
        c, _, self_ns = stats[group][key]
        return self_ns / c / 1e3 if c else 0.0

    wall_t, wall_u = walls[True], walls[False]
    crowd_reports = TRACE_QUERY_CYCLES * sum(len(c) + len(b) for c, b in groups["crowd"])
    classify = [stats[g]["evaluation.classify"] for g in groups]
    record.update(cycles=TRACE_QUERY_CYCLES, traced_s=wall_t, untraced_s=wall_u)
    metrics = {}
    for part in ("aggregate", "credibilities", "freshness_weights", "coverage_weights"):
        for g in groups:
            metrics[f"trust.{part}.{g}_self_us"] = per_call(g, f"trust.{part}")
    metrics.update({
        "trust.aggregate.crowd_ns_per_report": stats["crowd"]["trust.aggregate"][2] / crowd_reports,
        "evaluation.classify.self_us":
            sum(s for _, _, s in classify) / sum(c for c, _, _ in classify) / 1e3,
        "trace.overhead_frac": wall_t / wall_u - 1.0,
    })
    return metrics


# --------------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child's process group is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for needed in (os.path.join(SRC, "mlt", "__init__.py"), os.path.join(ROOT, "scenarios")):
        if not os.path.exists(needed):
            print(f"error: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [SRC, os.path.dirname(os.path.abspath(__file__))]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "commit": git_commit(),
    }
    tally = Tally()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        if args.trace:
            if args.workload in SWEEPS:
                metrics = sweep_trace(args.workload, args.seed, tally, record)
            else:
                metrics = query_trace(args.seed, tally, record)
            wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
            # a layer that the workload does not run reads 0
            metrics = {name: metrics.get(name, 0.0) for name in wanted}
        else:
            if args.workload in SWEEPS:
                metrics = sweep_run(args.workload, args.seed, args.seconds, tally, record)
            else:
                metrics = query_run(args.seed, args.seconds, tally, record)
            wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            missing = sorted(set(wanted) - set(metrics))
            if missing:
                raise BenchError(f"{args.workload} does not measure {', '.join(missing)}")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, unit in wanted.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
