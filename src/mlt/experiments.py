"""Experiment sweeps over simulated sessions.

Each replication draws a fresh provider quality (uniform over a target trust
range, realized through the honesty gap) and a fresh adversary assignment
(each reporter slot turns malicious with the sweep's adversary probability),
then simulates the session and classifies the aggregated trust against the
ground-truth level.

Replication draws come from the composition stream (see simulator), which
depends only on (scenario seed, replication index), never on the sweep
point.  Sweep points therefore share providers and adversary flags, and the
roster for N reporters is a strict prefix of the roster for N+1.
Agent streams are keyed by identity (see simulator), so a reporter reports
the same values at every point whose roster holds it, and count-sweep curves
are free of between-point sampling noise.

A sweep builds one slot table (see simulator) and hands the engine blocks of
consecutive replications: as many as keep a block's largest array within
_BLOCK_CELLS values, at least one and at most _BLOCK_SIZE, cut evenly: as
many for each worker, of lengths that differ by at most one.  Each
synthesized slot is an honest agent, built and checked once per sweep.  In a
block, each replication draws its composition (see simulator.compositions),
so its honesty gap, its scenario seed and, per adversary fraction, a roster
that gives each slot the honest or the malicious profile by its flag; the
engine draws and scores each (replication, slot)'s truth once for all the
fractions.  Points that share a fraction share its roster: the largest one
is simulated, and each smaller point is scored from the reports of its own
prefix of slots.

A report's weight inputs, a consumer's coverage and a bystander's last probe
offset, are fixed per slot, so each (point, arm)'s weights are worked out
once per sweep with coverage_weights and freshness_weights.  A block is then
scored as arrays over (replication x report), one (point, arm) at a time,
by trust.aggregate_overall, whose every value equals aggregate's overall bit
for bit.  evaluation.levels cuts them, and the ground truth, into level
indices, which score counts as they are.  Each (point, arm) of a block's
first replication is also scored through its report objects, aggregate and
classify, and a block whose array scores differ raises RuntimeError (the
ground truth's levels are checked by the tests).  A sweep starts at most one
worker pool, with no more workers than blocks or CPUs, which maps blocks; the
output depends neither on the block size nor on the number of workers.

Except for the "full" kind, rosters are synthesized: even slots are
bystanders, odd slots are consumers, with fixed per-slot schedules spread
over the session.  "full" runs the scenario's own roster as configured, each
agent with its own profile.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .agents import HONEST, MALICIOUS, RANDOM, ProbeSchedule, ReporterProfile
from .evaluation import _LEVELS, ExperimentResult, Thresholds, classify, levels, score
from .session import is_integer, require_unit
from .simulator import (
    COMPOSITION_FLAGS,
    Block,
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    SlotTable,
    compositions,
    own_profiles,
)
# Not called here: perfbench/tracing.py wraps experiments.run_scenario as its
# simulator.run_scenario layer, until ROADMAP direction 3 moves the
# instrumentation into src.
from .simulator import run_scenario  # noqa: F401
from .trust import aggregate, aggregate_overall, coverage_weights, freshness_weights

ABLATION = "ablation"
COUNT_SWEEP = "count-sweep"
ESTIMATOR_COMPARE = "estimator-compare"
FULL = "full"
KINDS = (ABLATION, COUNT_SWEEP, ESTIMATOR_COMPARE, FULL)

_BLOCK_SIZE = 200  # most replications per engine call; the block size never changes the output
_BLOCK_CELLS = 2**18  # most values per block in the engine's largest arrays

_HONEST_PROFILE = ReporterProfile(HONEST)
_MALICIOUS_PROFILE = ReporterProfile(MALICIOUS, 0.0, RANDOM)  # synthesized adversaries are random
_PROFILES = (_HONEST_PROFILE, _MALICIOUS_PROFILE)  # a slot's profile, indexed by its adversary flag

# Each arm's (scores consumers, scores bystanders, damps by credibility)
_ARMS = {
    "on": (True, True, True),
    "off": (True, True, False),
    "instantaneous": (False, True, True),
    "accumulated": (True, False, True),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """What to sweep and how hard to hammer it."""

    kind: str
    replications: int = 1000
    reporters: int = 10
    adversary_frac: float = 0.25  # used by ablation and count-sweep only
    trust_range: tuple[float, float] = (0.05, 0.95)
    thresholds: Thresholds = Thresholds()
    vary_provider: bool = True

    def __post_init__(self):
        object.__setattr__(self, "trust_range", tuple(self.trust_range))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("replications", "reporters"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 1 <= self.reporters <= COMPOSITION_FLAGS:
            raise ValueError(f"reporters must be in [1, {COMPOSITION_FLAGS}]")
        if self.kind == ESTIMATOR_COMPARE and self.reporters < 2:
            raise ValueError("estimator-compare needs at least one bystander and one consumer")
        require_unit("adversary_frac", self.adversary_frac)
        lo, hi = self.trust_range
        if not 0.0 < lo < hi <= 1.0:
            raise ValueError(f"trust_range must satisfy 0 < lo < hi <= 1, got {self.trust_range}")


def _slot_id(slot: int) -> str:
    """Reporter id of a synthesized slot: even slots are bystanders, odd ones consumers."""
    return f"{'bc'[slot % 2]}{slot // 2:02d}"


def _slot_agents(kind, query_time, n_slots):
    """Each synthesized slot's honest agent, in slot order.

    A slot's agent depends only on the kind, the query time and the slot, so
    a sweep builds it once; a roster gives each slot its profile by its
    adversary flag.  Slot i's schedule never depends on n_slots.
    """
    q = query_time
    agents = []
    for slot in range(n_slots):
        j = slot // 2
        if slot % 2 == 0:
            if kind == ESTIMATOR_COMPARE:
                # late probes, so instantaneous evidence reflects end-of-session drift
                sched = ProbeSchedule(q * (0.60 + 0.03 * (j % 6)), q * 0.10, 3)
            else:
                sched = ProbeSchedule(q * (0.10 + 0.03 * (j % 8)), q * 0.22, 4)
            agents.append(Bystander(_slot_id(slot), _HONEST_PROFILE, sched))
        else:
            if kind == ESTIMATOR_COMPARE:
                usage = ConsumerUsage(q * 0.03 * (j % 4), q * (0.45 + 0.03 * (j % 4)), q * 0.05)
            else:
                usage = ConsumerUsage(q * 0.04 * (j % 4), q * (0.70 + 0.06 * (j % 5)), q * 0.05)
            agents.append(Consumer(_slot_id(slot), _HONEST_PROFILE, usage))
    return tuple(agents)


class _Sweep:
    """What a sweep builds and checks once and every block shares.

    The adversary fractions, in point order, each with one roster per
    replication; the size of the largest roster; the slot table, whose
    synthesized honest roster is checked once as a Scenario; for "full", the
    profile each slot has as configured; each (point, arm)'s column; and the
    replications per block.
    """

    def __init__(self, base: Scenario, spec: ExperimentSpec, points):
        self.base = base
        self.spec = spec
        self.points = tuple(points)
        self.fracs = tuple(dict.fromkeys(frac for _, frac, _ in self.points))
        self.size = max(n_reporters for n_reporters, _, _ in self.points)
        q = base.query_time
        if spec.kind == FULL:
            agents = base.bystanders + base.consumers
            profiles, self.own = own_profiles(agents)
        else:
            agents = _slot_agents(spec.kind, q, self.size)
            replace(base, bystanders=agents[0::2], consumers=agents[1::2])  # checks the roster
            profiles = _PROFILES
        self.table = SlotTable(agents, profiles, base.session, q, base.params)
        self.columns = self._columns()
        # a replication's largest array is its truth or, for a one-attribute
        # provider under two fractions, its reports (roster x event)
        cells = max(1, self.table.cells, len(self.fracs) * len(self.table.offsets))
        self.block_size = max(1, min(_BLOCK_SIZE, _BLOCK_CELLS // cells))

    def simulate(self, reps) -> Block:
        """Simulate replications reps as one block.

        Each replication has one composition, so one honesty gap (one minus
        its uniform's point of trust_range, unless the provider is fixed) and
        one scenario seed for all its rosters; roster f gives slot i the
        malicious profile when the slot's flag is below fraction f.
        """
        base, spec = self.base, self.spec
        uniforms, flags, seeds = compositions(base.seed, reps)
        if spec.vary_provider:
            lo, hi = spec.trust_range
            gaps = 1.0 - (lo + (hi - lo) * uniforms)
        else:
            gaps = np.full(len(seeds), base.provider.honesty_gap)
        if spec.kind == FULL:
            picks = np.broadcast_to(self.own, (len(seeds), 1, len(self.own)))
        else:
            fracs = np.array(self.fracs)[:, np.newaxis]
            picks = (flags[:, np.newaxis, :self.size] < fracs).astype(np.intp)
        return self.table.simulate(base.provider, gaps, seeds, picks)

    def _columns(self) -> list[_Column]:
        """Each (point, arm)'s column, in output order.

        A point's reports are those of its prefix of slots ("full" has one
        point, its whole roster).  The weights read each slot's report
        fields, never a trust value, so a placeholder trust of 0.0 stands in.
        """
        table = self.table
        roster_of = {frac: f for f, frac in enumerate(self.fracs)}
        columns = []
        for n_reporters, frac, arms in self.points:
            reporting = [j for j in table.reporting if j < n_reporters]
            at = ([], [])  # bystander, consumer positions on Block.final's reporting-slot axis
            for k, j in enumerate(reporting):
                at[table.consumer[j]].append(k)
            consumer_reports, bystander_reports = table.reports([0.0] * len(reporting))
            weights_c = coverage_weights(consumer_reports) if consumer_reports else []
            weights_b = freshness_weights(bystander_reports)[0] if bystander_reports else []
            for arm in arms:
                consumers, bystanders, use_credibility = _ARMS[arm]
                columns.append(_Column(
                    n_reporters, frac, arm, roster_of[frac],
                    np.array((at[1] if consumers else []) + (at[0] if bystanders else []), np.intp),
                    np.array(weights_c if consumers else []),
                    np.array(weights_b if bystanders else []),
                    use_credibility))
        return columns


class _Column(NamedTuple):
    """One (point, arm) of a sweep: its roster, its reports' positions on
    Block.final's reporting-slot axis (consumers first, then bystanders, each
    in slot order), each group's weights, and whether credibility damps them."""

    n_reporters: int
    frac: float
    arm: str
    roster: int
    at: np.ndarray
    weights_c: np.ndarray
    weights_b: np.ndarray
    use_credibility: bool


def _check_first(sweep: _Sweep, block: Block, rep: int, overall, row) -> None:
    """Score each column of the block's first replication, rep, through its
    report objects, aggregate and classify, and raise RuntimeError where an
    array score differs: overall holds each column's value, row its level."""
    th = sweep.spec.thresholds
    rosters = [block.table.reports(final) for final in block.final[0].tolist()]
    for column, x, level in zip(sweep.columns, overall, row):
        cr, br = rosters[column.roster]
        expected = aggregate(cr[:len(column.weights_c)], br[:len(column.weights_b)],
                             sweep.base.params, use_credibility=column.use_credibility).overall
        checks = (("aggregate", x, expected), ("classify", _LEVELS[level], classify(expected, th)))
        for call, got, want in checks:
            if got != want:
                raise RuntimeError(
                    f"array scoring differs from {call} at replication {rep}, point "
                    f"({column.n_reporters} reporters, adversary_frac {column.frac}), "
                    f"arm {column.arm!r}: {got} against {want}")


def _block_outcomes(args) -> np.ndarray:
    """Classify each replication of a block under every (point, arm): a
    (replication x 1 + column) array of level indices into TrustLevel,
    (actual, *predicted)."""
    sweep, reps = args
    block = sweep.simulate(reps)
    th = sweep.spec.thresholds
    rows = [levels(block.ground_truth, th)]
    first = []
    for column in sweep.columns:
        overall = aggregate_overall(block.final[:, column.roster, column.at], column.weights_c,
                                    column.weights_b, sweep.base.params, column.use_credibility)
        rows.append(levels(overall, th))
        first.append(float(overall[0]))
    rows = np.stack(rows, axis=1)
    _check_first(sweep, block, reps[0], first, rows[0, 1:])
    return rows


def Pool(processes: int):  # multiprocessing's name: perfbench/tracing.py wraps it
    """multiprocessing.Pool(processes), imported only when a sweep starts a pool."""
    from multiprocessing import Pool
    return Pool(processes)


def _declared_adversary_frac(scenario: Scenario) -> float:
    roster = [b.profile for b in scenario.bystanders] + [c.profile for c in scenario.consumers]
    if not roster:
        return 0.0
    return sum(1 for p in roster if p.kind == MALICIOUS) / len(roster)


def _sweep_points(base_scenario: Scenario, spec: ExperimentSpec):
    """(n_reporters, adversary_frac, arm names) per sweep point, in output order."""
    kind = spec.kind
    if kind == ABLATION:
        return [(spec.reporters, f, ("on", "off")) for f in (0.0, spec.adversary_frac)]
    if kind == COUNT_SWEEP:
        return [(n, spec.adversary_frac, ("on",)) for n in range(1, spec.reporters + 1)]
    if kind == ESTIMATOR_COMPARE:
        # one clean point: no adversaries
        return [(spec.reporters, 0.0, ("instantaneous", "accumulated"))]
    n = len(base_scenario.bystanders) + len(base_scenario.consumers)
    return [(n, _declared_adversary_frac(base_scenario), ("on",))]


def run_experiment_suite(base_scenario: Scenario, spec: ExperimentSpec,
                         jobs: int = 1) -> list[ExperimentResult]:
    """Run one experiment sweep and return a scored result per sweep point and arm."""
    if not is_integer(jobs) or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    kind = spec.kind
    sweep = _Sweep(base_scenario, spec, _sweep_points(base_scenario, spec))
    n, size = spec.replications, sweep.block_size
    processes = min(jobs, -(-n // size), os.cpu_count() or 1)
    # as many blocks for each worker, of lengths that differ by at most one
    n_blocks = min(n, -(-n // (size * processes)) * processes)
    bounds = [n * k // n_blocks for k in range(n_blocks + 1)]
    args = [(sweep, range(a, b)) for a, b in zip(bounds, bounds[1:])]
    if processes > 1:
        with Pool(processes) as pool:
            blocks = pool.map(_block_outcomes, args)
    else:
        blocks = [_block_outcomes(a) for a in args]
    outcomes = np.concatenate(blocks)

    actual = outcomes[:, 0]
    results = []
    for c, column in enumerate(sweep.columns, start=1):
        config = {  # the checks pass numpy numbers; the config holds Python's, which json writes
            "kind": kind,
            "reporters": int(column.n_reporters),
            "adversary_frac": float(column.frac),
            "replications": int(spec.replications),
            "seed": int(base_scenario.seed),
        }
        if kind == ABLATION:
            config["credibility"] = column.arm
        elif kind == ESTIMATOR_COMPARE:
            config["estimator"] = column.arm
        results.append(score(outcomes[:, c], actual, config))
    return results
