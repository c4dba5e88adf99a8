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

A sweep builds one slot table (see simulator) and hands the engine blocks
of consecutive replications: as many as keep a block's largest array within
_BLOCK_CELLS values, at least one and at most _BLOCK_SIZE.  Each synthesized
slot holds its honest and its malicious agent, built and checked once per
sweep.  In a block, each replication draws its composition, so its
provider, its scenario seed and, per adversary fraction, a roster that picks
each slot's agent by its flag; the engine draws each (replication, slot)
once for every fraction that reads the same draws.  Points that share a
fraction share its roster: the largest one is simulated, and each smaller
point is scored from the leading reports of its own prefix of slots (reports
follow slot order).  Every (replication, point, arm) is then scored on its
own with aggregate and classify, the ground truth once per replication.  A
sweep starts at most one worker pool, which maps blocks; the output depends
neither on the block size nor on the number of workers.

Except for the "full" kind, rosters are synthesized: even slots are
bystanders, odd slots are consumers, with fixed per-slot schedules spread
over the session.  "full" runs the scenario's own roster as configured, one
agent per slot.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from multiprocessing import Pool

import numpy as np

from .agents import HONEST, MALICIOUS, RANDOM, ProbeSchedule, ReporterProfile
from .evaluation import ExperimentResult, Thresholds, TrustLevel, classify, score
from .simulator import (
    Block,
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    Slot,
    SlotTable,
    _event_times,
    composition_streams,
    scenario_violations,
)
# Not called here: perfbench/tracing.py wraps experiments.run_scenario as its
# simulator.run_scenario layer, until ROADMAP direction 1 moves the
# instrumentation into src.
from .simulator import run_scenario  # noqa: F401
from .trust import aggregate

ABLATION = "ablation"
COUNT_SWEEP = "count-sweep"
ESTIMATOR_COMPARE = "estimator-compare"
FULL = "full"
KINDS = (ABLATION, COUNT_SWEEP, ESTIMATOR_COMPARE, FULL)

_MAX_SLOTS = 64    # composition always draws this many adversary flags
_BLOCK_SIZE = 50   # most replications per engine call; the block size never changes the output
_BLOCK_CELLS = 2**18  # most values per block in the engine's largest arrays

_HONEST_PROFILE = ReporterProfile(HONEST)
_MALICIOUS_PROFILE = ReporterProfile(MALICIOUS, 0.0, RANDOM)  # synthesized adversaries are random
_PROFILES = (_HONEST_PROFILE, _MALICIOUS_PROFILE)  # a slot's agents, indexed by its adversary flag


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
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 1 <= self.reporters <= _MAX_SLOTS:
            raise ValueError(f"reporters must be in [1, {_MAX_SLOTS}]")
        if self.kind == ESTIMATOR_COMPARE and self.reporters < 2:
            raise ValueError("estimator-compare needs at least one bystander and one consumer")
        if not 0.0 <= self.adversary_frac <= 1.0:
            raise ValueError(f"adversary_frac must be in [0, 1], got {self.adversary_frac}")
        lo, hi = self.trust_range
        if not 0.0 < lo < hi <= 1.0:
            raise ValueError(f"trust_range must satisfy 0 < lo < hi <= 1, got {self.trust_range}")


def _compositions(seed: int, reps, spec: ExperimentSpec):
    """Per-replication draws shared by every sweep point: (quality, flags, seed) per replication."""
    lo, hi = spec.trust_range
    draws = []
    for rng in composition_streams(seed, reps):
        target = lo + (hi - lo) * rng.random()
        flags = rng.random(_MAX_SLOTS)
        draws.append((target, flags, int(rng.integers(0, 2**63))))
    return draws


def _slot_id(slot: int) -> str:
    """Reporter id of a synthesized slot: even slots are bystanders, odd ones consumers."""
    return f"{'bc'[slot % 2]}{slot // 2:02d}"


def _slot_agents(kind, query_time, n_slots):
    """Each synthesized slot's (honest, malicious) agent, in slot order.

    A slot's agents depend only on the kind, the query time and the slot, so
    a sweep builds them once; a roster picks each slot's agent by its
    adversary flag.  Slot i's schedule never depends on n_slots.
    """
    q = query_time
    slots = []
    for slot in range(n_slots):
        j = slot // 2
        if slot % 2 == 0:
            if kind == ESTIMATOR_COMPARE:
                # late probes, so instantaneous evidence reflects end-of-session drift
                sched = ProbeSchedule(q * (0.60 + 0.03 * (j % 6)), q * 0.10, 3)
            else:
                sched = ProbeSchedule(q * (0.10 + 0.03 * (j % 8)), q * 0.22, 4)
            pair = (Bystander(_slot_id(slot), p, sched) for p in _PROFILES)
        else:
            if kind == ESTIMATOR_COMPARE:
                usage = ConsumerUsage(q * 0.03 * (j % 4), q * (0.45 + 0.03 * (j % 4)), q * 0.05)
            else:
                usage = ConsumerUsage(q * 0.04 * (j % 4), q * (0.70 + 0.06 * (j % 5)), q * 0.05)
            pair = (Consumer(_slot_id(slot), p, usage) for p in _PROFILES)
        slots.append(tuple(pair))
    return tuple(slots)


class _Sweep:
    """What a sweep builds and checks once and every block shares.

    The adversary fractions, in point order, each with one roster per
    replication; the size of the largest roster; the slot table, whose
    synthesized slots are checked once under the scenario_violations rules;
    for each roster size the number of bystander and consumer reports its
    prefix of slots hands in; and the replications per block.
    """

    def __init__(self, base: Scenario, spec: ExperimentSpec, points):
        self.base = base
        self.spec = spec
        self.points = tuple(points)
        self.fracs = tuple(dict.fromkeys(frac for _, frac, _ in self.points))
        self.size = max(n_reporters for n_reporters, _, _ in self.points)
        self.cuts: dict[int, tuple[int, int]] = {}
        q = base.query_time
        if spec.kind == FULL:
            slots = [Slot(i, (b,)) for i, b in enumerate(base.bystanders)]
            slots += [Slot(j, (c,)) for j, c in enumerate(base.consumers)]
        else:
            pairs = _slot_agents(spec.kind, q, self.size)
            honest = [pair[0] for pair in pairs]
            violations = scenario_violations(base.session, base.provider, honest[0::2],
                                             honest[1::2], q, base.seed)
            if violations:
                raise ValueError("; ".join(violations))
            # reports follow slot order, one per agent with an event by the query
            # time, so a prefix of slots reports a prefix of each report tuple
            reporting = [len(_event_times(agent, q)) > 0 for agent in honest]
            for n_reporters, _, _ in self.points:
                self.cuts[n_reporters] = (sum(reporting[0:n_reporters:2]),
                                          sum(reporting[1:n_reporters:2]))
            slots = [Slot(i // 2, pair) for i, pair in enumerate(pairs)]
        self.table = SlotTable(slots, base.session, q, base.params)
        self.block_size = max(1, min(_BLOCK_SIZE, _BLOCK_CELLS // max(1, self.table.cells)))

    def simulate(self, reps) -> Block:
        """Simulate replications reps as one block.

        Each replication has one composition, so one provider and one scenario
        seed for all its rosters; roster f picks slot i's malicious agent when
        the slot's flag is below fraction f.
        """
        base, spec = self.base, self.spec
        draws = _compositions(base.seed, reps, spec)
        if spec.vary_provider:
            providers = [replace(base.provider, honesty_gap=1.0 - target) for target, _, _ in draws]
        else:
            providers = [base.provider] * len(draws)
        if spec.kind == FULL:
            picks = np.zeros((len(draws), 1, len(self.table.slots)), np.intp)
        else:
            flags = np.array([flags[:self.size] for _, flags, _ in draws])
            picks = (flags[:, np.newaxis, :] < np.array(self.fracs)[:, np.newaxis]).astype(np.intp)
        return self.table.simulate(providers, [seed for _, _, seed in draws], picks)


def _classify_clamped(overall: float, thresholds: Thresholds) -> TrustLevel:
    return classify(min(1.0, max(0.0, overall)), thresholds)


# How each arm scores a point's reports
_ARMS = {
    "on": lambda cr, br, params: aggregate(cr, br, params),
    "off": lambda cr, br, params: aggregate(cr, br, params, use_credibility=False),
    "instantaneous": lambda cr, br, params: aggregate((), br, params),
    "accumulated": lambda cr, br, params: aggregate(cr, (), params),
}


def _block_outcomes(args) -> list[tuple[TrustLevel, ...]]:
    """Classify each replication of a block under every (point, arm): (actual, *predicted).

    A smaller point keeps the leading reports of its own prefix of slots.
    """
    sweep, reps = args
    block = sweep.simulate(reps)
    th = sweep.spec.thresholds
    params = sweep.base.params
    roster_of = {frac: f for f, frac in enumerate(sweep.fracs)}
    outcomes = []
    for r in range(len(reps)):
        rosters = block.reports(r)
        predicted = []
        for n_reporters, frac, arms in sweep.points:
            cr, br = rosters[roster_of[frac]]
            if n_reporters != sweep.size:
                n_b, n_c = sweep.cuts[n_reporters]
                cr, br = cr[:n_c], br[:n_b]
            for arm in arms:
                predicted.append(_classify_clamped(_ARMS[arm](cr, br, params).overall, th))
        outcomes.append((_classify_clamped(block.ground_truth[r], th), *predicted))
    return outcomes


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
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    kind = spec.kind
    sweep = _Sweep(base_scenario, spec, _sweep_points(base_scenario, spec))
    n = spec.replications
    size = sweep.block_size
    args = [(sweep, range(start, min(start + size, n))) for start in range(0, n, size)]
    processes = min(jobs, len(args))
    if processes > 1:
        with Pool(processes=processes) as pool:
            blocks = pool.map(_block_outcomes, args)
    else:
        blocks = [_block_outcomes(a) for a in args]
    outcomes = [outcome for block in blocks for outcome in block]

    actual = [o[0] for o in outcomes]
    columns = [(n_reporters, frac, arm) for n_reporters, frac, arms in sweep.points for arm in arms]
    results = []
    for column, (n_reporters, frac, arm) in enumerate(columns, start=1):
        predicted = [o[column] for o in outcomes]
        config = {
            "kind": kind,
            "reporters": n_reporters,
            "adversary_frac": frac,
            "replications": spec.replications,
            "seed": base_scenario.seed,
        }
        if kind == ABLATION:
            config["credibility"] = arm
        elif kind == ESTIMATOR_COMPARE:
            config["estimator"] = arm
        results.append(score(predicted, actual, config))
    return results
