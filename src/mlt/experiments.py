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

That makes one simulation per replication and adversary fraction enough.
Points that share a fraction share a roster: the largest one is simulated
once, and each smaller point is scored from the reports of its own roster,
picked out by reporter id.  One task covers one replication and returns the
classification of every (point, arm); a sweep starts at most one worker pool.

Except for the "full" kind, rosters are synthesized: even slots are
bystanders, odd slots are consumers, with fixed per-slot schedules spread
over the session.  "full" runs the scenario's own roster as configured.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from multiprocessing import Pool

from .agents import HONEST, MALICIOUS, RANDOM, ProbeSchedule, ReporterProfile
from .evaluation import ExperimentResult, Thresholds, TrustLevel, classify, score
from .simulator import Bystander, Consumer, ConsumerUsage, Scenario, composition_rng, run_scenario
from .trust import aggregate

ABLATION = "ablation"
COUNT_SWEEP = "count-sweep"
ESTIMATOR_COMPARE = "estimator-compare"
FULL = "full"
KINDS = (ABLATION, COUNT_SWEEP, ESTIMATOR_COMPARE, FULL)

_MAX_SLOTS = 64    # composition always draws this many adversary flags

_HONEST_PROFILE = ReporterProfile(HONEST)
_MALICIOUS_PROFILE = ReporterProfile(MALICIOUS, 0.0, RANDOM)  # synthesized adversaries are random


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


def _composition(seed: int, rep: int, spec: ExperimentSpec):
    """Per-replication draws shared by every sweep point: quality, flags, seed."""
    rng = composition_rng(seed, rep)
    lo, hi = spec.trust_range
    target = lo + (hi - lo) * rng.random()
    flags = rng.random(_MAX_SLOTS)
    scenario_seed = int(rng.integers(0, 2**63))
    return target, flags, scenario_seed


def _slot_id(slot: int) -> str:
    """Reporter id of a synthesized slot: even slots are bystanders, odd ones consumers."""
    return f"{'bc'[slot % 2]}{slot // 2:02d}"


def _synth_roster(kind, query_time, n_slots, flags, frac):
    """Fixed per-slot rosters; slot i's schedule never depends on n_slots."""
    q = query_time
    bystanders = []
    consumers = []
    for slot in range(n_slots):
        profile = _MALICIOUS_PROFILE if flags[slot] < frac else _HONEST_PROFILE
        j = slot // 2
        if slot % 2 == 0:
            if kind == ESTIMATOR_COMPARE:
                # late probes, so instantaneous evidence reflects end-of-session drift
                sched = ProbeSchedule(q * (0.60 + 0.03 * (j % 6)), q * 0.10, 3)
            else:
                sched = ProbeSchedule(q * (0.10 + 0.03 * (j % 8)), q * 0.22, 4)
            bystanders.append(Bystander(_slot_id(slot), profile, sched))
        else:
            if kind == ESTIMATOR_COMPARE:
                usage = ConsumerUsage(q * 0.03 * (j % 4), q * (0.45 + 0.03 * (j % 4)), q * 0.05)
            else:
                usage = ConsumerUsage(q * 0.04 * (j % 4), q * (0.70 + 0.06 * (j % 5)), q * 0.05)
            consumers.append(Consumer(_slot_id(slot), profile, usage))
    return tuple(bystanders), tuple(consumers)


def _variant(base: Scenario, spec: ExperimentSpec, kind: str, n_reporters: int,
             frac: float, rep: int) -> Scenario:
    target, flags, scenario_seed = _composition(base.seed, rep, spec)
    provider = base.provider
    if spec.vary_provider:
        provider = replace(provider, honesty_gap=1.0 - target)
    if kind == FULL:
        bystanders, consumers = base.bystanders, base.consumers
    else:
        bystanders, consumers = _synth_roster(kind, base.query_time, n_reporters, flags, frac)
    return replace(
        base,
        provider=provider,
        bystanders=bystanders,
        consumers=consumers,
        seed=scenario_seed,
    )


def _classify_clamped(overall: float, thresholds: Thresholds) -> TrustLevel:
    return classify(min(1.0, max(0.0, overall)), thresholds)


# How each arm scores a point's reports
_ARMS = {
    "on": lambda cr, br, params: aggregate(cr, br, params),
    "off": lambda cr, br, params: aggregate(cr, br, params, use_credibility=False),
    "instantaneous": lambda cr, br, params: aggregate((), br, params),
    "accumulated": lambda cr, br, params: aggregate(cr, (), params),
}


def _rep_outcomes(args) -> tuple[TrustLevel, ...]:
    """Classify one replication under every (point, arm): (actual, *predicted).

    Each adversary fraction's largest roster is simulated once.  A smaller
    point keeps only the reports of its own roster's ids; the full roster's
    "on" arm reuses the simulator's own aggregate.
    """
    base, spec, points, rep = args
    largest: dict[float, int] = {}
    for n_reporters, frac, _ in points:
        largest[frac] = max(largest.get(frac, 0), n_reporters)
    traces = {
        frac: run_scenario(_variant(base, spec, spec.kind, n_reporters, frac, rep))
        for frac, n_reporters in largest.items()
    }
    th = spec.thresholds
    predicted = []
    for n_reporters, frac, arms in points:
        trace = traces[frac]
        cr, br = trace.consumer_reports, trace.bystander_reports
        whole = n_reporters == largest[frac]
        if not whole:
            ids = {_slot_id(slot) for slot in range(n_reporters)}
            cr = tuple(r for r in cr if r.reporter_id in ids)
            br = tuple(r for r in br if r.reporter_id in ids)
        for arm in arms:
            if whole and arm == "on":
                overall = trace.final_breakdown.overall
            else:
                overall = _ARMS[arm](cr, br, base.params).overall
            predicted.append(_classify_clamped(overall, th))
    # every roster of a replication scores the same provider
    return (_classify_clamped(trace.ground_truth_trust, th), *predicted)


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
    points = _sweep_points(base_scenario, spec)
    args = [(base_scenario, spec, points, rep) for rep in range(spec.replications)]
    processes = min(jobs, len(args))
    if processes > 1:
        with Pool(processes=processes) as pool:
            outcomes = pool.map(_rep_outcomes, args)
    else:
        outcomes = [_rep_outcomes(a) for a in args]

    actual = [o[0] for o in outcomes]
    columns = [(n_reporters, frac, arm) for n_reporters, frac, arms in points for arm in arms]
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
