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
once, and each smaller point is scored from the leading reports of its own
prefix of slots (reports follow roster order).  One task covers one
replication and returns the classification of every (point, arm); a sweep
starts at most one worker pool.

Except for the "full" kind, rosters are synthesized: even slots are
bystanders, odd slots are consumers, with fixed per-slot schedules spread
over the session.  "full" runs the scenario's own roster as configured.

Work that does not change between fractions is done once.  A sweep builds
each slot's honest and malicious agent once and checks them once under
Scenario's rules; a replication draws its composition once, picks each
slot's agent by its flag, and derives its fractions' scenarios without
checking them again.  The fractions share the scenario seed, so the
simulator seeds each agent stream once per replication, and they share the
provider, so the ground truth is scored once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from multiprocessing import Pool

from .agents import HONEST, MALICIOUS, RANDOM, ProbeSchedule, ReporterProfile
from .evaluation import ExperimentResult, Thresholds, TrustLevel, classify, score
from .simulator import (
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    _event_times,
    _replace_unchecked,
    composition_rng,
    run_scenario,
    scenario_violations,
)
from .trust import aggregate

ABLATION = "ablation"
COUNT_SWEEP = "count-sweep"
ESTIMATOR_COMPARE = "estimator-compare"
FULL = "full"
KINDS = (ABLATION, COUNT_SWEEP, ESTIMATOR_COMPARE, FULL)

_MAX_SLOTS = 64    # composition always draws this many adversary flags

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


def _slot_agents(kind, query_time, n_slots):
    """Each synthesized slot's (honest, malicious) agent, in slot order.

    A slot's agents depend only on the kind, the query time and the slot, so
    a sweep builds them once; a replication picks each slot's agent by its
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


def _pick(slots, flags, frac):
    """(bystanders, consumers) of the roster whose slot i turns malicious when flags[i] < frac."""
    malicious = (flags[:len(slots)] < frac).tolist()
    roster = [pair[bad] for pair, bad in zip(slots, malicious)]
    return tuple(roster[0::2]), tuple(roster[1::2])


class _Sweep:
    """What a sweep builds and checks once and every replication shares.

    For each adversary fraction, the size of its largest roster; for a
    synthesized roster, the slot agents, checked once under the
    scenario_violations rules, and for each roster size the number of
    bystander and consumer reports its prefix of slots hands in.
    """

    def __init__(self, base: Scenario, spec: ExperimentSpec, points):
        self.base = base
        self.spec = spec
        self.points = tuple(points)
        self.largest: dict[float, int] = {}
        for n_reporters, frac, _ in self.points:
            self.largest[frac] = max(self.largest.get(frac, 0), n_reporters)
        self.slots = None
        self.cuts: dict[int, tuple[int, int]] = {}
        if spec.kind == FULL:
            return
        q = base.query_time
        self.slots = _slot_agents(spec.kind, q, max(self.largest.values()))
        honest = [pair[0] for pair in self.slots]
        violations = scenario_violations(base.session, base.provider, honest[0::2],
                                         honest[1::2], q, base.seed)
        if violations:
            raise ValueError("; ".join(violations))
        # reports follow roster order, one per agent with an event by the query
        # time, so a prefix of slots reports a prefix of each report tuple
        reporting = [len(_event_times(agent, q)) > 0 for agent in honest]
        for n_reporters, _, _ in self.points:
            self.cuts[n_reporters] = (sum(reporting[0:n_reporters:2]),
                                      sum(reporting[1:n_reporters:2]))

    def scenarios(self, rep: int) -> dict[float, Scenario]:
        """Replication rep's scenario for each adversary fraction: one
        composition, so one provider and one scenario seed, for all of them."""
        base, spec = self.base, self.spec
        target, flags, scenario_seed = _composition(base.seed, rep, spec)
        provider = base.provider
        if spec.vary_provider:
            provider = replace(provider, honesty_gap=1.0 - target)
        scenarios = {}
        for frac, n_reporters in self.largest.items():
            if self.slots is None:
                bystanders, consumers = base.bystanders, base.consumers
            else:
                bystanders, consumers = _pick(self.slots[:n_reporters], flags, frac)
            scenarios[frac] = _replace_unchecked(base, provider=provider, bystanders=bystanders,
                                                 consumers=consumers, seed=scenario_seed)
        return scenarios


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
    point keeps the leading reports of its own prefix of slots; the full
    roster's "on" arm reuses the simulator's own aggregate.
    """
    sweep, rep = args
    largest = sweep.largest
    traces = {frac: run_scenario(scenario) for frac, scenario in sweep.scenarios(rep).items()}
    th = sweep.spec.thresholds
    params = sweep.base.params
    predicted = []
    for n_reporters, frac, arms in sweep.points:
        trace = traces[frac]
        cr, br = trace.consumer_reports, trace.bystander_reports
        whole = n_reporters == largest[frac]
        if not whole:
            n_b, n_c = sweep.cuts[n_reporters]
            cr, br = cr[:n_c], br[:n_b]
        for arm in arms:
            if whole and arm == "on":
                overall = trace.final_breakdown.overall
            else:
                overall = _ARMS[arm](cr, br, params).overall
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
    sweep = _Sweep(base_scenario, spec, _sweep_points(base_scenario, spec))
    args = [(sweep, rep) for rep in range(spec.replications)]
    processes = min(jobs, len(args))
    if processes > 1:
        with Pool(processes=processes) as pool:
            outcomes = pool.map(_rep_outcomes, args)
    else:
        outcomes = [_rep_outcomes(a) for a in args]

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
