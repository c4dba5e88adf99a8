"""Event-driven session simulator.

A scenario pins down one service session, the provider's true behaviour, a
roster of bystanders and consumers, aggregation parameters, the query time,
and a master seed.  Running it executes every probe and usage-sampling event
up to the query time, then aggregates the collected reports.

Random streams are laid out here and nowhere else.  Every agent owns one
private stream, keyed by its identity within the scenario:
SeedSequence(seed, spawn_key=(group, slot)), where group is 0 for bystanders
and 1 for consumers and slot is the agent's index within its group.  The
stream serves both the provider truth the agent sees and the agent's own
reporting draws, in chronological order: for each event, one standard
normal per attribute (the truth's jitter once scaled by jitter_stddev, the
same value and stream position as a normal(0, jitter_stddev) draw), then,
for a reporter that draws its reports (malicious random), one uniform on
[0, 1).  Agents therefore never share state, results are bit-reproducible
for a fixed seed, and shrinking the query time only ever removes events, it
never changes the ones that remain.  Because a stream depends on (group,
slot) and not on the roster's size, adding or removing agents at the end of
either group leaves every other agent's events and reports unchanged.

The work is batched per agent.  An agent whose reporter draws nothing of
its own takes all its truth draws in one call, an (events x attributes)
block in C order, which is the same sequence as drawing event by event; a
random reporter steps one event at a time to keep the order above.  All of
a session's events are then scored together as arrays: truth, the
finiteness check, clamping and instantaneous trust.  Each agent's reports
come from one observe() call, and a consumer's EWMA is a short loop over
update_accumulated.  No per-sample objects are built: a SessionTrace keeps
each agent's series and builds its events only when they are read.

A sweep draws each replication's provider quality, adversary flags and
scenario seed from composition_rng: SeedSequence((seed, _COMP_TAG, rep)) for
the base scenario's seed and replication rep, kept apart from every agent
stream by its entropy tuple and independent of the sweep point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .agents import (
    ProbeSchedule,
    ProviderProfile,
    ReporterProfile,
    noise_free_performance,
    observe,
    sample_true_performance,
)
from .session import ServiceSession, require_finite
from .trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    TrustBreakdown,
    aggregate,
    instantaneous_trust,
    update_accumulated,
)

PROBE = "probe"
SAMPLE = "sample"
ACCUMULATE = "accumulate"

_TIME_EPS = 1e-9  # guards float dust when comparing event offsets to bounds

_BYSTANDER_GROUP = 0  # first spawn_key entry of an agent's stream
_CONSUMER_GROUP = 1
_COMP_TAG = 9137  # entropy entry separating composition streams from agent streams


@dataclass(frozen=True)
class ConsumerUsage:
    """A consumer's usage window and how often it samples inside it."""

    usage_start: float
    usage_end: float
    sample_interval: float

    def __post_init__(self):
        require_finite(usage_start=self.usage_start, usage_end=self.usage_end,
                       sample_interval=self.sample_interval)
        if self.usage_start < 0:
            raise ValueError(f"usage_start must be >= 0, got {self.usage_start}")
        if self.usage_end <= self.usage_start:
            raise ValueError("usage_end must come after usage_start")
        if self.sample_interval <= 0:
            raise ValueError(f"sample_interval must be positive, got {self.sample_interval}")


@dataclass(frozen=True)
class Bystander:
    id: str
    profile: ReporterProfile
    schedule: ProbeSchedule


@dataclass(frozen=True)
class Consumer:
    id: str
    profile: ReporterProfile
    usage: ConsumerUsage


def scenario_violations(session: ServiceSession | None, provider: ProviderProfile | None,
                        bystanders, consumers, query_time: float, seed) -> list[str]:
    """Every rule that spans a scenario's components, one message per break.

    The rules that need the session or the provider are skipped when that
    component is None, so a caller can still check the rest of a scenario
    whose session or provider failed to build.
    """
    violations = []
    if not isinstance(seed, int) or seed < 0:
        violations.append(f"seed: must be a non-negative integer, got {seed!r}")
    ids = [b.id for b in bystanders] + [c.id for c in consumers]
    if not all(ids):
        violations.append("reporters: ids must be non-empty")
    if len(set(ids)) != len(ids):
        violations.append("reporters: ids must be unique across the scenario")
    if session is None:
        return violations
    duration = session.duration
    if not 0.0 < query_time <= duration + _TIME_EPS:
        violations.append(f"query_time: must lie in (0, {duration:g}], got {query_time}")
    if provider is not None and provider.promise != session.promise:
        violations.append("provider: promise does not match the session promise")
    for b in bystanders:
        last = b.schedule.last_offset
        if last > duration + _TIME_EPS:
            violations.append(f"bystander {b.id!r}: last probe at offset {last:g} "
                              f"falls outside the session (duration {duration:g})")
    for c in consumers:
        end = c.usage.usage_end
        if end > duration + _TIME_EPS:
            violations.append(f"consumer {c.id!r}: usage_end {end:g} falls outside "
                              f"the session (duration {duration:g})")
    return violations


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run one simulated session, including the seed."""

    session: ServiceSession
    provider: ProviderProfile
    bystanders: tuple[Bystander, ...]
    consumers: tuple[Consumer, ...]
    params: AggregationParams = AggregationParams()
    query_time: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bystanders", tuple(self.bystanders))
        object.__setattr__(self, "consumers", tuple(self.consumers))
        violations = scenario_violations(
            self.session, self.provider, self.bystanders, self.consumers,
            self.query_time, self.seed,
        )
        if violations:
            raise ValueError("; ".join(violations))


@dataclass(frozen=True)
class TraceEvent:
    offset: float
    reporter_id: str
    kind: str  # probe | sample | accumulate
    value: float


class AgentSeries(NamedTuple):
    """One agent's events: its offsets and reported values, and for a
    consumer the accumulated (EWMA) value after each sample."""

    reporter_id: str
    offsets: tuple[float, ...]
    reported: tuple[float, ...]
    accumulated: tuple[float, ...] | None  # None for a bystander


@dataclass(frozen=True)
class SessionTrace:
    """Full record of one simulated session run.

    The report tuples are the evidence collected at query time, and
    final_breakdown is their aggregate under the scenario's params.
    ground_truth_trust scores the provider's noise-free mean performance
    against the promise.  series holds every agent's events, bystanders
    first, in roster order.
    """

    final_breakdown: TrustBreakdown
    ground_truth_trust: float
    consumer_reports: tuple[AccumulatedReport, ...]
    bystander_reports: tuple[InstantaneousReport, ...]
    series: tuple[AgentSeries, ...]

    @cached_property
    def events(self) -> tuple[TraceEvent, ...]:
        """Every event, time-ordered, ties broken by reporter id (a consumer's
        sample precedes the accumulate it feeds).  Built on first read."""
        events = []
        for s in self.series:
            if s.accumulated is None:
                events.extend(TraceEvent(t, s.reporter_id, PROBE, v)
                              for t, v in zip(s.offsets, s.reported))
                continue
            for t, v, acc in zip(s.offsets, s.reported, s.accumulated):
                events.append(TraceEvent(t, s.reporter_id, SAMPLE, v))
                events.append(TraceEvent(t, s.reporter_id, ACCUMULATE, acc))
        events.sort(key=lambda e: (e.offset, e.reporter_id))
        return tuple(events)


def _probe_times(schedule: ProbeSchedule, limit: float) -> tuple[float, ...]:
    times = []
    for k in range(schedule.count):
        t = schedule.first_offset + k * schedule.interval
        if t > limit + _TIME_EPS:
            break
        times.append(t)
    return tuple(times)


def _sample_times(usage: ConsumerUsage, limit: float) -> tuple[float, ...]:
    end = min(usage.usage_end, limit)
    if usage.usage_start >= limit:
        return ()
    n = int(math.floor((end - usage.usage_start) / usage.sample_interval + _TIME_EPS))
    return tuple(usage.usage_start + m * usage.sample_interval for m in range(n + 1))


def _agent_rng(seed: int, group: int, slot: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(group, slot)))


def composition_rng(seed: int, rep: int) -> np.random.Generator:
    """The stream of a sweep's per-replication draws (see the module docstring)."""
    return np.random.default_rng(np.random.SeedSequence((seed, _COMP_TAG, rep)))


def run_scenario(scenario: Scenario) -> SessionTrace:
    """Simulate one session up to query_time and aggregate what was reported."""
    session = scenario.session
    provider = scenario.provider
    q = scenario.query_time
    alpha = scenario.params.alpha
    k = len(provider.attributes)

    agents = [(b, _BYSTANDER_GROUP, i, _probe_times(b.schedule, q))
              for i, b in enumerate(scenario.bystanders)]
    agents += [(c, _CONSUMER_GROUP, j, _sample_times(c.usage, q))
               for j, c in enumerate(scenario.consumers)]

    # each agent's draws, in its stream's order (the empty block lets an
    # empty roster reach aggregate, which reports the missing evidence)
    noises = [np.empty((0, k))]
    own_draws = []
    for agent, group, slot, times in agents:
        rng = _agent_rng(scenario.seed, group, slot)
        n = len(times)
        if agent.profile.draws_reports:
            # one event at a time: the event's truth draws, then the report's
            noise = np.empty((n, k))
            own = np.empty(n)
            for e in range(n):
                noise[e] = rng.standard_normal(k)
                own[e] = rng.random()
            own_draws.append(own)
        else:
            noise = rng.standard_normal((n, k))
            own_draws.append(None)
        noises.append(noise)

    # every agent's events at once: truth, then its instantaneous trust
    offsets = [t for _, _, _, times in agents for t in times]
    observed = sample_true_performance(provider, offsets, np.concatenate(noises))
    true_trust = instantaneous_trust(observed, session.promise)

    series: list[AgentSeries] = []
    bystander_reports: list[InstantaneousReport] = []
    consumer_reports: list[AccumulatedReport] = []
    stop = 0
    for (agent, group, _, times), own in zip(agents, own_draws):
        start, stop = stop, stop + len(times)
        reported = tuple(observe(agent.profile, true_trust[start:stop], own).tolist())
        if group == _BYSTANDER_GROUP:
            series.append(AgentSeries(agent.id, times, reported, None))
            if times:
                bystander_reports.append(InstantaneousReport(agent.id, reported[-1], times[-1]))
            continue
        # the first sample seeds the EWMA, later ones fold into it
        accumulated = list(reported[:1])
        for value in reported[1:]:
            accumulated.append(update_accumulated(accumulated[-1], value, alpha))
        series.append(AgentSeries(agent.id, times, reported, tuple(accumulated)))
        if accumulated:
            coverage = min(q, agent.usage.usage_end) - agent.usage.usage_start
            consumer_reports.append(
                AccumulatedReport(agent.id, accumulated[-1], coverage, len(accumulated)))

    breakdown = aggregate(consumer_reports, bystander_reports, scenario.params)
    truth = instantaneous_trust(noise_free_performance(provider), session.promise)

    return SessionTrace(
        final_breakdown=breakdown,
        ground_truth_trust=truth,
        consumer_reports=tuple(consumer_reports),
        bystander_reports=tuple(bystander_reports),
        series=tuple(series),
    )
