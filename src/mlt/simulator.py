"""Event-driven session simulator.

A scenario pins down one service session, the provider's true behaviour, a
roster of bystanders and consumers, aggregation parameters, the query time,
and a master seed.  Running it executes every probe and usage-sampling event
up to the query time, then aggregates the collected reports.

Random streams are laid out here and nowhere else.  A scenario seed keys
every agent stream of its session: key = SeedSequence(seed).generate_state(2,
uint64), and a stream is numpy's Philox(key=key, counter=[0, kind, index,
group]), where group is 0 for bystanders and 1 for consumers, index is the
agent's position within its group, and kind names what the stream draws.  The
first counter word is the stream's own position, which Philox advances as it
draws.  Each agent has two streams:

- truth (kind 0): one standard normal per attribute per event, taken as one
  (events x attributes) block in C order, for every agent whatever its
  profile.  Scaled by jitter_stddev it is the truth's jitter, the same value
  as a normal(0, jitter_stddev) draw; a zero-jitter attribute still takes
  its draw.
- own (kind 1): one uniform on [0, 1) per event, taken as one block, drawn
  only by a reporter that draws its reports (malicious random).

Agents therefore never share state, results are bit-reproducible for a fixed
seed, and shrinking the query time only ever removes events, it never
changes the ones that remain.  Because a stream depends on (group, index) and
not on the roster's size, adding or removing agents at the end of either
group leaves every other agent's events and reports unchanged.  Truth and
reports never share a stream, so a random reporter's reports do not depend
on how many attributes the provider has, and the truth an agent sees does
not depend on its profile.

A sweep draws each replication's composition from its composition stream,
numpy's default_rng(SeedSequence((seed, _COMP_TAG, rep))) for the base
scenario's seed and replication rep, kept apart from every agent stream and
independent of the sweep point.  compositions() draws, per replication and in
this order, one uniform on [0, 1) for the provider quality, COMPOSITION_FLAGS
uniforms for the adversary flags (one per slot a roster can have), and the
scenario seed, an integer in [0, 2**63).

A block computes its keys and composition seeds as SeedSequence's hash in
arrays (_seed_states) and sets each stream as a state on one reused Philox
or PCG64; the tests check every draw against numpy's own streams.

One engine runs every session.  A SlotTable fixes a roster's slots: each
slot is one agent, a bystander or a consumer, which gives the slot its id
and its events up to the query time, and the table derives each slot's
stream counters from the agent's group and its index there.  A roster gives
each slot a profile.  SlotTable.simulate runs a block of replications of the
table at once, each with its own honesty gap, scenario seed and rosters:

- Draws.  Each slot of a replication sets its truth stream once, on one
  Generator, and its own stream only where some roster gives it a profile
  that draws its reports; every roster reads the same draws.
- Arrays.  Each slot's events sit once on the event axis.  Truth, the
  finiteness check, clamping and instantaneous trust run once over
  (replication x event) and are broadcast over the rosters.  Reports are
  (replication x roster x event), one row per session: observe() runs once
  per distinct profile, over the events whose slot the roster gives it, and
  the EWMA folds in place on the event axis, one update_accumulated call
  per step over the consumer slots that have that step.

The ground truth is each replication's provider truth with no jitter and,
at offset 0, no drift, scored once per replication.  run_scenario is a block
of one replication and one roster, and its SessionTrace keeps each agent's
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .session import ServiceSession, is_integer, require_finite
from .trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    TrustBreakdown,
    aggregate,
    instantaneous_trust,
    update_accumulated,
)

_TIME_EPS = 1e-9  # guards float dust when comparing event offsets to bounds

_BYSTANDER_GROUP = 0  # last counter word of an agent's streams
_CONSUMER_GROUP = 1
_TRUTH, _OWN = 0, 1  # second counter word: the kind of an agent's stream
_COMP_TAG = 9137  # entropy entry separating composition streams from agent streams
COMPOSITION_FLAGS = 64  # adversary flags every composition draws: the most slots a sweep has
_MAX_CELLS = 2**20  # most truth values (events x attributes) of a session: bounds a run's memory

# numpy's SeedSequence (a pool of 4 uint32 words, hashmix's (init, mult)) and PCG64 constants
_POOL, _HASH_IN, _HASH_OUT = 4, (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    whose session or provider failed to build.  Each reporter's events up to
    the query time are counted, not built, against _MAX_CELLS.
    """
    violations = []
    if not is_integer(seed) or seed < 0:
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
    if provider is not None and len(provider.attributes) != len(session.promise):
        violations.append(f"provider: expected {len(session.promise)} attribute generators, "
                          f"got {len(provider.attributes)}")
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
    counts = [(f"bystander {b.id!r}", _probe_count(b.schedule, query_time)) for b in bystanders]
    counts += [(f"consumer {c.id!r}", _sample_count(c.usage, query_time)) for c in consumers]
    events = 0
    for reporter, count in counts:
        events += count
        if events * len(session.promise) > _MAX_CELLS:
            violations.append(f"{reporter}: its events ({count}) take the session past "
                              f"{_MAX_CELLS} truth values (events x attributes)")
            break
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
    final_breakdown is their aggregate under the scenario's params.  series
    holds every agent's events, bystanders first, in roster order.
    ground_truth_trust scores the provider's noise-free mean performance
    against the session's promise.
    """

    final_breakdown: TrustBreakdown
    consumer_reports: tuple[AccumulatedReport, ...]
    bystander_reports: tuple[InstantaneousReport, ...]
    series: tuple[AgentSeries, ...]
    ground_truth_trust: float


def _probe_count(schedule: ProbeSchedule, limit: float) -> int:
    """How many probes a bystander takes up to limit.  The offsets never
    decrease, so bisection counts them, here and not by the bisect module,
    whose indices stop at 2**63 where a count need not."""
    first, interval = schedule.first_offset, schedule.interval
    lo, hi = 0, schedule.count
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if limit + _TIME_EPS < first + mid * interval else (mid + 1, hi)
    return lo


def _probe_times(schedule: ProbeSchedule, limit: float) -> tuple[float, ...]:
    first, interval = schedule.first_offset, schedule.interval
    return tuple(first + k * interval for k in range(_probe_count(schedule, limit)))


def _sample_count(usage: ConsumerUsage, limit: float) -> int | float:
    """How many samples a consumer takes up to limit, or math.inf where the
    quotient of its window over its interval is not finite."""
    if usage.usage_start >= limit:
        return 0
    quotient = (min(usage.usage_end, limit) - usage.usage_start) / usage.sample_interval
    return math.floor(quotient + _TIME_EPS) + 1 if math.isfinite(quotient) else math.inf


def _sample_times(usage: ConsumerUsage, limit: float) -> tuple[float, ...]:
    return tuple(usage.usage_start + m * usage.sample_interval
                 for m in range(_sample_count(usage, limit)))


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays: hashmix(value, k) makes k
    calls, one per row of value, its constant advancing by mult at each."""
    def hashmix(value, calls: int):
        nonlocal const
        consts = np.full((calls + 1, 1), mult, np.uint32)
        consts[0] = const
        consts = np.cumprod(consts, axis=0, dtype=np.uint32)
        const = int(consts[-1, 0])
        value = (value ^ consts[:-1]) * consts[1:]
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return result ^ result >> 16


def _seed_states(columns, n: int) -> np.ndarray:
    """numpy's SeedSequence(row).generate_state(n, np.uint64) of each row of
    the entropy with these columns (an int, or one per row).  An entry is its
    32-bit words, low first (0 is one).  The rows of one width are hashed
    together, each of numpy's hashmix calls, in its order, over all of them."""
    split, counts = [], []  # each column's words, and each row's count of them
    # numpy reads ints past int64 as floats, so those are kept as objects
    for column in np.broadcast_arrays(*[a if (a := np.asarray(c)).dtype.kind in "iu"
                                        else np.array(c, object) for c in columns]):
        if (column < 0).any():
            raise ValueError("SeedSequence entropy must be non-negative")
        split.append([column & 0xFFFFFFFF])
        counts.append(np.ones(column.shape, np.intp))
        while (column := column >> 32).any():
            split[-1].append(column & 0xFFFFFFFF)
            counts[-1] += column != 0
    counts = np.stack(counts, axis=1)
    states = np.empty((len(counts), n), np.uint64)
    for width in set(map(tuple, counts.tolist())):
        at = (counts == width).all(axis=1)
        words = np.array([w[at] for column, k in zip(split, width) for w in column[:k]], np.uint32)
        hashmix = _hasher(*_HASH_IN)
        pool = np.vstack([words[:_POOL], np.zeros((_POOL, len(words[0])), np.uint32)])[:_POOL]
        pool = hashmix(pool, _POOL)
        for src in range(_POOL):  # mix every word into every other
            dst = [d for d in range(_POOL) if d != src]
            pool[dst] = _mix(pool[dst], hashmix(pool[src], _POOL - 1))
        for word in words[_POOL:]:  # then each entropy word past the pool into every word
            pool = _mix(pool, hashmix(word, _POOL))
        state = _hasher(*_HASH_OUT)(pool[np.arange(2 * n) % _POOL], 2 * n)  # low word first
        states[at] = np.ascontiguousarray(state.T, "<u4").view("<u8")
    return states


def compositions(seed: int, reps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composition draws of replications reps (see the module docstring):
    a uniform per replication, a (replication x COMPOSITION_FLAGS) array of
    adversary flags, and the scenario seeds."""
    # numpy's PCG64(SeedSequence) seeds from 4 words; a row is its raw words
    words = _seed_states((seed, _COMP_TAG, reps), 4).tolist()
    bit_generator = np.random.PCG64(0)
    raw = np.empty((len(words), 2 + COMPOSITION_FLAGS), np.uint64)
    for r, (s0, s1, i0, i1) in enumerate(words):
        inc = ((i0 << 64 | i1) << 1 | 1) & (2**128 - 1)
        state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & (2**128 - 1)
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        raw[r] = bit_generator.random_raw(2 + COMPOSITION_FLAGS)
    # random() takes a word's top 53 bits; integers(0, 2**63) its top 63 (Lemire's, no rejection)
    uniforms = (raw[:, :-1] >> 11) * 2.0**-53
    return uniforms[:, 0], uniforms[:, 1:], (raw[:, -1] >> 1).astype(np.int64)


def own_profiles(agents) -> tuple[tuple[ReporterProfile, ...], list[int]]:
    """A roster as configured: its distinct profiles, in order of first use,
    and each agent's index into them."""
    index = {}
    picks = [index.setdefault(a.profile, len(index)) for a in agents]
    return tuple(index), picks


class SlotTable:
    """What every session simulated from one roster of slots shares: the
    slots' agents and their events, the profiles a roster gives them, the
    session, the aggregation params, and the array layout that simulate()
    fills.

    Slot j is agents[j], a Bystander or a Consumer, whatever profile a roster
    gives it.  Its events sit once on the event axis, at spans[j]; slot_of
    maps each event to its slot.  It hands in one report, report[j]: (class,
    reporter id, fields after the trust value).
    """

    def __init__(self, agents, profiles, session: ServiceSession, query_time: float,
                 params: AggregationParams):
        self.agents = tuple(agents)
        self.profiles = tuple(profiles)
        self.session = session
        self.params = params
        self.consumer = [isinstance(a, Consumer) for a in self.agents]
        self.times = [_sample_times(a.usage, query_time) if c
                      else _probe_times(a.schedule, query_time)
                      for a, c in zip(self.agents, self.consumer)]
        self.reporting = [j for j, times in enumerate(self.times) if times]
        self.offsets = [t for times in self.times for t in times]  # the event axis
        counts = [len(times) for times in self.times]
        stops = np.cumsum(counts, dtype=np.intp).tolist()
        self.spans = [(stop - count, stop) for stop, count in zip(stops, counts)]
        self.slot_of = np.repeat(np.arange(len(self.agents), dtype=np.intp), counts)

        # each slot's (truth, own) stream counters, keyed by its index within
        # its group, and its report
        self.counters, self.report = [], []
        seen = {_BYSTANDER_GROUP: 0, _CONSUMER_GROUP: 0}  # the slots so far in each group
        for agent, c, times in zip(self.agents, self.consumer, self.times):
            group = _CONSUMER_GROUP if c else _BYSTANDER_GROUP
            self.counters.append(([0, _TRUTH, seen[group], group], [0, _OWN, seen[group], group]))
            seen[group] += 1
            if c:
                coverage = min(query_time, agent.usage.usage_end) - agent.usage.usage_start
                self.report.append((AccumulatedReport, agent.id, (coverage, len(times))))
            else:
                self.report.append((InstantaneousReport, agent.id, times[-1:]))

        # the EWMA's steps: steps[e - 1] holds the event start + e of every
        # consumer slot with more than e events
        spans = [span for span, c in zip(self.spans, self.consumer) if c]
        longest = max((stop - start for start, stop in spans), default=0)
        self.steps = [np.array([start + e for start, stop in spans if stop - start > e], np.intp)
                      for e in range(1, longest)]
        # each reporting slot's last event
        self.last = np.array([self.spans[j][1] - 1 for j in self.reporting], np.intp)

    @property
    def cells(self) -> int:
        """The values one replication puts in simulate()'s truth: event x attribute."""
        return len(self.offsets) * len(self.session.promise)

    def reports(self, values) -> tuple[tuple[AccumulatedReport, ...],
                                       tuple[InstantaneousReport, ...]]:
        """A roster's (consumer_reports, bystander_reports), each in slot
        order: values[k] is the trust value of the k-th reporting slot, and
        the reporting slots past the end of values hand in none."""
        groups = ([], [])  # bystanders, consumers
        for j, value in zip(self.reporting, values):
            cls, reporter_id, fields = self.report[j]
            groups[self.consumer[j]].append(cls(reporter_id, value, *fields))
        return tuple(groups[1]), tuple(groups[0])

    def _draws(self, seeds, own) -> tuple[np.ndarray, np.ndarray]:
        """The truth draws (replication x event x attribute) of every slot, and
        the own draws (replication x event) of each slot j of replication r
        where own[r][j] is true, zeros elsewhere."""
        noise = np.empty((len(seeds), len(self.offsets), len(self.session.promise)))
        drawn = np.zeros(noise.shape[:2])
        keys = _seed_states([seeds], 2).tolist()
        # numpy.random is loaded here, when a stream is first needed, not
        # when the package is imported; each stream sets the key and counter
        # of one Philox state
        rng = np.random.Generator(np.random.Philox(0))
        bit_generator, normals, uniforms = rng.bit_generator, rng.standard_normal, rng.random
        stream = {}
        state = {"bit_generator": "Philox", "state": stream, "buffer": [0] * 4, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for j in self.reporting:
            start, stop = self.spans[j]
            truth, reports = self.counters[j]
            noise_j, drawn_j = noise[:, start:stop], drawn[:, start:stop]
            for r, key in enumerate(keys):
                stream["key"], stream["counter"] = key, truth
                bit_generator.state = state
                normals(out=noise_j[r])
                if own[r][j]:
                    stream["counter"] = reports
                    bit_generator.state = state
                    uniforms(out=drawn_j[r])
        return noise, drawn

    def simulate(self, provider: ProviderProfile, gaps, seeds, picks) -> Block:
        """Simulate a block of replications of the table.

        Replication r runs with provider at honesty gap gaps[r] and scenario
        seed seeds[r], once per roster: picks[r][f][j] is the profile that
        roster f gives slot j, an index into profiles.
        """
        chosen = np.asarray(picks, np.intp)  # [r, f, slot] -> profile
        n, k = len(seeds), len(self.session.promise)
        # a slot draws its own stream where some roster gives it a random reporter
        random = np.array([p.draws_reports for p in self.profiles], bool)
        noise, own = self._draws(seeds, random[chosen].any(axis=1).tolist())

        promise = self.session.promise
        truth = sample_true_performance(provider, promise.schema, gaps, self.offsets, noise)
        true_trust = instantaneous_trust(truth.reshape(-1, k), promise).reshape(n, 1, -1)
        ground_truth = instantaneous_trust(noise_free_performance(provider, promise.schema, gaps),
                                           promise).tolist()
        profile = chosen[..., self.slot_of]  # [r, f, event] -> profile
        true_trust = np.broadcast_to(true_trust, profile.shape)
        own = np.broadcast_to(own[:, np.newaxis], profile.shape)
        reported = np.empty(profile.shape)
        for p, reporter in enumerate(self.profiles):
            at = profile == p
            reported[at] = observe(reporter, true_trust[at],
                                   own[at] if reporter.draws_reports else None)
        # the first sample seeds each consumer's EWMA, later ones fold into it;
        # a bystander's accumulated values are its reports
        accumulated = reported.copy()
        for at in self.steps:
            accumulated[..., at] = update_accumulated(accumulated[..., at - 1],
                                                      reported[..., at], self.params.alpha)
        return Block(self, ground_truth, reported, accumulated)


class Block:
    """A simulated block: each replication's ground-truth trust, each
    (replication, roster)'s reports, and its trace on request.  Its arrays
    hold one row per session: (replication x roster x event) and, in final,
    each reporting slot's last report or EWMA value."""

    def __init__(self, table: SlotTable, ground_truth, reported, accumulated):
        self.table = table
        self.ground_truth = ground_truth
        self.reported = reported
        self.accumulated = accumulated
        self.final = accumulated[..., table.last]  # [r, f, reporting slot]

    def trace(self, r: int, f: int) -> SessionTrace:
        """Replication r's session under roster f, with each agent's series,
        bystanders first, and the aggregate of its reports."""
        table = self.table
        consumer_reports, bystander_reports = table.reports(self.final[r, f].tolist())
        series = []
        for j in sorted(range(len(table.agents)), key=table.consumer.__getitem__):
            start, stop = table.spans[j]
            series.append(AgentSeries(
                table.agents[j].id, table.times[j], tuple(self.reported[r, f, start:stop].tolist()),
                tuple(self.accumulated[r, f, start:stop].tolist()) if table.consumer[j] else None))
        return SessionTrace(
            final_breakdown=aggregate(consumer_reports, bystander_reports, table.params),
            consumer_reports=consumer_reports,
            bystander_reports=bystander_reports,
            series=tuple(series),
            ground_truth_trust=self.ground_truth[r],
        )


def run_scenario(scenario: Scenario) -> SessionTrace:
    """Simulate one session up to query_time and aggregate what was reported:
    a block of one replication and one roster."""
    agents = scenario.bystanders + scenario.consumers
    profiles, picks = own_profiles(agents)
    table = SlotTable(agents, profiles, scenario.session, scenario.query_time, scenario.params)
    gaps = [scenario.provider.honesty_gap]
    return table.simulate(scenario.provider, gaps, [scenario.seed], [[picks]]).trace(0, 0)
