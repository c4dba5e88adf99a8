"""Event-driven session simulator.

A scenario pins down one service session, the provider's true behaviour, a
roster of bystanders and consumers, aggregation parameters, the query time,
and a master seed.  Running it executes every probe and usage-sampling event
up to the query time, then aggregates the collected reports.

Random streams are laid out here and nowhere else.  Every agent owns one
private stream, keyed by its identity within the scenario: the PCG64 stream
seeded from SeedSequence(seed, spawn_key=(group, slot)), where group is 0 for
bystanders and 1 for consumers and slot is the agent's index within its
group.  The stream serves both the provider truth the agent sees and the
agent's own reporting draws, in chronological order: for each event, one
standard normal per attribute (the truth's jitter once scaled by
jitter_stddev, the same value and stream position as a normal(0,
jitter_stddev) draw), then, for a reporter that draws its reports (malicious
random), one uniform on [0, 1).  Agents therefore never share state, results
are bit-reproducible for a fixed seed, and shrinking the query time only
ever removes events, it never changes the ones that remain.  Because a
stream depends on (group, slot) and not on the roster's size, adding or
removing agents at the end of either group leaves every other agent's events
and reports unchanged.

A sweep draws each replication's provider quality, adversary flags and
scenario seed from its composition stream, the PCG64 stream seeded from
SeedSequence((seed, _COMP_TAG, rep)) for the base scenario's seed and
replication rep, kept apart from every agent stream by its entropy tuple and
independent of the sweep point.

No stream is built as SeedSequence and PCG64 objects.  SeedSequence hashes
its entropy words with uint32 arithmetic on a fixed schedule of constants,
and PCG64 seeds itself from the hash with two 128-bit steps.  _stream_words
replays the hash for a whole block of keys at once in numpy, _pcg64_state
the steps in Python integers, and a stream is that seeded state set on a
Generator.  The draws are the ones the objects would give.

One engine runs every session.  A SlotTable fixes a roster's slots: each
slot's stream key, its events up to the query time, and its candidate
agents, which share an id and events and differ only in profile.
SlotTable.simulate runs a block of replications of the table at once, each
with its own provider, scenario seed and rosters (a candidate per slot):

- Draws.  Each candidate that one of a replication's rosters picks draws
  once, from its slot's stream at the seeded state, and every roster that
  picks it reads the same draws.  A candidate that draws nothing of its own
  takes all its truth draws as one (events x attributes) block, in C order,
  the same sequence as drawing event by event; a random reporter steps one
  event at a time to keep the order above.
- Arrays.  Truth, the finiteness check, clamping and instantaneous trust
  run over (replication x event); observe() runs once per distinct profile;
  the EWMA runs one update_accumulated call per event step over every
  consumer candidate.

The ground truth is each replication's provider truth with no jitter and,
at offset 0, no drift, scored once per replication.  run_scenario is a block
of one replication and one roster.  A SessionTrace keeps each agent's series
and builds its events only when they are read.
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
    observe,
    sample_true_performance,
)
# Not called here: perfbench/tracing.py wraps simulator.noise_free_performance
# as its agents.noise_free_performance layer.
from .agents import noise_free_performance  # noqa: F401
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
    final_breakdown is their aggregate under the scenario's params.  series
    holds every agent's events, bystanders first, in roster order.
    ground_truth_trust scores the provider's noise-free mean performance
    against its promise.
    """

    final_breakdown: TrustBreakdown
    consumer_reports: tuple[AccumulatedReport, ...]
    bystander_reports: tuple[InstantaneousReport, ...]
    series: tuple[AgentSeries, ...]
    ground_truth_trust: float

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


def _event_times(agent: Bystander | Consumer, limit: float) -> tuple[float, ...]:
    """An agent's event offsets up to limit.  An agent is immutable, so the
    offsets at the last limit asked for are kept on it, the way
    cached_property keeps a value, and a roster reused across sessions
    computes them once."""
    memo = agent.__dict__.get("_event_times")
    if memo is None or memo[0] != limit:
        if isinstance(agent, Bystander):
            memo = (limit, _probe_times(agent.schedule, limit))
        else:
            memo = (limit, _sample_times(agent.usage, limit))
        agent.__dict__["_event_times"] = memo
    return memo[1]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 multiplier
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875  # mixing the entropy into the pool
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED  # generating words from the pool
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """A non-negative integer's 32-bit words, least significant first, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(value: int, mult: int):
    """SeedSequence's running hash constant: (before, after) each step's multiply."""
    while True:
        after = value * mult & _MASK32
        yield value, after
        value = after


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(...).generate_state(4, np.uint64) for many keys at once.

    entropy holds the keys' assembled entropy words in order, each a uint32
    array over the keys (the arrays broadcast), padded with zero words to the
    pool size as SeedSequence pads them.  The result has the broadcast shape
    plus a last axis of 4 words.  uint32 arrays wrap, as the C code does.
    """
    hashes = _hash_constants(_HASH_INIT_A, _HASH_MULT_A)

    def hashmix(value):
        xor, mult = next(hashes)
        value = (value ^ xor) * mult
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = np.empty(np.broadcast_shapes(*(p.shape for p in pool)) + (8,), np.uint32)
    for i, (xor, mult) in zip(range(8), _hash_constants(_HASH_INIT_B, _HASH_MULT_B)):
        value = (pool[i % _POOL_SIZE] ^ xor) * mult
        state[..., i] = value ^ (value >> _XSHIFT)
    return state.view(np.uint64)


def _pcg64_state(words: list[int]) -> dict:
    """The state of PCG64 seeded with these 4 words: its srandom(initstate, initseq)."""
    s_hi, s_lo, i_hi, i_lo = words
    inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
    state = ((((s_hi << 64) | s_lo) + inc) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _stream_words(rows: list[list[int]], spawn_keys=None) -> np.ndarray:
    """The 4 words that seed PCG64 from SeedSequence(row), for each row of
    entropy words, or, given spawn keys, from SeedSequence(row, spawn_key=key)
    for each row and key: an array of shape (rows, [keys,] 4)."""
    shape = (len(rows),) if spawn_keys is None else (len(rows), len(spawn_keys))
    words = np.empty(shape + (4,), np.uint64)
    if spawn_keys is not None and not spawn_keys:
        return words
    tail = [] if spawn_keys is None else [np.array(word, np.uint32) for word in zip(*spawn_keys)]
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    for length, at in by_length.items():
        head = [np.array([rows[i][w] for i in at], np.uint32) for w in range(length)]
        head += [np.zeros(len(at), np.uint32)] * (_POOL_SIZE - length)
        if tail:
            head = [word[:, np.newaxis] for word in head]
        words[at] = _seed_words(head + tail)
    return words


def _generator() -> np.random.Generator:
    """A Generator to set seeded stream states on.  numpy.random is loaded
    here, when a stream is first needed, not when the package is imported."""
    return np.random.Generator(np.random.PCG64(0))


def composition_streams(seed: int, reps):
    """Each replication's composition stream, in turn (see the module docstring).

    The streams are one Generator set to each stream's seeded state in turn,
    so take a stream's draws before asking for the next.
    """
    head = _uint32_words(seed) + [_COMP_TAG]
    rng = _generator()
    for words in _stream_words([head + _uint32_words(rep) for rep in reps]).tolist():
        rng.bit_generator.state = _pcg64_state(words)
        yield rng


class Slot(NamedTuple):
    """One roster position: its index within its group and its candidate agents.

    The candidates are all bystanders or all consumers, share an id and a
    schedule or usage window, and differ only in profile; a roster picks one
    of them.  The group and the index key the slot's stream.
    """

    index: int
    agents: tuple


class SlotTable:
    """What every session simulated from one roster of slots shares: the
    slots and their events, the session, the aggregation params, and the
    array layout that simulate() fills.

    A column is one candidate of one slot: its span of the event axis (the
    slot's events), the agent, and the report it hands in as (class,
    reporter id, fields after the trust value).
    """

    def __init__(self, slots, session: ServiceSession, query_time: float,
                 params: AggregationParams):
        self.slots = tuple(slots)
        self.session = session
        self.params = params
        self.consumer = [isinstance(s.agents[0], Consumer) for s in self.slots]
        self.keys = [(_CONSUMER_GROUP if c else _BYSTANDER_GROUP, s.index)
                     for s, c in zip(self.slots, self.consumer)]
        self.times = [_event_times(s.agents[0], query_time) for s in self.slots]
        self.reporting = [j for j, times in enumerate(self.times) if times]

        candidates = max((len(s.agents) for s in self.slots), default=0)
        self.column_of = np.zeros((len(self.slots), candidates), np.intp)  # [slot, candidate]
        self.columns = []  # (slot, start, stop, agent, report)
        self.offsets: list[float] = []  # the event axis
        observed: dict[ReporterProfile, list[int]] = {}  # each profile's events
        for j, (slot, times) in enumerate(zip(self.slots, self.times)):
            for c, agent in enumerate(slot.agents):
                self.column_of[j, c] = len(self.columns)
                start = len(self.offsets)
                self.offsets.extend(times)
                if self.consumer[j]:
                    usage = agent.usage
                    coverage = min(query_time, usage.usage_end) - usage.usage_start
                    report = (AccumulatedReport, agent.id, (coverage, len(times)))
                else:
                    report = (InstantaneousReport, agent.id, times[-1:])
                self.columns.append((j, start, len(self.offsets), agent, report))
                observed.setdefault(agent.profile, []).extend(range(start, len(self.offsets)))
        self.observed = {profile: np.array(at, np.intp) for profile, at in observed.items()}

        # each consumer column's events, padded with its last one, folded as one
        # array; and where each column's final value sits
        self.folded = [k for k, (j, start, stop, _, _) in enumerate(self.columns)
                       if self.consumer[j] and stop > start]
        self.instant = [k for k, (j, start, stop, _, _) in enumerate(self.columns)
                        if not self.consumer[j] and stop > start]
        spans = [self.columns[k][1:3] for k in self.folded]
        longest = max((stop - start for start, stop in spans), default=0)
        self.fold_at = np.array([[min(start + e, stop - 1) for e in range(longest)]
                                 for start, stop in spans], np.intp).reshape(len(spans), longest)
        self.fold_row = {column: row for row, column in enumerate(self.folded)}
        self.last_folded = np.array([stop - start - 1 for start, stop in spans], np.intp)
        self.last_instant = np.array([self.columns[k][2] - 1 for k in self.instant], np.intp)

    @property
    def cells(self) -> int:
        """The values one replication puts in simulate()'s largest arrays: the
        truth's (event x attribute) and the folded consumer events'."""
        return max(len(self.offsets) * len(self.session.promise), self.fold_at.size)

    def _draws(self, seeds, used) -> tuple[np.ndarray, np.ndarray]:
        """The truth draws (replication x event x attribute) and a random
        reporter's own draws (replication x event) of every used column."""
        noise = np.zeros((len(seeds), len(self.offsets), len(self.session.promise)))
        own = np.zeros(noise.shape[:2])
        words = _stream_words([_uint32_words(seed) for seed in seeds], self.keys)
        rng = _generator()
        bit_generator, normals, uniform = rng.bit_generator, rng.standard_normal, rng.random
        for r, column in zip(*(index.tolist() for index in np.nonzero(used))):
            j, start, stop, agent, _ = self.columns[column]
            if start == stop:
                continue
            bit_generator.state = _pcg64_state(words[r, j].tolist())
            if agent.profile.draws_reports:
                # one event at a time: the event's truth draws, then the report's
                truth_draws, own_draws = noise[r], own[r]
                for e in range(start, stop):
                    normals(out=truth_draws[e])
                    own_draws[e] = uniform()
            else:
                normals(out=noise[r, start:stop])
        return noise, own

    def simulate(self, providers, seeds, picks) -> Block:
        """Simulate a block of replications of the table.

        Replication r runs with providers[r] (profiles of one provider that
        differ only in honesty_gap) and scenario seed seeds[r], once per
        roster: picks[r][f][j] is the candidate that roster f puts in slot j.
        """
        picks = np.asarray(picks, np.intp)
        n, k = len(seeds), len(self.session.promise)
        # the columns that some roster of a replication picks draw; the others
        # keep zero noise and are never read, and their truth is not finite
        # only where the picked candidate's truth at the same events is not
        picked = self.column_of[np.arange(len(self.slots)), picks]  # [r, f, slot] -> column
        used = np.zeros((n, len(self.columns)), bool)
        used[np.arange(n)[:, np.newaxis], picked.reshape(n, -1)] = True
        noise, own = self._draws(seeds, used)

        promise = self.session.promise
        truth = sample_true_performance(providers, self.offsets, noise)
        true_trust = instantaneous_trust(truth.reshape(-1, k), promise).reshape(n, -1)
        # the noise-free truth: no jitter and, at offset 0, no drift
        noise_free = sample_true_performance(providers, [0.0], np.zeros((n, 1, k)))
        ground_truth = instantaneous_trust(noise_free.reshape(n, k), promise).tolist()
        reported = np.empty_like(true_trust)
        for profile, at in self.observed.items():
            reported[:, at] = observe(profile, true_trust[:, at],
                                      own[:, at] if profile.draws_reports else None)
        # the first sample seeds each consumer's EWMA, later ones fold into it
        folded = reported[:, self.fold_at]
        accumulated = np.empty_like(folded)
        if folded.size:
            accumulated[..., 0] = folded[..., 0]
            for e in range(1, folded.shape[-1]):
                accumulated[..., e] = update_accumulated(accumulated[..., e - 1], folded[..., e],
                                                         self.params.alpha)
        return Block(self, ground_truth, picked.tolist(), reported, accumulated)


class Block:
    """A simulated block: each replication's ground-truth trust, each
    (replication, roster)'s reports, and its trace on request."""

    def __init__(self, table: SlotTable, ground_truth, picked, reported, accumulated):
        self.table = table
        self.ground_truth = ground_truth
        self.picked = picked  # [r][f][slot] -> column
        self.reported = reported
        self.accumulated = accumulated
        # each column's final value: a bystander's last report, a consumer's EWMA
        final = np.empty((len(reported), len(table.columns)))
        final[:, table.instant] = reported[:, table.last_instant]
        final[:, table.folded] = accumulated[:, np.arange(len(table.folded)), table.last_folded]
        self.final = final.tolist()

    def reports(self, r: int) -> list[tuple[tuple[AccumulatedReport, ...],
                                            tuple[InstantaneousReport, ...]]]:
        """(consumer_reports, bystander_reports) of each of replication r's
        rosters, each in slot order; rosters that pick the same candidate
        share its report."""
        table, final = self.table, self.final[r]
        made: dict[int, AccumulatedReport | InstantaneousReport] = {}
        rosters = []
        for roster in self.picked[r]:
            groups = ([], [])  # bystanders, consumers
            for j in table.reporting:
                column = roster[j]
                report = made.get(column)
                if report is None:
                    cls, reporter_id, fields = table.columns[column][4]
                    report = made[column] = cls(reporter_id, final[column], *fields)
                groups[table.consumer[j]].append(report)
            rosters.append((tuple(groups[1]), tuple(groups[0])))
        return rosters

    def trace(self, r: int, f: int) -> SessionTrace:
        """Replication r's session under roster f, with each agent's series,
        bystanders first, and the aggregate of its reports."""
        table = self.table
        consumer_reports, bystander_reports = self.reports(r)[f]
        series = []
        for j in sorted(range(len(table.slots)), key=table.consumer.__getitem__):
            column = self.picked[r][f][j]
            _, start, stop, agent, _ = table.columns[column]
            accumulated = None
            if table.consumer[j]:
                accumulated = ()
                if stop > start:
                    accumulated = tuple(self.accumulated[r, table.fold_row[column],
                                                         :stop - start].tolist())
            series.append(AgentSeries(agent.id, table.times[j],
                                      tuple(self.reported[r, start:stop].tolist()), accumulated))
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
    slots = [Slot(i, (b,)) for i, b in enumerate(scenario.bystanders)]
    slots += [Slot(j, (c,)) for j, c in enumerate(scenario.consumers)]
    table = SlotTable(slots, scenario.session, scenario.query_time, scenario.params)
    return table.simulate((scenario.provider,), (scenario.seed,), [[[0] * len(slots)]]).trace(0, 0)
