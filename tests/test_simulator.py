"""Event generation, report collection, and reproducibility of session runs."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mlt.agents import (
    AttributeGenerator,
    ProbeSchedule,
    ProviderProfile,
    ReporterProfile,
    noise_free_performance,
)
from mlt import simulator
from mlt.config import load_scenario_file
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession
from mlt.simulator import (
    ACCUMULATE,
    PROBE,
    SAMPLE,
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    Slot,
    SlotTable,
    run_scenario,
    scenario_violations,
)
from mlt.trust import NoEvidenceError, instantaneous_trust, update_accumulated

from conftest import SCENARIO_DIR, make_provider, make_scenario, run_scenario_oracle


def noisy_scenario(session, promise, honest, seed=99):
    """Jittered provider with one bystander and one consumer."""
    provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
    return make_scenario(
        session,
        provider,
        bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 1200.0, 3))],
        consumers=[Consumer("c00", honest, ConsumerUsage(0.0, 3600.0, 600.0))],
        seed=seed,
    )


class TestScenarioValidation:
    def test_query_time_must_lie_in_session(self, session, promise):
        provider = make_provider(promise)
        for bad in (0.0, -5.0, 7200.1):
            with pytest.raises(ValueError, match="query_time"):
                make_scenario(session, provider, query_time=bad)

    def test_seed_must_be_non_negative_int(self, session, promise):
        provider = make_provider(promise)
        for bad in (-1, 1.5, "7"):
            with pytest.raises(ValueError, match="seed"):
                make_scenario(session, provider, seed=bad)

    def test_promise_mismatch_rejected(self, session, promise, schema):
        from mlt.session import PerformanceVector

        other = PerformanceVector((5.0, 90.0, 80.0), schema)
        provider = make_provider(other)
        with pytest.raises(ValueError, match="promise"):
            make_scenario(session, provider)

    def test_duplicate_reporter_ids_rejected(self, session, promise, honest):
        provider = make_provider(promise)
        dupes = [
            Bystander("r0", honest, ProbeSchedule(600.0, 600.0, 1)),
        ]
        consumers = [Consumer("r0", honest, ConsumerUsage(0.0, 600.0, 300.0))]
        with pytest.raises(ValueError, match="unique"):
            make_scenario(session, provider, bystanders=dupes, consumers=consumers)

    def test_overflowing_schedule_names_the_bystander(self, session, promise, honest):
        provider = make_provider(promise)
        late = Bystander("b-late", honest, ProbeSchedule(6000.0, 1200.0, 3))
        with pytest.raises(ValueError, match="b-late"):
            make_scenario(session, provider, bystanders=[late])

    def test_overflowing_usage_names_the_consumer(self, session, promise, honest):
        provider = make_provider(promise)
        long = Consumer("c-long", honest, ConsumerUsage(0.0, 9000.0, 600.0))
        with pytest.raises(ValueError, match="c-long"):
            make_scenario(session, provider, consumers=[long])

    def test_schedules_and_windows_must_end_inside_the_session(self, session, honest):
        short = replace(session, end_time=3600.0)

        def violations(schedule, usage):
            return scenario_violations(short, None, [Bystander("b", honest, schedule)],
                                       [Consumer("c", honest, usage)], 1800.0, 0)

        # ending exactly at the session end fits
        assert violations(ProbeSchedule(2400.0, 600.0, 3), ConsumerUsage(0.0, 3600.0, 600.0)) == []
        assert violations(ProbeSchedule(3000.0, 900.0, 2), ConsumerUsage(0.0, 3700.0, 600.0)) == [
            "bystander 'b': last probe at offset 3900 falls outside the session (duration 3600)",
            "consumer 'c': usage_end 3700 falls outside the session (duration 3600)",
        ]

    def test_usage_window_field_checks(self):
        with pytest.raises(ValueError):
            ConsumerUsage(-1.0, 600.0, 300.0)
        with pytest.raises(ValueError):
            ConsumerUsage(600.0, 600.0, 300.0)
        with pytest.raises(ValueError):
            ConsumerUsage(0.0, 600.0, 0.0)


class TestNoiseFreeRun:
    def test_single_honest_bystander_recovers_truth_exactly(self, session, promise, honest):
        # no jitter and no drift: the probe sees the noise-free mean, so the
        # lone report, the aggregate, and the ground truth are the same float
        provider = make_provider(promise, honesty_gap=0.3)
        scenario = make_scenario(
            session,
            provider,
            bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 1200.0, 3))],
        )
        trace = run_scenario(scenario)
        assert trace.ground_truth_trust == pytest.approx(0.7)
        assert len(trace.bystander_reports) == 1
        report = trace.bystander_reports[0]
        assert report.trust == trace.ground_truth_trust
        assert report.timestamp_offset == 3000.0
        assert trace.final_breakdown.overall == trace.ground_truth_trust

    def test_unanimous_roster_agrees_with_truth(self, tiny_scenario):
        trace = run_scenario(tiny_scenario)
        assert trace.ground_truth_trust == pytest.approx(0.8)
        # EWMA folding of a constant accrues float dust but nothing more
        assert trace.final_breakdown.overall == pytest.approx(
            trace.ground_truth_trust, abs=1e-12
        )

    def test_ground_truth_ignores_jitter_and_query_time(self, session, promise, honest):
        s1 = noisy_scenario(session, promise, honest, seed=1)
        s2 = replace(noisy_scenario(session, promise, honest, seed=2), query_time=900.0)
        assert run_scenario(s1).ground_truth_trust == pytest.approx(0.8)
        assert run_scenario(s2).ground_truth_trust == pytest.approx(0.8)


class TestEventStream:
    def test_probe_and_sample_offsets(self, tiny_scenario):
        trace = run_scenario(tiny_scenario)
        probes = [e.offset for e in trace.events if e.kind == PROBE]
        samples = [e.offset for e in trace.events if e.kind == SAMPLE]
        assert probes == [600.0, 1800.0, 3000.0]
        assert samples == [0.0 + 600.0 * m for m in range(7)]

    def test_events_sorted_with_sample_before_accumulate(self, session, promise, honest):
        trace = run_scenario(noisy_scenario(session, promise, honest))
        keys = [(e.offset, e.reporter_id) for e in trace.events]
        assert keys == sorted(keys)
        for first, second in zip(trace.events, trace.events[1:]):
            if (first.offset, first.reporter_id) == (second.offset, second.reporter_id):
                assert (first.kind, second.kind) == (SAMPLE, ACCUMULATE)

    def test_accumulate_events_replay_from_samples(self, session, promise, honest):
        scenario = noisy_scenario(session, promise, honest)
        trace = run_scenario(scenario)
        samples = [e.value for e in trace.events if e.kind == SAMPLE and e.reporter_id == "c00"]
        folded = [e.value for e in trace.events if e.kind == ACCUMULATE and e.reporter_id == "c00"]
        acc = samples[0]
        assert folded[0] == acc
        for value, expected in zip(samples[1:], folded[1:]):
            acc = update_accumulated(acc, value, scenario.params.alpha)
            assert acc == expected
        assert trace.consumer_reports[0].trust == acc

    def test_shrinking_query_time_only_truncates(self, session, promise, honest):
        full = noisy_scenario(session, promise, honest)
        short = replace(full, query_time=1800.0)
        full_events = run_scenario(full).events
        short_events = run_scenario(short).events
        prefix = tuple(e for e in full_events if e.offset <= 1800.0 + 1e-9)
        assert short_events == prefix

    def test_rerun_is_bit_identical(self, session, promise, honest):
        scenario = noisy_scenario(session, promise, honest)
        assert run_scenario(scenario) == run_scenario(scenario)

    def test_adding_a_bystander_leaves_consumers_unchanged(self, session, promise, honest):
        noisy = ReporterProfile("malicious", malicious_strategy="random")
        scenario = replace(
            noisy_scenario(session, promise, honest),
            consumers=(
                Consumer("c00", honest, ConsumerUsage(0.0, 3600.0, 600.0)),
                Consumer("c01", noisy, ConsumerUsage(300.0, 3900.0, 600.0)),
            ),
        )
        grown = replace(
            scenario,
            bystanders=scenario.bystanders + (Bystander("b01", honest, ProbeSchedule(900.0, 1200.0, 3)),),
        )
        before, after = run_scenario(scenario), run_scenario(grown)
        assert after.consumer_reports == before.consumer_reports
        assert len(after.consumer_reports) == 2

        def consumer_events(trace):
            return [e for e in trace.events if e.reporter_id.startswith("c")]

        assert consumer_events(after) == consumer_events(before)

    def test_different_seeds_differ(self, session, promise, honest):
        a = run_scenario(noisy_scenario(session, promise, honest, seed=1))
        b = run_scenario(noisy_scenario(session, promise, honest, seed=2))
        assert a.events != b.events


class TestReportCollection:
    def test_bystander_report_is_latest_probe_at_query_time(self, session, promise, honest):
        scenario = replace(noisy_scenario(session, promise, honest), query_time=2000.0)
        trace = run_scenario(scenario)
        probes = [e for e in trace.events if e.kind == PROBE]
        assert [e.offset for e in probes] == [600.0, 1800.0]
        report = trace.bystander_reports[0]
        assert (report.timestamp_offset, report.trust) == (1800.0, probes[-1].value)

    def test_consumer_coverage_clipped_at_query_time(self, session, promise, honest):
        provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
        consumer = Consumer("c00", honest, ConsumerUsage(300.0, 3900.0, 300.0))
        scenario = make_scenario(
            session, provider, consumers=[consumer], query_time=2000.0
        )
        report = run_scenario(scenario).consumer_reports[0]
        assert report.coverage_duration == 1700.0
        assert report.update_count == 6  # samples at 300 .. 1800

    def test_consumer_coverage_stops_at_usage_end(self, session, promise, honest):
        provider = make_provider(promise, honesty_gap=0.2, jitter_rel=0.1)
        consumer = Consumer("c00", honest, ConsumerUsage(300.0, 3900.0, 300.0))
        scenario = make_scenario(session, provider, consumers=[consumer])
        report = run_scenario(scenario).consumer_reports[0]
        assert report.coverage_duration == 3600.0
        assert report.update_count == 13

    def test_reporters_without_events_contribute_no_report(self, session, promise, honest):
        provider = make_provider(promise, honesty_gap=0.2)
        scenario = make_scenario(
            session,
            provider,
            bystanders=[Bystander("b00", honest, ProbeSchedule(600.0, 600.0, 1))],
            consumers=[Consumer("c00", honest, ConsumerUsage(900.0, 1800.0, 300.0))],
            query_time=900.0,  # equals usage_start, so the consumer never samples
        )
        trace = run_scenario(scenario)
        assert trace.consumer_reports == ()
        assert [r.reporter_id for r in trace.bystander_reports] == ["b00"]

    def test_empty_roster_raises(self, session, promise):
        provider = make_provider(promise)
        scenario = make_scenario(session, provider)
        with pytest.raises(NoEvidenceError):
            run_scenario(scenario)


def _grown(scenario):
    """The scenario with a second bystander and a second consumer."""
    honest = ReporterProfile("honest")
    return replace(
        scenario,
        bystanders=scenario.bystanders + (Bystander("b01", honest, ProbeSchedule(900.0, 1200.0, 3)),),
        consumers=scenario.consumers + (Consumer("c01", honest, ConsumerUsage(300.0, 3900.0, 600.0)),),
    )


def _random_reporters(scenario):
    """The scenario with every reporter malicious (random) in its own slot."""
    noisy = ReporterProfile("malicious", malicious_strategy="random")
    return replace(
        scenario,
        bystanders=tuple(replace(b, profile=noisy) for b in scenario.bystanders),
        consumers=tuple(replace(c, profile=noisy) for c in scenario.consumers),
    )


def _shorter(scenario):
    return replace(scenario, query_time=1800.0)


class TestBlocks:
    """A block simulates several replications of one slot table at once, each
    under several rosters; every (replication, roster) must equal the same
    session run alone through run_scenario."""

    @pytest.mark.parametrize("change", [_grown, _shorter, _random_reporters],
                             ids=["roster-size", "shorter-query-time", "honest-vs-random"])
    def test_a_session_in_a_block_equals_it_alone(self, session, promise, honest, change):
        scenario = change(noisy_scenario(session, promise, honest, seed=314))
        noisy = ReporterProfile("malicious", malicious_strategy="random")
        # each slot holds its agent and the agent turned random; roster 0 keeps
        # the scenario's profiles, roster 1 turns the first slot of each group random
        slots = [Slot(i, (a, replace(a, profile=noisy)))
                 for group in (scenario.bystanders, scenario.consumers)
                 for i, a in enumerate(group)]
        firsts = [int(slot.index == 0) for slot in slots]
        seeds = [314, 2**32 + 5, 0, 7, 2**63 - 1]
        providers = [replace(scenario.provider, honesty_gap=gap) for gap in (0.2, 0.0, 0.5, 0.9, 0.35)]
        table = SlotTable(slots, scenario.session, scenario.query_time, scenario.params)
        block = table.simulate(providers, seeds, [[[0] * len(slots), firsts]] * len(seeds))
        for r in (0, 2, 4):  # first, middle and last position
            for f, picks in enumerate(([0] * len(slots), firsts)):
                roster = [slot.agents[c] for slot, c in zip(slots, picks)]
                alone = run_scenario(replace(
                    scenario, provider=providers[r], seed=seeds[r],
                    bystanders=tuple(a for a in roster if isinstance(a, Bystander)),
                    consumers=tuple(a for a in roster if isinstance(a, Consumer))))
                got = block.trace(r, f)
                assert got == alone
                assert got.events == alone.events
                assert block.reports(r)[f] == (alone.consumer_reports, alone.bystander_reports)
                assert block.ground_truth[r] == alone.ground_truth_trust == instantaneous_trust(
                    noise_free_performance(providers[r]), scenario.session.promise)


class TestStreamSeeding:
    """Streams are replayed, not built: their seeded states must be numpy's own."""

    def test_agent_streams_match_numpy(self):
        rng = np.random.default_rng(20261018)
        special = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5, 2**100, 2**130 + 3]
        seeds = special + rng.integers(0, 2**63, 300).tolist()
        keys = [(0, 0), (0, 63), (1, 0), (1, 63)]
        keys += [(int(g), int(s)) for g, s in zip(rng.integers(0, 2, 6), rng.integers(0, 64, 6))]
        words = simulator._stream_words([simulator._uint32_words(seed) for seed in seeds], keys)
        assert len(seeds) * len(keys) >= 3000
        for seed, row in zip(seeds, words.tolist()):
            for key, key_words in zip(keys, row):
                expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state
                assert simulator._pcg64_state(key_words) == expected, (seed, key)

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1, 2**32, 2**63 - 1, 2**70])
    def test_composition_streams_match_numpy(self, seed):
        reps = [0, 1, 49, 50, 2**31]
        for rep, rng in zip(reps, simulator.composition_streams(seed, reps)):
            expected = np.random.default_rng(np.random.SeedSequence((seed, simulator._COMP_TAG, rep)))
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.random(3).tolist() == expected.random(3).tolist()

    def test_importing_the_package_does_not_load_numpy_random(self):
        # the setup that perfbench times, and the --jobs 2 parent's footprint
        code = ("import sys; import mlt; from mlt.config import load_scenario_file; "
                f"load_scenario_file({str(SCENARIO_DIR / 'wifi_cafe.json')!r}); "
                "print('numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestSamplingDistribution:
    def test_honest_probe_mean_matches_censored_normal(self, schema):
        # single attribute, promise 100, true mean 80, jitter 15: the reported
        # trust is min(1, X) with X ~ N(0.8, 0.15) up to a negligible clamp at
        # zero, and E[min(1, X)] has a closed form via the normal cdf/pdf
        from mlt.agents import AttributeGenerator, ProviderProfile
        from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession

        one = AttributeSchema((AttributeSpec("speed", unit="mbps"),))
        promise = PerformanceVector((100.0,), one)
        provider = ProviderProfile(
            promise, (AttributeGenerator(80.0, jitter_stddev=15.0),)
        )
        session = ServiceSession(
            id="s-dist",
            location=(48.2, 16.37),
            start_time=0.0,
            end_time=7200.0,
            provider_id="prov",
            service_type="wifi-hotspot",
            promise=promise,
            schema=one,
        )
        honest = ReporterProfile("honest")
        bystanders = [
            Bystander(f"b{i:02d}", honest, ProbeSchedule(600.0, 600.0, 1))
            for i in range(8)
        ]
        scenario = make_scenario(session, provider, bystanders=bystanders, seed=2024)

        values = [
            r.trust
            for i in range(500)
            for r in run_scenario(replace(scenario, seed=2024 + i)).bystander_reports
        ]
        assert len(values) == 4000

        mu, s = 0.8, 0.15
        d = (1.0 - mu) / s
        cdf = 0.5 * (1.0 + math.erf(d / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
        expected = mu + (1.0 - mu) * (1.0 - cdf) - s * pdf

        assert np.mean(values) == pytest.approx(expected, abs=0.01)


def assert_matches_the_per_sample_oracle(scenario):
    try:
        expected = run_scenario_oracle(scenario)
    except NoEvidenceError:
        with pytest.raises(NoEvidenceError):
            run_scenario(scenario)
        return
    got = run_scenario(scenario)
    assert got.consumer_reports == expected.consumer_reports
    assert got.bystander_reports == expected.bystander_reports
    assert got.final_breakdown == expected.final_breakdown
    assert got.ground_truth_trust == expected.ground_truth_trust
    assert got.events == expected.events
    assert all(type(e.value) is float for e in got.events)


REPORTERS = (
    ReporterProfile("honest"),
    ReporterProfile("biased", bias_offset=0.25),
    ReporterProfile("biased", bias_offset=-0.4),
    ReporterProfile("malicious", malicious_strategy="inverted"),
    ReporterProfile("malicious", malicious_strategy="random"),
)


@st.composite
def mixed_scenarios(draw):
    """Ordinal and continuous attributes, and rosters mixing every reporter kind."""
    specs, promised, gens = [], [], []
    for a in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            levels = tuple(f"L{i}" for i in range(draw(st.integers(2, 5))))
            spec = AttributeSpec(f"a{a}", kind="ordinal", ordinal_levels=levels,
                                 ordinal_base=draw(st.integers(0, 2)))
            lo, hi = spec.level_range
            promised.append(float(draw(st.integers(max(lo, 1), hi))))
            gens.append(AttributeGenerator(draw(st.floats(0.0, hi + 1.0)),
                                           draw(st.floats(0.0, 1.5)), draw(st.floats(-1.0, 1.0))))
        else:
            spec = AttributeSpec(f"a{a}")
            promised.append(draw(st.floats(0.5, 100.0)))
            gens.append(AttributeGenerator(draw(st.floats(0.0, 150.0)),
                                           draw(st.floats(0.0, 20.0)), draw(st.floats(-20.0, 20.0))))
        specs.append(spec)
    schema = AttributeSchema(tuple(specs))
    promise = PerformanceVector(tuple(promised), schema)
    session = ServiceSession("s", (0.0, 0.0), 0.0, 7200.0, "p", "t", promise, schema)
    provider = ProviderProfile(promise, tuple(gens), draw(st.floats(0.0, 1.0)))
    bystanders = [
        Bystander(f"b{i}", draw(st.sampled_from(REPORTERS)),
                  ProbeSchedule(draw(st.floats(1.0, 2000.0)), draw(st.floats(1.0, 1000.0)),
                                draw(st.integers(1, 6))))
        for i in range(draw(st.integers(0, 4)))
    ]
    consumers = []
    for j in range(draw(st.integers(0, 4))):
        start = draw(st.floats(0.0, 3000.0))
        usage = ConsumerUsage(start, start + draw(st.floats(1.0, 4000.0)), draw(st.floats(50.0, 2000.0)))
        consumers.append(Consumer(f"c{j}", draw(st.sampled_from(REPORTERS)), usage))
    assume(bystanders or consumers)
    return make_scenario(session, provider, bystanders, consumers,
                         query_time=draw(st.floats(1.0, 7200.0)),
                         seed=draw(st.integers(0, 2**63 - 1)))


class TestBatchedEngine:
    """run_scenario batches each agent's events; the per-sample loop in
    conftest is the oracle it must match exactly."""

    @pytest.mark.parametrize("seed", [None, 0, 7, 2**63 - 1])
    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_shipped_scenarios_match_the_oracle(self, name, seed):
        scenario, _ = load_scenario_file(SCENARIO_DIR / name)
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        assert_matches_the_per_sample_oracle(scenario)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mixed_scenarios())
    def test_generated_scenarios_match_the_oracle(self, scenario):
        assert_matches_the_per_sample_oracle(scenario)
