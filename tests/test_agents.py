"""Provider sampling and reporter behaviour."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mlt.agents import (
    AttributeGenerator,
    ProbeSchedule,
    ProviderProfile,
    ReporterProfile,
    noise_free_performance,
    observe,
    sample_true_performance,
)
from mlt.session import AttributeSchema, AttributeSpec, PerformanceVector, ServiceSession
from mlt.simulator import Bystander, ConsumerUsage, run_scenario
from mlt.trust import instantaneous_trust

from conftest import make_provider, make_scenario, trace_events


def rng(seed=0):
    return np.random.default_rng(seed)


def noise(events, attributes, seed=0):
    return rng(seed).standard_normal((events, attributes))


def sample(provider, schema, offsets, draws):
    """The provider's own truth: the one row of a call with its own gap."""
    (rows,) = sample_true_performance(provider, schema, [provider.honesty_gap], offsets, draws)
    return rows


def session_between(start_time, end_time):
    schema = AttributeSchema((AttributeSpec("speed"),))
    return ServiceSession("s", (0.0, 0.0), start_time, end_time, "p", "t",
                          PerformanceVector((10.0,), schema))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(lambda x: AttributeGenerator(mean=x), "mean", id="mean"),
        pytest.param(lambda x: AttributeGenerator(10.0, jitter_stddev=x), "jitter_stddev",
                     id="jitter_stddev"),
        pytest.param(lambda x: AttributeGenerator(10.0, drift_per_hour=x), "drift_per_hour",
                     id="drift_per_hour"),
        pytest.param(lambda x: ProbeSchedule(x, 600.0, 2), "first_offset", id="first_offset"),
        pytest.param(lambda x: ProbeSchedule(600.0, x, 2), "interval", id="interval"),
        pytest.param(lambda x: ProbeSchedule(600.0, 600.0, x), "count", id="count"),
        pytest.param(lambda x: ConsumerUsage(x, 3600.0, 600.0), "usage_start", id="usage_start"),
        pytest.param(lambda x: ConsumerUsage(0.0, x, 600.0), "usage_end", id="usage_end"),
        pytest.param(lambda x: ConsumerUsage(0.0, 3600.0, x), "sample_interval",
                     id="sample_interval"),
        pytest.param(lambda x: session_between(x, 3600.0), "start_time", id="start_time"),
        pytest.param(lambda x: session_between(0.0, x), "end_time", id="end_time"),
    ],
)
def test_model_fields_reject_non_finite_numbers(make, field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(bad)


def test_probe_count_must_be_an_integer():
    for count in (2.5, True):
        with pytest.raises(ValueError, match="count must be an integer"):
            ProbeSchedule(600.0, 600.0, count)


class TestProfiles:
    def test_provider_generator_count_must_match(self, promise):
        provider = ProviderProfile((AttributeGenerator(1.0),))
        with pytest.raises(ValueError, match="^expected 3 attribute generators, got 1$"):
            sample_true_performance(provider, promise.schema, [0.0], [0.0], noise(1, 3))

    def test_honesty_gap_range(self, promise):
        with pytest.raises(ValueError, match="honesty_gap"):
            make_provider(promise, honesty_gap=1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="sneaky"),
            dict(kind="biased", bias_offset=1.5),
            dict(kind="biased", bias_offset=0.1, malicious_strategy="random"),
            dict(kind="malicious"),
            dict(kind="malicious", malicious_strategy="chaotic"),
            dict(kind="malicious", malicious_strategy="random", bias_offset=0.1),
            dict(kind="honest", bias_offset=0.2),
            dict(kind="honest", malicious_strategy="random"),
        ],
    )
    def test_reporter_field_combinations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReporterProfile(**kwargs)

    def test_probe_schedule_last_offset(self):
        assert ProbeSchedule(600.0, 1200.0, 4).last_offset == 4200.0

    def test_generator_rejects_negative(self):
        with pytest.raises(ValueError):
            AttributeGenerator(-1.0)
        with pytest.raises(ValueError):
            AttributeGenerator(1.0, jitter_stddev=-0.5)


class TestSampling:
    def test_noise_free_gap_scales_mean(self, promise):
        provider = make_provider(promise, honesty_gap=0.1)
        assert noise_free_performance(provider, promise.schema, [0.1]).tolist() == [[9.0, 81.0, 72.0]]

    def test_drift_accrues_per_hour(self, promise):
        # mean 10, gap 0.1, drift +0.5/h at one hour: 9.0 + 0.5 = 9.5
        gens = (
            AttributeGenerator(10.0, drift_per_hour=0.5),
            AttributeGenerator(90.0),
            AttributeGenerator(80.0),
        )
        provider = ProviderProfile(gens, honesty_gap=0.1)
        out = sample(provider, promise.schema, [3600.0], noise(1, 3))
        assert out[0, 0] == pytest.approx(9.5)

    def test_noise_free_ignores_drift(self, promise):
        gens = tuple(AttributeGenerator(p, drift_per_hour=-5.0) for p in promise.values)
        provider = ProviderProfile(gens)
        assert noise_free_performance(provider, promise.schema, [0.0]).tolist() == [list(promise.values)]

    def test_negative_latent_clamps_to_zero(self, promise):
        gens = (
            AttributeGenerator(1.0, drift_per_hour=-10.0),
            AttributeGenerator(90.0),
            AttributeGenerator(80.0),
        )
        provider = ProviderProfile(gens)
        out = sample(provider, promise.schema, [3600.0], noise(1, 3))
        assert out[0, 0] == 0.0

    def test_ordinal_latent_rounds_to_nearest_level(self):
        schema = AttributeSchema(
            (AttributeSpec("q", kind="ordinal", ordinal_levels=("L", "M", "H")),)
        )

        def level_for(mean):
            provider = ProviderProfile((AttributeGenerator(mean),))
            return sample(provider, schema, [0.0], noise(1, 1))[0, 0]

        assert level_for(2.4) == 2.0
        assert level_for(2.5) == 3.0   # half rounds up
        assert level_for(9.0) == 3.0   # clamped to the top level
        assert level_for(0.1) == 1.0   # clamped to the bottom level

    @pytest.mark.parametrize("latent", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("kind", ["continuous", "ordinal"])
    def test_non_finite_latent_is_rejected_before_clamping(self, kind, latent):
        levels = ("L", "M", "H") if kind == "ordinal" else ()
        schema = AttributeSchema((AttributeSpec("q", kind=kind, ordinal_levels=levels),))
        provider = ProviderProfile((AttributeGenerator(2.0),))
        with pytest.raises(ValueError, match="'q': sampled value .* is not finite"):
            sample(provider, schema, [0.0, 60.0], [[0.0], [latent]])

    def test_one_draw_per_attribute_even_without_jitter(self, session, promise):
        # a zero-jitter attribute must consume the truth stream exactly like a
        # jittered one, so configurations stay comparable draw for draw; a
        # random reporter's reports are its own stream's uniforms
        jittered = make_provider(promise, jitter_rel=0.1)
        quiet_first = replace(jittered, attributes=(
            replace(jittered.attributes[0], jitter_stddev=0.0),) + jittered.attributes[1:])
        liar = ReporterProfile("malicious", malicious_strategy="random")
        offsets = [600.0, 1200.0, 1800.0, 2400.0]
        scenario = make_scenario(session, quiet_first, bystanders=[
            Bystander("b00", liar, ProbeSchedule(600.0, 600.0, 4)),
            Bystander("b01", ReporterProfile("honest"), ProbeSchedule(600.0, 600.0, 4)),
        ])
        key = np.random.SeedSequence(scenario.seed).generate_state(2, np.uint64)

        def stream(kind, slot):
            return np.random.Generator(np.random.Philox(key=key, counter=[0, kind, slot, 0]))

        draws = stream(0, 1).standard_normal((len(offsets), len(promise.values)))
        expected = instantaneous_trust(sample(quiet_first, promise.schema, offsets, draws), promise)
        events = trace_events(run_scenario(scenario))
        assert [e.value for e in events if e.reporter_id == "b00"] == stream(1, 0).random(4).tolist()
        assert [e.value for e in events if e.reporter_id == "b01"] == expected.tolist()

    def test_sampling_is_bit_reproducible(self, promise):
        provider = make_provider(promise, jitter_rel=0.3)
        a = sample(provider, promise.schema, [60.0, 120.0], noise(2, 3, seed=123))
        b = sample(provider, promise.schema, [60.0, 120.0], noise(2, 3, seed=123))
        assert a.tolist() == b.tolist()

    def test_each_gap_row_equals_the_profile_at_that_gap(self, promise):
        gens = (
            AttributeGenerator(10.0, jitter_stddev=1.5, drift_per_hour=0.7),
            AttributeGenerator(90.0, jitter_stddev=9.0),
            AttributeGenerator(80.0, drift_per_hour=-3.0),
        )
        provider = ProviderProfile(gens, honesty_gap=0.1)
        gaps = [0.0, 0.37, 1.0, 1.0 - (0.05 + 0.9 * 0.123456789)]
        offsets = [0.0, 600.0, 5400.0]
        draws = rng(7).standard_normal((len(gaps), len(offsets), 3))
        out = sample_true_performance(provider, promise.schema, gaps, offsets, draws)
        assert out.shape == (len(gaps), len(offsets), 3)
        for gap, rows, row_draws in zip(gaps, out, draws):
            alone = sample(replace(provider, honesty_gap=gap), promise.schema, offsets, row_draws)
            assert rows.tolist() == alone.tolist()
        # one (event x attribute) array of draws serves every gap
        shared = sample_true_performance(provider, promise.schema, gaps, offsets, draws[0])
        for gap, rows in zip(gaps, shared):
            alone = sample(replace(provider, honesty_gap=gap), promise.schema, offsets, draws[0])
            assert rows.tolist() == alone.tolist()

    def test_the_draws_are_read_not_written(self, promise):
        # both forms of noise, (gap x event x attribute) and one shared
        # (event x attribute) array, are left as they were handed in
        provider = make_provider(promise, honesty_gap=0.1, jitter_rel=0.1, drift_rel=0.05)
        gaps, offsets = [0.0, 0.3], [0.0, 600.0, 5400.0]
        for draws in (noise(6, 3, seed=3).reshape(2, 3, 3), noise(3, 3, seed=4)):
            kept = draws.copy()
            sample_true_performance(provider, promise.schema, gaps, offsets, draws)
            assert draws.tolist() == kept.tolist()

    @pytest.mark.parametrize("bad", [1.5, -0.1, math.nan], ids=["above", "below", "nan"])
    def test_a_gap_outside_the_unit_interval_is_rejected(self, promise, bad):
        provider = make_provider(promise, honesty_gap=0.1)
        with pytest.raises(ValueError, match=r"^honesty_gap must be in \[0, 1\], got ") as sampled:
            sample_true_performance(provider, promise.schema, [0.2, bad], [0.0], noise(1, 3))
        with pytest.raises(ValueError) as built:
            replace(provider, honesty_gap=bad)
        assert str(sampled.value) == str(built.value)


class TestObserve:
    def test_honest_is_identity(self):
        assert observe(ReporterProfile("honest"), 0.42) == 0.42

    def test_biased_adds_offset_and_clamps(self):
        up = ReporterProfile("biased", bias_offset=0.25)
        down = ReporterProfile("biased", bias_offset=-0.25)
        assert observe(up, 0.5) == pytest.approx(0.75)
        assert observe(up, 0.9) == 1.0
        assert observe(down, 0.1) == 0.0

    def test_malicious_random_is_uniform_draw(self):
        profile = ReporterProfile("malicious", malicious_strategy="random")
        draws = rng(5).random(2)
        out = observe(profile, [0.9, 0.1], draws)
        assert out.tolist() == draws.tolist()
        assert profile.draws_reports
        assert not ReporterProfile("malicious", malicious_strategy="inverted").draws_reports

    @pytest.mark.parametrize("draws", [[0.3, 0.6, 0.9], [[0.3, 0.6]], None],
                             ids=["one-too-many", "2-d", "none"])
    def test_malicious_random_needs_one_draw_per_value(self, draws):
        profile = ReporterProfile("malicious", malicious_strategy="random")
        with pytest.raises(ValueError, match="one own draw per trust value"):
            observe(profile, [0.9, 0.1], draws)

    def test_malicious_inverted_flips(self):
        profile = ReporterProfile("malicious", malicious_strategy="inverted")
        assert observe(profile, 0.9) == pytest.approx(0.1)

    def test_rejects_out_of_range_truth(self):
        with pytest.raises(ValueError, match="true_trust"):
            observe(ReporterProfile("honest"), 1.1)
