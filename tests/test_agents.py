"""Provider sampling and reporter behaviour."""

import math

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
from mlt.simulator import ConsumerUsage

from conftest import make_provider


def rng(seed=0):
    return np.random.default_rng(seed)


def session_between(start_time, end_time):
    schema = AttributeSchema((AttributeSpec("speed"),))
    return ServiceSession("s", (0.0, 0.0), start_time, end_time, "p", "t",
                          PerformanceVector((10.0,), schema), schema)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
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
    with pytest.raises(ValueError, match="count must be an integer"):
        ProbeSchedule(600.0, 600.0, 2.5)


class TestProfiles:
    def test_provider_generator_count_must_match(self, promise):
        with pytest.raises(ValueError, match="attribute generators"):
            ProviderProfile(promise, (AttributeGenerator(1.0),))

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
        assert noise_free_performance(provider).values == (9.0, 81.0, 72.0)

    def test_drift_accrues_per_hour(self, promise):
        # mean 10, gap 0.1, drift +0.5/h at one hour: 9.0 + 0.5 = 9.5
        gens = (
            AttributeGenerator(10.0, drift_per_hour=0.5),
            AttributeGenerator(90.0),
            AttributeGenerator(80.0),
        )
        provider = ProviderProfile(promise, gens, honesty_gap=0.1)
        out = sample_true_performance(provider, 3600.0, rng())
        assert out.values[0] == pytest.approx(9.5)

    def test_noise_free_ignores_drift(self, promise):
        gens = tuple(AttributeGenerator(p, drift_per_hour=-5.0) for p in promise.values)
        provider = ProviderProfile(promise, gens)
        assert noise_free_performance(provider).values == promise.values

    def test_negative_latent_clamps_to_zero(self, promise):
        gens = (
            AttributeGenerator(1.0, drift_per_hour=-10.0),
            AttributeGenerator(90.0),
            AttributeGenerator(80.0),
        )
        provider = ProviderProfile(promise, gens)
        out = sample_true_performance(provider, 3600.0, rng())
        assert out.values[0] == 0.0

    def test_ordinal_latent_rounds_to_nearest_level(self):
        schema = AttributeSchema(
            (AttributeSpec("q", kind="ordinal", ordinal_levels=("L", "M", "H")),)
        )
        promise = PerformanceVector((2.0,), schema)

        def level_for(mean):
            provider = ProviderProfile(promise, (AttributeGenerator(mean),))
            return sample_true_performance(provider, 0.0, rng()).values[0]

        assert level_for(2.4) == 2.0
        assert level_for(2.5) == 3.0   # half rounds up
        assert level_for(9.0) == 3.0   # clamped to the top level
        assert level_for(0.1) == 1.0   # clamped to the bottom level

    def test_one_draw_per_attribute_even_without_jitter(self, promise):
        # the jitterless profile must consume the stream exactly like a
        # jittered one, so configurations stay comparable draw for draw
        quiet = make_provider(promise, jitter_rel=0.0)
        r1, r2 = rng(7), rng(7)
        sample_true_performance(quiet, 0.0, r1)
        for _ in range(len(promise.values)):
            r2.normal(0.0, 0.0)
        assert r1.uniform() == r2.uniform()

    def test_sampling_is_bit_reproducible(self, promise):
        provider = make_provider(promise, jitter_rel=0.3)
        a = sample_true_performance(provider, 60.0, rng(123))
        b = sample_true_performance(provider, 60.0, rng(123))
        assert a.values == b.values


class TestObserve:
    def test_honest_is_identity(self):
        assert observe(ReporterProfile("honest"), 0.42, rng()) == 0.42

    def test_biased_adds_offset_and_clamps(self):
        up = ReporterProfile("biased", bias_offset=0.25)
        down = ReporterProfile("biased", bias_offset=-0.25)
        assert observe(up, 0.5, rng()) == pytest.approx(0.75)
        assert observe(up, 0.9, rng()) == 1.0
        assert observe(down, 0.1, rng()) == 0.0

    def test_malicious_random_is_uniform_draw(self):
        profile = ReporterProfile("malicious", malicious_strategy="random")
        out = observe(profile, 0.9, rng(5))
        assert out == rng(5).uniform(0.0, 1.0)
        assert 0.0 <= out <= 1.0

    def test_malicious_inverted_flips(self):
        profile = ReporterProfile("malicious", malicious_strategy="inverted")
        assert observe(profile, 0.9, rng()) == pytest.approx(0.1)

    def test_rejects_out_of_range_truth(self):
        with pytest.raises(ValueError, match="true_trust"):
            observe(ReporterProfile("honest"), 1.1, rng())
