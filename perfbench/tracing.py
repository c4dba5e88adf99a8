"""Per-layer tracing of the mlt package from outside, at its import names.

Each traced function is replaced, in the module that calls it, by a wrapper
that times the call.  A span's self time is its duration minus the time
covered by the traced calls made inside it.  A count-sweep makes millions of
traced calls, so spans are folded into per-name totals as they close (count,
total and self time, all in memory) instead of being stored one by one.

Nothing under src/ changes: `install()` patches attributes at run time and
`uninstall()` puts the originals back.
"""

from __future__ import annotations

import functools
import time

import mlt
import mlt.cli
import mlt.experiments
import mlt.session
import mlt.simulator
import mlt.trust

# (traced name, module whose attribute is replaced, attribute).  The module is
# the caller's: experiments calls `run_scenario` through its own global, so
# the wrapper goes on mlt.experiments.run_scenario.
SWEEP_TARGETS = (
    ("config.load_scenario_file", mlt.cli, "load_scenario_file"),
    ("experiments.run_experiment_suite", mlt.cli, "run_experiment_suite"),
    ("simulator.run_scenario", mlt.experiments, "run_scenario"),
    ("agents.sample_true_performance", mlt.simulator, "sample_true_performance"),
    ("agents.observe", mlt.simulator, "observe"),
    ("agents.noise_free_performance", mlt.simulator, "noise_free_performance"),
    ("session.validate", mlt.session.PerformanceVector, "__post_init__"),
    ("trust.instantaneous_trust", mlt.simulator, "instantaneous_trust"),
    ("trust.update_accumulated", mlt.simulator, "update_accumulated"),
    ("trust.aggregate.discarded", mlt.simulator, "aggregate"),
    ("trust.aggregate.used", mlt.experiments, "aggregate"),
    ("trust.credibilities", mlt.trust, "credibilities"),
    ("trust.freshness_weights", mlt.trust, "freshness_weights"),
    ("trust.coverage_weights", mlt.trust, "coverage_weights"),
    ("evaluation.classify", mlt.experiments, "classify"),
    ("evaluation.score", mlt.experiments, "score"),
)

QUERY_TARGETS = (
    ("trust.aggregate", mlt, "aggregate"),
    ("trust.credibilities", mlt.trust, "credibilities"),
    ("trust.freshness_weights", mlt.trust, "freshness_weights"),
    ("trust.coverage_weights", mlt.trust, "coverage_weights"),
    ("evaluation.classify", mlt, "classify"),
)

POOL_TARGET = (("experiments.pool_start", mlt.experiments, "Pool"),)


class Tracer:
    """Folds the spans of the wrapped calls into per-name [count, total_ns, self_ns]."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self._stack: list[int] = []  # child time accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        entry = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                entry[0] += 1
                entry[1] += took
                entry[2] += took - children
                if stack:
                    stack[-1] += took

        return traced

    def install(self, targets) -> None:
        for name, owner, attr in targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def wrap_mapping(self, name, mapping: dict, key) -> None:
        """Trace a function that the caller looks up in a dict, such as a formatter table."""
        original = mapping[key]
        self._saved.append((mapping, key, original))
        mapping[key] = self._wrap(name, original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def take(self) -> dict[str, list[int]]:
        """The totals so far, after which counting starts again from zero."""
        taken = {name: list(entry) for name, entry in self.stats.items()}
        for entry in self.stats.values():
            entry[:] = [0, 0, 0]
        return taken
