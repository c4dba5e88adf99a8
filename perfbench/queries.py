"""Report sets for the aggregate-query workload, and an independent oracle.

A query is `aggregate(consumers, bystanders, AggregationParams(mode="normalized"))`
followed by `classify()` of the overall value.  The sets cycle in a fixed
order: of every ten queries, nine are session-sized (2 to 64 reports, the
largest roster a sweep can build) and one is crowd-sized (1000 to 3000
reports).  Set sizes are stratified, so they are the same for every seed;
the seed draws only the report values, timestamps, coverages and the split
between consumers and bystanders.
"""

from __future__ import annotations

import numpy as np

import mlt

SESSION_SIZES = tuple(range(2, 65))  # 2..64 reports, one stratum per size
SESSION_SETS = 9 * len(SESSION_SIZES)  # nine tenths of a 630-query cycle
CROWD_SETS = len(SESSION_SIZES)        # one tenth
CROWD_LO, CROWD_HI = 1000, 3000
CROWD_SIZES = tuple(
    round(CROWD_LO + (CROWD_HI - CROWD_LO) * (k + 0.5) / CROWD_SETS) for k in range(CROWD_SETS)
)
SESSION_LEN_S = 7200.0
PARAMS = mlt.AggregationParams(mode="normalized")
THRESHOLDS = mlt.Thresholds()


def _report_set(rng: np.random.Generator, n: int, tag: int):
    """One set of n reports around a drawn provider quality, both groups present."""
    n_consumers = int(rng.integers(1, n))
    quality = rng.uniform(0.1, 0.9)
    # a fifth of reporters answer at random, the rest scatter around the quality
    honest = np.clip(quality + rng.normal(0.0, 0.08, n), 0.02, 0.98)
    trust = np.where(rng.random(n) < 0.2, rng.uniform(0.02, 0.98, n), honest)
    offsets = rng.uniform(1.0, SESSION_LEN_S, n)
    updates = rng.integers(1, 25, n)
    consumers = tuple(
        mlt.AccumulatedReport(f"q{tag}c{i}", float(trust[i]), float(offsets[i]), int(updates[i]))
        for i in range(n_consumers)
    )
    bystanders = tuple(
        mlt.InstantaneousReport(f"q{tag}b{i}", float(trust[i]), float(offsets[i]))
        for i in range(n_consumers, n)
    )
    return consumers, bystanders


def build_sets(seed: int) -> list[tuple[tuple, tuple]]:
    """The query cycle for a seed: nine session-sized sets, then one crowd, repeated."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x51EC7)))
    sessions = [
        _report_set(rng, SESSION_SIZES[k % len(SESSION_SIZES)], k) for k in range(SESSION_SETS)
    ]
    crowds = [_report_set(rng, n, SESSION_SETS + k) for k, n in enumerate(CROWD_SIZES)]
    # spread the session sizes over the cycle instead of running them in order
    order = rng.permutation(SESSION_SETS)
    sets = []
    per_crowd = SESSION_SETS // CROWD_SETS
    for k, crowd in enumerate(crowds):
        sets.extend(sessions[i] for i in order[k * per_crowd:(k + 1) * per_crowd])
        sets.append(crowd)
    return sets


def is_crowd(report_set) -> bool:
    consumers, bystanders = report_set
    return len(consumers) + len(bystanders) >= CROWD_LO


def query(report_set):
    """One query: aggregate the set in normalized mode, then classify the overall value."""
    consumers, bystanders = report_set
    overall = mlt.aggregate(consumers, bystanders, PARAMS).overall
    return overall, mlt.classify(overall, THRESHOLDS)


def oracle(report_set) -> float:
    """The normalized aggregate re-derived with numpy from the paper's formulas."""
    consumers, bystanders = report_set
    tc = np.array([r.trust for r in consumers])
    tb = np.array([r.trust for r in bystanders])
    pooled = np.concatenate([tc, tb])
    cred = 1.0 - np.abs(pooled - pooled.mean())
    cc, cb = cred[: len(tc)], cred[len(tc):]
    wc = np.array([r.coverage_duration for r in consumers])
    wc = wc / wc.sum()
    wb = np.array([r.timestamp_offset for r in bystanders])
    wb = wb / wb.sum()
    consumer_term = np.sum(cc * wc * tc) / np.sum(cc * wc)
    bystander_term = np.sum(cb * wb * tb) / np.sum(cb * wb)
    return float(PARAMS.beta * consumer_term + (1.0 - PARAMS.beta) * bystander_term)


def check(report_set, result) -> str | None:
    """Why a query result disagrees with the oracle, or None when it agrees."""
    overall, level = result
    expected = oracle(report_set)
    if not abs(overall - expected) <= 1e-9:
        return f"aggregate {overall!r} differs from the numpy re-derivation {expected!r}"
    # a value within 1e-9 of a cut may fall on either side of it
    cuts = (THRESHOLDS.low_cut, THRESHOLDS.high_cut)
    names = ("lowly", "moderately", "highly")
    allowed = {names[sum(v >= c for c in cuts)] for v in (expected - 1e-9, expected + 1e-9)}
    if level.value not in allowed:
        return f"level {level.value} is wrong for trust {expected!r}"
    return None
