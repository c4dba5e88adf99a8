"""`mlt run` stdout is pinned byte for byte for every shipped scenario and kind.

tests/data holds one CSV and one JSON file per (scenario, kind), produced by
`mlt run --replications 40 --seed 5 --jobs 1 --format csv` (or `json`; only
the JSON holds the per-level confusion counts), on the stream layout that the
`simulator.py` docstring lays out (numpy's Philox, keyed by the scenario seed,
with the agent and the stream's kind in the counter).  A speed change must
leave every byte as it is.  Only a deliberate change to that layout changes
the output on purpose; it regenerates the snapshots with

    PYTHONPATH=src python tests/test_run_snapshots.py

and records the regeneration, with the before and after rows, in CHANGES.md.
"""

import contextlib
import io
from pathlib import Path

import pytest

from mlt.cli import EXIT_OK, main
from mlt.experiments import KINDS

DATA_DIR = Path(__file__).resolve().parent / "data"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))
REPLICATIONS = "40"
SEED = "5"
FORMATS = ("csv", "json")


def snapshot_path(scenario: str, kind: str, fmt: str = "csv") -> Path:
    return DATA_DIR / f"run_{scenario}_{kind}.{fmt}"


def run_stdout(scenario: str, kind: str, fmt: str = "csv") -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", "--scenario", str(SCENARIO_DIR / f"{scenario}.json"),
                     "--experiment", kind, "--replications", REPLICATIONS,
                     "--seed", SEED, "--jobs", "1", "--format", fmt])
    assert code == EXIT_OK
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_run_output_matches_the_snapshot(scenario, kind):
    assert run_stdout(scenario, kind) == snapshot_path(scenario, kind).read_bytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_json_output_matches_the_snapshot(scenario, kind):
    assert run_stdout(scenario, kind, "json") == snapshot_path(scenario, kind, "json").read_bytes()


def test_every_scenario_and_kind_has_a_snapshot():
    for fmt in FORMATS:
        expected = {snapshot_path(s, k, fmt).name for s in SCENARIOS for k in KINDS}
        assert {p.name for p in DATA_DIR.glob(f"run_*.{fmt}")} == expected


if __name__ == "__main__":
    DATA_DIR.mkdir(exist_ok=True)
    for scenario in SCENARIOS:
        for kind in KINDS:
            for fmt in FORMATS:
                snapshot_path(scenario, kind, fmt).write_bytes(run_stdout(scenario, kind, fmt))
