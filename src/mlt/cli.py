"""Command line interface.

Exit codes: 0 success, 1 failed golden check (paper-examples), 2 malformed
config or usage, 3 scenario invariant violation, 4 I/O failure.  Output is
a pure function of the scenario file, the flags, and the seed, so identical
invocations produce identical bytes.

The seed is resolved as: --seed flag, else the MLT_SEED environment
variable, else the seed stored in the scenario file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace

from .config import ConfigError, collect_violations, load_scenario_file, read_document
from .experiments import ABLATION, COUNT_SWEEP, ESTIMATOR_COMPARE, FULL, KINDS
from .experiments import ExperimentSpec, run_experiment_suite
from .golden import GOLDEN_NAMES, GOLDEN_TOLERANCE, run_golden_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_IO = 4

SEED_ENV_VAR = "MLT_SEED"

FORMATS = ("csv", "json", "table")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# Tabular output: each kind's leading (header, config key, formatter) columns,
# then the metric (header, result attribute) columns every kind shares.
_LEADING_COLUMNS = {
    ABLATION: (("adversary_frac", "adversary_frac", _fmt), ("credibility", "credibility", str)),
    ESTIMATOR_COMPARE: (("estimator", "estimator", str),),
    COUNT_SWEEP: (("reporters", "reporters", str), ("adversary_frac", "adversary_frac", _fmt)),
}
_LEADING_COLUMNS[FULL] = _LEADING_COLUMNS[COUNT_SWEEP]
_METRIC_COLUMNS = (("accuracy", "accuracy"), ("precision", "macro_precision"),
                   ("recall", "macro_recall"), ("stderr_accuracy", "stderr_accuracy"))


def _rows(kind: str, results) -> tuple[list[str], list[list[str]]]:
    """Column names and formatted row values for tabular output."""
    leading = _LEADING_COLUMNS[kind]
    header = [h for h, _, _ in leading] + [h for h, _ in _METRIC_COLUMNS]
    rows = [
        [fmt(r.config[key]) for _, key, fmt in leading]
        + [_fmt(getattr(r, attr)) for _, attr in _METRIC_COLUMNS]
        for r in results
    ]
    return header, rows


def format_csv(kind: str, results) -> str:
    header, rows = _rows(kind, results)
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def format_table(kind: str, results) -> str:
    header, rows = _rows(kind, results)
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return "\n".join(out) + "\n"


def format_json(kind: str, results) -> str:
    payload = {
        "experiment": kind,
        "results": [
            {
                "config": r.config,
                "n_samples": r.n_samples,
                "accuracy": r.accuracy,
                "stderr_accuracy": r.stderr_accuracy,
                "precision": r.macro_precision,
                "recall": r.macro_recall,
                "macro_accuracy": r.macro_accuracy,
                "per_level": {
                    level.value: {**asdict(m), "counts": asdict(r.counts.per_level[level])}
                    for level, m in r.per_level.items()
                },
            }
            for r in results
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_FORMATTERS = {"csv": format_csv, "json": format_json, "table": format_table}


def _resolve_seed(flag_seed: int | None) -> int | None:
    """Seed from the flag if given, else from MLT_SEED, else None."""
    if flag_seed is not None:
        return flag_seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def cmd_run(args: argparse.Namespace) -> int:
    try:
        seed = _resolve_seed(args.seed)
        scenario, thresholds = load_scenario_file(args.scenario)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"scenario invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT

    try:
        if seed is not None:
            scenario = replace(scenario, seed=seed)
        spec = ExperimentSpec(args.experiment, args.replications, thresholds=thresholds)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        results = run_experiment_suite(scenario, spec, jobs=args.jobs)
    except ValueError as e:
        # a valid file whose numbers still break a model invariant mid-run,
        # e.g. a sample that overflows to infinity
        print(f"scenario invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    text = _FORMATTERS[args.output_format](args.experiment, results)
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_validate(scenario_path: str) -> int:
    try:
        doc = read_document(scenario_path)
        violations = collect_violations(doc)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INVARIANT
    print("OK")
    return EXIT_OK


def cmd_paper_examples(perturb: str | None) -> int:
    try:
        checks = run_golden_checks(perturb)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    passed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        passed += c.passed
        computed = ", ".join(f"{v:.6f}" for v in c.computed)
        expected = ", ".join(f"{v:g}" for v in c.expected)
        print(f"{c.name}: computed [{computed}] expected [{expected}] +/-{GOLDEN_TOLERANCE:g} {status}")
    print(f"{passed}/{len(checks)} passed")
    return EXIT_OK if passed == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlt",
        description="Session-local trust simulation and evaluation for crowdsourced IoT services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment sweep on a scenario file")
    run_p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--experiment", required=True, choices=KINDS)
    run_p.add_argument("--replications", type=int, default=1000)
    run_p.add_argument("--seed", type=int, default=None,
                       help=f"override the scenario seed (falls back to ${SEED_ENV_VAR})")
    run_p.add_argument("--format", choices=FORMATS, default="csv", dest="output_format")
    run_p.add_argument("--out", default=None, help="output path (default: stdout)")
    run_p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="parallel worker processes for replications")

    val_p = sub.add_parser("validate", help="check a scenario file and report every violation")
    val_p.add_argument("--scenario", required=True)

    pe_p = sub.add_parser("paper-examples", help="check the built-in golden reference examples")
    pe_p.add_argument("--perturb", default=None, metavar="NAME",
                      help=f"negative control: shift one example's computed value (one of {', '.join(GOLDEN_NAMES)})")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        if args.replications < 1 or args.jobs < 1:
            print("error: --replications and --jobs must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        return cmd_run(args)
    if args.command == "validate":
        return cmd_validate(args.scenario)
    return cmd_paper_examples(args.perturb)


if __name__ == "__main__":
    sys.exit(main())
