"""The names the benchmark harness imports or patches still exist.

perfbench/tracing.py replaces each traced function through its owner's
__dict__, and perfbench/queries.py reads mlt's public names.  A trim of the
package that drops one of them would break only the benchmark, so the suite
checks them here.
"""

import ast
import importlib.util
from pathlib import Path

import mlt
import mlt.cli
import mlt.experiments
import mlt.trust
from mlt.config import load_scenario_file

from conftest import SCENARIO_DIR

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "mlt"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_in_its_owner():
    tracing = _load("tracing")
    targets = tracing.SWEEP_TARGETS + tracing.QUERY_TARGETS + tracing.POOL_TARGET
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr in targets if attr not in owner.__dict__]
    assert missing == []


def test_every_unused_import_in_src_is_a_traced_target():
    # an import kept only for the benchmark (noqa: F401) must be one that
    # perfbench/tracing.py patches on that module; any other is dead code
    tracing = _load("tracing")
    targets = tracing.SWEEP_TARGETS + tracing.QUERY_TARGETS + tracing.POOL_TARGET
    traced = {(owner.__name__, attr) for _, owner, attr in targets}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        module = "mlt" if path.stem == "__init__" else f"mlt.{path.stem}"
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                unused += [(module, alias.asname or alias.name) for alias in node.names]
    assert sorted(set(unused) - traced) == []


def test_the_traced_csv_formatter_exists():
    assert callable(mlt.cli._FORMATTERS["csv"])


def test_every_mlt_name_the_query_workload_reads_exists():
    _load("queries")
    tree = ast.parse((PERFBENCH / "queries.py").read_text(encoding="utf-8"))
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "mlt"
    }
    assert {"aggregate", "classify"} <= used
    assert sorted(name for name in used if not hasattr(mlt, name)) == []


def _count_calls(monkeypatch, owner, names) -> dict:
    """Replace each of owner's names with a wrapper that counts its calls."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def test_aggregate_calls_each_traced_helper_once(monkeypatch):
    # the traced trust.credibilities and *_weights metrics read 0 if aggregate()
    # stops calling these helpers through mlt.trust's globals
    helpers = ("credibilities", "coverage_weights", "freshness_weights")
    calls = _count_calls(monkeypatch, mlt.trust, helpers)
    consumers = [mlt.AccumulatedReport("c0", 0.8, 60.0), mlt.AccumulatedReport("c1", 0.6, 30.0)]
    bystanders = [mlt.InstantaneousReport("b0", 0.7, 10.0), mlt.InstantaneousReport("b1", 0.5, 20.0)]
    mlt.trust.aggregate(consumers, bystanders)
    assert calls == dict.fromkeys(helpers, 1)

    # a crowd takes its weights and credibilities from arrays, calling none of them
    calls.clear()
    copies = mlt.trust._ARRAY_MIN // 2
    mlt.trust.aggregate(consumers * copies, bystanders * copies)
    assert calls == {}


def test_a_sweep_calls_the_traced_aggregate_and_classify(monkeypatch):
    # perfbench's traced sweep divides by the calls to experiments' aggregate
    # and classify, which a sweep makes only to check each block's first
    # replication against its array scores
    calls = _count_calls(monkeypatch, mlt.experiments, ("aggregate", "classify"))
    scenario, _ = load_scenario_file(SCENARIO_DIR / "wifi_cafe.json")
    mlt.experiments.run_experiment_suite(scenario, mlt.experiments.ExperimentSpec("ablation", replications=3))
    assert calls.get("aggregate", 0) >= 1 and calls.get("classify", 0) >= 1
