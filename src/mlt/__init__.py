"""Memoryless trust for crowdsourced IoT services.

Trust in a service is assessed from evidence gathered inside the current
session only: quick probes by bystanders and longer usage by consumers,
weighted by freshness, coverage, and credibility.  No provider history is
kept or used.
"""

from .agents import (
    AttributeGenerator,
    ProbeSchedule,
    ProviderProfile,
    ReporterProfile,
    noise_free_performance,
    observe,
    sample_true_performance,
)
from .evaluation import (
    ConfusionCounts,
    ExperimentResult,
    Thresholds,
    TrustLevel,
    classify,
    score,
)
from .experiments import ExperimentSpec, run_experiment_suite
from .session import (
    AttributeSchema,
    AttributeSpec,
    PerformanceVector,
    ServiceSession,
    numerize,
)
from .simulator import (
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    SessionTrace,
    run_scenario,
)
from .trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    NoEvidenceError,
    SchemaMismatchError,
    TrustBreakdown,
    UndefinedRatioError,
    aggregate,
    coverage_weights,
    credibilities,
    freshness_weights,
    instantaneous_trust,
    update_accumulated,
)

__version__ = "0.1.0"
