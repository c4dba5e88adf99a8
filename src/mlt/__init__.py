"""Memoryless trust for crowdsourced IoT services.

Trust in a service is assessed from evidence gathered inside the current
session only: quick probes by bystanders and longer usage by consumers,
weighted by freshness, coverage, and credibility.  No provider history is
kept or used.
"""

from .evaluation import Thresholds, TrustLevel, classify
from .trust import (
    AccumulatedReport,
    AggregationParams,
    InstantaneousReport,
    NoEvidenceError,
    TrustBreakdown,
    aggregate,
)

__version__ = "0.1.0"
