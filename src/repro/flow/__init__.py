"""repro.flow — flow-level fast-path simulation mode.

One simulator event per control interval instead of one per packet
train: arrival trains become :class:`~repro.flow.batch.FlowBatch`
payloads expanded analytically at each queueing stage, while the real
control plane (Algorithm 1 LBP, HLB director registers, the rack
autoscaler) runs unmodified against fluid state.  Packet mode stays the
identity-hashed ground truth; :mod:`repro.flow.validate` holds the
declared agreement tolerances checked by ``repro validate-flow``.
"""

from repro.flow.batch import FlowBatch, batch_train
from repro.flow.cluster import FlowClusterSystem
from repro.flow.source import ConstantRateSource, TraceRateSource
from repro.flow.station import FlowStation
from repro.flow.system import FlowServerSystem
from repro.flow.validate import (
    DEFAULT_TOLERANCES,
    CellComparison,
    MetricCheck,
    ValidationReport,
    compare_cell,
    energy_per_request_uj,
)

__all__ = [
    "FlowBatch",
    "batch_train",
    "FlowClusterSystem",
    "ConstantRateSource",
    "TraceRateSource",
    "FlowStation",
    "FlowServerSystem",
    "DEFAULT_TOLERANCES",
    "CellComparison",
    "MetricCheck",
    "ValidationReport",
    "compare_cell",
    "energy_per_request_uj",
]
