"""Rack-scale multi-server simulation (the cluster layer).

Composes N :class:`~repro.core.systems.ServerSystem` instances — HAL,
SLB, host-only, SNIC-only, mixable — inside **one** simulator behind a
front-tier L4 balancer, and asks the deployment question the single-server
evaluation cannot: how many HAL servers does a rack need, and how much
energy does SNIC-first cooperative computing save at rack scale when the
load is diurnal?

Layers (each its own module):

* :mod:`repro.cluster.policies` — pluggable dispatch policies over
  lightweight server slots (flow-hash/ECMP, round-robin,
  power-of-two-choices on RxQ occupancy, packing);
* :mod:`repro.cluster.fronttier` — the ToR-resident L4 balancer port:
  VIP → per-server SNIC rewrites on ingress, source masquerade on egress,
  both RFC 1624 checksum-correct;
* :mod:`repro.cluster.power` — rack power: member models + ToR overhead,
  with whole-server deep sleep extending :mod:`repro.hw.power`;
* :mod:`repro.cluster.autoscaler` — wakes/parks servers from the same
  observables LBP exports (delivered rate, Rx-queue occupancy);
* :mod:`repro.cluster.system` — :class:`ClusterSystem`, the facade that
  mirrors the ``ServerSystem`` run/result contract, and :func:`run_rack`,
  the executor entry point.

Rack-level numbers are *derived* (ToR watts, server deep-sleep draw,
wake-up latency are modelled from typical hardware, not measured by the
paper) — see EXPERIMENTS.md.
"""

from repro.cluster.autoscaler import AutoscalerConfig, RackAutoscaler
from repro.cluster.fronttier import TOR_LATENCY_S, FrontTierPort
from repro.cluster.policies import POLICIES, ServerSlot, make_policy
from repro.cluster.power import RackPowerConfig, RackPowerModel
from repro.cluster.system import ClusterSystem, run_rack

__all__ = [
    "AutoscalerConfig",
    "ClusterSystem",
    "FrontTierPort",
    "POLICIES",
    "RackAutoscaler",
    "RackPowerConfig",
    "RackPowerModel",
    "ServerSlot",
    "TOR_LATENCY_S",
    "make_policy",
    "run_rack",
]
