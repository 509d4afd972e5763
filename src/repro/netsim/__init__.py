"""Network simulator with UWB signal superposition.

* :mod:`repro.netsim.node` — positioned nodes owning a DW1000 radio.
* :mod:`repro.netsim.medium` — the wireless medium: per-link channel
  realisations (reciprocal within a coherence interval) from a
  stochastic environment or a geometric room.
* :mod:`repro.netsim.trace` — structured event traces for debugging and
  for the energy/airtime accounting of the scalability benchmarks.
* :mod:`repro.netsim.swarm` — the city-scale swarm layer: N mobile
  responders, concurrent initiators, contention, round-robin polling
  windows, and a spatially sharded event loop whose results are
  byte-identical at any shard count.
"""

from repro.netsim.node import Node
from repro.netsim.medium import Medium
from repro.netsim.trace import TraceRecorder, TraceEvent

#: Swarm names re-exported lazily (PEP 562): the swarm layer sits on
#: top of `repro.localization` and `repro.protocol`, while
#: `repro.protocol.twr` imports `repro.netsim.medium` — an eager
#: import here would close that cycle and fail for whichever package
#: happens to load first.
_SWARM_EXPORTS = frozenset(
    {"MobilityTrace", "SwarmConfig", "SwarmEvent", "SwarmResult",
     "SwarmScenario"}
)


def __getattr__(name):
    if name in _SWARM_EXPORTS:
        from repro.netsim import swarm

        return getattr(swarm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Node",
    "Medium",
    "MobilityTrace",
    "SwarmConfig",
    "SwarmEvent",
    "SwarmResult",
    "SwarmScenario",
    "TraceRecorder",
    "TraceEvent",
]
