"""repro.serve — the streaming concurrent-ranging service.

The offline experiments answer "what does the paper's scheme do?"; this
package answers "can the implementation hold up a live workload?".  It
turns the batched detection/classification engines into a deployable
serving stack:

* :class:`RangingClient` / :class:`AsyncRangingClient` — **the public
  entry point**: hand either a :class:`ServeConfig` and it builds the
  right deployment (`workers == 0` → in-process, `workers >= 1` →
  multi-process) behind one submit surface with retry-after-honouring
  helpers.
* :class:`ServeConfig` — the one dataclass describing a deployment:
  shards, workers, queue depths, deadlines, rate limits, defense;
  everything validates eagerly.
* :class:`RangingService` — the in-process core: sharded worker pool
  with per-session FIFO ordering, dynamic micro-batching (flush on
  batch-full or deadline), bounded ingress queues with
  reject-with-retry-after backpressure, per-session token-bucket rate
  limiting, per-request deadline shedding, and per-item fallback.
* :class:`RangingServer` — the multi-process deployment: K forked
  workers (each a full ``RangingService``) behind the length-prefixed
  wire protocol of :mod:`repro.serve.wire`, with heartbeat supervision,
  restart + request re-homing, and merged parent/worker metrics.
* :class:`RangingOutcome` — the single response-shaped type: service
  results, loadgen records, and live swarm rounds all use it, and it is
  wire-serializable field-for-field.
* :class:`MetricsServer` — live ``/metrics`` (Prometheus text format)
  and ``/healthz`` endpoints over either deployment.
* :mod:`repro.serve.loadgen` — replay synthetic or Fig. 8 CIR streams
  at a configured rate and verify the exactly-once accounting; its
  command line is ``python -m repro loadgen``.

The engine passes run on worker threads (the FFTs release the GIL), but
all bookkeeping stays on the event loop — the service is data-race-free
by construction rather than by locking.
"""

from repro.serve.batcher import STOP, MicroBatcher
from repro.serve.client import AsyncRangingClient, RangingClient
from repro.serve.engine import EngineConfig, ShardEngine
from repro.serve.http import MetricsServer
from repro.serve.ratelimit import RateLimitConfig, SessionRateLimiter
from repro.serve.request import (
    RangingOutcome,
    RangingRequest,
    RateLimitedError,
    ServiceOverloadedError,
    ServiceRejectedError,
    TERMINAL_STATUSES,
)
from repro.serve.service import RangingService, ServeConfig
from repro.serve.supervisor import RangingServer

__all__ = [
    "STOP",
    "MicroBatcher",
    "AsyncRangingClient",
    "RangingClient",
    "EngineConfig",
    "ShardEngine",
    "MetricsServer",
    "RateLimitConfig",
    "SessionRateLimiter",
    "RangingOutcome",
    "RangingRequest",
    "RateLimitedError",
    "ServiceOverloadedError",
    "ServiceRejectedError",
    "TERMINAL_STATUSES",
    "RangingService",
    "ServeConfig",
    "RangingServer",
]
