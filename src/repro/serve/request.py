"""Request/outcome types and rejection contract of the ranging service.

A :class:`RangingRequest` is one initiator session's "please range this
CIR" message: the session identity (which pins the request to a shard
and gives it a total order), a per-session sequence number, the CIR
samples, an optional latency budget, and optional *annotations* — the
defense/fault metadata that must survive the trip onto the wire (see
:mod:`repro.serve.wire`).

The service answers with a :class:`RangingOutcome` — the **one**
response-shaped type of the serving stack.  Service results, loadgen
records, and live swarm-ingest rounds all use it (there used to be
three ad-hoc shapes); it is wire-serializable field-for-field, and its
``status`` is always one of a small closed set.  Every accepted request
reaches **exactly one** terminal status, which is the invariant the
loadgen accounting and the worker-kill tests pin down:

``ok``
    Served: ``responses`` holds the detections (or classifications).
``shed``
    The request's deadline expired while it sat in the queue; the
    engine never ran it (timeout shedding under overload).
``cancelled``
    The service stopped without draining (or the caller cancelled the
    future) before the request was served.
``error``
    The engine raised for this specific request even on the serial
    fallback path; ``error`` carries the message.

A request the service *refuses to accept* never gets an outcome — it
raises a :class:`ServiceRejectedError` subclass instead, and the two
refusal causes are deliberately distinct types with distinct metrics so
saturation and abuse cannot be confused:

:class:`ServiceOverloadedError`
    Backpressure: the target shard/worker is at its high-watermark
    (counted as ``serve.rejected``).
:class:`RateLimitedError`
    The per-session token bucket is empty — this session is sending
    faster than its configured rate (counted as ``serve.rate_limited``).

Both carry an explicit ``retry_after_s`` hint — backpressure is a
contract, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

__all__ = [
    "RangingRequest",
    "RangingOutcome",
    "ServiceRejectedError",
    "ServiceOverloadedError",
    "RateLimitedError",
    "TERMINAL_STATUSES",
]

#: Every accepted request ends in exactly one of these.
TERMINAL_STATUSES = ("ok", "shed", "cancelled", "error")


@dataclass(frozen=True)
class RangingRequest:
    """One concurrent-ranging request from an initiator session.

    Attributes
    ----------
    session_id:
        Stable identity of the initiator session.  Requests of one
        session always map to the same shard (and, in a multi-process
        deployment, the same worker), which is what gives a session
        FIFO service order.
    sequence:
        Monotonic per-session sequence number (caller-assigned); the
        service echoes it back so streams can be re-ordered/validated.
    cir:
        Complex CIR samples at the radio's native tap rate.
    noise_std:
        Noise standard deviation for the detector's early-stop gate.
    deadline_s:
        Optional per-request latency budget in seconds (relative to
        enqueue).  A request still queued when its budget expires is
        shed, not served.  ``None`` uses the service default.
    annotations:
        Optional defense/fault metadata attached by the producer (the
        swarm ingest tags rounds with their contention plan; a session
        layer may attach its :class:`~repro.protocol.defense`
        verdicts).  Carried verbatim through the wire protocol and
        echoed — possibly extended by the service's own defense screen
        — on the outcome.
    """

    session_id: str
    sequence: int
    cir: np.ndarray
    noise_std: float = 0.0
    deadline_s: Optional[float] = None
    annotations: Optional[Mapping[str, Any]] = None


@dataclass
class RangingOutcome:
    """The single response-shaped type of the serving stack.

    ``responses`` holds :class:`~repro.core.detection.DetectedResponse`
    (detect mode) or :class:`~repro.core.pulse_id.ClassifiedResponse`
    (classify mode) entries, delay-ascending, exactly as the offline
    engines return them — including after a round trip through the
    wire codec (:mod:`repro.serve.wire` reconstructs them value-exact).
    ``batch_size`` and ``flush_cause`` describe the micro-batch the
    request was served in (0 / ``""`` when it never reached the
    engine); ``worker`` is the worker-process index that served it
    (-1 for the in-process service).  ``annotations`` echoes the
    request's defense/fault metadata, extended with the service-side
    defense screen's flags when one is configured.
    """

    session_id: str
    sequence: int
    status: str
    responses: List[Any] = field(default_factory=list)
    latency_s: float = 0.0
    shard: int = -1
    batch_size: int = 0
    flush_cause: str = ""
    error: Optional[str] = None
    worker: int = -1
    annotations: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ServiceRejectedError(RuntimeError):
    """Base of the two ingress-refusal causes.

    Carries an explicit ``retry_after_s`` hint (the service's configured
    backoff) so well-behaved clients can retry instead of hammering a
    saturated shard, and a ``reason`` tag (``"backpressure"`` or
    ``"rate_limit"``) that survives the wire protocol's 429-style
    retry-after frames.
    """

    reason = "rejected"

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class ServiceOverloadedError(ServiceRejectedError):
    """Ingress rejected: the target shard's queue is at high-watermark.

    This is *saturation* (the service as a whole cannot keep up), as
    opposed to :class:`RateLimitedError` (one session is over its
    budget); each increments its own counter so ``/metrics`` can tell
    the two apart.
    """

    reason = "backpressure"

    def __init__(
        self, retry_after_s: float, shard: int, queue_depth: int
    ) -> None:
        super().__init__(
            f"shard {shard} ingress queue full ({queue_depth} pending); "
            f"retry after {retry_after_s:.3f}s",
            retry_after_s,
        )
        self.shard = int(shard)
        self.queue_depth = int(queue_depth)


class RateLimitedError(ServiceRejectedError):
    """Ingress rejected: this session's token bucket is empty.

    Raised ahead of the shard queues, so an abusive session is bounced
    before it can occupy queue slots that well-behaved sessions need —
    the 429 to backpressure's 503.
    """

    reason = "rate_limit"

    def __init__(self, retry_after_s: float, session_id: str) -> None:
        super().__init__(
            f"session {session_id!r} exceeded its request rate; "
            f"retry after {retry_after_s:.3f}s",
            retry_after_s,
        )
        self.session_id = session_id
