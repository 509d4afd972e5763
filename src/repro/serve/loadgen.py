"""Load generator: replay CIR streams against the ranging service.

``python -m repro loadgen --sessions 1000 --rate 2000 --duration 60``
stands up a deployment through
:class:`~repro.serve.client.AsyncRangingClient` (in-process by default;
``--workers K`` forks a multi-process
:class:`~repro.serve.supervisor.RangingServer`; ``--rate-limit R`` arms
the per-session token bucket; ``--port P`` also serves ``/metrics`` and
``/healthz`` while the replay runs), replays CIR ranging requests from many
concurrent initiator sessions at a configurable aggregate rate, and
reports a latency/throughput/accounting summary.  Two replay sources:

``synthetic``
    A pool of netsim-style CIRs (bank pulses at fractional positions
    plus complex white noise — the same construction the engine property
    tests use), cheap to build at any length and count.
``fig8``
    Rounds of the paper's Fig. 8 nine-responder experiment
    (:func:`repro.experiments.fig8_combined.build_session`), i.e. real
    experiment-generated captures.

Each session is closed-loop (it awaits one result before sending its
next request) but paced so the fleet approaches the requested aggregate
rate.  The report enforces the service's exactly-once accounting: every
sent request is acknowledged as exactly one of ok / shed / error /
cancelled / rejected, and ``accounting_ok`` is the zero-lost /
zero-duplicated verdict the acceptance soak checks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.detection import SearchAndSubtractConfig
from repro.serve.client import AsyncRangingClient
from repro.serve.engine import EngineConfig
from repro.serve.http import MetricsServer
from repro.serve.ratelimit import RateLimitConfig
from repro.serve.request import (
    RangingOutcome,
    RangingRequest,
    ServiceRejectedError,
)
from repro.serve.service import ServeConfig
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank

__all__ = [
    "LoadgenConfig",
    "LoadgenReport",
    "synthetic_pool",
    "fig8_pool",
    "run_load",
    "add_arguments",
    "run_from_args",
]

_NOISE_STD = 0.01


@dataclass(frozen=True)
class LoadgenConfig:
    """One load run: how many sessions, how fast, for how long."""

    sessions: int = 100
    rate: float = 500.0  # aggregate requests/second across all sessions
    duration_s: float = 10.0
    deadline_s: Optional[float] = None  # per-request budget (None: default)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}"
            )


@dataclass
class LoadgenReport:
    """What a load run produced, with the accounting verdict.

    Records are tallied from :class:`RangingOutcome` objects (and the
    two rejection exception types) by :meth:`record` — the loadgen has
    no response shape of its own.
    """

    sent: int = 0
    ok: int = 0
    shed: int = 0
    error: int = 0
    cancelled: int = 0
    rejected: int = 0
    rate_limited: int = 0
    duration_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)

    def record(self, outcome: RangingOutcome) -> None:
        """Tally one terminal outcome."""
        if outcome.status == "ok":
            self.ok += 1
            self.latencies_s.append(outcome.latency_s)
        elif outcome.status == "shed":
            self.shed += 1
        elif outcome.status == "cancelled":
            self.cancelled += 1
        else:
            self.error += 1

    def record_rejection(self, error: ServiceRejectedError) -> None:
        """Tally one admission refusal (backpressure vs rate limit)."""
        if error.reason == "rate_limit":
            self.rate_limited += 1
        else:
            self.rejected += 1

    @property
    def accounted(self) -> int:
        return (
            self.ok
            + self.shed
            + self.error
            + self.cancelled
            + self.rejected
            + self.rate_limited
        )

    @property
    def accounting_ok(self) -> bool:
        """Zero lost, zero duplicated: every sent request acked once."""
        return self.sent == self.accounted

    def latency_quantile(self, q: float) -> float:
        if not self.latencies_s:
            return float("nan")
        ordered = sorted(self.latencies_s)
        rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
        return ordered[rank - 1]

    def as_dict(self) -> Dict[str, object]:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "error": self.error,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "rate_limited": self.rate_limited,
            "accounted": self.accounted,
            "accounting_ok": self.accounting_ok,
            "duration_s": self.duration_s,
            "throughput_rps": (
                self.ok / self.duration_s if self.duration_s > 0 else 0.0
            ),
            "latency_p50_s": self.latency_quantile(0.5),
            "latency_p95_s": self.latency_quantile(0.95),
            "latency_p99_s": self.latency_quantile(0.99),
            "latency_max_s": (
                max(self.latencies_s) if self.latencies_s else float("nan")
            ),
        }


# -- CIR pools ---------------------------------------------------------------


def synthetic_pool(
    bank: TemplateBank,
    pool_size: int = 32,
    cir_length: int = 509,
    max_responses: int = 3,
    seed: int = 0,
) -> List[Tuple[np.ndarray, float]]:
    """Netsim-style CIRs: bank pulses at fractional positions + noise."""
    rng = np.random.default_rng(seed)
    templates = [pulse.samples.astype(complex) for pulse in bank]
    pool: List[Tuple[np.ndarray, float]] = []
    for _ in range(pool_size):
        cir = np.zeros(cir_length, dtype=complex)
        for _ in range(int(rng.integers(1, max_responses + 1))):
            position = float(rng.uniform(40.0, cir_length - 40.0))
            amplitude = rng.uniform(0.3, 1.0) * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi)
            )
            template = templates[int(rng.integers(len(templates)))]
            place_pulse(cir, template, position, amplitude)
        cir += _NOISE_STD * (
            rng.standard_normal(cir_length)
            + 1j * rng.standard_normal(cir_length)
        ) / np.sqrt(2.0)
        pool.append((cir, _NOISE_STD))
    return pool


def fig8_pool(
    pool_size: int = 8, seed: int = 31
) -> List[Tuple[np.ndarray, float]]:
    """Captures from the paper's Fig. 8 nine-responder experiment."""
    from repro.experiments.fig8_combined import build_session

    pool: List[Tuple[np.ndarray, float]] = []
    for i in range(pool_size):
        session = build_session(seed=seed + i)
        pending = session.begin_round()
        pool.append((pending.cir, pending.noise_std))
    return pool


# -- replay ------------------------------------------------------------------


async def _session_task(
    service,
    session_id: str,
    pool: Sequence[Tuple[np.ndarray, float]],
    start_offset: float,
    interval: float,
    stop_at: float,
    deadline_s: Optional[float],
    report: LoadgenReport,
    seed: int,
) -> None:
    loop = asyncio.get_running_loop()
    rng = random.Random(seed)
    next_at = loop.time() + start_offset
    sequence = 0
    while next_at < stop_at:
        delay = next_at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        cir, noise_std = pool[rng.randrange(len(pool))]
        request = RangingRequest(
            session_id=session_id,
            sequence=sequence,
            cir=cir,
            noise_std=noise_std,
            deadline_s=deadline_s,
        )
        sequence += 1
        report.sent += 1
        try:
            result = await service.submit(request)
        except ServiceRejectedError as error:
            # Rejected (backpressure or rate limit): honour the
            # retry-after hint before the next attempt instead of
            # hammering the saturated shard / empty bucket.
            report.record_rejection(error)
            next_at = max(
                next_at + interval, loop.time() + error.retry_after_s
            )
            continue
        report.record(result)
        # A saturated session drops the slots it missed instead of
        # sending them back to back past ``stop_at``.
        next_at = max(next_at + interval, loop.time())


async def run_load(
    service,
    pool: Sequence[Tuple[np.ndarray, float]],
    config: LoadgenConfig,
) -> LoadgenReport:
    """Replay ``pool`` against a started deployment; returns the report.

    ``service`` is anything with an async ``submit`` —
    :class:`~repro.serve.client.AsyncRangingClient` (the normal entry),
    a :class:`~repro.serve.service.RangingService`, or a
    :class:`~repro.serve.supervisor.RangingServer`.
    """
    if not pool:
        raise ValueError("the CIR pool is empty")
    report = LoadgenReport()
    loop = asyncio.get_running_loop()
    interval = config.sessions / config.rate
    started = loop.time()
    stop_at = started + config.duration_s
    tasks = [
        asyncio.ensure_future(
            _session_task(
                service,
                f"session-{i:05d}",
                pool,
                start_offset=i / config.rate,  # stagger arrivals evenly
                interval=interval,
                stop_at=stop_at,
                deadline_s=config.deadline_s,
                report=report,
                seed=config.seed * 1_000_003 + i,
            )
        )
        for i in range(config.sessions)
    ]
    await asyncio.gather(*tasks)
    report.duration_s = loop.time() - started
    return report


# -- CLI ---------------------------------------------------------------------


def add_arguments(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Register the ``repro loadgen`` flags on ``parser``."""
    parser.add_argument("--sessions", type=int, default=100)
    parser.add_argument(
        "--rate", type=float, default=500.0,
        help="aggregate requests/second across all sessions",
    )
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument(
        "--cir-source", choices=("synthetic", "fig8"), default="synthetic"
    )
    parser.add_argument(
        "--cir-length", type=int, default=509,
        help="CIR length for the synthetic pool",
    )
    parser.add_argument("--pool-size", type=int, default=32)
    parser.add_argument(
        "--mode", choices=("detect", "classify"), default="detect"
    )
    parser.add_argument("--templates", type=int, default=3)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes (0: in-process service, >=1: forked "
        "multi-process RangingServer)",
    )
    parser.add_argument(
        "--rate-limit", type=float, default=None,
        help="per-session token-bucket rate in requests/second "
        "(default: no rate limiting)",
    )
    parser.add_argument(
        "--rate-limit-burst", type=float, default=8.0,
        help="token-bucket burst capacity per session",
    )
    parser.add_argument(
        "--batch-size", default="auto",
        help="micro-batch size per shard (int or 'auto')",
    )
    parser.add_argument(
        "--batch-delay-ms", type=float, default=5.0,
        help="deadline-flush budget in milliseconds",
    )
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request latency budget (default: service default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--port", type=int, default=None,
        help="also serve /metrics and /healthz on this port (0=ephemeral)",
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON report to this path"
    )
    return parser


async def _amain(args: argparse.Namespace) -> Dict[str, object]:
    bank = TemplateBank.paper_bank(args.templates)
    if args.cir_source == "fig8":
        pool = fig8_pool(pool_size=args.pool_size, seed=args.seed + 31)
        cir_length = len(pool[0][0])
    else:
        pool = synthetic_pool(
            bank,
            pool_size=args.pool_size,
            cir_length=args.cir_length,
            seed=args.seed,
        )
        cir_length = args.cir_length
    batch_size = (
        args.batch_size
        if args.batch_size == "auto"
        else int(args.batch_size)
    )
    config = ServeConfig(
        n_shards=args.shards,
        batch_size=batch_size,
        max_batch_delay_s=args.batch_delay_ms / 1000.0,
        queue_depth=args.queue_depth,
        engine=EngineConfig(
            bank,
            CIR_SAMPLING_PERIOD_S,
            mode=args.mode,
            config=SearchAndSubtractConfig(),
            cir_length=cir_length,
        ),
        workers=args.workers,
        rate_limit=(
            None
            if args.rate_limit is None
            else RateLimitConfig(
                args.rate_limit, burst=args.rate_limit_burst
            )
        ),
    )
    client = AsyncRangingClient(config)
    await client.start()
    endpoint = None
    if args.port is not None:
        endpoint = await MetricsServer(
            client.deployment, port=args.port
        ).start()
        print(
            f"metrics: http://127.0.0.1:{endpoint.port}/metrics",
            file=sys.stderr,
        )
    try:
        report = await run_load(
            client,
            pool,
            LoadgenConfig(
                sessions=args.sessions,
                rate=args.rate,
                duration_s=args.duration,
                deadline_s=(
                    None
                    if args.deadline_ms is None
                    else args.deadline_ms / 1000.0
                ),
                seed=args.seed,
            ),
        )
        counters = client.metrics.snapshot()["counters"]
    finally:
        if endpoint is not None:
            await endpoint.stop()
        await client.close(drain=True)

    def _count(name: str) -> float:
        # In-process metrics live under serve.*; the multi-process
        # parent adds server.* — sum both so one summary shape covers
        # both deployments.
        return counters.get(f"serve.{name}", 0) + counters.get(
            f"server.{name}", 0
        )

    summary = report.as_dict()
    summary["config"] = {
        "sessions": args.sessions,
        "rate": args.rate,
        "duration_s": args.duration,
        "cir_source": args.cir_source,
        "cir_length": cir_length,
        "mode": args.mode,
        "shards": args.shards,
        "workers": args.workers,
        "rate_limit_rps": args.rate_limit,
        "batch_size": getattr(
            client.deployment, "batch_size", batch_size
        ),
        "batch_delay_ms": args.batch_delay_ms,
        "queue_depth": args.queue_depth,
    }
    summary["metrics"] = {
        "rejected": _count("rejected"),
        "rate_limited": _count("rate_limited"),
        "shed": _count("shed"),
        "flush_full": _count("flush_full"),
        "flush_deadline": _count("flush_deadline"),
        "batch_fallbacks": _count("batch_fallbacks"),
        "worker_restarts": _count("worker_restarts"),
    }
    return summary


def run_from_args(args: argparse.Namespace) -> int:
    """Execute one parsed load run; exit code reflects the accounting."""
    summary = asyncio.run(_amain(args))
    text = json.dumps(summary, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return 0 if summary["accounting_ok"] else 1

