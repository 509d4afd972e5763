"""Integration tests for the streaming ranging service.

The load-bearing claims:

* **Streaming == offline** — the same CIRs pushed through
  :class:`RangingService` produce exactly the results of the offline
  paths: the serial engine, a direct :func:`detect_batch` call, and
  ``run_trials(batch_size=B)`` over the same pool.
* **Backpressure** — a full ingress queue rejects with
  :class:`ServiceOverloadedError` (retry-after attached) instead of
  buffering or crashing.
* **Deadline shedding** — an expired request is shed, never served.
* **Graceful degradation** — a failing batched pass falls back to one
  batch of one per item; an item that fails alone, or a malformed
  payload, errors alone.
* **Exactly-once accounting** — under drain stop, non-drain stop, and
  caller cancellation, every accepted request reaches exactly one
  terminal status.
* **Observability** — ``/metrics`` exposes queue depth, flush causes,
  and latency quantiles; ``/healthz`` answers.

Coroutines are driven with ``asyncio.run`` from sync tests (no
pytest-asyncio dependency).
"""

import asyncio
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.batch import detect_batch
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.pulse_id import PulseShapeClassifier
from repro.runtime import BatchTrial, run_trials
from repro.serve import (
    EngineConfig,
    MetricsServer,
    RangingOutcome,
    RangingRequest,
    RangingService,
    ServeConfig,
    ServiceOverloadedError,
)
from repro.serve.loadgen import LoadgenConfig, run_load, synthetic_pool
from repro.signal.templates import TemplateBank

TS = CIR_SAMPLING_PERIOD_S
BANK = TemplateBank.paper_bank(2)
CONFIG = SearchAndSubtractConfig()
POOL = synthetic_pool(BANK, pool_size=12, cir_length=257, seed=7)


def _engine(mode="detect", cir_length=257):
    return EngineConfig(
        BANK, TS, mode=mode, config=CONFIG, cir_length=cir_length
    )


def _requests(pool=POOL, session="s-0", deadline_s=None):
    return [
        RangingRequest(
            session_id=session,
            sequence=k,
            cir=cir,
            noise_std=noise_std,
            deadline_s=deadline_s,
        )
        for k, (cir, noise_std) in enumerate(pool)
    ]


async def _serve_all(requests, serve_config, engine=None):
    """Start a service, submit everything concurrently, drain, stop."""
    service = RangingService.build(
        replace(serve_config, engine=engine or _engine())
    )
    await service.start()
    try:
        results = await asyncio.gather(
            *[service.submit(request) for request in requests]
        )
    finally:
        await service.stop(drain=True)
    return results, service


# -- offline reference trial (module-level for run_trials) -------------------


def _pool_detect_single(rng, index, *, pool):
    cir, noise_std = pool[index]
    return SearchAndSubtract(BANK, CONFIG).detect(
        cir, TS, noise_std=noise_std
    )


def _pool_detect_batch(rngs, indices, *, pool):
    stack = np.stack([pool[i][0] for i in indices])
    stds = [pool[i][1] for i in indices]
    return detect_batch(stack, list(BANK), TS, config=CONFIG, noise_std=stds)


class TestStreamingEqualsOffline:
    def test_matches_serial_engine_and_run_trials(self):
        results, _ = asyncio.run(
            _serve_all(
                _requests(),
                ServeConfig(
                    n_shards=1, batch_size=4, max_batch_delay_s=0.005
                ),
            )
        )
        assert all(r.status == "ok" for r in results)
        streaming = [r.responses for r in results]

        serial = [
            _pool_detect_single(None, k, pool=POOL)
            for k in range(len(POOL))
        ]
        assert streaming == serial

        report = run_trials(
            BatchTrial(batch=partial(_pool_detect_batch, pool=POOL)),
            len(POOL),
            seed=0,
            batch_size=4,
        )
        assert streaming == list(report.values)

    def test_matches_offline_classify_batch(self):
        results, _ = asyncio.run(
            _serve_all(
                _requests(),
                ServeConfig(
                    n_shards=1, batch_size=len(POOL), max_batch_delay_s=0.05
                ),
                engine=_engine(mode="classify"),
            )
        )
        assert all(r.status == "ok" for r in results)
        stack = np.stack([cir for cir, _ in POOL])
        stds = [noise_std for _, noise_std in POOL]
        offline = classify_batch(
            stack, BANK, TS, config=CONFIG, noise_std=stds
        )
        assert [r.responses for r in results] == list(offline)
        serial = PulseShapeClassifier(BANK, CONFIG)
        assert results[0].responses == serial.classify(
            POOL[0][0], TS, noise_std=POOL[0][1]
        )

    def test_sharded_run_equals_single_shard(self):
        requests = [
            RangingRequest(f"s-{k % 5}", k, cir, noise_std)
            for k, (cir, noise_std) in enumerate(POOL)
        ]
        many, _ = asyncio.run(
            _serve_all(
                requests, ServeConfig(n_shards=4, batch_size=3)
            )
        )
        one, _ = asyncio.run(
            _serve_all(
                requests, ServeConfig(n_shards=1, batch_size=5)
            )
        )
        assert [r.responses for r in many] == [r.responses for r in one]

    def test_mixed_cir_lengths_in_one_flush(self):
        short_pool = synthetic_pool(
            BANK, pool_size=3, cir_length=128, seed=9
        )
        requests = _requests(list(POOL[:3]) + list(short_pool))
        results, _ = asyncio.run(
            _serve_all(
                requests,
                ServeConfig(
                    n_shards=1, batch_size=6, max_batch_delay_s=0.05
                ),
            )
        )
        assert all(r.status == "ok" for r in results)
        for k, (cir, noise_std) in enumerate(list(POOL[:3]) + list(short_pool)):
            assert results[k].responses == _pool_detect_single(
                None, 0, pool=[(cir, noise_std)]
            )


class TestOrderingAndBatching:
    def test_per_session_fifo_completion(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=2, batch_size=3, max_batch_delay_s=0.002
                ),
            )
            await service.start()
            completed = []
            futures = []
            for request in _requests(session="one-session"):
                future = service.enqueue(request)
                future.add_done_callback(
                    lambda f: completed.append(f.result().sequence)
                )
                futures.append(future)
            await asyncio.gather(*futures)
            await service.stop()
            return completed

        completed = asyncio.run(scenario())
        assert completed == sorted(completed)

    def test_flush_causes_accounted(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=1, batch_size=4, max_batch_delay_s=0.002
                ),
            )
            await service.start()
            # A full batch...
            await asyncio.gather(
                *[
                    service.submit(request)
                    for request in _requests(POOL[:4])
                ]
            )
            # ...then a lonely request that must flush on deadline.
            await service.submit(
                RangingRequest("s-0", 99, POOL[0][0], POOL[0][1])
            )
            await service.stop()
            metrics = service.metrics
            return (
                metrics.counter("serve.flush_full").value,
                metrics.counter("serve.flush_deadline").value,
            )

        full, deadline = asyncio.run(scenario())
        assert full >= 1
        assert deadline >= 1

    def test_auto_batch_size_resolution(self):
        service = RangingService.build(
            ServeConfig(engine=_engine(), batch_size="auto")
        )
        assert isinstance(service.batch_size, int)
        assert 1 <= service.batch_size <= 64

    def test_result_carries_batch_metadata(self):
        results, _ = asyncio.run(
            _serve_all(
                _requests(POOL[:4]),
                ServeConfig(n_shards=1, batch_size=4),
            )
        )
        for result in results:
            assert result.batch_size == 4
            assert result.flush_cause == "full"
            assert result.shard == 0
            assert result.latency_s > 0


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=1,
                    batch_size=64,
                    max_batch_delay_s=0.01,
                    queue_depth=2,
                    retry_after_s=0.125,
                ),
            )
            await service.start()
            futures = []
            error = None
            try:
                # Synchronous enqueues never yield to the event loop, so
                # the shard cannot drain between them, whatever the flush
                # delay: the third must bounce off the high-watermark.
                # The short delay only lets the two accepted requests
                # flush without a wait.
                for request in _requests(POOL[:3]):
                    futures.append(service.enqueue(request))
            except ServiceOverloadedError as exc:
                error = exc
            rejected = service.metrics.counter("serve.rejected").value
            await asyncio.gather(*futures)
            await service.stop()
            return error, rejected, len(futures)

        error, rejected, accepted = asyncio.run(scenario())
        assert isinstance(error, ServiceOverloadedError)
        assert error.retry_after_s == 0.125
        assert error.shard == 0
        assert rejected == 1
        assert accepted == 2

    def test_enqueue_requires_running_service(self):
        service = RangingService.build(ServeConfig(engine=_engine()))
        with pytest.raises(RuntimeError):
            service.enqueue(_requests(POOL[:1])[0])


class TestDeadlines:
    def test_expired_request_is_shed_not_served(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=1, batch_size=8, max_batch_delay_s=0.05
                ),
            )
            await service.start()
            # The batch deadline (50 ms) far exceeds the request budget
            # (1 ms): the request expires while waiting for company.
            result = await service.submit(
                RangingRequest(
                    "s-0", 0, POOL[0][0], POOL[0][1], deadline_s=0.001
                )
            )
            shed = service.metrics.counter("serve.shed").value
            await service.stop()
            return result, shed

        result, shed = asyncio.run(scenario())
        assert result.status == "shed"
        assert result.responses == []
        assert shed == 1

    def test_generous_deadline_is_served(self):
        results, service = asyncio.run(
            _serve_all(
                _requests(POOL[:4], deadline_s=30.0),
                ServeConfig(n_shards=1, batch_size=4),
            )
        )
        assert all(r.status == "ok" for r in results)
        assert service.metrics.counter("serve.shed").value == 0


class TestDegradation:
    def test_batch_failure_falls_back_to_serial(self, monkeypatch):
        import repro.serve.engine as serve_engine

        def explode(cirs, *args, **kwargs):
            if len(cirs) > 1:
                raise RuntimeError("batched pass unavailable")
            return detect_batch(cirs, *args, **kwargs)

        monkeypatch.setattr(serve_engine, "detect_batch", explode)
        results, service = asyncio.run(
            _serve_all(
                _requests(POOL[:4]),
                ServeConfig(n_shards=1, batch_size=4),
            )
        )
        assert all(r.status == "ok" for r in results)
        assert service.metrics.counter("serve.batch_fallbacks").value >= 1
        # The fallback serves each item as a batch of one — identically.
        assert [r.responses for r in results] == [
            _pool_detect_single(None, k, pool=POOL) for k in range(4)
        ]

    def test_item_failing_alone_errors_alone(self, monkeypatch):
        """An engine that fails even on a batch of one turns each item
        into a per-item error; no request is lost."""
        import repro.serve.engine as serve_engine

        def explode(*args, **kwargs):
            raise RuntimeError("engine unavailable")

        monkeypatch.setattr(serve_engine, "detect_batch", explode)
        results, service = asyncio.run(
            _serve_all(
                _requests(POOL[:4]),
                ServeConfig(n_shards=1, batch_size=4),
            )
        )
        assert [r.status for r in results] == ["error"] * 4
        assert all("engine unavailable" in r.error for r in results)
        assert service.metrics.counter("serve.batch_fallbacks").value >= 1

    def test_bad_payload_errors_alone(self):
        good = _requests(POOL[:2])
        bad = RangingRequest(
            "s-0", 99, np.zeros((4, 4), dtype=complex), 0.0
        )
        results, _ = asyncio.run(
            _serve_all(
                good + [bad],
                ServeConfig(n_shards=1, batch_size=3),
            )
        )
        assert [r.status for r in results] == ["ok", "ok", "error"]
        assert "bad CIR payload" in results[2].error


class TestAccounting:
    def test_non_drain_stop_cancels_pending_exactly_once(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=2,
                    batch_size=64,
                    max_batch_delay_s=5.0,
                    queue_depth=64,
                ),
            )
            await service.start()
            futures = [
                service.enqueue(request)
                for request in _requests(session="a")
            ] + [
                service.enqueue(request)
                for request in _requests(session="b")
            ]
            await service.stop(drain=False)
            results = await asyncio.gather(*futures)
            return results, service

        results, service = asyncio.run(scenario())
        statuses = [r.status for r in results]
        assert all(s in ("cancelled", "ok") for s in statuses)
        assert statuses.count("cancelled") >= 1
        assert service.pending == 0
        metrics = service.metrics
        accepted = metrics.counter("serve.accepted").value
        terminal = sum(
            metrics.counter(f"serve.{status}").value
            for status in ("completed", "shed", "cancelled", "errors")
        )
        assert terminal == accepted

    def test_non_drain_stop_wins_race_with_arriving_request(self):
        """A request that wakes a waiting fill in the same loop turn as
        ``stop(drain=False)`` cancels the shard loop must not keep the
        fill (and so ``stop``) alive until the batch deadline."""

        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=1,
                    batch_size=8,
                    max_batch_delay_s=5.0,
                    default_deadline_s=None,
                ),
            )
            await service.start()
            requests = _requests(POOL[:2])
            first = service.enqueue(requests[0])
            await asyncio.sleep(0.05)  # the shard loop now waits in fill
            second = service.enqueue(requests[1])  # wakes the getter
            stop = asyncio.ensure_future(service.stop(drain=False))
            done, _ = await asyncio.wait((stop,), timeout=2.0)
            if not done:
                stop.cancel()
                await asyncio.gather(stop, return_exceptions=True)
            results = await asyncio.gather(first, second)
            return bool(done), results, service

        stopped_in_time, results, service = asyncio.run(scenario())
        assert stopped_in_time, "stop(drain=False) did not return in 2 s"
        assert [r.status for r in results] == ["cancelled", "cancelled"]
        assert service.pending == 0
        metrics = service.metrics
        terminal = sum(
            metrics.counter(f"serve.{status}").value
            for status in ("completed", "shed", "cancelled", "errors")
        )
        assert terminal == metrics.counter("serve.accepted").value == 2

    def test_caller_cancellation_is_accounted(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=1, batch_size=4, max_batch_delay_s=0.05
                ),
            )
            await service.start()
            victim = service.enqueue(_requests(POOL[:1])[0])
            victim.cancel()
            survivors = await asyncio.gather(
                *[
                    service.submit(request)
                    for request in _requests(POOL[1:4])
                ]
            )
            await service.stop()
            return victim, survivors, service

        victim, survivors, service = asyncio.run(scenario())
        assert victim.cancelled()
        assert all(r.status == "ok" for r in survivors)
        assert service.metrics.counter("serve.cancelled").value == 1
        assert service.pending == 0

    def test_loadgen_accounting_under_pressure(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(
                    engine=_engine(),
                    n_shards=2,
                    batch_size=4,
                    max_batch_delay_s=0.002,
                    queue_depth=4,
                    default_deadline_s=0.25,
                ),
            )
            await service.start()
            try:
                report = await run_load(
                    service,
                    POOL,
                    LoadgenConfig(
                        sessions=32, rate=400.0, duration_s=1.5, seed=3
                    ),
                )
            finally:
                await service.stop()
            return report, service

        report, service = asyncio.run(scenario())
        assert report.sent > 0
        assert report.accounting_ok, report.as_dict()
        assert service.pending == 0

    def test_saturated_loadgen_keeps_to_its_duration(self):
        """Sessions slower than their pace drop the slots they missed
        instead of sending them all after ``duration_s`` ran out."""

        class SlowService:
            async def submit(self, request):
                await asyncio.sleep(0.05)
                return RangingOutcome(
                    session_id=request.session_id,
                    sequence=request.sequence,
                    status="ok",
                    latency_s=0.05,
                )

        async def scenario():
            loop = asyncio.get_running_loop()
            started = loop.time()
            report = await run_load(
                SlowService(),
                POOL,
                LoadgenConfig(sessions=2, rate=400.0, duration_s=1.0),
            )
            return report, loop.time() - started

        report, wall_s = asyncio.run(scenario())
        assert wall_s < 1.0 + 0.5, report.as_dict()
        assert report.accounting_ok, report.as_dict()
        assert report.ok == report.sent > 0

    def test_loadgen_command_reports_its_accounting(self, tmp_path, capsys):
        """``python -m repro loadgen``, in process: exit 0 and a JSON
        report, printed and written to ``--out``, whose accounting
        holds."""
        from repro.cli import main

        out = tmp_path / "report.json"
        argv = [
            "loadgen", "--sessions", "4", "--rate", "40",
            "--duration", "0.5", "--pool-size", "4", "--cir-length", "257",
            "--out", str(out),
        ]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accounting_ok"] is True
        assert report["sent"] > 0
        assert report["config"]["cir_length"] == 257
        assert json.loads(out.read_text()) == report


class TestEndpoints:
    @staticmethod
    async def _get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
        )
        await writer.drain()
        raw = (await reader.read()).decode()
        writer.close()
        head, _, body = raw.partition("\r\n\r\n")
        return head.splitlines()[0], body

    def test_metrics_and_healthz(self):
        async def scenario():
            service = RangingService.build(
                ServeConfig(engine=_engine(), n_shards=2, batch_size=4)
            )
            await service.start()
            server = await MetricsServer(service).start()
            await asyncio.gather(
                *[service.submit(r) for r in _requests()]
            )
            metrics_status, metrics_body = await self._get(
                server.port, "/metrics"
            )
            health_status, health_body = await self._get(
                server.port, "/healthz"
            )
            missing_status, _ = await self._get(server.port, "/nope")
            await server.stop()
            await service.stop()
            return (
                metrics_status,
                metrics_body,
                health_status,
                health_body,
                missing_status,
            )

        (
            metrics_status,
            metrics_body,
            health_status,
            health_body,
            missing_status,
        ) = asyncio.run(scenario())
        assert "200" in metrics_status
        assert "# TYPE serve_latency_s summary" in metrics_body
        assert 'serve_latency_s{quantile="0.99"}' in metrics_body
        assert "serve_queue_depth" in metrics_body
        assert "serve_flush_full" in metrics_body
        assert "200" in health_status
        health = json.loads(health_body)
        assert health["status"] == "ok"
        assert health["shards"] == 2
        assert "404" in missing_status
