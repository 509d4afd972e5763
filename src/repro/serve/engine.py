"""Per-shard engine: batched detection/classification with fallback.

Each shard owns one :class:`ShardEngine`.  The cached plans of
:mod:`repro.core.batch` carry *mutable* scratch buffers and are shared
per shape process-wide, so two shards running engine passes
concurrently (the service executes them on a thread pool) must never
share a plan — the shard engine therefore builds **private** plan
instances and hands them to :func:`~repro.core.batch.detect_batch` /
:func:`~repro.core.batch_id.classify_batch` explicitly.  Plans are
memoised per ``(CIR length, batch size)`` in a small per-shard table
(deadline flushes produce short batches, so a handful of sizes recur);
the heavy batch-independent artifacts underneath (the template
spectra) still come from the process-wide cache, which is
lock-protected and immutable once built.

Degradation mirrors :mod:`repro.runtime`'s :class:`BatchTrial`
contract: if a batched pass raises, the group degrades to per-item
``detect()``/``classify()`` calls (batches of one on private plans;
counted as a fallback), and an item that fails even alone becomes a
per-item error instead of poisoning its batch — degraded throughput,
never a lost request.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchDetectorPlan, detect_batch, private_plan
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.pulse_id import PulseShapeClassifier
from repro.signal.templates import TemplateBank

__all__ = ["EngineConfig", "ShardEngine"]

#: Per-shard plan-table bound; beyond this the oldest entry is evicted
#: (a live stream with fixed CIR length rarely needs more than a few).
MAX_PRIVATE_PLANS = 32


class EngineConfig:
    """What the service ranges with: bank, mode, and detector knobs.

    Parameters
    ----------
    bank:
        The pulse-shape :class:`~repro.signal.templates.TemplateBank`.
        In ``detect`` mode it is the detector's template bank; in
        ``classify`` mode its index is the responder identity.
    sampling_period_s:
        Native CIR tap spacing shared by every request.
    mode:
        ``"detect"`` runs :func:`~repro.core.batch.detect_batch`;
        ``"classify"`` runs :func:`~repro.core.batch_id.classify_batch`.
    config:
        Detector knobs (:class:`SearchAndSubtractConfig`); defaults to
        the engine default.
    cir_length:
        Expected CIR length, used only to auto-size micro-batches
        (``batch_size="auto"``); requests of other lengths still serve
        (they form their own sub-batches).
    """

    def __init__(
        self,
        bank: TemplateBank,
        sampling_period_s: float,
        mode: str = "detect",
        config: Optional[SearchAndSubtractConfig] = None,
        cir_length: Optional[int] = None,
    ) -> None:
        if mode not in ("detect", "classify"):
            raise ValueError(
                f"mode must be 'detect' or 'classify', got {mode!r}"
            )
        if len(bank) < 1:
            raise ValueError("the service needs a non-empty template bank")
        self.bank = bank
        self.sampling_period_s = float(sampling_period_s)
        self.mode = mode
        self.config = config or SearchAndSubtractConfig()
        self.cir_length = None if cir_length is None else int(cir_length)


class ShardEngine:
    """One shard's private engine state plus the group-execute entry.

    :meth:`execute` is called on the service's thread pool (one
    in-flight call per shard at a time, by construction of the shard
    loop), so everything mutable here — the plan table, the plans'
    scratch buffers — is touched by at most one thread concurrently.
    """

    def __init__(self, engine: EngineConfig) -> None:
        self._engine = engine
        self._templates = list(engine.bank)
        self._plans: Dict[Tuple[int, int], BatchDetectorPlan] = {}
        self._serial = None  # built lazily, only on fallback

    # -- private plans -------------------------------------------------------

    def _plan(self, cir_length: int, batch_size: int) -> BatchDetectorPlan:
        """A private (uncached, shard-local) plan for one batch shape."""
        key = (cir_length, batch_size)
        plan = self._plans.get(key)
        if plan is None:
            engine = self._engine
            plan = private_plan(
                self._templates,
                cir_length,
                engine.config.upsample_factor,
                engine.sampling_period_s,
                batch_size,
            )
            if len(self._plans) >= MAX_PRIVATE_PLANS:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
        return plan

    def _serial_engine(self):
        """The per-item engine (batches of one) for the fallback path."""
        if self._serial is None:
            engine = self._engine
            if engine.mode == "classify":
                self._serial = PulseShapeClassifier(
                    engine.bank, engine.config
                )
            else:
                self._serial = SearchAndSubtract(engine.bank, engine.config)
        return self._serial

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        cirs: Sequence[np.ndarray],
        noise_stds: Sequence[float],
    ) -> Tuple[List[Tuple[bool, object]], int, int]:
        """Serve one flushed batch; returns ``(outcomes, passes, fallbacks)``.

        ``outcomes[k]`` is ``(True, responses)`` or ``(False, message)``
        for input ``k``, in input order.  Requests are grouped by CIR
        length (stacking requires equal lengths); each group is one
        batched engine pass, degrading to per-item serial execution if
        the pass raises.
        """
        groups: Dict[int, List[int]] = {}
        order: List[int] = []
        prepared: List[Optional[np.ndarray]] = []
        outcomes: List[Optional[Tuple[bool, object]]] = [None] * len(cirs)
        for k, cir in enumerate(cirs):
            try:
                array = np.asarray(cir, dtype=complex)
                if array.ndim != 1 or array.size < 1:
                    raise ValueError(
                        f"expected a non-empty 1-D CIR, got shape "
                        f"{array.shape}"
                    )
            except Exception as error:  # malformed payload: per-item error
                outcomes[k] = (False, f"bad CIR payload: {error!r}")
                prepared.append(None)
                continue
            prepared.append(array)
            length = int(array.shape[0])
            if length not in groups:
                groups[length] = []
                order.append(length)
            groups[length].append(k)

        passes = 0
        fallbacks = 0
        engine = self._engine
        for length in order:
            members = groups[length]
            stack = np.stack([prepared[k] for k in members])
            stds = [float(noise_stds[k]) for k in members]
            plan = self._plan(length, len(members))
            try:
                if engine.mode == "classify":
                    served = classify_batch(
                        stack,
                        engine.bank,
                        engine.sampling_period_s,
                        config=engine.config,
                        noise_std=stds,
                        plan=plan,
                    )
                else:
                    served = detect_batch(
                        stack,
                        self._templates,
                        engine.sampling_period_s,
                        config=engine.config,
                        noise_std=stds,
                        plan=plan,
                    )
                passes += 1
            except Exception:  # degrade the group, never lose requests
                fallbacks += 1
                served = None
            if served is not None:
                for k, responses in zip(members, served):
                    outcomes[k] = (True, responses)
                continue
            serial = self._serial_engine()
            for k in members:
                try:
                    if engine.mode == "classify":
                        responses = serial.classify(
                            prepared[k],
                            engine.sampling_period_s,
                            noise_std=float(noise_stds[k]),
                        )
                    else:
                        responses = serial.detect(
                            prepared[k],
                            engine.sampling_period_s,
                            noise_std=float(noise_stds[k]),
                        )
                    outcomes[k] = (True, responses)
                except Exception as error:
                    outcomes[k] = (False, repr(error))
        # Every input slot is filled: either a per-item payload error or
        # a group outcome above.
        return [outcome for outcome in outcomes], passes, fallbacks  # type: ignore[misc]
