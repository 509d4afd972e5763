"""Per-shard engine: batched detection/classification with fallback.

Each shard owns one :class:`ShardEngine`, which runs every flushed
group through the one engine function its mode names:
:func:`~repro.core.batch.detect_batch` or
:func:`~repro.core.batch_id.classify_batch`.  The service runs the
shards' passes on a thread pool; the engine's cached plans are
immutable and each thread runs on its own scratch, so concurrent shards
share nothing mutable.

Degradation mirrors :mod:`repro.runtime`'s :class:`BatchTrial`
contract: if a batched pass raises, each member of the group re-runs
alone, as a batch of one through the same function (counted as a
fallback), and an item that fails even alone becomes a per-item error
instead of poisoning its batch — degraded throughput, never a lost
request.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import detect_batch
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtractConfig
from repro.signal.templates import TemplateBank

__all__ = ["EngineConfig", "ShardEngine"]


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
    """One shard's group-execute entry.

    :meth:`execute` is called on the service's thread pool, one
    in-flight call per shard at a time by construction of the shard
    loop.
    """

    def __init__(self, engine: EngineConfig) -> None:
        self._engine = engine

    def execute(
        self,
        cirs: Sequence[np.ndarray],
        noise_stds: Sequence[float],
    ) -> Tuple[List[Tuple[bool, object]], int, int]:
        """Serve one flushed batch; returns ``(outcomes, passes, fallbacks)``.

        ``outcomes[k]`` is ``(True, responses)`` or ``(False, message)``
        for input ``k``, in input order.  Requests are grouped by CIR
        length (stacking requires equal lengths); each group is one
        batched engine pass, degrading to one batch of one per member if
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

        engine = self._engine
        # Read per call: tracers and tests swap these module attributes.
        batch = classify_batch if engine.mode == "classify" else detect_batch

        def run(members: List[int]) -> list:
            return batch(
                np.stack([prepared[k] for k in members]),
                engine.bank,
                engine.sampling_period_s,
                config=engine.config,
                noise_std=[float(noise_stds[k]) for k in members],
            )

        passes = 0
        fallbacks = 0
        for length in order:
            members = groups[length]
            try:
                served = run(members)
                passes += 1
            except Exception:  # degrade the group, never lose requests
                fallbacks += 1
                served = None
            if served is not None:
                for k, responses in zip(members, served):
                    outcomes[k] = (True, responses)
                continue
            for k in members:
                try:
                    outcomes[k] = (True, run([k])[0])
                except Exception as error:
                    outcomes[k] = (False, repr(error))
        # Every input slot is filled: either a per-item payload error or
        # a group outcome above.
        return [outcome for outcome in outcomes], passes, fallbacks  # type: ignore[misc]
