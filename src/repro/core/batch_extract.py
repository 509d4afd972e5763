"""Batch-vectorised search-and-subtract extraction.

The paper's step 2–6 loop over a ``(B, n_coarse, n_fine)`` tensor of
coarse filter outputs (the bank's cover,
:func:`repro.core.plan.bank_cover`), run *across* the batch dimension
rather than per CIR in a Python loop:

* **search** — one ``argmax`` over the ``(B, n_coarse * n_fine)``
  magnitude view per iteration (C-order, so each row's winner index is
  exactly that row's ``np.unravel_index(np.argmax(...))`` pair);
* **local pick** — every template of the bank is scored at the lags
  within one native tap (``U`` fine samples) of each row's coarse peak,
  in one batched step: the coarse channels read their outputs, the
  others come from one product of the residual windows with the plan's
  scoring matrix.  The largest magnitude, template-major, gives the
  response's shape, lag, amplitude, scores and early-stop value.  On a
  bank that is its own cover this is the coarse maximum itself;
* **ragged termination** — an active-row mask: the early-stop gate and
  ``max_responses`` fire per row, and a stopped row's result list is
  frozen exactly where a batch of one would have returned;
* **template subtraction** — every row that picked a response this
  iteration is updated in one
  :meth:`~repro.core.plan.DetectorPlan.subtract_responses` call: one
  fractional-delay inverse FFT per template picked at a fractional
  position, then one ``(R, m)`` forward FFT and one
  ``(R, n_coarse, m)`` inverse FFT over all R rows, whether their
  placements are integer or fractional, inside the signal or clipped
  at its edges; the residual loses the same placed samples.

Numerical contract: every row's decisions depend on that row alone, so
row ``b`` of a batch equals a batch of one on CIR ``b``; the
differential suite (``tests/test_properties_detection.py``) pins that,
and the agreement with the re-filtering oracle
(:func:`repro.core.detection.detect_reference`), at ``rtol <= 1e-9``
across ragged early-stop patterns.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtractConfig,
    _parabolic_peaks,
)
from repro.core.plan import DetectorPlan
from repro.runtime.metrics import global_metrics

__all__ = ["extract_responses_batch"]

#: Most multiply-adds in one BLAS product of the local pick.  OpenBLAS
#: runs a matrix product up to this size on the calling thread and may
#: wake its worker threads above it.  Threaded products of these sizes
#: gain nothing, and on a shared 2-core host 2 of 10 processes ran every
#: threaded call about 40x slower (5 ms instead of 0.13 ms for one
#: swarm-shaped pick), while single-thread products never stalled.
BLAS_BLOCK = 2**16


def _pick_shapes(
    plan: DetectorPlan,
    outputs: np.ndarray,
    magnitudes: np.ndarray,
    residual: np.ndarray | None,
    rows: np.ndarray,
    peaks: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Each row's response around its coarse peak ``peaks[k]``.

    Scores every template at the lags ``peaks[k] - U - 1 ...
    peaks[k] + U + 1`` and picks the largest magnitude at a lag within
    ``U`` of the peak and inside the buffer, template-major.

    Returns ``(templates, positions, amplitudes, scores)`` per row: the
    winner's bank index, its parabola-refined fine-rate position, its
    raw complex filter output, and every template's raw magnitude at
    the winning lag (``(R, n_templates)``).
    """
    factor = plan.upsample_factor
    n_rows = rows.size
    lags = peaks[:, np.newaxis] + np.arange(-factor - 1, factor + 2)
    gather = (
        rows[:, np.newaxis, np.newaxis],
        np.arange(len(plan.coarse))[np.newaxis, :, np.newaxis],
        np.minimum(np.maximum(lags, 0), plan.n_fine - 1)[:, np.newaxis, :],
    )
    if residual is None:
        values = outputs[gather]
        window_magnitudes = magnitudes[gather]
    else:
        shape = (n_rows, len(plan.templates), lags.shape[1])
        values = np.empty(shape, dtype=complex)
        window_magnitudes = np.empty(shape)
        values[:, plan.coarse] = outputs[gather]
        window_magnitudes[:, plan.coarse] = magnitudes[gather]
        width, n_scored = plan.scoring.shape
        windows = sliding_window_view(residual, width, axis=1)[
            rows[:, np.newaxis],
            lags + (plan.residual_margin - plan.scoring_lead),
        ]
        # (R, lags, width) @ (width, columns) is one product per row, so
        # a row's scores do not depend on the rest of the batch; column
        # blocks keep each product on the calling thread (BLAS_BLOCK).
        block = max(1, BLAS_BLOCK // windows[0].size)
        scored = np.concatenate(
            [
                np.matmul(windows, plan.scoring[:, start : start + block])
                for start in range(0, n_scored, block)
            ],
            axis=2,
        ).transpose(0, 2, 1)
        values[:, plan.scored] = scored
        window_magnitudes[:, plan.scored] = np.abs(scored)

    span = 2 * factor + 1
    near = lags[:, 1:-1]
    candidates = np.where(
        ((near >= 0) & (near < plan.n_fine))[:, np.newaxis, :],
        window_magnitudes[:, :, 1:-1],
        -1.0,
    )
    winners = np.argmax(candidates.reshape(n_rows, -1), axis=1)
    templates = winners // span
    columns = winners - templates * span + 1
    picked = np.arange(n_rows)
    peak_indices = lags[picked, columns]
    positions = _parabolic_peaks(
        window_magnitudes[
            picked[:, np.newaxis],
            templates[:, np.newaxis],
            columns[:, np.newaxis] + np.arange(-1, 2),
        ],
        peak_indices,
        plan.n_fine,
    )
    return (
        templates,
        positions,
        values[picked, templates, columns],
        window_magnitudes[picked, :, columns],
    )


def extract_responses_batch(
    plan: DetectorPlan,
    outputs: np.ndarray,
    magnitudes: np.ndarray,
    residual: np.ndarray | None,
    config: SearchAndSubtractConfig,
    sampling_period_s: float,
    stds: Sequence[float],
    *,
    metric_prefix: str = "detector",
) -> List[List[DetectedResponse]]:
    """Search-and-subtract over a ``(B, n_coarse, n_fine)`` tensor.

    ``outputs``/``magnitudes`` (and ``residual``, the plan's
    ``(B, n_fine + 2 * residual_margin)`` working signals, ``None`` when
    the bank is its own cover) are consumed destructively: step-5
    updates write into them in place.  ``stds`` carries one early-stop
    noise floor per row, so rows terminate independently (ragged).

    Returns one response list per row, in extraction (amplitude) order;
    callers sort by delay (paper step 7).  Entry ``b`` depends on row
    ``b`` alone.
    """
    metrics = global_metrics()
    n_rows, _n_coarse, n_fine = magnitudes.shape
    results: List[List[DetectedResponse]] = [[] for _ in range(n_rows)]
    if n_rows == 0 or config.max_responses <= 0:
        return results

    factor = config.upsample_factor
    period = sampling_period_s / factor
    scale = np.sqrt(factor)
    # Same left-to-right product as the reference loop's gate.
    gates = config.min_peak_snr * np.asarray(stds, dtype=float) * np.sqrt(factor)

    # C-order view: a row's flat argmax is its (channel, peak) pair.
    flat = magnitudes.reshape(n_rows, -1)
    active = np.ones(n_rows, dtype=bool)
    update_counter = metrics.counter(f"{metric_prefix}.incremental_updates")

    for iteration in range(config.max_responses):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        peaks = np.argmax(flat, axis=1)[rows] % n_fine
        templates, positions, amplitudes, scores = _pick_shapes(
            plan, outputs, magnitudes, residual, rows, peaks
        )
        best = scores[np.arange(rows.size), templates]
        row_gates = gates[rows]
        stopped = (best <= 0.0) | ((row_gates > 0.0) & (best < row_gates))
        if stopped.any():
            active[rows[stopped]] = False
            kept = ~stopped
            rows, templates, positions, amplitudes, scores = (
                rows[kept], templates[kept], positions[kept],
                amplitudes[kept], scores[kept],
            )
            if rows.size == 0:
                break
        scores = scores / scale
        for k, row in enumerate(rows.tolist()):
            position = float(positions[k])
            results[row].append(
                DetectedResponse(
                    index=position / factor,
                    delay_s=position * period,
                    amplitude=complex(amplitudes[k]) / scale,
                    template_index=int(templates[k]),
                    scores=tuple(scores[k]),
                )
            )
        if iteration + 1 >= config.max_responses:
            break  # the final subtraction would never be observed

        with metrics.timer(f"{metric_prefix}.incremental_update").time():
            plan.subtract_responses(
                outputs, magnitudes, rows, templates, positions,
                amplitudes, residual,
            )
        update_counter.inc(int(rows.size))
    return results
