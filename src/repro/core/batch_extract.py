"""Batch-vectorised search-and-subtract extraction.

The paper's step 2–6 loop over a ``(B, n_templates, n_fine)``
filter-bank output, run *across* the batch dimension rather than per
CIR in a Python loop:

* **peak-pick** — one ``argmax`` over the ``(B, n_templates * n_fine)``
  magnitude view per iteration (C-order, so each row's winner index is
  exactly that row's ``np.unravel_index(np.argmax(...))`` pair);
* **ragged termination** — an active-row mask: the early-stop gate and
  ``max_responses`` fire per row, and a stopped row's result list is
  frozen exactly where a batch of one would have returned;
* **template subtraction** — every row that picked a response this
  iteration is updated in one
  :meth:`~repro.core.plan.DetectorPlan.subtract_responses` call: one
  fractional-delay inverse FFT per template picked at a fractional
  position, then one ``(R, m)`` forward FFT and one
  ``(R, n_templates, m)`` inverse FFT over all R rows, whether their
  placements are integer or fractional, inside the signal or clipped
  at its edges.

Numerical contract: every row's decisions depend on that row alone, so
row ``b`` of a batch equals a batch of one on CIR ``b``; the
differential suite (``tests/test_properties_detection.py``) pins that,
and the agreement with the re-filtering oracle
(:func:`repro.core.detection.detect_reference`), at ``rtol <= 1e-9``
across ragged early-stop patterns.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtractConfig,
    _parabolic_peak,
)
from repro.core.plan import DetectorPlan
from repro.runtime.metrics import global_metrics

__all__ = ["extract_responses_batch"]


def _build_response(
    magnitudes: np.ndarray,
    template_idx: int,
    peak_idx: int,
    position: float,
    amplitude: complex,
    factor: int,
    period: float,
    scale: float,
) -> DetectedResponse:
    """Assemble one :class:`DetectedResponse` from a picked peak.

    ``magnitudes`` is the ``(n_templates, n_fine)`` magnitude matrix the
    peak was picked from and ``amplitude`` the *raw* (unscaled) complex
    filter output at the peak.
    """
    return DetectedResponse(
        index=position / factor,
        delay_s=position * period,
        amplitude=amplitude / scale,
        template_index=int(template_idx),
        scores=tuple(
            float(value) / scale
            for value in magnitudes[:, peak_idx]
        ),
    )


def extract_responses_batch(
    plan: DetectorPlan,
    outputs: np.ndarray,
    magnitudes: np.ndarray,
    config: SearchAndSubtractConfig,
    sampling_period_s: float,
    stds: Sequence[float],
    *,
    metric_prefix: str = "detector",
) -> List[List[DetectedResponse]]:
    """Search-and-subtract over a ``(B, n_templates, n_fine)`` tensor.

    ``outputs``/``magnitudes`` are consumed destructively (step-5
    updates write into them in place).  ``stds`` carries one early-stop
    noise floor per row, so rows terminate independently (ragged).

    Returns one response list per row, in extraction (amplitude) order;
    callers sort by delay (paper step 7).  Entry ``b`` depends on row
    ``b`` alone.
    """
    metrics = global_metrics()
    n_rows, _n_templates, n_fine = magnitudes.shape
    results: List[List[DetectedResponse]] = [[] for _ in range(n_rows)]
    if n_rows == 0 or config.max_responses <= 0:
        return results

    factor = config.upsample_factor
    period = sampling_period_s / factor
    scale = np.sqrt(factor)
    # Same left-to-right product as the reference loop's gate.
    gates = config.min_peak_snr * np.asarray(stds, dtype=float) * np.sqrt(factor)

    # C-order view: a row's flat argmax is its (template, peak) pair.
    flat = magnitudes.reshape(n_rows, -1)
    active = np.ones(n_rows, dtype=bool)
    update_counter = metrics.counter(f"{metric_prefix}.incremental_updates")

    for iteration in range(config.max_responses):
        flat_indices = np.argmax(flat, axis=1)
        best = flat[np.arange(n_rows), flat_indices]
        stopped = (best <= 0.0) | ((gates > 0.0) & (best < gates))
        active = active & ~stopped
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        template_indices = flat_indices[rows] // n_fine
        peak_indices = flat_indices[rows] - template_indices * n_fine

        positions = np.empty(rows.size)
        amplitudes = np.empty(rows.size, dtype=complex)
        for k, row in enumerate(rows):
            t = int(template_indices[k])
            p = int(peak_indices[k])
            positions[k] = _parabolic_peak(magnitudes[row, t], p)
            amplitudes[k] = outputs[row, t, p]
            results[row].append(
                _build_response(
                    magnitudes[row], t, p, float(positions[k]),
                    complex(amplitudes[k]), factor, period, scale,
                )
            )
        if iteration + 1 >= config.max_responses:
            break  # the final subtraction would never be observed

        with metrics.timer(f"{metric_prefix}.incremental_update").time():
            plan.subtract_responses(
                outputs, magnitudes, rows, template_indices, positions,
                amplitudes,
            )
        update_counter.inc(int(rows.size))
    return results
