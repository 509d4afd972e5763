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
* **template subtraction** — fractional, unclipped placements (the
  common case under sub-sample refinement) are grouped per template and
  updated with *batched* small FFTs: one fractional-delay ifft over the
  group (:func:`repro.signal.sampling.delayed_rows`), one ``(R, m)``
  forward FFT, one ``(R, n_templates, m)`` inverse FFT — instead of R
  separate 1-D transform chains.  The forward FFT of each zero-padded
  template is computed once per call.  Integer unclipped placements
  read the plan's precomputed cross-correlation table directly;
  clipped placements fall back to
  :meth:`~repro.core.plan.DetectorPlan.subtract_response` row by row.

Numerical contract: every row's decisions depend on that row alone, so
row ``b`` of a batch equals a batch of one on CIR ``b``; the
differential suite (``tests/test_properties_detection.py``) pins that,
and the agreement with the re-filtering oracle
(:func:`repro.core.detection.detect_reference`), at ``rtol <= 1e-9``
across ragged early-stop patterns.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtractConfig,
    _parabolic_peak,
)
from repro.core.plan import DetectorPlan
from repro.runtime.metrics import global_metrics
from repro.signal.sampling import delay_kernel, delayed_rows

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


def _subtract_fractional_group(
    plan: DetectorPlan,
    outputs: np.ndarray,
    magnitudes: np.ndarray,
    template_index: int,
    group: List[Tuple[int, float, int, complex]],
    template_ffts: Dict[int, Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Batched step-5 update for unclipped fractional placements.

    ``group`` holds ``(row, fraction, start, amplitude)`` for every
    active row that picked ``template_index`` this iteration with a
    fractional, fully-inside placement.  Equivalent to calling
    ``plan.subtract_response`` per row: the fractional delay and the
    window correlation are the same transforms, just stacked — each row
    of a 2-D pocketfft transform runs the same kernel as the 1-D call.
    """
    kernel = template_ffts.get(template_index)
    if kernel is None:
        samples = plan.templates[template_index].samples.astype(complex)
        # Padded as placed_segments pads, so a row matches its bytes.
        kernel = delay_kernel(
            np.concatenate([samples, np.zeros(1, dtype=samples.dtype)])
        )
        template_ffts[template_index] = kernel
    shifted = delayed_rows(kernel, [entry[1] for entry in group])

    m = plan.small_fft_length
    forward = sp_fft.fft(shifted, m, axis=1)
    aligned = sp_fft.ifft(
        forward[:, np.newaxis, :] * plan.small_spectra[np.newaxis, :, :],
        axis=2,
    )
    lead = plan.max_template_length - 1
    tail = plan.max_template_length + shifted.shape[1] - 1
    ordered = np.concatenate(
        [aligned[:, :, m - lead:], aligned[:, :, :tail]], axis=2
    )
    width = ordered.shape[2]
    n_fine = plan.n_fine
    for k, (row, _fraction, start, amplitude) in enumerate(group):
        first = start - lead
        a = max(0, first)
        b = min(n_fine, first + width)
        if a < b:
            outputs[row, :, a:b] -= (
                amplitude * ordered[k, :, a - first:b - first]
            )
            np.abs(outputs[row, :, a:b], out=magnitudes[row, :, a:b])


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
    template_ffts: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    # peak_index is a computed property (an argmax per access) — read
    # each template's placement constants once per call, not per row.
    peak_anchor = tuple(int(t.peak_index) for t in plan.templates)
    template_lengths = tuple(int(t.samples.shape[0]) for t in plan.templates)

    for iteration in range(config.max_responses):
        flat_indices = np.argmax(flat, axis=1)
        best = flat[np.arange(n_rows), flat_indices]
        stopped = (best <= 0.0) | ((gates > 0.0) & (best < gates))
        active = active & ~stopped
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        template_indices = flat_indices // n_fine
        peak_indices = flat_indices - template_indices * n_fine

        picked: Dict[int, Tuple[int, int, float, complex]] = {}
        for raw_row in rows:
            row = int(raw_row)
            t = int(template_indices[row])
            p = int(peak_indices[row])
            position = (
                _parabolic_peak(magnitudes[row, t], p)
                if config.refine_subsample
                else float(p)
            )
            amplitude = complex(outputs[row, t, p])
            picked[row] = (t, p, position, amplitude)
            results[row].append(
                _build_response(
                    magnitudes[row], t, p, position, amplitude,
                    factor, period, scale,
                )
            )
        if iteration + 1 >= config.max_responses:
            break  # the final subtraction would never be observed

        with metrics.timer(f"{metric_prefix}.incremental_update").time():
            fractional_groups: Dict[int, List[Tuple[int, float, int, complex]]] = {}
            for row, (t, _p, position, amplitude) in picked.items():
                length = template_lengths[t]
                integer = int(np.floor(position))
                fraction = float(position - integer)
                start = integer - peak_anchor[t]
                if fraction != 0.0:
                    if start >= 0 and start + length + 1 <= n_fine:
                        fractional_groups.setdefault(t, []).append(
                            (row, fraction, start, amplitude)
                        )
                        continue
                    a, b = plan.subtract_response(
                        outputs[row], t, position, amplitude
                    )
                elif start >= 0 and start + length <= n_fine:
                    # Integer, unclipped: precomputed table lookup.
                    first = start - (plan.max_template_length - 1)
                    ordered = plan.cross_correlations[t]
                    a = max(0, first)
                    b = min(n_fine, first + ordered.shape[1])
                    if a < b:
                        outputs[row, :, a:b] -= (
                            amplitude * ordered[:, a - first:b - first]
                        )
                else:
                    a, b = plan.subtract_response(
                        outputs[row], t, position, amplitude
                    )
                if a < b:
                    np.abs(outputs[row, :, a:b], out=magnitudes[row, :, a:b])
            for t, group in fractional_groups.items():
                _subtract_fractional_group(
                    plan, outputs, magnitudes, t, group, template_ffts
                )
        update_counter.inc(int(rows.size))
    return results
