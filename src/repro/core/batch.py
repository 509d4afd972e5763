"""The search-and-subtract engine: B CIRs through one FFT engine pass.

The spectrum-cached artifacts of :mod:`repro.core.plan` collapse the
per-CIR filter bank into one forward FFT x 2-D spectrum matrix x one
batched inverse FFT.  This module batches across the *other* axis —
CIRs.  B CIRs of the same shape (same template bank, CIR length,
upsampling factor) stack into a ``(B, N)`` array and pay:

* **one** batched upsampling transform instead of B,
* **one** ``(B, fft_length)`` forward FFT instead of B,
* **one** ``(B, n_coarse, fft_length)`` batched inverse FFT over the
  bank's coarse channels (its cover, :func:`repro.core.plan.bank_cover`)
  instead of B,

then run the search-and-subtract extraction *vectorised across the
batch dimension* (:func:`repro.core.batch_extract.extract_responses_batch`):
one argmax per iteration over the whole ``(B, n_coarse * n_fine)``
magnitude view, one batched pick of each peak's shape from the whole
bank within one native tap of it, an active-row mask for ragged
early-stop, and one batched small-FFT subtraction update per iteration.
A bank that is its own cover — every bank of the paper — is searched
over all its templates, exactly as before the cover existed.

This is the only engine: :meth:`SearchAndSubtract.detect
<repro.core.detection.SearchAndSubtract.detect>` is a batch of one, and
:func:`repro.core.batch_id.classify_batch` is this pass followed by the
shape decode.  The oracle it is tested against is the literal
re-filtering loop :func:`repro.core.detection.detect_reference`
(``rtol <= 1e-9``; observed agreement is at roundoff).  Row ``b`` of a
batch is byte-identical to a batch of one on CIR ``b``: pocketfft
evaluates a row of a 2-D transform with the same kernel as the 1-D
call, the local pick scores each row with its own matrix product, and
extraction decides each row from that row alone.

Each thread runs its passes on its own scratch (:func:`filter_pass`):
the product, magnitude, upsampling-pad and — for a bank with templates
outside its cover — residual buffers of the last
:class:`~repro.core.plan.DetectorPlan` the thread ran, grown to the
largest B it has run on that plan, replaced when it runs another plan
and freed by :func:`~repro.runtime.cache.clear_all_caches`.  A B-row
pass works on leading-axis ``[:B]`` views of them, so a B=64 Table I
pass reuses its tens of megabytes instead of allocating them on every
call, while the ``detector_plans`` cache holds only immutable plans:
:func:`detect_batch` and :func:`~repro.core.batch_id.classify_batch`
are safe to call from several threads at once.
"""

from __future__ import annotations

import threading
from typing import List, Sequence, Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.core.batch_extract import extract_responses_batch
from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtractConfig,
    _per_trial_noise,
)
from repro.core.plan import DetectorPlan, detector_plan
from repro.runtime.cache import on_clear
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import Pulse

__all__ = ["detect_batch", "filter_pass"]

#: Pass counter per engine prefix.  Each pass is counted and timed once,
#: under the prefix of the entry point that ran it.
_PASS_COUNTERS = {
    "detector": "detector.batch_detects",
    "classifier": "classifier.batch_classifies",
}


class _Workspace:
    """One thread's engine scratch for one plan, with room for ``rows``
    CIRs: at B=64 x 4 channels x ~9.4k bins, tens of megabytes that a
    pass must not reallocate."""

    def __init__(self, plan: DetectorPlan, rows: int) -> None:
        self.plan = plan
        self.rows = rows
        channels = len(plan.coarse)
        self.product = np.empty(
            (rows, channels, plan.fft_length), dtype=complex
        )
        self.magnitudes = np.empty((rows, channels, plan.n_fine))
        # Upsampling pad.  Only the head/tail spectrum blocks (plus the
        # split Nyquist bin) are ever written; the middle stays zero from
        # here on, so zeroing once replaces a ~8 MB memset per pass at
        # B=64.
        self.padded = np.zeros((rows, plan.n_fine), dtype=complex)
        # Each row's upsampled CIR less the responses subtracted so far,
        # between margins that stay zero: only the scored templates read
        # it, so a bank that is its own cover keeps none.
        self.residual = (
            np.zeros(
                (rows, plan.n_fine + 2 * plan.residual_margin),
                dtype=complex,
            )
            if plan.scored
            else None
        )


_thread = threading.local()


@on_clear
def _drop_workspace() -> None:
    """Free this thread's scratch, and the plan it holds, with the caches."""
    _thread.workspace = None


def _workspace(plan: DetectorPlan, rows: int) -> _Workspace:
    """This thread's scratch for ``plan`` with room for ``rows`` CIRs."""
    held = getattr(_thread, "workspace", None)
    if held is None or held.plan is not plan or held.rows < rows:
        # Drop both references, so the old buffers are freed before the
        # new ones are allocated.
        held = _thread.workspace = None
        held = _thread.workspace = _Workspace(plan, rows)
    return held


def filter_pass(
    plan: DetectorPlan, cirs
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Upsample + matched-filter B native-rate CIRs in one pass.

    ``cirs`` is ``(B, cir_length)`` complex at the radio's tap rate.
    Returns ``(outputs, magnitudes, residual)``: the
    ``(B, n_coarse, n_fine)`` complex filter outputs, whose row
    ``[b, c]`` equals :func:`repro.core.matched_filter.matched_filter`
    of the upsampled CIR ``b`` against fine template ``coarse[c]``;
    their ``np.abs``; and, when the bank has templates outside its
    cover, the ``(B, n_fine + 2 * residual_margin)`` upsampled CIRs
    between zero margins (else ``None``).  All three are views into this
    thread's scratch that stay valid — and freely mutable, the
    extraction loop writes into them — until the thread's next pass.
    Every transform passes ``workers=-1``: with B x n_coarse independent
    rows they row-parallelise trivially, and pocketfft evaluates each
    row with the same kernel as the 1-D call.
    """
    cirs = np.asarray(cirs, dtype=complex)
    if cirs.ndim != 2 or cirs.shape[1] != plan.cir_length:
        raise ValueError(
            f"plan built for (B, {plan.cir_length}) CIRs, got shape "
            f"{tuple(cirs.shape)}"
        )
    rows = len(cirs)
    scratch = _workspace(plan, rows)
    factor = plan.upsample_factor
    if factor == 1:
        working = cirs  # read-only below; extraction mutates outputs only
    else:
        n = plan.cir_length
        spectrum = sp_fft.fft(cirs, axis=1, workers=-1)
        padded = scratch.padded[:rows]
        # Same spectrum split as fft_upsample_batch: positive
        # frequencies at the head, negative at the tail, an even
        # length's Nyquist bin shared half-and-half.
        half = (n + 1) // 2
        padded[:, :half] = spectrum[:, :half]
        if n > half:
            padded[:, -(n - half):] = spectrum[:, half:]
        if n % 2 == 0:
            padded[:, half] = spectrum[:, half] / 2.0
            padded[:, -half] = spectrum[:, half] / 2.0
        working = sp_fft.ifft(padded, axis=1, workers=-1)
        working *= factor
    residual = None
    if scratch.residual is not None:
        residual = scratch.residual[:rows]
        margin = plan.residual_margin
        residual[:, margin : margin + plan.n_fine] = working
    forward = sp_fft.fft(working, plan.fft_length, axis=1, workers=-1)
    product = scratch.product[:rows]
    np.multiply(
        forward[:, np.newaxis, :], plan.spectra[np.newaxis, :, :], out=product
    )
    # ``overwrite_x`` lets pocketfft transform the scratch in place
    # instead of allocating a second (B, n_coarse, fft_length) tensor —
    # ~33 MB of allocation and write traffic per pass at B=64, exactly
    # what makes large batches memory-bound.
    outputs = sp_fft.ifft(product, axis=2, workers=-1, overwrite_x=True)[
        :, :, : plan.n_fine
    ]
    # A leading-axis slice of a C-order buffer is C-order, so the
    # extraction loop's ``magnitudes.reshape(B, -1)`` stays a view of
    # what step 5 writes.
    magnitudes = np.abs(outputs, out=scratch.magnitudes[:rows])
    return outputs, magnitudes, residual


def search_and_subtract(
    cirs,
    templates: Sequence[Pulse],
    sampling_period_s: float,
    config: SearchAndSubtractConfig | None,
    noise_std,
    prefix: str,
) -> List[List[DetectedResponse]]:
    """The engine pass behind :func:`detect_batch` and ``classify_batch``.

    ``prefix`` (``"detector"`` or ``"classifier"``) names the entry
    point the pass is counted and timed under.
    """
    if len(templates) == 0:
        raise ValueError("the engine needs at least one template")
    config = config or SearchAndSubtractConfig()
    cirs = np.asarray(cirs, dtype=complex)
    if cirs.ndim == 1:
        raise ValueError(
            "expected a (B, N) batch of CIRs; wrap a single CIR as "
            "cirs[np.newaxis, :] or call the single-CIR method instead"
        )
    if cirs.ndim != 2:
        raise ValueError(f"expected a (B, N) batch, got shape {cirs.shape}")
    batch_size, cir_length = cirs.shape
    if batch_size == 0:
        return []
    stds = _per_trial_noise(noise_std, batch_size)
    plan = detector_plan(
        templates, cir_length, config.upsample_factor, sampling_period_s
    )

    metrics = global_metrics()
    metrics.counter(_PASS_COUNTERS[prefix]).inc()
    metrics.counter(f"{prefix}.batch_trials").inc(batch_size)
    with metrics.timer(f"{prefix}.batch_filter_pass").time():
        outputs, magnitudes, residual = filter_pass(plan, cirs)
    with metrics.timer(f"{prefix}.batch_extract").time():
        results = extract_responses_batch(
            plan,
            outputs,
            magnitudes,
            residual,
            config,
            sampling_period_s,
            stds,
            metric_prefix=prefix,
        )
    for responses in results:
        responses.sort(key=lambda response: response.delay_s)
    return results


def detect_batch(
    cirs,
    templates,
    sampling_period_s: float,
    config: SearchAndSubtractConfig | None = None,
    noise_std=0.0,
) -> List[List[DetectedResponse]]:
    """Run search-and-subtract on B stacked CIRs in one batched pass.

    Parameters
    ----------
    cirs:
        ``(B, N)`` array (or sequence of B equal-length 1-D arrays) of
        complex CIR samples at the radio's native tap rate.  ``B == 0``
        returns ``[]``.
    templates:
        Template bank (a :class:`~repro.signal.templates.TemplateBank`,
        a single :class:`~repro.signal.pulses.Pulse`, or a sequence of
        pulses), exactly as accepted by
        :class:`~repro.core.detection.SearchAndSubtract`.
    sampling_period_s:
        Tap spacing of every CIR in the batch.
    config:
        Detector knobs; defaults to ``SearchAndSubtractConfig()``.
    noise_std:
        Scalar shared by all trials, or a length-B sequence of per-trial
        noise standard deviations (for the early-stop gate).

    Returns
    -------
    list of list of :class:`DetectedResponse`
        Entry ``b`` equals ``SearchAndSubtract(templates, config)
        .detect(cirs[b], sampling_period_s, noise_std=noise_std[b])``
        — same responses, same delay-ascending order.
    """
    if isinstance(templates, Pulse):
        templates = [templates]
    return search_and_subtract(
        cirs, list(templates), sampling_period_s, config, noise_std,
        "detector",
    )
