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

Batch plans are memoised per ``(bank, CIR length, factor, B)`` shape in
the same ``detector_plans`` cache as the shared :class:`DetectorPlan`;
the key *includes* the batch size (see
:func:`repro.core.plan.plan_cache_key`), so a B=64 plan — which carries
``(B, n_coarse, fft_length)`` scratch buffers — is never served to
another batch size.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
from scipy import fft as sp_fft

from repro.core.batch_extract import extract_responses_batch
from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtractConfig,
    _per_trial_noise,
)
from repro.core.plan import (
    DetectorPlan,
    _template_key,
    detector_plan,
    plan_cache_key,
)
from repro.runtime.cache import get_cache
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import Pulse

__all__ = [
    "BatchDetectorPlan",
    "batch_detector_plan",
    "detect_batch",
    "private_plan",
]

#: Pass counter per engine prefix.  Each pass is counted and timed once,
#: under the prefix of the entry point that ran it.
_PASS_COUNTERS = {
    "detector": "detector.batch_detects",
    "classifier": "classifier.batch_classifies",
}


class BatchDetectorPlan:
    """A :class:`DetectorPlan` extended with batch-shaped scratch.

    Wraps the (cached, immutable) base plan and adds what only makes
    sense for a fixed batch size B: preallocated
    ``(B, n_coarse, fft_length)`` complex and
    ``(B, n_coarse, n_fine)`` float scratch, which at B=64 x 4
    channels x ~9.4k bins is tens of megabytes we do not want to
    reallocate on every engine pass, plus — when the bank has templates
    outside its cover — the ``(B, n_fine + 2 * residual_margin)``
    residual the local pick scores them on.

    The scratch is mutated on every pass, so a batch plan is neither
    shape-interchangeable nor thread-safe: :meth:`filter_pass`,
    :meth:`magnitudes` and :attr:`residual` hand out views into it that
    stay valid — and freely mutable, the extraction loop writes into
    them — only until the next pass on the same plan.  A cached plan is
    shared by every same-shape caller in the process, so concurrent
    passes (threads, a serving shard pool, :meth:`SearchAndSubtract.detect
    <repro.core.detection.SearchAndSubtract.detect>`) each run on a
    :func:`private_plan` instead.
    """

    def __init__(self, base: DetectorPlan, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.base = base
        self.batch_size = int(batch_size)
        self._product = np.empty(
            (self.batch_size, len(base.coarse), base.fft_length),
            dtype=complex,
        )
        self._magnitudes = np.empty(
            (self.batch_size, len(base.coarse), base.n_fine),
            dtype=float,
        )
        # Upsampling pad scratch.  Only the head/tail spectrum blocks
        # (plus the split Nyquist bin) are ever written; the middle
        # stays zero from construction, so zeroing once here replaces a
        # ~8 MB memset per engine pass at B=64.
        self._padded = np.zeros(
            (self.batch_size, base.n_fine), dtype=complex
        )
        # Each row's upsampled CIR less the responses subtracted so far,
        # between margins that stay zero: only the scored templates read
        # it, so a bank that is its own cover keeps none.
        self.residual = (
            np.zeros(
                (self.batch_size, base.n_fine + 2 * base.residual_margin),
                dtype=complex,
            )
            if base.scored
            else None
        )

    @property
    def n_templates(self) -> int:
        return len(self.base.templates)

    def magnitudes(self, outputs: np.ndarray) -> np.ndarray:
        """``np.abs(outputs)`` into the plan's reusable float scratch."""
        return np.abs(outputs, out=self._magnitudes)

    def filter_pass(self, cirs: np.ndarray) -> np.ndarray:
        """Upsample + matched-filter B native-rate CIRs in one pass.

        ``cirs`` is ``(B, cir_length)`` complex at the radio's tap rate;
        returns the ``(B, n_coarse, n_fine)`` complex output tensor, a
        view into the plan's scratch.  Row ``[b, c]`` equals
        :func:`repro.core.matched_filter.matched_filter` of the
        upsampled CIR ``b`` against fine template ``coarse[c]``; the
        upsampled CIRs also fill :attr:`residual` when the plan keeps
        one.  Every transform passes ``workers=-1``: with
        B x n_coarse independent rows they row-parallelise trivially,
        and pocketfft evaluates each row with the same kernel as the
        1-D call.
        """
        cirs = np.asarray(cirs, dtype=complex)
        if cirs.shape != (self.batch_size, self.base.cir_length):
            raise ValueError(
                f"plan built for shape "
                f"{(self.batch_size, self.base.cir_length)}, got "
                f"{tuple(cirs.shape)}"
            )
        factor = self.base.upsample_factor
        if factor == 1:
            working = cirs  # read-only below; extraction mutates outputs only
        else:
            n = self.base.cir_length
            spectrum = sp_fft.fft(cirs, axis=1, workers=-1)
            padded = self._padded
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
        if self.residual is not None:
            margin = self.base.residual_margin
            self.residual[:, margin : margin + self.base.n_fine] = working
        forward = sp_fft.fft(working, self.base.fft_length, axis=1, workers=-1)
        np.multiply(
            forward[:, np.newaxis, :],
            self.base.spectra[np.newaxis, :, :],
            out=self._product,
        )
        # ``overwrite_x`` lets pocketfft transform the scratch in place
        # instead of allocating a second (B, n_coarse, fft_length)
        # tensor — ~33 MB of allocation and write traffic per pass at
        # B=64, exactly what makes large batches memory-bound.
        outputs = sp_fft.ifft(
            self._product, axis=2, workers=-1, overwrite_x=True
        )
        return outputs[:, :, : self.base.n_fine]


def private_plan(
    templates: Sequence[Pulse],
    cir_length: int,
    upsample_factor: int,
    sampling_period_s: float,
    batch_size: int = 1,
) -> BatchDetectorPlan:
    """An uncached batch plan whose scratch belongs to the caller alone.

    The immutable artifacts underneath come from the shared
    :func:`~repro.core.plan.detector_plan` cache; only the scratch
    buffers are new.  This is what a caller that may run concurrently
    with others of the same shape passes as ``plan=``.
    """
    base = detector_plan(
        templates, cir_length, upsample_factor, sampling_period_s
    )
    return BatchDetectorPlan(base, batch_size)


def batch_detector_plan(
    templates: Sequence[Pulse],
    cir_length: int,
    upsample_factor: int,
    sampling_period_s: float,
    batch_size: int,
) -> BatchDetectorPlan:
    """A memoised :class:`BatchDetectorPlan` for a batched shape.

    The underlying :class:`DetectorPlan` artifacts are shared with every
    other batch size via their own cache entry; only the thin batch
    wrapper (plus its scratch) is stored per batch size.  Both lookups
    count toward the ``detector_plans`` hit rate shown in the runtime
    metrics report.
    """
    key = plan_cache_key(
        templates, cir_length, upsample_factor, sampling_period_s,
        batch_size=batch_size,
    )
    return get_cache("detector_plans").get_or_create(
        key,
        lambda: private_plan(
            templates, cir_length, upsample_factor, sampling_period_s,
            batch_size,
        ),
    )


def _check_plan(
    plan: BatchDetectorPlan,
    templates: Sequence[Pulse],
    sampling_period_s: float,
    batch_size: int,
    cir_length: int,
    upsample_factor: int,
) -> None:
    """Reject an explicitly supplied plan built for another call."""
    base = plan.base
    if (
        plan.batch_size != batch_size
        or base.cir_length != cir_length
        or base.upsample_factor != upsample_factor
    ):
        raise ValueError(
            "explicit plan shape (B="
            f"{plan.batch_size}, N={base.cir_length}, "
            f"U={base.upsample_factor}) does not match the call "
            f"(B={batch_size}, N={cir_length}, U={upsample_factor})"
        )
    if base.sampling_period_s != float(sampling_period_s):
        raise ValueError(
            f"explicit plan built for sampling period "
            f"{base.sampling_period_s!r} s, call uses "
            f"{float(sampling_period_s)!r} s"
        )
    if base.template_keys != tuple(_template_key(t) for t in templates):
        raise ValueError(
            "explicit plan was built for a different template bank "
            f"({len(base.template_keys)} templates) than the call's "
            f"({len(templates)} templates)"
        )


def search_and_subtract(
    cirs,
    templates: Sequence[Pulse],
    sampling_period_s: float,
    config: SearchAndSubtractConfig | None,
    noise_std,
    plan: BatchDetectorPlan | None,
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
    if plan is None:
        plan = batch_detector_plan(
            templates,
            cir_length,
            config.upsample_factor,
            sampling_period_s,
            batch_size,
        )
    else:
        _check_plan(
            plan, templates, sampling_period_s, batch_size, cir_length,
            config.upsample_factor,
        )

    metrics = global_metrics()
    metrics.counter(_PASS_COUNTERS[prefix]).inc()
    metrics.counter(f"{prefix}.batch_trials").inc(batch_size)
    with metrics.timer(f"{prefix}.batch_filter_pass").time():
        outputs = plan.filter_pass(cirs)
        magnitudes = plan.magnitudes(outputs)
    with metrics.timer(f"{prefix}.batch_extract").time():
        results = extract_responses_batch(
            plan.base,
            outputs,
            magnitudes,
            plan.residual,
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
    *,
    plan: BatchDetectorPlan | None = None,
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
    plan:
        Optional explicit :class:`BatchDetectorPlan` to run on,
        bypassing the process-local plan cache.  The cache hands every
        same-shape caller the *same* plan object — whose scratch buffers
        are mutated on every pass — so concurrent engine passes from
        multiple threads must each bring a :func:`private_plan`.  The
        plan must have been built for this call: same batch size, CIR
        length, upsample factor, sampling period and templates, or
        :class:`ValueError` is raised.

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
        cirs, list(templates), sampling_period_s, config, noise_std, plan,
        "detector",
    )
