"""Spectrum-cached FFT detection plans (the matched-filter engine's artifacts).

The search-and-subtract detector (paper Sect. IV) is the hot path of
every experiment in this repository.  The reference loop
(:func:`repro.core.detection.detect_reference`) pays, on *every* call
and *every* iteration of the subtract loop:

* a full-length ``scipy.signal.correlate`` per template (each of which
  internally runs its own forward + inverse FFTs at its own padded
  size), and
* a fresh resampling of the whole template bank to the upsampled rate.

A :class:`DetectorPlan` precomputes everything that depends only on the
*shape* of the problem — the template bank, the CIR length, and the
upsampling factor — and keys it through :func:`repro.runtime.cache` so
thousands of Monte-Carlo trials share one plan per process:

* the templates resampled to the upsampled rate;
* the bank's *cover* (:func:`bank_cover`): the coarse channels the
  engine searches, chosen so every template correlates at least
  :data:`COVER_CORRELATION` with one of them.  Every bank the paper
  uses is its own cover; the 96-shape swarm bank at U=4 is covered by
  12 of its shapes;
* the coarse channels' conjugate spectra, zero-padded to one shared
  ``scipy.fft.next_fast_len`` size and pre-multiplied with the
  peak-anchoring phase ramp, so the search runs as **one** forward FFT
  of the CIR times a 2-D spectrum matrix and **one** batched inverse
  FFT;
* the same spectra at a short window size, which turn step 5 of the
  paper's algorithm into an O(L_template) in-place update of the coarse
  outputs instead of an O(N log N) re-filtering of the whole CIR
  (:meth:`DetectorPlan.subtract_responses`);
* the *scoring matrix*: the other templates' conjugate samples with
  their peaks aligned, so one matrix product scores them around a
  coarse peak (:mod:`repro.core.batch_extract` picks each response's
  shape from the whole bank within one native tap of it).

The plan itself is immutable and shared by every thread; each thread
runs its passes on its own scratch buffers
(:func:`repro.core.batch.filter_pass`).

Numerical contract: the batched evaluation is the *same* linear
correlation the reference loop computes (zero-padded, never circular —
the shared FFT length covers the full linear support), and the engine
applies the oracle's coarse-to-fine rule, so engine and reference
detections agree to floating-point roundoff.
``tests/test_detection_fast.py`` enforces this across bank sizes, CIR
lengths, and SNRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.runtime.cache import get_cache
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import Pulse
from repro.signal.sampling import placed_segments

__all__ = [
    "COVER_CORRELATION",
    "DetectorPlan",
    "bank_cover",
    "detector_plan",
    "peak_correlations",
]

#: Peak-aligned correlation at which a coarse channel covers a template
#: (:func:`bank_cover`).  The engine searches only the cover's channels
#: and then picks each peak's shape from the whole bank within one
#: native tap of the peak.  The closest pair of the paper's four shapes,
#: 0xE6/0xF0, correlates at 0.983, so every bank the paper uses is its
#: own cover and keeps the full-bank search; only near-duplicate shapes
#: share a channel (adjacent shapes of the 96-shape swarm bank correlate
#: at a median of 0.9995).  A looser cover searches fewer channels but
#: identifies fewer responses: at 0.9 the swarm bank has 3 channels and
#: ``swarm_scale(trials=3, seed=71)``'s 500-responder id rate falls from
#: 0.403 to 0.389.
COVER_CORRELATION = 0.99


def _anchored_spectra(
    templates: Sequence[Pulse], fft_length: int
) -> np.ndarray:
    """Conjugate template spectra with the peak-anchoring phase baked in.

    For a circular correlation at length ``L`` computed as
    ``ifft(fft(x, L) * conj(fft(s, L)))`` the output at index ``m`` is
    ``sum_j x[m + j] * conj(s[j])``.  The matched-filter convention of
    this repository anchors the output axis so a pulse peaking at signal
    index ``p`` maximises the output at ``p``; that is a circular delay
    by ``peak_index``, i.e. a multiplication of the spectrum with
    ``exp(-2j pi k peak / L)``.  Baking the ramp into the cached spectra
    makes the batched evaluation a single elementwise product.
    """
    spectra = np.empty((len(templates), fft_length), dtype=complex)
    freqs = np.fft.fftfreq(fft_length)
    for row, template in enumerate(templates):
        ramp = np.exp(-2j * np.pi * freqs * template.peak_index)
        spectra[row] = np.conj(sp_fft.fft(template.samples, fft_length)) * ramp
    return spectra


def _peak_aligned(templates: Sequence[Pulse]) -> Tuple[np.ndarray, int]:
    """The templates' conjugate samples stacked with every peak in one
    column.

    Returns ``(stack, lead)``: row ``t`` of the complex
    ``(n_templates, width)`` ``stack`` holds ``conj(templates[t].samples)``
    with its peak sample in column ``lead`` and zeros around it.
    """
    peaks = [template.peak_index for template in templates]
    lead = max(peaks)
    width = lead + max(
        len(template.samples) - peak
        for template, peak in zip(templates, peaks)
    )
    stack = np.zeros((len(templates), width), dtype=complex)
    for row, (template, peak) in enumerate(zip(templates, peaks)):
        start = lead - peak
        stack[row, start : start + len(template.samples)] = np.conj(
            template.samples
        )
    return stack, lead


def peak_correlations(templates: Sequence[Pulse]) -> np.ndarray:
    """``|<s_i, s_j>|`` for every template pair, with their peaks aligned.

    The Gram product of the peak-aligned stack.  The DW1000 shapes
    correlate best with their peaks aligned, so for a bank at the
    templates' rate this equals
    :meth:`~repro.signal.templates.TemplateBank.cross_correlation_matrix`
    (``tests/test_detection_fast.py`` holds it to 1e-12), for one
    product instead of one ``np.correlate`` per pair.  ``einsum`` keeps
    the product off BLAS, whose threaded calls can stall (see
    :data:`repro.core.batch_extract.BLAS_BLOCK`): 9 ms for the 96-shape
    bank at U=8, where a BLAS product in row blocks took 770 ms.
    """
    stack, _ = _peak_aligned(templates)
    return np.abs(np.einsum("iw,jw->ij", stack, stack.conj()))


def bank_cover(templates: Sequence[Pulse]) -> Tuple[int, ...]:
    """The coarse channels of a bank: the template indices the engine
    searches, ascending.

    Every template correlates at least :data:`COVER_CORRELATION` with
    one of them (:func:`peak_correlations`).  The walk goes through the
    bank in order; the first template that no channel covers yet adds
    the *last* template that covers it, which reaches furthest along a
    bank ordered by pulse width.  A bank whose templates all correlate
    below the threshold is its own cover.
    """
    close = peak_correlations(templates) >= COVER_CORRELATION
    covered = np.zeros(len(templates), dtype=bool)
    channels = []
    for index in range(len(templates)):
        if not covered[index]:
            channel = int(np.flatnonzero(close[index])[-1])
            channels.append(channel)
            covered |= close[:, channel]
    return tuple(sorted(channels))


@dataclass(frozen=True)
class DetectorPlan:
    """Precomputed frequency-domain artifacts for one detection shape.

    A plan is immutable and shareable; build one with
    :func:`detector_plan` (which memoises through the runtime cache).

    Attributes
    ----------
    templates:
        The bank resampled to the fine (upsampled) rate, in bank order.
    sampling_period_s:
        Native CIR tap spacing the plan was built for.
    cir_length:
        Native CIR length ``N`` the plan was built for.
    upsample_factor:
        FFT upsampling factor ``U`` (1 means "filter at the native rate").
    n_fine:
        ``N * U`` — length of the upsampled working signal and of every
        filter output row.
    coarse:
        :func:`bank_cover` of ``templates``: the bank indices of the
        channels the engine filters and searches, ascending.
    fft_length:
        Shared ``next_fast_len`` transform size covering the full linear
        correlation support of the longest coarse template.
    spectra:
        ``(n_coarse, fft_length)`` conjugate, peak-anchored spectra of
        the coarse channels — the 2-D spectrum matrix of the filter pass.
    small_fft_length:
        Transform size for the short update-window correlations.
    small_spectra:
        ``(n_coarse, small_fft_length)`` conjugate, peak-anchored
        spectra used to correlate a placed segment with the coarse
        channels.
    max_template_length:
        Longest fine-rate template of the bank (window-sizing constant).
    scored:
        The bank indices outside the cover, ascending; empty when the
        bank is its own cover.
    scoring:
        ``(width, n_scored)`` conjugate samples of the ``scored``
        templates with every peak in row ``scoring_lead``: a ``width``
        sample window of the working signal times this matrix is every
        scored template's filter output at one lag.
    scoring_lead:
        Row of ``scoring`` holding every template's peak sample.
    """

    templates: Tuple[Pulse, ...]
    sampling_period_s: float
    cir_length: int
    upsample_factor: int
    n_fine: int
    coarse: Tuple[int, ...]
    fft_length: int
    spectra: np.ndarray
    small_fft_length: int
    small_spectra: np.ndarray
    max_template_length: int
    scored: Tuple[int, ...]
    scoring: np.ndarray
    scoring_lead: int

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        templates: Sequence[Pulse],
        cir_length: int,
        upsample_factor: int,
        sampling_period_s: float,
    ) -> "DetectorPlan":
        """Precompute all artifacts for a (bank, CIR length, factor) shape.

        ``sampling_period_s`` is the *native* CIR tap spacing; templates
        not already sampled at ``sampling_period_s / upsample_factor``
        are resampled (exactly mirroring the reference detector).
        """
        if cir_length < 1:
            raise ValueError(f"cir_length must be >= 1, got {cir_length}")
        if upsample_factor < 1:
            raise ValueError(
                f"upsample_factor must be >= 1, got {upsample_factor}"
            )
        if len(templates) == 0:
            raise ValueError("a detector plan needs at least one template")
        target = sampling_period_s / upsample_factor
        fine: List[Pulse] = []
        for template in templates:
            # atol=0: default atol (1e-8) would call any two sub-ns
            # periods "close" and silently skip the resampling.
            if np.isclose(
                template.sampling_period_s, target, rtol=1e-9, atol=0.0
            ):
                fine.append(template)
            else:
                fine.append(template.resampled(target))

        n_fine = cir_length * upsample_factor
        coarse = bank_cover(fine)
        searched = [fine[t] for t in coarse]
        # Full linear-correlation support: with this padding the circular
        # product equals the zero-padded linear correlation everywhere,
        # including the negative lags that the peak anchoring folds in.
        fft_length = sp_fft.next_fast_len(
            n_fine + max(len(t.samples) for t in searched) - 1
        )
        spectra = _anchored_spectra(searched, fft_length)

        # Short-window transform: must hold a placed segment (the bank's
        # longest template plus one padding sample, since any template
        # may win a peak) and one template footprint of lag on either
        # side without circular aliasing.
        max_len = max(len(t.samples) for t in fine)
        seg_max = max_len + 1
        small_fft_length = sp_fft.next_fast_len(2 * max_len + seg_max)
        small_spectra = _anchored_spectra(searched, small_fft_length)

        scored = tuple(t for t in range(len(fine)) if t not in coarse)
        stack, lead = _peak_aligned(fine)
        scoring = np.ascontiguousarray(stack[list(scored)].T)

        return cls(
            templates=tuple(fine),
            sampling_period_s=float(sampling_period_s),
            cir_length=int(cir_length),
            upsample_factor=int(upsample_factor),
            n_fine=n_fine,
            coarse=coarse,
            fft_length=fft_length,
            spectra=spectra,
            small_fft_length=small_fft_length,
            small_spectra=small_spectra,
            max_template_length=max_len,
            scored=scored,
            scoring=scoring,
            scoring_lead=lead,
        )

    @property
    def residual_margin(self) -> int:
        """Zero samples on either side of a residual row.

        A residual row holds the working signal at
        ``[residual_margin, residual_margin + n_fine)``; the margin keeps
        every scoring window within one native tap of a buffer sample
        inside the row.
        """
        return self.scoring.shape[0] + self.upsample_factor + 1

    # -- incremental search-and-subtract updates -----------------------------

    def subtract_responses(
        self,
        outputs: np.ndarray,
        magnitudes: np.ndarray,
        rows: Sequence[int],
        template_indices: Sequence[int],
        positions: Sequence[float],
        amplitudes: Sequence[complex],
        residual: np.ndarray | None = None,
    ) -> None:
        """Apply step 5 of the paper's algorithm to one response per row.

        ``outputs`` is a ``(B, n_coarse, n_fine)`` tensor of coarse
        filter outputs and ``magnitudes`` its ``np.abs``.  For every
        ``k``, row ``rows[k]`` loses the response of bank template
        ``template_indices[k]`` peaking at fine-rate ``positions[k]``
        with raw filter amplitude ``amplitudes[k]``; the two tensors are
        updated in place, and so is ``residual`` (the
        ``(B, n_fine + 2 * residual_margin)`` working signals) when
        given.

        The reference detector places ``-amplitude * template`` into the
        working signal (via :func:`repro.signal.sampling.place_pulse`)
        and re-filters everything.  Because filtering is linear, the
        filter outputs change only by the correlation of the placed
        samples with each template — a window of one template footprint
        on either side of them.  This method left-aligns exactly the
        samples ``place_pulse`` would add inside the buffer
        (:func:`repro.signal.sampling.placed_segments`: the pulse itself
        at an integer position, its fractional shift otherwise, clipped
        at the buffer edges) in one ``(R, max_template_length + 1)``
        array, correlates every row with the coarse channels in one
        ``(R, m)`` forward and one ``(R, n_coarse, m)`` inverse FFT at
        the short window size ``m``, and subtracts each row's window.  A
        response placed entirely outside the signal changes nothing.
        """
        max_len = self.max_template_length
        lead = max_len - 1
        template_indices = np.asarray(template_indices)
        positions = np.asarray(positions, dtype=float)
        placed = np.zeros((len(rows), max_len + 1), dtype=complex)
        # Buffer index of each row's first placed sample, and how many
        # samples landed inside the buffer (0 leaves the row untouched).
        origins = [0] * len(rows)
        counts = [0] * len(rows)
        for t in np.unique(template_indices):
            picks = np.flatnonzero(template_indices == t)
            template = self.templates[t]
            starts, lengths, segments = placed_segments(
                template.samples.astype(complex),
                positions[picks],
                template.peak_index,
            )
            for k, start, length, segment in zip(
                picks, starts.tolist(), lengths.tolist(), segments
            ):
                # Clip exactly as place_pulse would.
                src_start = max(0, -start)
                src_stop = min(length, self.n_fine - start)
                if src_start < src_stop:
                    placed[k, : src_stop - src_start] = segment[
                        src_start:src_stop
                    ]
                    origins[k] = start + src_start
                    counts[k] = src_stop - src_start
        m = self.small_fft_length
        forward = sp_fft.fft(placed, m, axis=1)
        aligned = sp_fft.ifft(
            forward[:, np.newaxis, :] * self.small_spectra[np.newaxis, :, :],
            axis=2,
            overwrite_x=True,
        )
        margin = self.residual_margin
        for k, (row, origin, count) in enumerate(zip(rows, origins, counts)):
            if count == 0:
                continue
            # Lag 0 sits at ``origin``; the negative lags live at the top
            # of the circular buffer.
            a = max(0, origin - lead)
            b = min(self.n_fine, origin + max_len + count - 1)
            outputs[row, :, a:origin] -= (
                amplitudes[k] * aligned[k, :, m - (origin - a):]
            )
            outputs[row, :, origin:b] -= (
                amplitudes[k] * aligned[k, :, : b - origin]
            )
            np.abs(outputs[row, :, a:b], out=magnitudes[row, :, a:b])
            if residual is not None:
                start = margin + origin
                residual[row, start : start + count] -= (
                    amplitudes[k] * placed[k, :count]
                )


def _template_key(template: Pulse) -> tuple:
    """A value-identity key for one template.

    ``(register, bandwidth, period)`` uniquely determines the sampled
    waveform for every pulse constructed through
    :mod:`repro.signal.pulses`; the raw sample bytes are included so
    hand-built :class:`Pulse` objects with custom samples can never
    collide with a synthesised one.
    """
    return (
        int(template.register),
        float(template.bandwidth_hz),
        float(template.sampling_period_s),
        template.samples.tobytes(),
    )


def detector_plan(
    templates: Sequence[Pulse],
    cir_length: int,
    upsample_factor: int,
    sampling_period_s: float,
) -> DetectorPlan:
    """A memoised :class:`DetectorPlan` for a (bank, CIR length, factor).

    Plans are immutable; repeated trials with the same shape share one
    instance per process.  The ``detector_plans`` cache's hit rate shows
    up in the runtime metrics report, and plan builds are timed under
    ``detector.plan_build`` in the process-local
    :func:`repro.runtime.metrics.global_metrics` registry.
    """
    key = (
        tuple(_template_key(t) for t in templates),
        int(cir_length),
        int(upsample_factor),
        float(sampling_period_s),
    )

    def _build() -> DetectorPlan:
        with global_metrics().timer("detector.plan_build").time():
            return DetectorPlan.build(
                templates, cir_length, upsample_factor, sampling_period_s
            )

    return get_cache("detector_plans").get_or_create(key, _build)
