"""The search-and-subtract response detector (paper Sect. IV).

The algorithm, following the paper's seven steps:

1. Upsample the CIR with an FFT (smoother signal; sub-sample peaks).
2. Matched-filter the CIR against the pulse template (Eq. 3).
3. Take the output maximum — the strongest path index ``l_k``.
4. Estimate the path amplitude as the filter output at ``l_k`` (the
   paper's low-complexity replacement for a least-squares solve; with
   unit-energy templates the output at the peak *is* the amplitude).
5. Subtract the estimated response ``alpha_k * s(t - tau_k)`` from the
   received signal.
6. Repeat 2-5 until the N-1 strongest paths are found.
7. Sort responses by delay, ascending — independent of amplitude, which
   is the property that makes the scheme robust to shadowed direct paths
   (challenge IV).

When constructed with a multi-template bank the detector records which
template won each iteration; that is the pulse-shape identification of
Sect. V, so :mod:`repro.core.pulse_id` builds directly on this class.
Step 3 runs coarse to fine: the peak is the strongest over the outputs
of the bank's cover (:func:`repro.core.plan.bank_cover`, the templates
every other one correlates with at 0.99 or more), and the response is
the strongest output of *any* template within one native tap of it.
Every bank the paper uses is its own cover, so there step 3 is the
joint maximum over all matched-filter outputs.

One engine plus one oracle implement the loop:

* the **engine** (:func:`repro.core.batch.detect_batch`) filters B
  stacked CIRs through the cover as one batched FFT product over a
  spectrum-cached :class:`~repro.core.plan.DetectorPlan`, scores the
  other templates around each peak with one matrix product, and —
  because filtering is linear — realises step 5 as an O(L_template)
  in-place update of the coarse outputs: one short-window correlation
  of every subtracted response with the cover
  (:meth:`~repro.core.plan.DetectorPlan.subtract_responses`), instead
  of re-filtering the full CIR on every iteration.
  :meth:`SearchAndSubtract.detect` is a batch of one;
* the **oracle** (:func:`detect_reference`) is the literal
  transcription of the paper's steps with the same coarse-to-fine
  rule: subtract from the working signal, re-run every matched filter.
  Tests call it directly to check the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

from repro.core.matched_filter import matched_filter
from repro.core.plan import bank_cover
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import Pulse
from repro.signal.sampling import fft_upsample, place_pulse
from repro.signal.templates import TemplateBank


@dataclass(frozen=True)
class DetectedResponse:
    """One detected responder peak.

    Attributes
    ----------
    index:
        Fractional sample index of the peak, in *original* CIR samples
        (the detector divides upsampled indices back down).
    delay_s:
        Peak position relative to CIR tap 0 (``index * T_s``).
    amplitude:
        Estimated complex amplitude of the response.
    template_index:
        Index of the winning template in the detector's bank (0 when
        detecting with a single template).
    scores:
        Per-template amplitude magnitudes at the peak — the
        ``alpha_hat_{k,i}`` values the classifier of Sect. V compares.
    """

    index: float
    delay_s: float
    amplitude: complex
    template_index: int = 0
    scores: tuple = ()

    @property
    def magnitude(self) -> float:
        return abs(self.amplitude)


@dataclass(frozen=True)
class SearchAndSubtractConfig:
    """Tuning knobs of the detector.

    Attributes
    ----------
    max_responses:
        The ``N - 1`` of the paper: how many peaks to extract.
    upsample_factor:
        FFT upsampling applied to the CIR before filtering (step 1).
    min_peak_snr:
        Early-stop gate: iteration stops when the best remaining filter
        peak falls below ``min_peak_snr * noise_std`` (prevents reporting
        pure-noise "responses" when fewer than ``max_responses``
        responders actually replied).  Set to 0 to always extract exactly
        ``max_responses`` peaks.

    Every peak position is refined to sub-sample precision with a
    three-point parabola.
    """

    max_responses: int = 1
    upsample_factor: int = 8
    min_peak_snr: float = 0.0

    def __post_init__(self) -> None:
        if self.max_responses < 1:
            raise ValueError(
                f"max_responses must be >= 1, got {self.max_responses}"
            )
        if self.upsample_factor < 1:
            raise ValueError(
                f"upsample_factor must be >= 1, got {self.upsample_factor}"
            )
        if self.min_peak_snr < 0:
            raise ValueError(f"min_peak_snr must be >= 0, got {self.min_peak_snr}")


def _parabolic_peaks(
    window: np.ndarray, index: np.ndarray, length: int
) -> np.ndarray:
    """Sub-sample peak refinement via a three-point parabola.

    ``window[..., :]`` holds the magnitudes at ``index - 1``, ``index``
    and ``index + 1`` of a filter output of ``length`` samples.  A peak
    on the first or last sample, or on a flat parabola, stays at
    ``index``; the offset is clipped to half a sample.
    """
    left, mid, right = window[..., 0], window[..., 1], window[..., 2]
    denom = left - 2.0 * mid + right
    refine = (index > 0) & (index < length - 1) & (denom != 0.0)
    offset = 0.5 * (left - right) / np.where(refine, denom, 1.0)
    # minimum/maximum is np.clip without its per-call overhead, which
    # counts here: this runs once per extraction iteration.
    offset = np.minimum(np.maximum(offset, -0.5), 0.5)
    return np.where(refine, index + offset, index)


def _per_trial_noise(noise_std, n_trials: int) -> List[float]:
    """Broadcast a scalar-or-sequence ``noise_std`` to one value per trial."""
    if np.ndim(noise_std) == 0:
        return [float(noise_std)] * n_trials
    stds = [float(v) for v in noise_std]
    if len(stds) != n_trials:
        raise ValueError(
            f"got {len(stds)} noise stds for {n_trials} trial(s)"
        )
    return stds


class SearchAndSubtract:
    """Iterative matched-filter detector over one or more templates."""

    def __init__(
        self,
        templates: TemplateBank | Pulse | Sequence[Pulse],
        config: SearchAndSubtractConfig | None = None,
    ) -> None:
        if isinstance(templates, Pulse):
            templates = [templates]
        self._templates: List[Pulse] = list(templates)
        if len(self._templates) == 0:
            raise ValueError("detector needs at least one template")
        self.config = config or SearchAndSubtractConfig()

    @property
    def templates(self) -> List[Pulse]:
        return list(self._templates)

    def detect(
        self,
        cir: np.ndarray,
        sampling_period_s: float,
        noise_std: float = 0.0,
    ) -> List[DetectedResponse]:
        """Run the full search-and-subtract loop on a CIR.

        A batch of one through :func:`repro.core.batch.detect_batch`:
        the cached plan is immutable and every thread runs on its own
        scratch, so ``detect`` is safe to call from several threads at
        once.

        Parameters
        ----------
        cir:
            Complex CIR samples at the radio's native tap rate.
        sampling_period_s:
            Tap spacing of ``cir``.
        noise_std:
            Per-tap noise standard deviation (used for the early-stop
            gate; ignored when ``config.min_peak_snr == 0``).

        Returns
        -------
        list of :class:`DetectedResponse`
            At most ``config.max_responses`` responses, sorted by delay
            ascending (paper step 7).
        """
        from repro.core.batch import detect_batch

        cir = np.asarray(cir, dtype=complex)
        if cir.ndim != 1:
            raise ValueError(f"expected a 1-D CIR, got shape {cir.shape}")
        return detect_batch(
            cir[np.newaxis], self._templates, sampling_period_s,
            config=self.config, noise_std=noise_std,
        )[0]

    def detect_with_ls_refinement(
        self,
        cir: np.ndarray,
        sampling_period_s: float,
        noise_std: float = 0.0,
    ) -> List[DetectedResponse]:
        """Search-and-subtract followed by a joint least-squares
        re-estimation of all amplitudes.

        This is the Falsi et al. variant the paper's step 4 trades away
        for complexity: once the peak *positions* are fixed, solve

            min_a || r - sum_k a_k s_k(t - tau_k) ||^2

        jointly over all responses.  For overlapping responses the joint
        solve removes the bias that single-peak amplitude reads pick up
        from their neighbours' side lobes.  Positions are kept from the
        search pass.
        """
        responses = self.detect(cir, sampling_period_s, noise_std=noise_std)
        if len(responses) < 2:
            return responses
        return refine_amplitudes_least_squares(
            cir, responses, self._templates, sampling_period_s
        )


# -- the oracle --------------------------------------------------------------


def _upsampled_templates(
    templates: Sequence[Pulse], target_period_s: float
) -> List[Pulse]:
    """Templates resampled to the upsampled CIR rate."""
    resampled = []
    for template in templates:
        # atol=0: default atol (1e-8) would call any two sub-ns
        # periods "close" and silently skip the resampling.
        if np.isclose(
            template.sampling_period_s, target_period_s, rtol=1e-9, atol=0.0
        ):
            resampled.append(template)
        else:
            resampled.append(template.resampled(target_period_s))
    return resampled


def detect_reference(
    cir: np.ndarray,
    templates: TemplateBank | Pulse | Sequence[Pulse],
    sampling_period_s: float,
    config: SearchAndSubtractConfig | None = None,
    noise_std: float = 0.0,
) -> List[DetectedResponse]:
    """The oracle: literal per-iteration re-filtering of the paper's steps.

    Same inputs and outputs as ``SearchAndSubtract(templates, config)
    .detect(cir, sampling_period_s, noise_std)``, computed the slow,
    obvious way — every iteration subtracts the estimated response from
    the working signal and re-runs every matched filter.  Each
    iteration's peak is the largest magnitude over the filters of the
    bank's cover (:func:`repro.core.plan.bank_cover`); the response is
    the largest magnitude over *every* filter within ``U`` fine samples
    (one native tap) of that peak, taken template-major, so exact ties
    go to the lowest template and then the lowest lag.  On a bank that
    is its own cover this is the plain argmax over all filter outputs.
    The engine (:func:`repro.core.batch.detect_batch`) is tested against
    it at ``rtol <= 1e-9``.
    """
    global_metrics().counter("detector.naive_detects").inc()
    if isinstance(templates, Pulse):
        templates = [templates]
    config = config or SearchAndSubtractConfig()
    cir = np.asarray(cir, dtype=complex)
    if cir.ndim != 1:
        raise ValueError(f"expected a 1-D CIR, got shape {cir.shape}")
    factor = config.upsample_factor
    working = fft_upsample(cir, factor)
    n_fine = len(working)
    period = sampling_period_s / factor
    fine = _upsampled_templates(list(templates), period)
    cover = list(bank_cover(fine))
    # FFT interpolation preserves per-sample noise std; with unit-energy
    # templates the matched-filter output noise has (approximately) the
    # same std. Upsampled templates have their energy spread over
    # factor-times more samples, so renormalisation keeps them
    # unit-energy at the new rate.
    gate = config.min_peak_snr * noise_std * np.sqrt(factor)

    responses: List[DetectedResponse] = []
    for _ in range(config.max_responses):
        outputs = np.stack(
            [matched_filter(working, template) for template in fine]
        )
        magnitudes = np.abs(outputs)
        coarse_peak = int(np.argmax(magnitudes[cover])) % n_fine
        low = max(0, coarse_peak - factor)
        high = min(n_fine, coarse_peak + factor + 1)
        template_idx, offset = np.unravel_index(
            np.argmax(magnitudes[:, low:high]), (len(fine), high - low)
        )
        template_idx = int(template_idx)
        peak_idx = low + int(offset)
        best = magnitudes[template_idx, peak_idx]
        if best <= 0.0 or (gate > 0.0 and best < gate):
            break

        window = magnitudes[template_idx].take(
            [peak_idx - 1, peak_idx, peak_idx + 1], mode="clip"
        )
        position = float(_parabolic_peaks(window, peak_idx, n_fine))
        amplitude = complex(outputs[template_idx, peak_idx])
        # Unit-energy templates at the upsampled rate spread their
        # energy over `factor` times more samples, which inflates
        # matched-filter amplitudes by sqrt(factor); report (and
        # score) amplitudes in native CIR units, but keep the raw
        # value for the subtraction, which uses the fine template.
        scale = np.sqrt(factor)
        scores = tuple(
            float(value) / scale for value in magnitudes[:, peak_idx]
        )
        responses.append(
            DetectedResponse(
                index=position / factor,
                delay_s=position * period,
                amplitude=amplitude / scale,
                template_index=template_idx,
                scores=scores,
            )
        )
        # Step 5: subtract the estimated response from the signal.
        template = fine[template_idx]
        place_pulse(
            working,
            template.samples.astype(complex),
            position,
            amplitude=-amplitude,
            peak_index=template.peak_index,
        )
    responses.sort(key=lambda response: response.delay_s)
    return responses


def refine_amplitudes_least_squares(
    cir: np.ndarray,
    responses: Sequence[DetectedResponse],
    templates: Sequence[Pulse],
    sampling_period_s: float,
) -> List[DetectedResponse]:
    """Jointly re-estimate response amplitudes by least squares.

    Builds the dictionary matrix of each response's template placed at
    its (fractional) detected position and solves one complex
    least-squares problem against the raw CIR.  Returns new responses
    with updated amplitudes; positions and template indices are kept.
    """
    cir = np.asarray(cir, dtype=complex)
    if len(responses) == 0:
        return []
    columns = []
    for response in responses:
        template = templates[response.template_index]
        if not np.isclose(
            template.sampling_period_s, sampling_period_s, rtol=1e-9, atol=0.0
        ):
            template = template.resampled(sampling_period_s)
        column = np.zeros(len(cir), dtype=complex)
        place_pulse(
            column,
            template.samples.astype(complex),
            response.index,
            amplitude=1.0,
            peak_index=template.peak_index,
        )
        columns.append(column)
    dictionary = np.stack(columns, axis=1)
    amplitudes, *_ = np.linalg.lstsq(dictionary, cir, rcond=None)
    return [
        replace(response, amplitude=complex(amplitude))
        for response, amplitude in zip(responses, amplitudes)
    ]
