"""Threshold-based response detection — the baseline of Sect. VI.

Implements the comparison algorithm the paper attributes to Falsi et al.:
scan the CIR magnitude; whenever it crosses a threshold, report the
maximum of the following ``N_p`` samples (one pulse duration) as a peak,
then continue scanning after that window; stop after ``N - 1`` peaks.

Its weakness — and the reason the paper's search-and-subtract wins — is
structural: two responses closer together than one pulse duration fall
into a single window and are reported as one peak.

The detector scans with an **incremental** engine: it pre-extracts the
threshold crossings once and hops from trigger to trigger with
O(log n) sorted lookups, so the per-iteration cost is one window
``argmax``, incremental in the number of *peaks* rather than linear in
the number of samples.  Mirroring :mod:`repro.core.detection`, the
literal sample-by-sample transcription above is kept as the oracle,
:func:`reference_scan` (run end to end by
:func:`detect_threshold_reference`), which the engine is
differential-tested against (``tests/test_properties_detection.py``).
Both share the upsampling and threshold computation, so their results
are *identical* — not merely close.  :meth:`ThresholdDetector.detect_batch`
additionally shares one 2-D upsampling FFT across B trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.core.detection import DetectedResponse, _per_trial_noise
from repro.runtime.metrics import global_metrics
from repro.signal.pulses import Pulse
from repro.signal.sampling import fft_upsample, fft_upsample_batch


@dataclass(frozen=True)
class ThresholdConfig:
    """Tuning knobs of the threshold detector.

    Attributes
    ----------
    max_responses:
        Number of peaks to extract (the paper's ``N - 1``).
    noise_multiplier:
        Threshold in units of the noise standard deviation.
    min_peak_fraction:
        Lower bound on the threshold as a fraction of the CIR maximum.
        Must sit above the pulse side-lobe level (~20 %) or the side
        lobes of a strong response re-trigger the detector; the price is
        that responses weaker than this fraction of the strongest are
        missed — the amplitude-dependence weakness the paper's
        challenge IV attributes to threshold-based detection.
    upsample_factor:
        FFT upsampling applied before scanning (for a fair comparison
        with the search-and-subtract detector).
    """

    max_responses: int = 1
    noise_multiplier: float = 6.0
    min_peak_fraction: float = 0.25
    upsample_factor: int = 8

    def __post_init__(self) -> None:
        if self.max_responses < 1:
            raise ValueError(f"max_responses must be >= 1, got {self.max_responses}")
        if self.upsample_factor < 1:
            raise ValueError(
                f"upsample_factor must be >= 1, got {self.upsample_factor}"
            )


def reference_scan(
    magnitude: np.ndarray, threshold: float, window: int, max_responses: int
) -> List[int]:
    """The oracle: literal sample-by-sample scan; upsampled peak indices."""
    global_metrics().counter("threshold.naive_scans").inc()
    peaks: List[int] = []
    position = 0
    n = len(magnitude)
    while position < n and len(peaks) < max_responses:
        if magnitude[position] < threshold:
            position += 1
            continue
        stop = min(position + window, n)
        peaks.append(position + int(np.argmax(magnitude[position:stop])))
        position = stop
        # Hysteresis: re-arm only once the signal falls below the
        # threshold, so a pulse's own decaying tail cannot trigger a
        # phantom second detection.
        while position < n and magnitude[position] >= threshold:
            position += 1
    return peaks


def _incremental_scan(
    magnitude: np.ndarray, threshold: float, window: int, max_responses: int
) -> List[int]:
    """Incremental trigger-hopping scan — same peaks, O(peaks log n).

    The reference loop's only data dependencies are (i) the next sample
    at-or-after the scan position that is *above* the threshold (the
    trigger) and (ii) the next sample at-or-after the window end that
    is *below* it (the hysteresis re-arm).  Pre-extracting the sorted
    above/below index sets turns both into binary searches, so the
    per-peak cost is one window ``argmax`` plus two ``searchsorted``
    calls instead of a Python-level walk over every sample.
    """
    global_metrics().counter("threshold.fast_scans").inc()
    n = len(magnitude)
    above = magnitude >= threshold
    above_idx = np.flatnonzero(above)
    below_idx = np.flatnonzero(~above)
    peaks: List[int] = []
    position = 0
    while position < n and len(peaks) < max_responses:
        # (i) next trigger at-or-after the scan position.
        j = int(np.searchsorted(above_idx, position))
        if j >= len(above_idx):
            break
        trigger = int(above_idx[j])
        stop = min(trigger + window, n)
        peaks.append(trigger + int(np.argmax(magnitude[trigger:stop])))
        # (ii) hysteresis: re-arm at the first below-threshold
        # sample at-or-after the window end.
        k = int(np.searchsorted(below_idx, stop))
        position = int(below_idx[k]) if k < len(below_idx) else n
    return peaks


class ThresholdDetector:
    """Crossing-triggered peak extraction over the CIR magnitude."""

    def __init__(self, pulse: Pulse, config: ThresholdConfig | None = None) -> None:
        self._pulse = pulse
        self.config = config or ThresholdConfig()

    @property
    def pulse(self) -> Pulse:
        return self._pulse

    def _window_samples(self, sampling_period_s: float) -> int:
        """The paper's ``N_p``: one pulse duration in (upsampled) samples.

        Falsi et al. define ``N_p = T_p / T_s`` with ``T_p`` the pulse
        duration.  We measure the template's duration as its span above
        10 % of the peak magnitude — the part of the pulse a human would
        call "the pulse" on a plot (main lobe plus visible side lobes).
        """
        magnitude = np.abs(self._pulse.samples)
        above = np.nonzero(magnitude >= 0.10 * magnitude.max())[0]
        duration_s = (above[-1] - above[0] + 1) * self._pulse.sampling_period_s
        period = sampling_period_s / self.config.upsample_factor
        return max(1, int(round(duration_s / period)))

    def _extract(
        self,
        magnitude: np.ndarray,
        sampling_period_s: float,
        noise_std: float,
        scan: Callable[..., List[int]] = _incremental_scan,
    ) -> List[DetectedResponse]:
        """Threshold + scan + response packaging over one upsampled
        magnitude signal (shared by every entry point)."""
        factor = self.config.upsample_factor
        period = sampling_period_s / factor
        peak = float(magnitude.max())
        if peak <= 0.0:
            return []
        threshold = max(
            self.config.noise_multiplier * noise_std * np.sqrt(factor),
            self.config.min_peak_fraction * peak,
        )
        window = self._window_samples(sampling_period_s)
        peaks = scan(magnitude, threshold, window, self.config.max_responses)
        responses = [
            DetectedResponse(
                index=local_max / factor,
                delay_s=local_max * period,
                amplitude=complex(magnitude[local_max] / np.sqrt(factor)),
                template_index=0,
                scores=(float(magnitude[local_max] / np.sqrt(factor)),),
            )
            for local_max in peaks
        ]
        responses.sort(key=lambda response: response.delay_s)
        return responses

    # -- entry points --------------------------------------------------------

    def detect(
        self,
        cir: np.ndarray,
        sampling_period_s: float,
        noise_std: float = 0.0,
    ) -> List[DetectedResponse]:
        """Scan the CIR and extract up to ``max_responses`` peaks.

        Returns responses sorted by delay ascending, mirroring the
        search-and-subtract output format so the two detectors are
        drop-in comparable.  A batch of one of :meth:`detect_batch`.
        """
        cir = np.asarray(cir, dtype=complex)
        if cir.ndim != 1:
            raise ValueError(f"expected a 1-D CIR, got shape {cir.shape}")
        return self.detect_batch(
            cir[np.newaxis], sampling_period_s, noise_std
        )[0]

    def detect_batch(
        self,
        cirs,
        sampling_period_s: float,
        noise_std=0.0,
    ) -> List[List[DetectedResponse]]:
        """Scan B equal-length CIRs with one shared upsampling FFT.

        ``noise_std`` may be a scalar or a length-B sequence.  Entry
        ``b`` of the result equals
        ``self.detect(cirs[b], sampling_period_s, noise_std[b])`` — the
        scan itself is per-trial; only the upsampling transform is
        batched, and its rows are byte-identical to 1-D transforms.
        """
        cirs = np.asarray(cirs, dtype=complex)
        if cirs.ndim != 2:
            raise ValueError(
                f"expected a (B, N) batch of CIRs, got shape {cirs.shape}"
            )
        if cirs.shape[0] == 0:
            return []
        stds = _per_trial_noise(noise_std, cirs.shape[0])
        metrics = global_metrics()
        metrics.counter("threshold.batch_detects").inc()
        metrics.counter("threshold.batch_trials").inc(cirs.shape[0])
        with metrics.timer("threshold.batch_upsample").time():
            magnitudes = np.abs(
                fft_upsample_batch(cirs, self.config.upsample_factor)
            )
        return [
            self._extract(magnitudes[b], sampling_period_s, stds[b])
            for b in range(cirs.shape[0])
        ]


def detect_threshold_reference(
    cir: np.ndarray,
    pulse: Pulse,
    sampling_period_s: float,
    config: ThresholdConfig | None = None,
    noise_std: float = 0.0,
) -> List[DetectedResponse]:
    """``ThresholdDetector(pulse, config).detect(...)`` with the oracle's
    :func:`reference_scan` in place of the incremental engine."""
    detector = ThresholdDetector(pulse, config)
    cir = np.asarray(cir, dtype=complex)
    magnitude = np.abs(fft_upsample(cir, detector.config.upsample_factor))
    return detector._extract(
        magnitude, sampling_period_s, noise_std, scan=reference_scan
    )
