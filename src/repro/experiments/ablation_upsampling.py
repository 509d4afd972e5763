"""EXP-A5 — Ablation: the FFT-upsampling step (Sect. IV, step 1).

The paper upsamples the CIR "in order to obtain a smoother signal" and
notes the step "is not necessarily required".  This ablation quantifies
what it actually buys: sweep the upsampling factor and measure the ToA
estimation precision (the std of the detected peak position against its
true sub-sample location) and the per-detection runtime.

Expected shape: precision improves sharply from 1x to ~4x (sub-sample
structure becomes visible to the parabolic refinement), saturates by
~8x, while runtime grows roughly linearly with the factor.

Ported to the :mod:`repro.runtime` trial executor: one trial per
upsampling factor, each drawing from its own spawned generator, so
``--workers`` parallelises the sweep and serial and parallel runs are
byte-identical (the runtime column is the only non-deterministic value
and never leaves the table).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import Table
from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.experiments.common import ExperimentResult
from repro.runtime import MetricsRegistry, run_trials
from repro.signal.pulses import dw1000_pulse
from repro.signal.sampling import place_pulse

FACTORS = (1, 2, 4, 8, 16)
SNR_DB = 28.0


def toa_precision(
    factor: int, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """(position-error std in samples, mean seconds per detect)."""
    template = dw1000_pulse()
    detector = SearchAndSubtract(
        template,
        SearchAndSubtractConfig(max_responses=1, upsample_factor=factor),
    )
    amplitude = 10.0 ** (SNR_DB / 20.0)
    errors = []
    elapsed = 0.0
    for _ in range(trials):
        position = float(rng.uniform(200.0, 800.0))
        cir = np.zeros(1016, dtype=complex)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        place_pulse(
            cir, template.samples.astype(complex), position, amplitude * phase
        )
        cir += (
            rng.standard_normal(1016) + 1j * rng.standard_normal(1016)
        ) / np.sqrt(2.0)
        start = time.perf_counter()
        responses = detector.detect(cir, CIR_SAMPLING_PERIOD_S, noise_std=1.0)
        elapsed += time.perf_counter() - start
        if responses:
            errors.append(responses[0].index - position)
    return float(np.std(errors)), elapsed / trials


def _upsampling_cell(
    rng: np.random.Generator,
    index: int,
    *,
    factors: Sequence[int],
    trials: int,
) -> Tuple[int, float, float]:
    """(factor, ToA error std in samples, mean s/detect) for one cell."""
    factor = int(factors[index])
    std_samples, seconds = toa_precision(factor, trials, rng)
    return factor, std_samples, seconds


def run(
    *,
    trials: int = 80,
    seed: int = 61,
    workers: int = 1,
    checkpoint=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """Sweep the upsampling factor and report ToA precision vs cost.

    ``trials`` is the number of single-pulse detections per factor;
    each factor is one trial of the runner.
    """
    result = ExperimentResult(
        experiment_id="Ablation A5",
        description="FFT upsampling factor vs ToA precision and runtime",
    )
    table = Table(
        ["upsample factor", "ToA error std [ps]", "runtime per detect [ms]"],
        title=f"{trials} single-pulse trials at {SNR_DB:.0f} dB SNR",
    )
    report = run_trials(
        partial(_upsampling_cell, factors=FACTORS, trials=trials),
        len(FACTORS),
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="ablation-upsampling",
    )
    stds = {}
    for factor, std_samples, seconds in report.values:
        stds[factor] = std_samples
        table.add_row(
            [
                factor,
                std_samples * CIR_SAMPLING_PERIOD_S * 1e12,
                seconds * 1e3,
            ]
        )
    result.add_table(table)

    result.compare("toa_std_1x_ps",
                   stds[1] * CIR_SAMPLING_PERIOD_S * 1e12, paper=None)
    result.compare("toa_std_8x_ps",
                   stds[8] * CIR_SAMPLING_PERIOD_S * 1e12, paper=None)
    result.compare(
        "improvement_1x_to_8x", stds[1] / stds[8] if stds[8] > 0 else 0.0,
        paper=None,
    )
    result.note(
        "the paper's step 1 is optional for detection but buys sub-sample "
        "ToA precision; beyond ~8x the gain saturates while cost grows"
    )
    return result
