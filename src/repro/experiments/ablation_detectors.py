"""EXP-A1 — Ablation: detector performance vs response separation & SNR.

Extends the paper's single-point Sect. VI comparison into full curves:
sweep the true separation between two responses (0-6 ns) and the CIR
SNR, and measure both detectors' both-found rates.  Expected shape: the
threshold detector collapses below one pulse window of separation, while
search-and-subtract keeps working down to a fraction of a pulse width.

Each synthetic CIR is one independently seeded trial on the
:mod:`repro.runtime` executor, and the trial function ships as a
:class:`~repro.runtime.BatchTrial`: with ``run(..., batch_size=B)`` the
executor groups B trials per engine call —
:func:`repro.core.batch.detect_batch` for search-and-subtract and
:meth:`~repro.core.threshold.ThresholdDetector.detect_batch` for the
baseline — one 2-D FFT pass per group instead of B filter-bank passes.
Each trial draws its CIR from its own RNG stream and the engines'
rows do not depend on the rest of the batch, so ``batch_size`` changes
throughput only; ``tests/test_runtime_experiments.py`` asserts the
equality.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

import numpy as np

from repro.analysis.metrics import detection_rate
from repro.analysis.tables import Table
from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.batch import detect_batch
from repro.core.detection import SearchAndSubtractConfig
from repro.core.threshold import ThresholdConfig, ThresholdDetector
from repro.experiments.common import ExperimentResult
from repro.runtime import (
    BatchTrial,
    MetricsRegistry,
    WorkloadShape,
    pulse,
    run_trials,
)
from repro.signal.pulses import TC_PGDELAY_DEFAULT
from repro.signal.sampling import place_pulse

CIR_LENGTH = 1016
BASE_POSITION = 200.0
MATCH_TOLERANCE_SAMPLES = 2.0

SEPARATIONS_NS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0)
SNR_DB = 30.0
NOISE_STD = 1.0

_SEARCH_CONFIG = SearchAndSubtractConfig(max_responses=2, upsample_factor=8)
_THRESHOLD_CONFIG = ThresholdConfig(max_responses=2, upsample_factor=8)


def _positions(separation_ns: float) -> Tuple[float, float]:
    """True pulse positions (native-sample units) for a separation."""
    return (
        BASE_POSITION,
        BASE_POSITION + separation_ns * 1e-9 / CIR_SAMPLING_PERIOD_S,
    )


def _make_cir(
    rng: np.random.Generator, separation_ns: float, snr_db: float, template
) -> np.ndarray:
    """One synthetic two-pulse CIR from the trial's own RNG stream."""
    amplitude = 10.0 ** (snr_db / 20.0)
    cir = np.zeros(CIR_LENGTH, dtype=complex)
    for position in _positions(separation_ns):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        place_pulse(
            cir, template.samples.astype(complex), position, amplitude * phase
        )
    cir += NOISE_STD * (
        rng.standard_normal(CIR_LENGTH) + 1j * rng.standard_normal(CIR_LENGTH)
    ) / np.sqrt(2.0)
    return cir


def _both_found(detections, separation_ns: float) -> bool:
    """Each true position matched by a distinct detection within
    tolerance."""
    available = list(detections)
    for truth in _positions(separation_ns):
        best, best_err = None, MATCH_TOLERANCE_SAMPLES
        for det in available:
            err = abs(det.index - truth)
            if err <= best_err:
                best, best_err = det, err
        if best is None:
            return False
        available.remove(best)
    return True


def _separation_batch(
    rngs: List[np.random.Generator],
    indices: List[int],
    *,
    separation_ns: float,
    snr_db: float = SNR_DB,
) -> List[Tuple[bool, bool]]:
    """A group of trials: B CIRs through one engine pass per detector."""
    template = pulse(TC_PGDELAY_DEFAULT)
    cirs = np.stack(
        [_make_cir(rng, separation_ns, snr_db, template) for rng in rngs]
    )
    search_lists = detect_batch(
        cirs, template, CIR_SAMPLING_PERIOD_S, _SEARCH_CONFIG,
        noise_std=NOISE_STD,
    )
    threshold_lists = ThresholdDetector(
        template, _THRESHOLD_CONFIG
    ).detect_batch(cirs, CIR_SAMPLING_PERIOD_S, noise_std=NOISE_STD)
    return [
        (
            _both_found(search_found, separation_ns),
            _both_found(threshold_found, separation_ns),
        )
        for search_found, threshold_found in zip(
            search_lists, threshold_lists
        )
    ]


def run(
    *,
    trials: int = 100,
    seed: int = 37,
    workers: int = 1,
    batch_size=1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Sweep separation at fixed SNR.

    ``batch_size`` groups trials per engine call (an integer, or
    ``"auto"`` to let the runtime pick a batch from the workload shape);
    ``checkpoint`` persists per-cell trial checkpoints for resumable
    runs.
    """
    result = ExperimentResult(
        experiment_id="Ablation A1",
        description="detector success vs response separation",
    )
    table = Table(
        ["separation [ns]", "search&subtract", "threshold"],
        title=f"both-found rate over {trials} trials at {SNR_DB:.0f} dB SNR",
    )
    search_rates = []
    threshold_rates = []
    for cell, separation in enumerate(SEPARATIONS_NS):
        fn = BatchTrial(
            partial(_separation_batch, separation_ns=separation),
            workload=WorkloadShape(
                cir_length=CIR_LENGTH,
                channels=1,
                upsample_factor=_SEARCH_CONFIG.upsample_factor,
            ),
        )
        report = run_trials(
            fn,
            trials,
            seed=[seed, cell],
            workers=workers,
            metrics=metrics,
            batch_size=batch_size,
            checkpoint_dir=checkpoint,
            checkpoint_label=f"ablation-sep{separation:g}",
        )
        s_rate = detection_rate([s for s, _ in report.values])
        t_rate = detection_rate([t for _, t in report.values])
        search_rates.append(s_rate)
        threshold_rates.append(t_rate)
        table.add_row([separation, s_rate, t_rate])
    result.add_table(table)

    # Headline: mean advantage over the overlapping regime (< 4 ns).
    overlap_idx = [i for i, s in enumerate(SEPARATIONS_NS) if 0 < s < 4.0]
    result.compare(
        "mean_search_rate_overlapping",
        float(np.mean([search_rates[i] for i in overlap_idx])),
        paper=0.926,
    )
    result.compare(
        "mean_threshold_rate_overlapping",
        float(np.mean([threshold_rates[i] for i in overlap_idx])),
        paper=0.48,
    )
    result.note(
        "the paper reports one operating point (92.6 % vs 48 %); the sweep "
        "shows where each detector breaks down"
    )
    return result
