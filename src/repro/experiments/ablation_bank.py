"""EXP-A2 — Ablation: identification accuracy vs template-bank size.

The paper claims up to ~100 usable pulse shapes (Sect. V/VIII).  More
shapes squeezed into the fixed register range means more similar
neighbours and a smaller classification margin.  This ablation sweeps
the bank size and measures single-response shape-classification accuracy
at a fixed SNR, quantifying where the "~100 shapes" claim starts to cost
accuracy.

Ported to the :mod:`repro.runtime` trial executor: one trial per bank
size, each drawing from its own spawned generator, so ``--workers``
parallelises the sweep and serial and parallel runs are byte-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import Table
from repro.constants import CIR_SAMPLING_PERIOD_S
from repro.core.detection import SearchAndSubtractConfig
from repro.core.pulse_id import PulseShapeClassifier
from repro.experiments.common import ExperimentResult
from repro.runtime import MetricsRegistry, run_trials
from repro.signal.sampling import place_pulse
from repro.signal.templates import TemplateBank

CIR_LENGTH = 512
BANK_SIZES = (2, 3, 4, 8, 16, 32, 64)
SNR_DB = 30.0


def classification_accuracy(
    bank_size: int, trials: int, snr_db: float, rng: np.random.Generator
) -> float:
    """Accuracy of decoding a single response's shape with a given bank."""
    bank = TemplateBank.spread(bank_size)
    classifier = PulseShapeClassifier(
        bank, SearchAndSubtractConfig(max_responses=1, upsample_factor=8)
    )
    amplitude = 10.0 ** (snr_db / 20.0)
    hits = 0
    for _ in range(trials):
        true_shape = int(rng.integers(0, bank_size))
        cir = np.zeros(CIR_LENGTH, dtype=complex)
        position = float(rng.uniform(100, CIR_LENGTH - 150))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        place_pulse(
            cir,
            bank[true_shape].samples.astype(complex),
            position,
            amplitude * phase,
        )
        cir += (
            rng.standard_normal(CIR_LENGTH) + 1j * rng.standard_normal(CIR_LENGTH)
        ) / np.sqrt(2.0)
        classified = classifier.classify(cir, CIR_SAMPLING_PERIOD_S, noise_std=1.0)
        if classified and classified[0].shape_index == true_shape:
            hits += 1
    return hits / trials


def _bank_cell(
    rng: np.random.Generator,
    index: int,
    *,
    sizes: Sequence[int],
    trials: int,
) -> Tuple[int, int, float]:
    """(bank size, min register step, accuracy) for one sweep cell."""
    size = int(sizes[index])
    registers = TemplateBank.spread(size).registers
    min_step = min(
        registers[i + 1] - registers[i] for i in range(len(registers) - 1)
    )
    return size, int(min_step), classification_accuracy(
        size, trials, SNR_DB, rng
    )


def run(
    *,
    trials: int = 100,
    seed: int = 41,
    workers: int = 1,
    checkpoint=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ExperimentResult:
    """Sweep the bank size at fixed SNR.

    ``trials`` is the number of single-response classifications per bank
    size; each size is one trial of the runner.
    """
    result = ExperimentResult(
        experiment_id="Ablation A2",
        description="shape-classification accuracy vs bank size",
    )
    table = Table(
        ["bank size", "min register step", "accuracy"],
        title=f"single-response classification over {trials} trials "
        f"at {SNR_DB:.0f} dB SNR",
    )
    report = run_trials(
        partial(_bank_cell, sizes=BANK_SIZES, trials=trials),
        len(BANK_SIZES),
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="ablation-bank",
    )
    accuracies = {}
    for size, min_step, accuracy in report.values:
        accuracies[size] = accuracy
        table.add_row([size, min_step, accuracy])
    result.add_table(table)

    result.compare("accuracy_3_shapes", accuracies[3], paper=0.99)
    result.compare(
        f"accuracy_{BANK_SIZES[-1]}_shapes", accuracies[BANK_SIZES[-1]],
        paper=None,
    )
    result.note(
        "the paper evaluates 3 shapes (Table I) and conjectures ~100; the "
        "sweep shows how the margin erodes as shapes pack tighter"
    )
    return result
