"""EXP-F5 — Fig. 5: pulse shapes for different TC_PGDELAY values.

Reproduces the paper's template campaign: the four register values shown
in Fig. 5 (0x93 default, 0xC8, 0xE6, 0xF0) yield monotonically wider
pulses, all scaled to unit energy, and the register space supports 108
distinct shapes.

The per-register synthesis runs on the :mod:`repro.runtime` trial
executor (one trial per register), so ``run()`` carries the standard
``run(trials, seed, workers, batch_size, checkpoint)`` surface:
``--workers`` parallelises the shape renders and ``--checkpoint``
persists them, with results identical at any worker count because the
synthesis is deterministic.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.analysis.tables import Table
from repro.constants import NUM_PULSE_SHAPES
from repro.experiments.common import ExperimentResult
from repro.runtime import MetricsRegistry, run_trials
from repro.signal.pulses import dw1000_pulse, pulse_width_factor
from repro.signal.spectrum import estimate_bandwidth_10db, occupies_mask
from repro.signal.templates import PAPER_REGISTERS

#: Fine sampling for smooth width estimates.
SAMPLING_PERIOD_S = 0.1252e-9

#: Regulatory mask: the default pulse's occupied bandwidth defines it.
MASK_BANDWIDTH_HZ = 1.1e9


def _shape_trial(
    rng: np.random.Generator, index: int, *, registers: Sequence[int]
) -> tuple:
    """Synthesise and score one register's Fig. 5 pulse shape.

    Pulse synthesis is deterministic, so the trial seeding contract goes
    unused — results are identical at any worker count or trial order.
    """
    register = int(registers[index])
    pulse = dw1000_pulse(register, sampling_period_s=SAMPLING_PERIOD_S)
    return (
        register,
        pulse_width_factor(register),
        pulse.width_3db_s,
        estimate_bandwidth_10db(pulse),
        pulse.energy(),
        occupies_mask(pulse, MASK_BANDWIDTH_HZ),
    )


def run(
    *,
    seed: int = 0,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Synthesise the four paper shapes and check their properties.

    The experiment always renders exactly the four Fig. 5 registers, one
    (deterministic) trial each, so it takes no trial count.
    """
    result = ExperimentResult(
        experiment_id="Fig. 5",
        description="pulse shape vs TC_PGDELAY register",
    )
    table = Table(
        [
            "shape",
            "register",
            "width factor",
            "-3 dB width [ns]",
            "-10 dB bandwidth [MHz]",
            "unit energy",
            "fits mask",
        ],
        title="Fig. 5 reproduction",
    )

    report = run_trials(
        partial(_shape_trial, registers=PAPER_REGISTERS),
        len(PAPER_REGISTERS),
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="fig5-pulse-shapes",
    )
    widths = []
    for i, row in enumerate(report.values):
        register, width_factor, width_3db_s, bandwidth_hz, energy, fits = row
        widths.append(width_3db_s)
        table.add_row(
            [
                f"s{i + 1}",
                f"0x{register:02X}",
                width_factor,
                width_3db_s * 1e9,
                bandwidth_hz / 1e6,
                f"{energy:.6f}",
                fits,
            ]
        )
    result.add_table(table)

    monotone = all(widths[i] < widths[i + 1] for i in range(len(widths) - 1))
    result.compare("width_monotone_in_register", float(monotone), paper=1.0)
    result.compare(
        "supported_shapes", float(NUM_PULSE_SHAPES), paper=108.0, unit="registers"
    )
    result.note(
        "paper: making the pulse wider does not violate the spectral "
        "mask; only narrower pulses would"
    )
    return result
