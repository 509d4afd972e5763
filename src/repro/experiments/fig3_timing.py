"""EXP-F3 — Fig. 3 / Sect. III: frame timing and the response delay.

Checks the paper's arithmetic: with DR = 6.8 Mbps, PRF = 64 MHz,
PSR = 128, the minimum RMARKER-to-RMARKER response delay (INIT PHR +
payload, plus RESP preamble + SFD) is 178.5 us; adding the <100 us
turnaround and a safety gap, the paper sets DELTA_RESP = 290 us.

The (single, deterministic) budget computation runs on the
:mod:`repro.runtime` trial executor so ``run()`` carries the standard
``run(trials, seed, workers, batch_size, checkpoint)`` surface like
every other experiment — uniformity is the point; the arithmetic itself
needs no parallelism.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import Table
from repro.constants import DELTA_RESP_S, PAPER_MIN_DELTA_RESP_S
from repro.experiments.common import ExperimentResult
from repro.protocol.messages import INIT_PAYLOAD_BYTES
from repro.radio.frame import (
    RadioConfig,
    frame_duration,
    min_response_delay_s,
)
from repro.runtime import MetricsRegistry, run_trials


def _timing_trial(rng: np.random.Generator, index: int) -> tuple:
    """The Sect. III timing budget (closed form; seeding unused)."""
    config = RadioConfig()  # the paper's defaults
    init = frame_duration(config, INIT_PAYLOAD_BYTES)
    resp = frame_duration(config, 0)
    return (
        init.phr_s,
        init.payload_s,
        resp.preamble_s,
        resp.sfd_s,
        init.after_rmarker_s + resp.shr_s,
        min_response_delay_s(config, INIT_PAYLOAD_BYTES),
    )


def run(
    *,
    seed: int = 0,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Recompute the Sect. III timing budget from the PHY model.

    The budget is one deterministic trial, so the experiment takes no
    trial count.
    """
    result = ExperimentResult(
        experiment_id="Fig. 3 / Sect. III",
        description="frame structure timing and minimum response delay",
    )
    report = run_trials(
        _timing_trial,
        1,
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="fig3-timing",
    )
    (phr_s, payload_s, preamble_s, sfd_s, minimum, with_turnaround) = (
        report.values[0]
    )

    table = Table(["frame section", "duration [us]"], title="frame timing budget")
    table.add_row(["INIT PHR", phr_s * 1e6])
    table.add_row([f"INIT payload ({INIT_PAYLOAD_BYTES} B)", payload_s * 1e6])
    table.add_row(["RESP preamble (PSR=128)", preamble_s * 1e6])
    table.add_row(["RESP SFD", sfd_s * 1e6])
    table.add_row(["minimum RMARKER-to-RMARKER", minimum * 1e6])
    result.add_table(table)

    result.compare(
        "min_delay_us", minimum * 1e6, paper=PAPER_MIN_DELTA_RESP_S * 1e6, unit="us"
    )
    result.compare(
        "with_turnaround_us", with_turnaround * 1e6, paper=278.5, unit="us"
    )
    result.compare(
        "chosen_delta_resp_us", DELTA_RESP_S * 1e6, paper=290.0, unit="us"
    )
    result.note(
        "DELTA_RESP (290 us) must exceed the turnaround-inclusive minimum; "
        "the margin is the paper's 'safety gap'"
    )
    return result
