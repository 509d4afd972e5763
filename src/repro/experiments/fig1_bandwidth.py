"""EXP-F1 — Fig. 1: multipath resolvability at 900 MHz vs 50 MHz.

Reproduces the paper's motivating figure: in a rectangular floor plan
(Fig. 1a) the receiver sees the LOS path and four first-order wall
reflections.  At 900 MHz bandwidth each component appears as a distinct
pulse; at 50 MHz the pulses smear into one overlapping hump (Fig. 1b),
which is why narrowband radios can neither resolve multipath nor support
concurrent ranging.

The two bandwidth renders run on the :mod:`repro.runtime` trial
executor (one trial per bandwidth), so ``run()`` carries the standard
``run(trials, seed, workers, batch_size, checkpoint)`` surface:
``--workers`` parallelises the renders and ``--checkpoint`` persists
them, with results identical at any worker count because the
computation is deterministic.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from repro.analysis.cir_features import rise_time_s, significant_peaks
from repro.analysis.tables import Table
from repro.channel.cir import ChannelRealization
from repro.channel.geometry import Point, Room, image_source_taps
from repro.experiments.common import ExperimentResult
from repro.runtime import MetricsRegistry, run_trials
from repro.signal.pulses import dw1000_pulse, narrowband_pulse

#: The floor plan of Fig. 1a (a 10 m x 5 m rectangular room).
ROOM_WIDTH_M = 10.0
ROOM_HEIGHT_M = 5.0
TX_POSITION = Point(2.0, 3.2)
RX_POSITION = Point(7.5, 1.6)

#: Fine sampling so even the 900 MHz pulse is well resolved on the plot.
SAMPLING_PERIOD_S = 0.25e-9

WIDEBAND_HZ = 900e6
NARROWBAND_HZ = 50e6

#: The two Fig. 1b traces, one executor trial each.
BANDWIDTHS_HZ = (WIDEBAND_HZ, NARROWBAND_HZ)


def received_waveform(bandwidth_hz: float) -> tuple[np.ndarray, ChannelRealization]:
    """The noiseless received waveform through the Fig. 1a channel."""
    room = Room(ROOM_WIDTH_M, ROOM_HEIGHT_M)
    taps = image_source_taps(room, TX_POSITION, RX_POSITION)
    channel = ChannelRealization(taps)
    if bandwidth_hz >= WIDEBAND_HZ:
        pulse = dw1000_pulse(sampling_period_s=SAMPLING_PERIOD_S)
    else:
        pulse = narrowband_pulse(bandwidth_hz, sampling_period_s=SAMPLING_PERIOD_S)
    # Window: from just before the LOS to past the latest reflection.
    start = channel.first_path.delay_s - 20e-9
    duration = channel.excess_delay_s + 80e-9
    n_samples = int(duration / SAMPLING_PERIOD_S)
    waveform = channel.render(
        pulse, n_samples, sampling_period_s=SAMPLING_PERIOD_S, time_origin_s=start
    )
    return waveform, channel


def resolved_component_count(
    waveform: np.ndarray, channel: ChannelRealization, tolerance_s: float = 1e-9
) -> int:
    """How many true multipath components have their own distinct peak.

    A component counts as resolved when a detected local peak lies within
    ``tolerance_s`` of its true delay and no other component claims the
    same peak — the operational meaning of "resolvable" in Fig. 1b.
    """
    start = channel.first_path.delay_s - 20e-9
    peak_indices = significant_peaks(
        waveform, threshold_fraction=0.2, min_separation_samples=4
    )
    peak_times = [start + idx * SAMPLING_PERIOD_S for idx in peak_indices]
    resolved = 0
    available = list(peak_times)
    for tap in channel.specular_taps():
        best, best_err = None, tolerance_s
        for peak_time in available:
            err = abs(peak_time - tap.delay_s)
            if err <= best_err:
                best, best_err = peak_time, err
        if best is not None:
            available.remove(best)
            resolved += 1
    return resolved


def _bandwidth_trial(
    rng: np.random.Generator, index: int, *, bandwidths: Sequence[float]
) -> tuple:
    """Render and score one bandwidth's Fig. 1b trace.

    The channel is geometric and the render noiseless, so the trial
    seeding contract goes unused — results are identical at any worker
    count or trial order.
    """
    bandwidth_hz = float(bandwidths[index])
    waveform, channel = received_waveform(bandwidth_hz)
    return (
        bandwidth_hz,
        len(channel.specular_taps()),
        resolved_component_count(waveform, channel),
        rise_time_s(waveform, SAMPLING_PERIOD_S),
    )


def run(
    *,
    seed: int = 0,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Compare resolvable components and edge steepness at both bandwidths.

    The experiment always renders exactly the two Fig. 1b bandwidths,
    one (deterministic) trial each, so it takes no trial count.
    """
    result = ExperimentResult(
        experiment_id="Fig. 1",
        description="multipath resolvability: 900 MHz vs 50 MHz bandwidth",
    )

    report = run_trials(
        partial(_bandwidth_trial, bandwidths=BANDWIDTHS_HZ),
        len(BANDWIDTHS_HZ),
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="fig1-bandwidth",
    )
    by_bandwidth = {row[0]: row for row in report.values}
    _, n_components, wide_resolved, wide_rise = by_bandwidth[WIDEBAND_HZ]
    _, _, narrow_resolved, narrow_rise = by_bandwidth[NARROWBAND_HZ]

    table = Table(
        ["bandwidth", "true MPCs", "resolved MPCs", "10-90% rise time [ns]"],
        title="Fig. 1b reproduction",
    )
    table.add_row(["900 MHz", n_components, wide_resolved, wide_rise * 1e9])
    table.add_row(["50 MHz", n_components, narrow_resolved, narrow_rise * 1e9])
    result.add_table(table)

    result.compare("mpc_count", float(n_components), paper=5.0,
                   unit="paths (LOS + 4 first-order)")
    result.compare("resolved_900MHz", float(wide_resolved),
                   paper=float(n_components))
    result.compare("resolved_50MHz", float(narrow_resolved), paper=1.0)
    result.note(
        "paper expectation: every component distinct at 900 MHz, "
        "a single overlapping hump at 50 MHz"
    )
    return result
