"""EXP-F2 — Fig. 2: an exemplary estimated CIR from the DW1000 model.

Reproduces the paper's Fig. 2: a CIR captured in an indoor environment
showing the LOS component (tau_0) and several significant multipath
reflections (tau_1..tau_5), estimated by the DW1000 accumulator model.

The figure itself is one deterministic capture (``capture_example_cir``
is bit-stable for a fixed seed); ``run`` additionally quantifies how
robust that picture is with a Monte-Carlo sweep over the diffuse tail
and accumulator noise on the :mod:`repro.runtime` executor, so ``--seed``
/ ``--workers`` (and checkpointing) apply and serial == parallel holds.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.cir_features import peak_to_noise_ratio
from repro.analysis.tables import Table
from repro.experiments.common import ExperimentResult
from repro.radio.dw1000 import DW1000Radio, SignalArrival
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.runtime import MetricsRegistry, run_trials
from repro.signal.pulses import dw1000_pulse

LINK_DISTANCE_M = 6.5
N_SIGNIFICANT = 6  # tau_0 .. tau_5 in the paper's figure


#: The exemplary office channel of Fig. 2: excess delays [ns] and
#: relative amplitudes (dB below LOS) of the five significant MPCs.
FIG2_REFLECTIONS = (
    (5.0, -4.0),
    (12.0, -6.5),
    (19.0, -8.0),
    (28.0, -10.0),
    (39.0, -12.0),
)


def capture_example_cir(seed: int = 2) -> tuple:
    """One DW1000 CIR capture through an exemplary office channel.

    The paper's Fig. 2 is illustrative (one capture with a dominant LOS
    and five labelled reflections), so the specular structure is laid
    out explicitly and the diffuse tail is drawn stochastically.
    """
    return _build_example(np.random.default_rng(seed))


def _build_example(rng: np.random.Generator) -> tuple:
    """The exemplary capture from an explicit generator (trial entry)."""
    from repro.channel.cir import (
        ChannelRealization,
        ChannelTap,
        diffuse_tail_taps,
    )
    from repro.channel.propagation import propagation_delay_s
    from repro.channel.geometry import CHANNEL7_CARRIER_HZ
    from repro.channel.propagation import PathLossModel

    base_delay = propagation_delay_s(LINK_DISTANCE_M)
    los_gain = PathLossModel.friis(CHANNEL7_CARRIER_HZ).amplitude_gain(
        LINK_DISTANCE_M
    )
    taps = [ChannelTap(delay_s=base_delay, amplitude=los_gain, kind="los", order=0)]
    for excess_ns, level_db in FIG2_REFLECTIONS:
        amplitude = (
            los_gain
            * 10.0 ** (level_db / 20.0)
            * np.exp(1j * rng.uniform(0, 2 * np.pi))
        )
        taps.append(
            ChannelTap(
                delay_s=base_delay + excess_ns * 1e-9,
                amplitude=complex(amplitude),
                kind="reflection",
                order=1,
            )
        )
    taps.extend(
        diffuse_tail_taps(
            onset_delay_s=base_delay + 1e-9,
            total_power=0.02 * los_gain**2,
            rng=rng,
        )
    )
    channel = ChannelRealization(taps)
    radio = DW1000Radio()
    arrival = SignalArrival(
        channel=channel, pulse=dw1000_pulse(), tx_time_s=0.0, source_id=0
    )
    capture = radio.capture_cir([arrival], rng)
    return capture, channel


def _trial(rng: np.random.Generator, index: int) -> tuple:
    """One Monte-Carlo repetition of the Fig. 2 capture.

    Draws a fresh diffuse tail, reflection phases, and accumulator noise
    from the trial's own stream; returns ``(n_detected, snr_db)``.
    """
    capture, _channel = _build_example(rng)
    detector = SearchAndSubtract(
        dw1000_pulse(),
        SearchAndSubtractConfig(max_responses=N_SIGNIFICANT, min_peak_snr=6.0),
    )
    detected = detector.detect(
        capture.samples, capture.sampling_period_s, noise_std=capture.noise_std
    )
    snr_db = 20.0 * np.log10(peak_to_noise_ratio(capture.samples))
    return float(len(detected)), float(snr_db)


def run(
    *,
    trials: int = 25,
    seed: int = 2,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Capture a CIR and extract the tau_0..tau_5 structure.

    The headline figure (and the ``detected_components`` metric) comes
    from the deterministic exemplary capture for ``seed``; the
    Monte-Carlo layer reruns the capture ``trials`` times on the trial
    executor to report how often all six components resolve.

    ``checkpoint`` persists Monte-Carlo trial checkpoints for resumable
    runs.
    """
    result = ExperimentResult(
        experiment_id="Fig. 2",
        description="estimated CIR with LOS and multipath components",
    )
    capture, channel = capture_example_cir(seed)

    detector = SearchAndSubtract(
        dw1000_pulse(),
        SearchAndSubtractConfig(max_responses=N_SIGNIFICANT, min_peak_snr=6.0),
    )
    detected = detector.detect(
        capture.samples, capture.sampling_period_s, noise_std=capture.noise_std
    )

    table = Table(
        ["component", "excess delay [ns]", "relative power [dB]"],
        title="Fig. 2 reproduction: detected components",
    )
    if detected:
        tau0 = detected[0].delay_s
        peak_power = max(abs(d.amplitude) for d in detected)
        for k, component in enumerate(detected):
            table.add_row(
                [
                    f"tau_{k}",
                    (component.delay_s - tau0) * 1e9,
                    20.0 * np.log10(abs(component.amplitude) / peak_power),
                ]
            )
    result.add_table(table)

    result.compare(
        "detected_components", float(len(detected)), paper=float(N_SIGNIFICANT)
    )
    result.compare(
        "snr_db",
        20.0 * np.log10(peak_to_noise_ratio(capture.samples)),
        paper=None,
        unit="dB",
    )
    result.compare(
        "true_specular_taps", float(len(channel.specular_taps())), paper=None
    )

    # Monte-Carlo robustness of the figure: fresh tails/noise per trial.
    report = run_trials(
        partial(_trial),
        trials,
        seed=(seed, 1),  # distinct from the exemplary capture's stream
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="fig2-mc",
    )
    counts = np.array([value[0] for value in report.values])
    snrs = np.array([value[1] for value in report.values])
    if len(counts):
        result.compare(
            "mc_all_components_rate",
            float(np.mean(counts >= N_SIGNIFICANT)),
            paper=None,
        )
        result.compare(
            "mc_mean_detected", float(np.mean(counts)),
            paper=float(N_SIGNIFICANT),
        )
        result.compare(
            "mc_mean_snr_db", float(np.mean(snrs)), paper=None, unit="dB"
        )
    result.note(
        "the paper's figure is a single capture; shape criterion is a "
        "dominant LOS followed by several resolvable reflections"
    )
    result.note(
        f"Monte-Carlo layer: {trials} independently seeded captures on "
        "the trial executor (identical for any --workers count)"
    )
    return result
