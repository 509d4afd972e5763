"""EXP-F4 — Fig. 4: the response detection pipeline on three responders.

The paper's illustration: three responders at 3, 6, and 10 m in a
hallway reply concurrently; the initiator's CIR shows three peaks; the
search-and-subtract algorithm extracts them and Eq. 4 turns the delays
into distances.

``run()`` performs a Monte-Carlo version (detection rates and distance
errors over many rounds) on the :mod:`repro.runtime` trial executor:
every round is one independently seeded trial, so ``workers=4``
parallelises the experiment with results identical to a serial run.
``pipeline_stages()`` reproduces the figure's four panels (CIR,
matched-filter output, output after one subtraction, final detections)
for a single round.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.analysis.metrics import detection_rate, summarize_errors
from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.matched_filter import matched_filter
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.experiments.common import ExperimentResult
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.runtime import MetricsRegistry, run_trials, template_bank
from repro.signal.sampling import fft_upsample, place_pulse

#: The paper's layout: d1 = 3 m, d2 = 6 m, d3 = 10 m in a hallway.
DISTANCES_M = (3.0, 6.0, 10.0)

#: Tolerance for "this detection corresponds to that responder": half the
#: worst-case TX-quantisation displacement (8 ns -> 1.2 m) plus margin.
MATCH_TOLERANCE_M = 1.5


@dataclass(frozen=True)
class PipelineStages:
    """The four panels of Fig. 4 for one round."""

    cir_magnitude: np.ndarray
    filter_output: np.ndarray
    after_first_subtraction: np.ndarray
    detections: tuple
    sampling_period_s: float


def pipeline_stages(seed: int = 11) -> PipelineStages:
    """One round's CIR and the intermediate detector signals."""
    session = ConcurrentRangingSession.build(
        responder_distances_m=list(DISTANCES_M),
        n_slots=1,
        n_shapes=1,
        seed=seed,
        # Plain Sect. IV operation: all responders share the default
        # pulse shape (ranging stays anonymous, as before Sect. V).
        scheme_ids=[0] * len(DISTANCES_M),
    )
    round_result = session.run_round()
    capture = round_result.capture
    template = session.scheme.bank[0]
    detector = SearchAndSubtract(
        template, SearchAndSubtractConfig(max_responses=3, upsample_factor=8)
    )
    factor = detector.config.upsample_factor
    fine_period = capture.sampling_period_s / factor
    working = fft_upsample(capture.samples, factor)
    fine_template = template.resampled(fine_period)
    output_before = matched_filter(working, fine_template)

    detections = detector.detect(
        capture.samples, capture.sampling_period_s, noise_std=capture.noise_std
    )
    # Re-create the "after subtracting the strongest response" panel.
    strongest = max(detections, key=lambda d: abs(d.amplitude)) if detections else None
    after = working.copy()
    if strongest is not None:
        place_pulse(
            after,
            fine_template.samples.astype(complex),
            strongest.index * factor,
            amplitude=-strongest.amplitude * np.sqrt(factor),
            peak_index=fine_template.peak_index,
        )
    output_after = matched_filter(after, fine_template)
    return PipelineStages(
        cir_magnitude=np.abs(capture.samples),
        filter_output=np.abs(output_before),
        after_first_subtraction=np.abs(output_after),
        detections=tuple(detections),
        sampling_period_s=capture.sampling_period_s,
    )


def _trial(
    rng: np.random.Generator,
    index: int,
    *,
    compensate_tx_quantization: bool,
) -> tuple:
    """One concurrent round at the Fig. 4 layout.

    Returns a tuple of per-responder estimated distances (``None`` when
    the responder was not matched within :data:`MATCH_TOLERANCE_M`).
    The 3-shape paper bank comes from the process-local runtime cache.
    """
    medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    responders = [
        Node.at(i + 1, float(d), 0.0, rng=rng)
        for i, d in enumerate(DISTANCES_M)
    ]
    medium.add_nodes([initiator] + responders)

    bank = template_bank((0x93, 0xC8, 0xE6))  # paper_bank(3)
    scheme = CombinedScheme(SlotPlan.for_range(20.0, n_slots=1), bank)
    session = ConcurrentRangingSession(
        medium=medium,
        initiator=initiator,
        responders=responders,
        scheme=scheme,
        compensate_tx_quantization=compensate_tx_quantization,
        rng=rng,
    )
    outcome = session.run_round()
    estimates = []
    for responder in outcome.outcomes:
        ok = (
            responder.estimated_distance_m is not None
            and abs(responder.estimated_distance_m - responder.true_distance_m)
            <= MATCH_TOLERANCE_M
        )
        estimates.append(responder.estimated_distance_m if ok else None)
    return tuple(estimates)


def run(
    *,
    trials: int = 200,
    seed: int = 11,
    compensate_tx_quantization: bool = False,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Monte-Carlo reproduction of the Fig. 4 scenario.

    ``workers`` parallelises the rounds; for a fixed ``seed`` the
    reproduced numbers are identical for any worker count.
    ``checkpoint`` persists trial checkpoints for resumable runs.
    """
    report = run_trials(
        partial(_trial, compensate_tx_quantization=compensate_tx_quantization),
        trials,
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="fig4",
    )
    per_responder_estimates: list[list[float]] = [[] for _ in DISTANCES_M]
    all_found: list[bool] = []
    for estimates in report.values:
        for i, estimate in enumerate(estimates):
            if estimate is not None:
                per_responder_estimates[i].append(estimate)
        all_found.append(all(e is not None for e in estimates))

    result = ExperimentResult(
        experiment_id="Fig. 4",
        description="response detection with responders at 3/6/10 m",
    )
    table = Table(
        ["responder", "true [m]", "mean est [m]", "std [m]", "found rate"],
        title=f"Fig. 4 reproduction ({trials} rounds, "
        f"TX quantisation {'compensated' if compensate_tx_quantization else 'active'})",
    )
    for i, true_distance in enumerate(DISTANCES_M):
        estimates = per_responder_estimates[i]
        if estimates:
            stats = summarize_errors(estimates, true_distance)
            table.add_row(
                [
                    f"resp {i + 1}",
                    true_distance,
                    float(np.mean(estimates)),
                    stats["std_m"],
                    len(estimates) / trials,
                ]
            )
        else:
            table.add_row([f"resp {i + 1}", true_distance, float("nan"),
                           float("nan"), 0.0])
    result.add_table(table)
    result.compare("all_three_detected_rate", detection_rate(all_found), paper=1.0)
    for i, true_distance in enumerate(DISTANCES_M):
        estimates = per_responder_estimates[i]
        if estimates:
            result.compare(
                f"mean_distance_resp{i + 1}_m",
                float(np.mean(estimates)),
                paper=true_distance,
                unit="m",
            )
    result.note(
        "the paper shows a single capture with all three peaks at the "
        "correct distances; the Monte-Carlo version quantifies how often "
        "that picture holds"
    )
    return result
