"""EXP-F7 — Fig. 7 / Sect. VI: detection of overlapping responses.

The paper's stress test: two responders at the *same* distance
(d1 = d2 = 4 m) reply concurrently.  Because the DW1000 floors delayed
transmissions to an ~8 ns grid, the two responses land with a random
relative offset inside +-8 ns; only trials where they actually overlap
are evaluated.  Result in the paper: search-and-subtract detects both
responses in 92.6 % of overlapping trials, the threshold detector in
only 48 %.

Each round is one independently seeded trial on the
:mod:`repro.runtime` executor.  Non-overlapping rounds return ``None``
and are discarded; the experiment launches deterministic waves of
trials until ``trials`` overlapping rounds have been evaluated (or the
20x attempt budget is exhausted), so serial and parallel runs evaluate
the *same* rounds in the same order for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import detection_rate
from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.constants import PAPER_OVERLAP_DETECTION
from repro.core.detection import SearchAndSubtract, SearchAndSubtractConfig
from repro.core.threshold import ThresholdConfig, ThresholdDetector
from repro.experiments.common import ExperimentResult
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.runtime import MetricsRegistry, run_trials, template_bank

DISTANCE_M = 4.0

#: Two responses "actually overlap" when their true peak separation is
#: below this bound — one pulse footprint including the side lobes
#: (the s1 template spans ~19 ns, so half-extent ~8 ns; this also equals
#: the delayed-TX quantisation step that causes the spread).
OVERLAP_BOUND_S = 8.0e-9

#: A response counts as found if a detection lies within this window of
#: its true CIR position.  Tight enough (one pulse main lobe) that an
#: interference side-hump of the merged pulse pair cannot pass as the
#: second response.
MATCH_TOLERANCE_S = 1.0e-9

#: Attempt budget: give up after this many rounds per requested
#: overlapping trial (matches the pre-runtime rejection-sampling cap).
MAX_ATTEMPT_FACTOR = 20


def _true_peak_times(capture) -> list[float]:
    """Ground-truth first-path positions (relative to CIR tap 0) of each
    arrival in a capture."""
    return [
        arrival.first_path_arrival_s - capture.time_origin_s
        for arrival in capture.arrivals
    ]


def _both_found(detections, truths) -> bool:
    """Each truth matched by a distinct detection within tolerance."""
    available = list(detections)
    for truth in truths:
        best = None
        best_err = MATCH_TOLERANCE_S
        for det in available:
            err = abs(det.delay_s - truth)
            if err <= best_err:
                best = det
                best_err = err
        if best is None:
            return False
        available.remove(best)
    return True


def _overlap_trial(rng: np.random.Generator, index: int):
    """One concurrent round of the Sect. VI duel.

    Returns ``None`` when the two responses did not actually overlap,
    else ``(search_found_both, threshold_found_both)``.
    """
    medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    responder1 = Node.at(1, DISTANCE_M, 0.0, rng=rng)
    responder2 = Node.at(2, 0.0, DISTANCE_M, rng=rng)
    medium.add_nodes([initiator, responder1, responder2])

    bank = template_bank((0x93,))
    scheme = CombinedScheme(SlotPlan.for_range(20.0, n_slots=1), bank)
    session = ConcurrentRangingSession(
        medium=medium,
        initiator=initiator,
        responders=[responder1, responder2],
        scheme=scheme,
        rng=rng,
        # Both responders deliberately share slot 0 and the default
        # shape, as in the paper's Sect. VI setup.
        scheme_ids=[0, 0],
    )
    outcome = session.run_round()
    capture = outcome.capture
    truths = _true_peak_times(capture)
    if abs(truths[0] - truths[1]) > OVERLAP_BOUND_S:
        return None  # paper considers only actually-overlapping trials

    template = bank[0]
    search = SearchAndSubtract(
        template, SearchAndSubtractConfig(max_responses=2, upsample_factor=8)
    )
    threshold = ThresholdDetector(
        template, ThresholdConfig(max_responses=2, upsample_factor=8)
    )
    search_detections = search.detect(
        capture.samples, capture.sampling_period_s, noise_std=capture.noise_std
    )
    threshold_detections = threshold.detect(
        capture.samples, capture.sampling_period_s, noise_std=capture.noise_std
    )
    return (
        _both_found(search_detections, truths),
        _both_found(threshold_detections, truths),
    )


def _collect_overlapping(
    trials: int,
    seed: int,
    workers: int,
    metrics: MetricsRegistry | None,
) -> list:
    """First ``trials`` overlapping outcomes, in deterministic order.

    Waves of trials are launched with wave-derived seeds; wave sizes
    depend only on how many overlapping outcomes earlier waves produced,
    which is itself deterministic — so the evaluated set of rounds is
    independent of the worker count.
    """
    outcomes: list = []
    attempts = 0
    budget = MAX_ATTEMPT_FACTOR * trials
    wave = 0
    while len(outcomes) < trials and attempts < budget:
        want = trials - len(outcomes)
        # Modest over-provisioning: most rounds overlap in this layout.
        n_wave = min(max(8, want + want // 2), budget - attempts)
        report = run_trials(
            _overlap_trial,
            n_wave,
            seed=[seed, wave],
            workers=workers,
            metrics=metrics,
        )
        outcomes.extend(v for v in report.values if v is not None)
        attempts += n_wave
        wave += 1
    return outcomes[:trials]


def run(
    *,
    trials: int = 500,
    seed: int = 23,
    workers: int = 1,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Reproduce the Sect. VI comparison (paper count: 2000 trials).

    The rejection-sampled wave loop keeps its own bookkeeping, so the
    experiment takes no batch size and no checkpoint directory.
    """
    outcomes = _collect_overlapping(trials, seed, workers, metrics)
    search_ok = [s for s, _ in outcomes]
    threshold_ok = [t for _, t in outcomes]

    result = ExperimentResult(
        experiment_id="Fig. 7 / Sect. VI",
        description="detection of overlapping responses (d1 = d2 = 4 m)",
    )
    search_rate = detection_rate(search_ok)
    threshold_rate = detection_rate(threshold_ok)
    table = Table(
        ["algorithm", "both detected [%]", "paper [%]"],
        title=f"Sect. VI reproduction ({len(outcomes)} overlapping trials)",
    )
    table.add_row(
        [
            "search and subtract",
            search_rate * 100,
            PAPER_OVERLAP_DETECTION["search_and_subtract"] * 100,
        ]
    )
    table.add_row(
        [
            "threshold-based",
            threshold_rate * 100,
            PAPER_OVERLAP_DETECTION["threshold"] * 100,
        ]
    )
    result.add_table(table)

    result.compare(
        "search_and_subtract_rate",
        search_rate,
        paper=PAPER_OVERLAP_DETECTION["search_and_subtract"],
    )
    result.compare(
        "threshold_rate",
        threshold_rate,
        paper=PAPER_OVERLAP_DETECTION["threshold"],
    )
    result.compare(
        "advantage_ratio",
        search_rate / threshold_rate if threshold_rate > 0 else float("inf"),
        paper=PAPER_OVERLAP_DETECTION["search_and_subtract"]
        / PAPER_OVERLAP_DETECTION["threshold"],
    )
    result.note(
        "shape criterion: search-and-subtract substantially outperforms "
        "the threshold detector on overlapping responses (~2x in the paper)"
    )
    return result
