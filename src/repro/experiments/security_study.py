"""EXP-SECURITY — distance-manipulation attacks vs. time-hopping defenses.

Concurrent ranging inherits the classic UWB security problem: an
attacker who can inject CIR energy ahead of the true leading edge (ghost
peaks, Cicada-style early replies, spoofed pulse shapes) *shortens* the
measured distance, and a reciprocity tamper distorts the channel
features a verifier would inspect.  This experiment measures both sides
of the arms race on the Fig. 4 hallway layout:

* **attack success rate** — fraction of attacked rounds in which the
  round survives the screen *unflagged* and some surviving responder
  outcome reports a distance reduction beyond ``SUCCESS_THRESHOLD_M``
  (a flagged round is discarded by the system, so its distances are
  never used);
* **detection rate** — fraction of attacked rounds the
  :class:`~repro.protocol.defense.DefensePlan` screen flags;
* **false positive rate** — fraction of *clean* rounds flagged anyway.

The grid crosses attacker type x intensity x defense on/off, plus a
clean cell per defense arm.  Intensity ``1.0`` is the full-strength
attack each injector was tuned against; defenses combine the secret
time-hopping reply verification (500 ns hop range) with the CIR-feature
anomaly detector.

Every trial is one independently seeded campaign on the
:mod:`repro.runtime` executor — serial and parallel sweeps are
byte-identical, and ``checkpoint`` resumes interrupted grids.

Run from the shell::

    python -m repro run security --trials 20 --workers 4

:func:`check` is the acceptance gate on detection and false positives;
``tests/test_golden_metrics.py`` applies it to the pinned one-intensity
grid.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.channel.stochastic import IndoorEnvironment
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.experiments.common import ExperimentResult
from repro.analysis.tables import Table
from repro.faults import (
    ATTACK_KINDS,
    EarlyReplyAttacker,
    FaultPlan,
    GhostPeakInjector,
    PulseShapeSpoofer,
    ReciprocityTamper,
)
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.campaign import RangingCampaign, ResiliencePolicy
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.protocol.defense import (
    AnomalyDetectorConfig,
    DefensePlan,
    TimeHoppingConfig,
)
from repro.runtime import MetricsRegistry, run_trials, template_bank

#: The Fig. 4 layout the study attacks.
DISTANCES_M = (3.0, 6.0, 10.0)

#: Attacker types on the grid (keys of :func:`attack_plan`).
ATTACKERS = ("ghost_peak", "early_reply", "shape_spoof", "reciprocity_tamper")

#: Default intensity grid (1.0 = the full-strength tuned attack).
INTENSITIES = (0.25, 0.5, 0.75, 1.0)

#: A round counts as an attack *success* when a surviving outcome
#: reports a distance reduced by more than this (the attacker's goal is
#: always to appear closer).
SUCCESS_THRESHOLD_M = 0.5


def attack_plan(attacker: Optional[str], intensity: float, seed) -> FaultPlan:
    """One attacker at one intensity as a seeded :class:`FaultPlan`.

    ``attacker=None`` or ``intensity == 0`` returns the *empty* plan —
    the clean baseline runs with the fault machinery fully detached.
    Intensity scales the tuned full-strength parameters: ghost/spoof
    advance taps, early-reply advance, and tamper gain/attenuation.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    if attacker is None or intensity == 0.0:
        return FaultPlan([], seed=seed)
    if attacker == "ghost_peak":
        injector = GhostPeakInjector(
            advance_taps=max(1, round(60 * intensity))
        )
    elif attacker == "early_reply":
        injector = EarlyReplyAttacker(advance_s=40e-9 * intensity)
    elif attacker == "shape_spoof":
        injector = PulseShapeSpoofer(
            register=0x93, advance_taps=max(1, round(60 * intensity))
        )
    elif attacker == "reciprocity_tamper":
        injector = ReciprocityTamper(
            tail_gain=1.0 + 4.0 * intensity,
            edge_attenuation=0.6 * intensity,
        )
    else:
        raise ValueError(
            f"unknown attacker {attacker!r}; choose from {ATTACKERS}"
        )
    return FaultPlan([injector], seed=seed)


def defense_plan(secret_seed) -> DefensePlan:
    """The tuned defense configuration the study evaluates.

    500 ns of secret reply-slot hopping (large relative to the 2 * ToF
    spread of the hallway, still small against the ~1 us slot) plus the
    CIR anomaly screen at the thresholds calibrated for <= 5%% clean
    false positives on this layout.
    """
    return DefensePlan(
        time_hopping=TimeHoppingConfig(
            secret_seed=secret_seed, hop_range_s=500e-9
        ),
        anomaly=AnomalyDetectorConfig(
            dup_min_amplitude_ratio=0.6, max_tail_peak_ratio=1.5
        ),
    )


def _trial(
    rng: np.random.Generator,
    index: int,
    *,
    attacker: Optional[str],
    intensity: float,
    defended: bool,
    fault_seed: int,
    n_rounds: int,
) -> tuple:
    """One campaign in one grid cell.

    Returns ``(n_rounds, attacked, detected, false_positives,
    successes, median_abs_error_m, n_quarantined)`` — plain scalars so
    the parallel path ships small payloads.  The error statistic covers
    only *unflagged* rounds (the measurements a deployment would keep)
    and is a median: a slipped-through attack or a mis-identified
    de-hop anchor produces tens-of-metres outliers that would swamp a
    mean.
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
        # One headroom slot above the responder count: a ghost peak must
        # not displace a legitimate extraction, or the duplicate screen
        # goes blind to the copy it needs to see.
        detector_config=SearchAndSubtractConfig(
            max_responses=5, min_peak_snr=8.0
        ),
        rng=rng,
        # Attack decisions depend only on (fault seed, trial index),
        # never on the worker schedule.
        faults=attack_plan(attacker, intensity, seed=(fault_seed, index)),
        defense=(
            defense_plan(secret_seed=(fault_seed, 77)) if defended else None
        ),
    )
    campaign = RangingCampaign(
        session,
        round_interval_s=0.05,
        # Quorum 0 / zero retries: every round fires exactly once (same
        # per-round behaviour as a plain campaign) while quarantine
        # bookkeeping stays live, so rejected attackers show up in
        # `quarantined_responders`.
        resilience=ResiliencePolicy(
            quorum_fraction=0.0,
            max_round_retries=0,
            quarantine_after=3,
            seed=(fault_seed, index, 7),
        ),
    )
    result = campaign.run(n_rounds)

    successes = 0
    abs_errors = []
    for round_result in result.rounds:
        attacked = any(
            kind in ATTACK_KINDS for _, kind in round_result.fault_events
        )
        # A flagged round is discarded by the system, so whatever
        # distances survive in it are never *used*: the attack only
        # succeeds when it slips past the screen entirely.
        flagged = (
            round_result.defense is not None
            and round_result.defense.triggered
        )
        reduced = False
        for outcome in round_result.outcomes:
            if outcome.identified and outcome.error_m is not None:
                if not flagged:
                    abs_errors.append(abs(outcome.error_m))
                if outcome.error_m < -SUCCESS_THRESHOLD_M:
                    reduced = True
        if attacked and reduced and not flagged:
            successes += 1
    return (
        result.n_rounds,
        result.attacked_rounds,
        result.detected_rounds,
        result.false_positive_rounds,
        successes,
        float(np.median(abs_errors)) if abs_errors else float("nan"),
        len(result.quarantined_responders),
    )


def _cell_seed(seed: int, attacker: Optional[str], intensity: float,
               defended: bool):
    """Distinct, stable seed stream per grid cell."""
    attacker_index = 0 if attacker is None else 1 + ATTACKERS.index(attacker)
    return (seed, attacker_index, int(round(1000 * intensity)), int(defended))


def _cell_label(attacker: Optional[str], intensity: float,
                defended: bool) -> str:
    name = attacker or "clean"
    arm = "def" if defended else "off"
    return f"security-{name}-{intensity:.2f}-{arm}"


def _grid(intensities: Sequence[float]) -> list:
    """(attacker, intensity, defended) cells: clean + the attack grid."""
    cells = []
    for defended in (False, True):
        cells.append((None, 0.0, defended))
        for attacker in ATTACKERS:
            for intensity in intensities:
                cells.append((attacker, float(intensity), defended))
    return cells


def run(
    *,
    trials: int = 10,
    seed: int = 41,
    workers: int = 1,
    checkpoint=None,
    metrics: Optional[MetricsRegistry] = None,
    intensities: Sequence[float] = INTENSITIES,
    rounds: int = 10,
) -> ExperimentResult:
    """Attack-success vs. detection curves over the security grid.

    Headline metrics (pinned as goldens) are taken at the highest
    intensity on the grid: per-attacker detection rate and defended /
    undefended success rates, plus the clean-cell false-positive rate.

    ``checkpoint`` persists per-cell trial checkpoints for resumable
    grids.
    """
    metrics = metrics if metrics is not None else MetricsRegistry()
    result = ExperimentResult(
        experiment_id="Security study",
        description="distance-manipulation attacks vs. time-hopping "
        "and CIR-anomaly defenses",
    )
    table = Table(
        [
            "attacker",
            "intensity",
            "defense",
            "success rate",
            "det rate",
            "fp rate",
            "med |err| [m]",
            "quarantined/camp",
        ],
        title=f"attack success vs. detection ({trials} campaigns x "
        f"{rounds} rounds per cell)",
    )

    full = max(float(i) for i in intensities)
    stats: dict = {}
    for attacker, intensity, defended in _grid(intensities):
        report = run_trials(
            partial(
                _trial,
                attacker=attacker,
                intensity=intensity,
                defended=defended,
                fault_seed=seed,
                n_rounds=rounds,
            ),
            trials,
            seed=_cell_seed(seed, attacker, intensity, defended),
            workers=workers,
            metrics=metrics,
            checkpoint_dir=checkpoint,
            checkpoint_label=_cell_label(attacker, intensity, defended),
        )
        values = np.array(report.values, dtype=float)
        n_rounds = values[:, 0].sum()
        attacked = values[:, 1].sum()
        detected = values[:, 2].sum()
        false_positives = values[:, 3].sum()
        successes = values[:, 4].sum()
        errors = values[:, 5]
        clean_rounds = n_rounds - attacked
        success_rate = float(successes / attacked) if attacked else float("nan")
        det_rate = float(detected / attacked) if attacked else float("nan")
        fp_rate = (
            float(false_positives / clean_rounds)
            if clean_rounds
            else float("nan")
        )
        mean_error = (
            float(np.nanmean(errors))
            if not np.all(np.isnan(errors))
            else float("nan")
        )
        quarantined = float(np.mean(values[:, 6]))
        stats[(attacker, intensity, defended)] = (
            success_rate, det_rate, fp_rate
        )
        metrics.counter("security.rounds").inc(float(n_rounds))
        metrics.counter("security.attacked_rounds").inc(float(attacked))
        metrics.counter("security.detected_rounds").inc(float(detected))
        metrics.counter("security.false_positive_rounds").inc(
            float(false_positives)
        )
        metrics.counter("security.successful_attacks").inc(float(successes))
        table.add_row(
            [
                attacker or "clean",
                intensity,
                "on" if defended else "off",
                success_rate,
                det_rate,
                fp_rate,
                mean_error,
                quarantined,
            ]
        )

    result.add_table(table)

    detection_rates = []
    for attacker in ATTACKERS:
        success_off, _, _ = stats[(attacker, full, False)]
        success_on, det_rate, _ = stats[(attacker, full, True)]
        detection_rates.append(det_rate)
        result.compare(f"success_undefended_{attacker}", success_off)
        result.compare(f"success_defended_{attacker}", success_on)
        result.compare(f"detection_rate_{attacker}", det_rate)
    _, _, fp_clean = stats[(None, 0.0, True)]
    result.compare("min_detection_rate_full", float(min(detection_rates)))
    result.compare("false_positive_rate_clean", fp_clean)
    result.note(
        "success = an attacked round surviving the screen unflagged "
        "with some outcome reporting a distance reduced by more than "
        f"{SUCCESS_THRESHOLD_M} m; detection/false-positive rates come "
        "from the campaign's defense counters; med |err| covers "
        "unflagged rounds only (the measurements a deployment keeps)"
    )
    result.note(
        "defenses: 500 ns secret time-hopping reply verification + "
        "CIR anomaly screen (duplicate-id amplitude ratio 0.6, "
        "tail/peak energy threshold 1.5)"
    )
    return result


def check(result: ExperimentResult) -> list:
    """Acceptance gate: detection and false-positive thresholds.

    Returns the list of violated criteria (empty when the run passes):
    every attacker must be detected in >= 90%% of full-intensity
    attacked rounds, and clean defended rounds must stay under 5%%
    false positives.
    """
    failures = []
    minimum = result.metric("min_detection_rate_full").measured
    if not minimum >= 0.9:
        failures.append(
            f"min full-intensity detection rate {minimum:.3f} < 0.9"
        )
    fp_rate = result.metric("false_positive_rate_clean").measured
    if not fp_rate <= 0.05:
        failures.append(f"clean false-positive rate {fp_rate:.3f} > 0.05")
    return failures

