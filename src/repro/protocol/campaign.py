"""Multi-round ranging campaigns.

Runs whole measurement campaigns — many concurrent-ranging rounds on a
fixed schedule, as a deployed system would — with per-node energy
accounting and a full protocol trace.  This is the layer the
scalability example uses to measure *simulated wall-clock* behaviour
rather than closed-form cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.faults import ATTACK_KINDS
from repro.netsim.trace import TraceRecorder
from repro.protocol.concurrent import (
    ConcurrentRangingSession,
    ConcurrentRoundResult,
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a campaign degrades gracefully instead of crashing.

    Parameters
    ----------
    quorum_fraction:
        A round is accepted once at least ``ceil(quorum_fraction * n)``
        of the *non-quarantined* responders are detected; below that the
        round is retried (bounded by ``max_round_retries``).
    max_round_retries:
        Retry budget per round.  After it is spent the best attempt is
        kept — possibly a *partial* result — and the campaign moves on.
    backoff_base_s / backoff_factor / backoff_jitter:
        Exponential backoff between retries: attempt ``k`` waits
        ``backoff_base_s * backoff_factor**k`` (simulated time) plus a
        uniform jitter of up to ``backoff_jitter`` of that delay.  The
        jitter stream derives from ``seed`` only — never from the
        simulation's own generators.
    quarantine_after:
        A responder missing this many *consecutive* accepted rounds is
        quarantined: reported in
        :attr:`CampaignResult.quarantined_responders` and excluded from
        the quorum so a dead node cannot stall the campaign.  It keeps
        being polled — if it comes back, the quarantine is lifted.
    seed:
        Entropy for the retry-jitter stream.
    """

    quorum_fraction: float = 0.5
    max_round_retries: int = 2
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    quarantine_after: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quorum_fraction <= 1.0:
            raise ValueError(
                "quorum_fraction must be in [0, 1], got "
                f"{self.quorum_fraction}"
            )
        if self.max_round_retries < 0:
            raise ValueError(
                "max_round_retries must be >= 0, got "
                f"{self.max_round_retries}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {self.quarantine_after}"
            )

    def quorum(self, n_active_responders: int) -> int:
        """Detections required to accept a round."""
        if n_active_responders <= 0:
            return 0
        return int(math.ceil(self.quorum_fraction * n_active_responders))


@dataclass
class CampaignResult:
    """Everything a campaign produced.

    The resilience fields stay at their zero defaults for campaigns run
    without a :class:`ResiliencePolicy`.
    """

    rounds: List[ConcurrentRoundResult] = field(default_factory=list)
    round_times_s: List[float] = field(default_factory=list)
    #: Responders quarantined at campaign end (still-missing nodes).
    quarantined_responders: Tuple[int, ...] = ()
    #: Total round retries the resilience policy consumed.
    retries: int = 0
    #: Rounds that ended with no capture at all (``result.partial``).
    partial_rounds: int = 0
    #: Total injected faults by kind, summed over the campaign.
    faults_injected: Dict[str, int] = field(default_factory=dict)
    #: Rounds in which at least one *attack* fault was injected.
    attacked_rounds: int = 0
    #: Attacked rounds where the defense screen raised a flag.
    detected_rounds: int = 0
    #: Clean rounds where the defense screen raised a flag anyway.
    false_positive_rounds: int = 0

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    def identification_rate(self) -> float:
        """Fraction of (round, responder) pairs correctly identified."""
        total = 0
        hits = 0
        for round_result in self.rounds:
            for outcome in round_result.outcomes:
                total += 1
                hits += outcome.identified
        if total == 0:
            raise ValueError("campaign has no rounds")
        return hits / total

    def distance_errors_m(self) -> np.ndarray:
        """Signed errors of all identified responders across rounds."""
        errors = [
            outcome.error_m
            for round_result in self.rounds
            for outcome in round_result.outcomes
            if outcome.identified and outcome.error_m is not None
        ]
        return np.array(errors)

    def merged_trace(self) -> TraceRecorder:
        """All rounds' radio operations in one recorder."""
        merged = TraceRecorder()
        for round_result in self.rounds:
            for event in round_result.trace.events:
                merged.record(
                    event.time_s,
                    event.node_id,
                    event.kind,
                    event.duration_s,
                    event.label,
                )
        return merged


class RangingCampaign:
    """Run ``n_rounds`` concurrent ranging rounds on a fixed schedule.

    Round ``i`` starts at ``i * round_interval_s``, in index order; the
    session's channel refreshes between rounds (independent fading),
    while node clocks and positions persist — matching a static
    deployment logging data over time.

    With a :class:`ResiliencePolicy` the campaign degrades gracefully:
    rounds below quorum are retried with exponential backoff, responders
    missing ``quarantine_after`` consecutive rounds are quarantined (and
    excluded from the quorum, never raised about), and all-silent rounds
    become *partial* results instead of exceptions.  Without a policy
    the behaviour — including every random draw — is identical to the
    pre-resilience campaign.
    """

    def __init__(
        self,
        session: ConcurrentRangingSession,
        round_interval_s: float = 0.1,
        resilience: ResiliencePolicy | None = None,
        metrics=None,
    ) -> None:
        if round_interval_s <= 0:
            raise ValueError(
                f"round interval must be positive, got {round_interval_s}"
            )
        self.session = session
        self.round_interval_s = float(round_interval_s)
        self.resilience = resilience
        self.metrics = metrics

    def run(self, n_rounds: int) -> CampaignResult:
        """Execute the campaign; returns all per-round results."""
        if n_rounds < 1:
            raise ValueError(f"need at least one round, got {n_rounds}")
        result = CampaignResult()
        policy = self.resilience
        n_responders = len(self.session.responders)
        consecutive_misses = dict.fromkeys(range(n_responders), 0)
        quarantined: set = set()
        retry_rng = (
            np.random.default_rng(
                np.random.SeedSequence(policy.seed).spawn(1)[0]
            )
            if policy is not None
            else None
        )

        for round_index in range(n_rounds):
            start_time_s = round_index * self.round_interval_s
            if policy is None:
                round_result = self.session.run_round(
                    start_time_s=start_time_s, round_index=round_index
                )
            else:
                active = n_responders - len(quarantined)
                round_result = self.session.run_resilient_round(
                    start_time_s=start_time_s,
                    round_index=round_index,
                    quorum=policy.quorum(active),
                    max_retries=policy.max_round_retries,
                    backoff_base_s=policy.backoff_base_s,
                    backoff_factor=policy.backoff_factor,
                    backoff_jitter=policy.backoff_jitter,
                    retry_rng=retry_rng,
                )
                result.retries += round_result.attempts - 1
                result.partial_rounds += int(round_result.partial)
                # With identification enabled, "seen" means correctly
                # identified — the detector may extract a present
                # responder's multipath as an extra (anonymous) peak, so
                # raw detection would mask truly dead nodes.  Anonymous
                # schemes (capacity 1) fall back to detection.
                identifying = self.session.scheme.capacity > 1
                for outcome in round_result.outcomes:
                    rid = outcome.responder_id
                    seen = (
                        outcome.identified
                        if identifying
                        else outcome.detected
                    )
                    if seen:
                        if rid in quarantined:
                            quarantined.discard(rid)
                            self._count("campaign.quarantine_lifted")
                        consecutive_misses[rid] = 0
                    else:
                        consecutive_misses[rid] += 1
                        if (
                            consecutive_misses[rid]
                            >= policy.quarantine_after
                            and rid not in quarantined
                        ):
                            quarantined.add(rid)
                            self._count("campaign.quarantined_responders")
                if round_result.attempts > 1:
                    self._count(
                        "campaign.retries", round_result.attempts - 1
                    )
                if round_result.partial:
                    self._count("campaign.partial_rounds")
            attack_events = 0
            for _, kind in round_result.fault_events:
                result.faults_injected[kind] = (
                    result.faults_injected.get(kind, 0) + 1
                )
                self._count(f"faults.{kind}")
                if kind in ATTACK_KINDS:
                    attack_events += 1
            if attack_events:
                result.attacked_rounds += 1
                self._count("faults.attacks_injected", attack_events)
            report = round_result.defense
            if report is not None and report.triggered:
                if attack_events:
                    result.detected_rounds += 1
                    self._count("defense.detected")
                else:
                    result.false_positive_rounds += 1
                    self._count("defense.false_positives")
            result.rounds.append(round_result)
            result.round_times_s.append(start_time_s)
        result.quarantined_responders = tuple(sorted(quarantined))
        return result

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)
