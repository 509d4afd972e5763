"""The concurrent ranging round (paper Fig. 3 right, Sect. III-VIII).

One round:

1. The initiator broadcasts ``INIT``.
2. Every responder receives it, waits ``DELTA_RESP`` (plus its RPM slot
   delay) on its own clock, and transmits ``RESP``; the programmed time
   is floored to the ~8 ns delayed-TX grid as on real hardware.
3. All RESP frames superpose at the initiator; the radio estimates one
   CIR containing every responder's pulse.
4. The initiator decodes the payload of the first-arriving response
   (still possible per the paper / Corbalan & Picco), which names the
   anchor responder and hence its RPM slot, and computes the anchor
   distance with Eq. 2.
5. Search-and-subtract + pulse-shape classification extract every
   response from the CIR; slot (counted from the anchor's) + shape
   decode responder IDs; Eq. 4 maps delays to distances.

The session supports three operating modes, matching the paper's
narrative arc: plain detection (Sect. IV), pulse-shaping identification
(Sect. V), and the combined RPM x pulse-shaping scheme (Sect. VIII) —
choose by constructing with ``n_slots == 1`` / ``n_shapes == 1`` etc.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.channel.stochastic import IndoorEnvironment
from repro.constants import DELTA_RESP_S
from repro.core.detection import SearchAndSubtractConfig
from repro.core.pulse_id import PulseShapeClassifier
from repro.core.ranging import RangingResult, twr_distance_compensated
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.faults import ActiveFaults, FaultContext, FaultPlan
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.netsim.trace import TraceRecorder
from repro.protocol.defense import DefensePlan, DefenseReport, screen_round
from repro.protocol.messages import (
    INIT_PAYLOAD_BYTES,
    RESP_PAYLOAD_BYTES,
    RespMessage,
)
from repro.protocol.twr import DEFAULT_CFO_ERROR_PPM
from repro.radio.dw1000 import CirCapture, SignalArrival
from repro.radio.frame import frame_duration
from repro.radio.timebase import Clock, quantize_timestamp_s
from repro.signal.templates import TemplateBank


class EmptyRoundError(RuntimeError):
    """No responder transmitted this round (frame loss, dropout).

    Subclasses :class:`RuntimeError` for backwards compatibility with
    callers that catch the old generic error.  Carries the round's
    ground truth and fault annotations so resilient callers can build a
    partial :class:`ConcurrentRoundResult` instead of crashing.
    """

    def __init__(
        self,
        truth: Dict[int, float],
        fault_events: tuple = (),
        trace: TraceRecorder | None = None,
    ) -> None:
        super().__init__(
            "no responder decoded the INIT this round (frame loss); "
            "the initiator's receive window times out"
        )
        self.truth = dict(truth)
        self.fault_events = tuple(fault_events)
        self.trace = trace if trace is not None else TraceRecorder()


@dataclass(frozen=True)
class ResponderOutcome:
    """Ground truth and per-responder decode outcome for one round."""

    responder_id: int
    true_distance_m: float
    assigned_slot: int
    assigned_shape: int
    estimated_distance_m: float | None
    decoded_id: int | None
    #: Fault kinds injected against this responder in this round
    #: (e.g. ``("dropout",)``); empty when the round was clean.
    faults: tuple = ()

    @property
    def detected(self) -> bool:
        return self.estimated_distance_m is not None

    @property
    def faulted(self) -> bool:
        return len(self.faults) > 0

    @property
    def identified(self) -> bool:
        return self.decoded_id == self.responder_id

    @property
    def error_m(self) -> float | None:
        if self.estimated_distance_m is None:
            return None
        return self.estimated_distance_m - self.true_distance_m


@dataclass(frozen=True)
class ConcurrentRoundResult:
    """Everything produced by one concurrent ranging round.

    ``capture`` is ``None`` for a *partial* round — every responder
    stayed silent and the initiator's receive window timed out, yet the
    round still reports per-responder outcomes with fault annotations
    instead of raising (see
    :meth:`ConcurrentRangingSession.run_resilient_round`).
    """

    capture: CirCapture | None
    d_twr_m: float
    classified: tuple
    ranging: RangingResult
    outcomes: tuple
    trace: TraceRecorder
    #: ``(responder_id_or_None, fault_kind)`` annotations for every
    #: fault injected this round (``None`` = round/initiator level).
    fault_events: tuple = ()
    #: How many attempts (1 + retries) this round consumed.
    attempts: int = 1
    #: Campaign round index this result belongs to.
    round_index: int = 0
    #: What the defense screen flagged/rejected (``None`` when the
    #: session runs without a :class:`~repro.protocol.defense.DefensePlan`).
    defense: DefenseReport | None = None

    @property
    def partial(self) -> bool:
        """True when the round produced no capture (all-silent round)."""
        return self.capture is None

    @property
    def distances_m(self) -> tuple:
        return self.ranging.distances_m

    @property
    def detection_count(self) -> int:
        return len(self.ranging)

    def outcome_for(self, responder_id: int) -> ResponderOutcome:
        for outcome in self.outcomes:
            if outcome.responder_id == responder_id:
                return outcome
        raise KeyError(f"no responder with id {responder_id} in this round")


@dataclass(frozen=True)
class PendingRound:
    """A round paused at the classification boundary.

    :meth:`ConcurrentRangingSession.begin_round` runs everything that
    consumes the session RNG — INIT broadcast, responder scheduling,
    channel draws, CIR capture, anchor TWR — and stops right before the
    classifier.  Classification itself consumes *no* randomness, so a
    batch runner can stack many pending rounds' CIRs into one
    :func:`repro.core.batch_id.classify_batch` pass and hand each result
    back to :meth:`ConcurrentRangingSession.finish_round` with results
    byte-identical to serial :meth:`~ConcurrentRangingSession.run_round`
    calls.

    The ``cir``/``noise_std`` convenience accessors expose exactly what
    the classifier consumes (and what
    :class:`~repro.core.batch_id.ClassifyBatchTrial` ``prepare``
    callables return).
    """

    capture: CirCapture
    d_twr_m: float
    truth: Dict[int, float]
    trace: TraceRecorder
    #: Local index of the first-arriving responder, whose payload the
    #: initiator decoded: the decode takes its slot as the anchor slot.
    anchor_source: int
    round_index: int = 0
    #: Fault machinery active for this round (internal; consumed by
    #: ``finish_round`` for the per-responder fault annotations).
    active: "ActiveFaults | None" = None
    #: INIT transmit instant on the initiator's clock — the reference
    #: the defense screen verifies reply arrival times against.
    t_tx_init_local_s: float = 0.0

    @property
    def cir(self) -> np.ndarray:
        return self.capture.samples

    @property
    def sampling_period_s(self) -> float:
        return self.capture.sampling_period_s

    @property
    def noise_std(self) -> float:
        return self.capture.noise_std


class ConcurrentRangingSession:
    """A fixed topology running concurrent ranging rounds.

    Parameters
    ----------
    medium:
        The wireless medium holding all nodes.
    initiator:
        The initiating node.
    responders:
        Responding nodes.  Rounds, ground truth and outcomes name each
        responder by its position in this list (0-based); its slot,
        shape and secret hop key on its scheme code (``scheme_ids``).
    scheme:
        Slot/shape assignment.  Use ``SlotPlan(n_slots=1, ...)`` plus a
        single-template bank for plain Sect. IV operation.
    detector_config:
        Search-and-subtract configuration; ``max_responses`` defaults to
        the number of responders.
    compensate_tx_quantization:
        When ``True``, responders transmit exactly at the programmed
        instant instead of flooring to the ~8 ns grid — the
        "next-generation transceiver" assumption the paper mentions when
        declaring the artefact out of scope.  Default ``False``
        (faithful DW1000 behaviour).
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  When given (and
        non-empty), the plan is activated and its injectors perturb the
        round through the narrow seams of the stack (INIT loss,
        responder dropout, reply jitter, clock-drift ramps, channel and
        CIR transforms).  An empty or absent plan leaves every round
        bit-identical to a session without fault machinery.
    scheme_ids:
        Per-responder scheme identities, one non-negative integer per
        responder.  Responder ``i`` transmits with the slot, shape and
        secret hop of code ``scheme_ids[i] % capacity``, and decoding
        translates recovered codes back to responders.  ``None``
        (default) is ``range(len(responders))``, and then the responders
        must fit the scheme's capacity.  A swarm round passes the
        persistent global IDs of the window it polls; responders that
        deliberately share a slot and shape (the paper's Sect. VI
        overlap duel) pass equal IDs.
    defense:
        Optional :class:`~repro.protocol.defense.DefensePlan`.  With
        time hopping enabled, every responder adds its secret
        per-(round, responder) jitter to the RPM reply slot and the
        initiator verifies each decoded response's arrival time against
        the re-derived hop in :meth:`finish_round`; the anomaly
        detector additionally screens CIR features.  Rejected responses
        are removed from the round's ranging result (they read as
        misses) and reported on
        :attr:`ConcurrentRoundResult.defense`.  ``None`` leaves every
        round bit-identical to a session without defenses.
    """

    def __init__(
        self,
        medium: Medium,
        initiator: Node,
        responders: Sequence[Node],
        scheme: CombinedScheme,
        detector_config: SearchAndSubtractConfig | None = None,
        reply_delay_s: float = DELTA_RESP_S,
        cfo_error_ppm: float = DEFAULT_CFO_ERROR_PPM,
        compensate_tx_quantization: bool = False,
        rng: np.random.Generator | None = None,
        faults: FaultPlan | None = None,
        defense: DefensePlan | None = None,
        scheme_ids: Sequence[int] | None = None,
    ) -> None:
        if len(responders) == 0:
            raise ValueError("need at least one responder")
        if scheme_ids is None:
            if len(responders) > scheme.capacity:
                raise ValueError(
                    f"{len(responders)} responders exceed scheme capacity "
                    f"{scheme.capacity}"
                )
            scheme_ids = range(len(responders))
        elif len(scheme_ids) != len(responders):
            raise ValueError(
                f"scheme_ids must have one entry per responder "
                f"({len(responders)}), got {len(scheme_ids)}"
            )
        elif any(int(s) < 0 for s in scheme_ids):
            raise ValueError("scheme IDs must be non-negative")
        #: Each responder's scheme code, by its position in ``responders``.
        self._codes = tuple(int(s) % scheme.capacity for s in scheme_ids)
        self.medium = medium
        self.initiator = initiator
        self.responders = list(responders)
        self.scheme = scheme
        self.reply_delay_s = float(reply_delay_s)
        self.cfo_error_ppm = float(cfo_error_ppm)
        self.compensate_tx_quantization = bool(compensate_tx_quantization)
        self.rng = rng or np.random.default_rng()
        config = detector_config or SearchAndSubtractConfig()
        if config.max_responses < len(responders):
            # dataclasses.replace keeps every other knob (upsampling,
            # gate, sub-sample refinement) exactly as configured.
            config = dataclasses.replace(
                config, max_responses=len(responders)
            )
        self.classifier = PulseShapeClassifier(scheme.bank, config)
        if defense is not None and not isinstance(defense, DefensePlan):
            raise TypeError(
                "defense must be a DefensePlan or None, got "
                f"{type(defense).__name__}"
            )
        self.defense = defense
        self.fault_plan: FaultPlan | None = None
        self._active_faults: ActiveFaults | None = None
        self.attach_faults(faults)

    # -- fault injection ----------------------------------------------------

    def attach_faults(self, plan: FaultPlan | None) -> None:
        """(Re)attach a fault plan, activating fresh injector streams.

        Passing ``None`` or an empty plan detaches fault injection
        entirely — every seam returns to its zero-cost pass-through.
        Monte-Carlo trial functions call this with
        ``plan.with_seed((base_seed, trial_index))`` so fault decisions
        stay byte-identical for any worker count.
        """
        self.fault_plan = plan
        if plan is not None and not plan.is_empty:
            self._active_faults = plan.activate()
        else:
            self._active_faults = None

    @property
    def active_faults(self) -> ActiveFaults | None:
        """The activated fault runtime (``None`` without a plan)."""
        return self._active_faults

    # -- construction helpers ---------------------------------------------

    @classmethod
    def build(
        cls,
        responder_distances_m: Sequence[float],
        n_slots: int = 1,
        n_shapes: int | None = None,
        environment: IndoorEnvironment | None = None,
        seed: int | None = None,
        **kwargs,
    ) -> "ConcurrentRangingSession":
        """Convenience constructor: initiator at the origin, responders
        on a line at the given distances (the paper's hallway layout).

        ``n_shapes`` defaults to one shape per responder (up to the four
        paper shapes) when identification is wanted, or pass 1 for plain
        anonymous detection.
        """
        if len(responder_distances_m) == 0:
            raise ValueError("need at least one responder distance")
        rng = np.random.default_rng(seed)
        medium = Medium(
            environment=environment or IndoorEnvironment.hallway(), rng=rng
        )
        initiator = Node.at(0, 0.0, 0.0, rng=rng)
        responders = [
            Node.at(i + 1, float(d), 0.0, rng=rng)
            for i, d in enumerate(responder_distances_m)
        ]
        medium.add_nodes([initiator] + responders)

        if n_shapes is None:
            n_shapes = min(len(responder_distances_m), 4)
        bank = TemplateBank.paper_bank(min(n_shapes, 4)) if n_shapes <= 4 else (
            TemplateBank.spread(n_shapes)
        )
        plan = SlotPlan.for_range(20.0, n_slots=n_slots)
        scheme = CombinedScheme(plan, bank)
        return cls(
            medium=medium,
            initiator=initiator,
            responders=responders,
            scheme=scheme,
            rng=rng,
            **kwargs,
        )

    def _assignment(self, responder_id: int):
        """Slot/shape assignment of the responder at this position."""
        return self.scheme.assignment(self._codes[responder_id])

    # -- the round ----------------------------------------------------------

    def run_round(
        self,
        start_time_s: float | None = None,
        round_index: int = 0,
        _attempt: int = 0,
    ) -> ConcurrentRoundResult:
        """Execute one full concurrent ranging round.

        ``start_time_s`` defaults to a random instant so that the ~8 ns
        delayed-TX quantisation error — which depends on where the
        scheduled reply time falls on the hardware grid — varies between
        rounds as it does on real hardware.  Pass an explicit time for
        bit-reproducible single rounds.  ``round_index`` feeds the fault
        context (ramps, NLOS onset) and is recorded on the result.

        Raises :class:`EmptyRoundError` when every responder stays
        silent; :meth:`run_resilient_round` converts that into a partial
        result instead.

        Equivalent to :meth:`begin_round` → serial classification →
        :meth:`finish_round`; batch runners use the split form to stack
        many rounds' CIRs into one
        :func:`repro.core.batch_id.classify_batch` pass.
        """
        pending = self.begin_round(
            start_time_s, round_index, _attempt=_attempt
        )
        classified = self.classifier.classify(
            pending.capture.samples,
            pending.capture.sampling_period_s,
            noise_std=pending.capture.noise_std,
        )
        return self.finish_round(pending, classified)

    def begin_round(
        self,
        start_time_s: float | None = None,
        round_index: int = 0,
        *,
        _attempt: int = 0,
    ) -> PendingRound:
        """Run a round up to (but excluding) classification.

        Consumes exactly the randomness a full :meth:`run_round` would
        have consumed before the classifier (which consumes none), so
        ``begin_round`` + external classification +
        :meth:`finish_round` reproduces :meth:`run_round` byte for
        byte.  Raises :class:`EmptyRoundError` exactly as
        :meth:`run_round` does.
        """
        rng = self.rng
        if start_time_s is None:
            start_time_s = float(rng.uniform(0.0, 1.0))
        active = self._active_faults
        ctx: FaultContext | None = None
        previous_transform = None
        if active is not None:
            ctx = FaultContext(
                round_index=round_index,
                time_s=start_time_s,
                n_responders=len(self.responders),
                attempt=_attempt,
            )
            active.begin_round(ctx)
            previous_transform = self.medium.channel_transform
            self.medium.channel_transform = active.channel_transform(ctx)
        try:
            return self._begin_round_inner(
                rng, start_time_s, round_index, active, ctx
            )
        finally:
            if active is not None:
                self.medium.channel_transform = previous_transform

    def _begin_round_inner(
        self,
        rng: np.random.Generator,
        start_time_s: float,
        round_index: int,
        active: ActiveFaults | None,
        ctx: FaultContext | None,
    ) -> PendingRound:
        trace = TraceRecorder()
        init_node = self.initiator
        init_config = init_node.radio.config
        init_airtime = frame_duration(init_config, INIT_PAYLOAD_BYTES).total_s
        resp_airtime = frame_duration(init_config, RESP_PAYLOAD_BYTES).total_s

        # 1. Broadcast INIT.
        t_tx_init_global = start_time_s
        t_tx_init_local = quantize_timestamp_s(
            init_node.radio.clock.local_from_global(t_tx_init_global)
        )
        trace.record(t_tx_init_global, init_node.node_id, "tx", init_airtime, "INIT")
        init_node.account_tx(init_airtime)

        # 2. Responders receive and schedule their replies.
        arrivals: List[SignalArrival] = []
        messages: Dict[int, RespMessage] = {}
        truth: Dict[int, float] = {}
        for responder_id, node in enumerate(self.responders):
            # Truth always records the responder so the evaluation
            # counts silent ones as misses.
            truth[responder_id] = init_node.distance_to(node)
            if active is not None and active.init_lost(ctx, responder_id):
                # Injected poll loss: the responder never decodes INIT.
                continue
            channel = self.medium.channel_between(
                init_node.node_id, node.node_id
            )
            tof = channel.first_path.delay_s
            t_rx_local = node.radio.timestamp_arrival(
                t_tx_init_global + tof,
                rng,
                pulse_register=init_node.radio.pulse_register,
            )
            trace.record(
                t_tx_init_global + tof, node.node_id, "rx", init_airtime, "INIT"
            )
            node.account_rx(init_airtime)

            if active is not None and active.responder_dropped(
                ctx, responder_id
            ):
                # Injected dropout: INIT decoded, reply never keyed.
                continue

            assignment = self._assignment(responder_id)
            node.radio.set_pulse_register(assignment.register)
            hop_s = (
                self.defense.hop_offset_s(
                    round_index, self._codes[responder_id]
                )
                if self.defense is not None
                else 0.0
            )
            nominal_local = (
                t_rx_local
                + self.reply_delay_s
                + assignment.extra_delay_s
                + hop_s
            )
            if active is not None:
                nominal_local += active.reply_delay_offset_s(
                    ctx, responder_id
                )
            actual_local = nominal_local
            if active is not None:
                actual_local = active.reply_time_override_s(
                    ctx, responder_id, nominal_local, hop_s
                )
            if self.compensate_tx_quantization:
                t_tx_local = actual_local
                t_claimed_local = nominal_local
            else:
                t_tx_local = node.radio.schedule_delayed_tx(actual_local)
                t_claimed_local = (
                    t_tx_local
                    if actual_local == nominal_local
                    # A hijacked radio transmits early but the payload
                    # still reports the *scheduled* instant (Cicada
                    # semantics): the timestamp field is written by the
                    # MAC from the programmed TX time, not measured.
                    else node.radio.schedule_delayed_tx(nominal_local)
                )
            extra_drift_ppm = (
                active.clock_drift_offset_ppm(ctx, responder_id)
                if active is not None
                else 0.0
            )
            if extra_drift_ppm != 0.0:
                # The responder's crystal walked off its nominal rate;
                # the initiator's CFO estimate (drawn from the nominal
                # clock below) goes stale, biasing the compensation.
                drifted = Clock(
                    drift_ppm=node.radio.clock.drift_ppm + extra_drift_ppm,
                    offset_s=node.radio.clock.offset_s,
                )
                t_tx_global = drifted.global_from_local(t_tx_local)
            else:
                t_tx_global = node.radio.clock.global_from_local(t_tx_local)

            messages[responder_id] = RespMessage(
                responder_id=responder_id,
                t_rx_local_s=t_rx_local,
                t_tx_local_s=t_claimed_local,
            )
            arrivals.append(
                SignalArrival(
                    channel=channel,
                    pulse=node.radio.transmit_pulse(),
                    tx_time_s=t_tx_global,
                    source_id=responder_id,
                )
            )
            trace.record(t_tx_global, node.node_id, "tx", resp_airtime, "RESP")
            node.account_tx(resp_airtime)

        # 3. The initiator captures one CIR of the superposition.
        if not arrivals:
            raise EmptyRoundError(
                truth=truth,
                fault_events=(
                    tuple(active.round_events) if active is not None else ()
                ),
                trace=trace,
            )
        try:
            capture = init_node.radio.capture_cir(
                arrivals,
                rng,
                cir_transform=(
                    active.cir_transform(ctx) if active is not None else None
                ),
            )
        except ValueError as error:
            # Nothing cleared the LDE threshold (deep fade / NLOS-killed
            # paths): physically this is a receive-window timeout, the
            # same observable outcome as an all-silent round.
            raise EmptyRoundError(
                truth=truth,
                fault_events=(
                    tuple(active.round_events) if active is not None else ()
                ),
                trace=trace,
            ) from error
        trace.record(
            min(a.first_path_arrival_s for a in arrivals),
            init_node.node_id,
            "rx",
            resp_airtime,
            "RESP(aggregate)",
        )
        init_node.account_rx(resp_airtime)

        # 4. Anchor distance from the first-arriving response's payload.
        anchor_id = min(
            range(len(arrivals)),
            key=lambda i: arrivals[i].first_path_arrival_s,
        )
        anchor_source = arrivals[anchor_id].source_id
        anchor_node = self.responders[anchor_source]
        anchor_message = messages[anchor_source]
        true_drift_ppm = anchor_node.radio.clock.relative_drift_ppm(
            init_node.radio.clock
        )
        estimated_drift_ppm = true_drift_ppm + float(
            rng.normal(0.0, self.cfo_error_ppm)
        )
        # ``capture.rx_timestamp_s`` marks the first path of the
        # earliest arrival — the anchor's reply *after* its RPM slot
        # delay — and the ``t_tx`` the anchor reports includes that same
        # delay, so it cancels inside the reply interval whatever slot
        # the anchor occupies.  The secret time hop cancels the same
        # way: it delays the arrival and the reported reply time
        # equally.
        d_twr = twr_distance_compensated(
            t_tx_init_local,
            capture.rx_timestamp_s,
            anchor_message.t_rx_local_s,
            anchor_message.t_tx_local_s,
            relative_drift_ppm=estimated_drift_ppm,
        )

        # Step 5 (detect/classify/decode) happens outside: the round is
        # paused at the classification boundary so a batch runner can
        # classify many rounds' CIRs in one engine pass.
        return PendingRound(
            capture=capture,
            d_twr_m=d_twr,
            truth=truth,
            trace=trace,
            anchor_source=anchor_source,
            round_index=round_index,
            active=active,
            t_tx_init_local_s=t_tx_init_local,
        )

    def finish_round(
        self,
        pending: PendingRound,
        classified,
    ) -> ConcurrentRoundResult:
        """Complete a :meth:`begin_round` round from its classification.

        ``classified`` is the list of
        :class:`~repro.core.pulse_id.ClassifiedResponse` for the pending
        round's CIR — from the serial classifier, or one slice of a
        :func:`repro.core.batch_id.classify_batch` result.  Decodes
        responder identities (step 5), matches outcomes against ground
        truth, and advances the medium's coherence interval exactly as
        :meth:`run_round` would have.
        """
        active = pending.active
        classified = list(classified)
        # The initiator decoded the first-arriving response's payload,
        # so it knows the anchor's slot and decodes relative to it.
        ranging = self.scheme.decode_responses(
            classified,
            pending.d_twr_m,
            anchor_slot=self._assignment(pending.anchor_source).slot,
        )

        defense_report: DefenseReport | None = None
        if self.defense is not None:
            ranging, defense_report = screen_round(
                self.defense,
                ranging=ranging,
                capture=pending.capture,
                t_tx_init_local_s=pending.t_tx_init_local_s,
                reply_delay_s=self.reply_delay_s,
                # The screen sees decoded codes, not responder positions.
                assignment_fn=self.scheme.assignment,
                round_index=pending.round_index,
            )

        fault_notes = (
            {
                rid: active.events_for(rid)
                for rid in pending.truth
                if active.events_for(rid)
            }
            if active is not None
            else {}
        )
        outcomes = self._match_outcomes(ranging, pending.truth, fault_notes)
        self.medium.new_coherence_interval()
        return ConcurrentRoundResult(
            capture=pending.capture,
            d_twr_m=pending.d_twr_m,
            classified=tuple(classified),
            ranging=ranging,
            outcomes=tuple(outcomes),
            trace=pending.trace,
            fault_events=(
                tuple(active.round_events) if active is not None else ()
            ),
            round_index=pending.round_index,
            defense=defense_report,
        )

    # -- resilience ---------------------------------------------------------

    def run_resilient_round(
        self,
        start_time_s: float | None = None,
        round_index: int = 0,
        *,
        quorum: int = 0,
        max_retries: int = 0,
        backoff_base_s: float = 0.0,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.0,
        retry_rng: np.random.Generator | None = None,
    ) -> ConcurrentRoundResult:
        """A round that degrades gracefully instead of raising.

        Runs :meth:`run_round`; when the round is empty (every responder
        silent) or detects fewer than ``quorum`` responders, it retries
        up to ``max_retries`` times with exponential backoff
        (``backoff_base_s * backoff_factor**attempt`` plus uniform
        jitter of up to ``backoff_jitter`` of that delay, drawn from
        ``retry_rng`` — never from the simulation's own stream).  After
        the retry budget is spent, the best attempt seen so far is
        returned; an all-silent final attempt yields a *partial* result
        (``capture is None``) carrying the fault annotations rather than
        an exception.
        """
        if quorum < 0:
            raise ValueError(f"quorum must be >= 0, got {quorum}")
        if max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        best: ConcurrentRoundResult | None = None
        delay_s = 0.0
        time_s = start_time_s
        for attempt in range(max_retries + 1):
            if time_s is not None and delay_s > 0.0:
                time_s = time_s + delay_s
            try:
                result = self.run_round(
                    start_time_s=time_s,
                    round_index=round_index,
                    _attempt=attempt,
                )
            except EmptyRoundError as error:
                result = self._empty_round_result(
                    error, round_index=round_index, attempts=attempt + 1
                )
            else:
                result = dataclasses.replace(result, attempts=attempt + 1)
            if best is None or result.detection_count > best.detection_count:
                best = result
            if not result.partial and result.detection_count >= quorum:
                return result
            if attempt < max_retries:
                delay_s = backoff_base_s * (backoff_factor**attempt)
                if backoff_jitter > 0.0 and delay_s > 0.0:
                    jitter_rng = retry_rng or np.random.default_rng(
                        (round_index, attempt)
                    )
                    delay_s *= 1.0 + backoff_jitter * float(
                        jitter_rng.random()
                    )
        assert best is not None
        return dataclasses.replace(best, attempts=max_retries + 1)

    def _empty_round_result(
        self,
        error: EmptyRoundError,
        round_index: int,
        attempts: int,
    ) -> ConcurrentRoundResult:
        """A partial :class:`ConcurrentRoundResult` for an all-silent
        round: no capture, no detections, every responder a miss."""
        active = self._active_faults
        fault_notes = (
            {
                rid: active.events_for(rid)
                for rid in error.truth
                if active.events_for(rid)
            }
            if active is not None
            else {}
        )
        empty_ranging = RangingResult(
            d_twr_m=float("nan"),
            responses=(),
            distances_m=(),
            responder_ids=(),
        )
        outcomes = self._match_outcomes(
            empty_ranging, error.truth, fault_notes
        )
        self.medium.new_coherence_interval()
        return ConcurrentRoundResult(
            capture=None,
            d_twr_m=float("nan"),
            classified=(),
            ranging=empty_ranging,
            outcomes=tuple(outcomes),
            trace=error.trace,
            fault_events=error.fault_events,
            attempts=attempts,
            round_index=round_index,
        )

    def _match_outcomes(
        self,
        ranging: RangingResult,
        truth: Dict[int, float],
        fault_notes: Dict[int, tuple] | None = None,
    ) -> List[ResponderOutcome]:
        """Pair decoded (code, distance) tuples with ground truth.

        Decoded IDs are scheme codes (0..capacity-1); each claims the
        first unclaimed responder that carries it.  Decoded responses
        with a code no unclaimed responder carries are matched to the
        remaining responder with the closest true distance
        (evaluation-only logic — a deployment would simply report the
        decoded IDs).  ``fault_notes`` maps responder positions to the
        fault kinds injected against them this round; matched outcomes
        carry them verbatim.
        """
        fault_notes = fault_notes or {}
        decoded: Dict[int, float] = {}
        leftovers: List[float] = []
        candidates: Dict[int, List[int]] = {}
        for local in truth:
            candidates.setdefault(self._codes[local], []).append(local)
        for rid, distance in zip(ranging.responder_ids, ranging.distances_m):
            local_id = None
            if rid is not None:
                for candidate in candidates.get(rid, ()):
                    if candidate not in decoded:
                        local_id = candidate
                        break
            if local_id is None:
                leftovers.append(distance)
            else:
                decoded[local_id] = distance

        outcomes = []
        for responder_id, true_distance in truth.items():
            assignment = self._assignment(responder_id)
            if responder_id in decoded:
                outcomes.append(
                    ResponderOutcome(
                        responder_id=responder_id,
                        true_distance_m=true_distance,
                        assigned_slot=assignment.slot,
                        assigned_shape=assignment.shape_index,
                        estimated_distance_m=decoded[responder_id],
                        decoded_id=responder_id,
                        faults=fault_notes.get(responder_id, ()),
                    )
                )
                continue
            # Nearest leftover estimate, if any.
            estimate = None
            if leftovers:
                best = min(
                    range(len(leftovers)),
                    key=lambda i: abs(leftovers[i] - true_distance),
                )
                estimate = leftovers.pop(best)
            outcomes.append(
                ResponderOutcome(
                    responder_id=responder_id,
                    true_distance_m=true_distance,
                    assigned_slot=assignment.slot,
                    assigned_shape=assignment.shape_index,
                    estimated_distance_m=estimate,
                    decoded_id=None,
                    faults=fault_notes.get(responder_id, ()),
                )
            )
        return outcomes
