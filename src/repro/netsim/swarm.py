"""City-scale swarm simulation (paper Sect. VIII, measured).

The paper argues the combined RPM x pulse-shaping scheme scales to
``N_max = N_RPM * N_PS`` responders (>1500 with ~100 shapes) but only
demonstrates 3-of-3; :mod:`repro.experiments.sect8_scalability` checks
the capacity claim in closed form.  This module *measures* it: a
discrete-event swarm of N mobile responders and multiple concurrent
initiator tags on a shared medium, whose per-round CIR synthesis runs
through the real protocol stack (:class:`~repro.protocol.concurrent.
ConcurrentRangingSession` with global scheme identities and anchor-slot
decoding), the batched classifier
(:func:`~repro.core.batch_id.classify_batch`), and the localization
layer (robust multilateration + constant-velocity tracking).

Structure per epoch (one scheduling beat of ``epoch_period_s``):

1. **Mobility** — every node advances its random-waypoint trace; each
   trace draws only from its own per-node stream
   (``SeedSequence((seed, stream, uid))``), so positions never depend
   on processing order.
2. **Scheduling** — ``n_concurrent`` initiators are active
   (round-robin over the tag population, the ``UWBNetwork`` shape);
   each in-range responder joins the *nearest* active initiator
   (ties to the lower initiator ID) — the join/ping/range membership
   flow of the swarmulator ``uwb_channel`` model, reduced to its
   deterministic essence.
3. **Sharded rounds** — space is divided into cells; each shard owns
   the cells hashing to it plus a one-``comm_range`` halo and runs the
   rounds of the initiators inside it.  Every round draws from its own
   ``(seed, stream, epoch, initiator)`` stream and touches a disjoint
   node set, so shard count and shard order cannot change any byte of
   any round; the cross-shard merge orders pending rounds by
   ``(epoch, initiator)`` before classification.  ``shards=1`` and
   ``shards=K`` are byte-identical by construction and pinned by
   ``tests/test_swarm.py``.
4. **Contention** — rounds of initiators with other active initiators
   inside ``interference_range_m`` receive impulsive interference
   bursts (the classic impulsive UWB interference model) through the
   :mod:`repro.faults` seam, seeded per ``(epoch, initiator)``.
5. **Classification + decode** — pending rounds' CIRs stack into
   :func:`classify_batch` chunks (or the serial classifier, for the
   differential harness), then each round finishes through the session
   and feeds identified (anchor position, distance) pairs into
   multilateration and the per-tag tracker.

Each responder owns a persistent global identity; slot and shape derive
from it modulo the scheme capacity.  Above capacity two *in-range*
members can share (slot, shape) — such decodes are counted
``ambiguous`` rather than identified, which is what makes the
identification curve bend past ``N_max``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.geometry import Point
from repro.channel.stochastic import IndoorEnvironment
from repro.core.batch_id import classify_batch
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.faults import FaultPlan, ImpulsiveInterference
from repro.localization import ConstantVelocityTracker, multilaterate_robust
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import (
    ConcurrentRangingSession,
    EmptyRoundError,
)
from repro.signal.templates import TemplateBank

__all__ = [
    "MobilityTrace",
    "SwarmConfig",
    "SwarmEvent",
    "SwarmResult",
    "SwarmScenario",
]

#: Seed-stream discriminators (the ``repro.runtime`` seed-spawning
#: discipline: every random stream keys off ``(seed, stream, ids...)``
#: so no draw ever depends on execution order or shard layout).
STREAM_CLOCK = 11
STREAM_MOBILITY = 13
STREAM_ROUND = 17
STREAM_CONTENTION = 19

#: Canonical intra-(epoch, initiator) event order for the merged stream.
_KIND_ORDER = {"idle": 0, "empty": 0, "round": 1, "fix": 2}


@dataclass(frozen=True)
class SwarmConfig:
    """Parameters of one swarm scenario.

    The defaults are the *city-scale* operating point: a 16-slot x
    96-shape scheme (capacity 1536 — the paper's ">1500 responders"
    claim), a communication range small enough that same-slot responders
    stay within half a slot of round-trip excess delay, and a
    12-responder polling window per round so per-round cost is bounded
    at any population size.
    """

    n_responders: int
    n_initiators: int = 4
    #: Initiators active per epoch (concurrent rounds on the medium).
    n_concurrent: int = 2
    #: Square arena side [m]; ``None`` derives it from the population
    #: so responder density stays near ``1 / spacing_m**2``.
    arena_m: Optional[float] = None
    spacing_m: float = 1.0
    #: Spatial cell size for the sharded event loop [m].
    cell_m: float = 5.0
    #: Responders within this of an active initiator can be polled [m].
    comm_range_m: float = 4.2
    #: Initiators within this of each other interfere [m].
    interference_range_m: float = 15.0
    #: Max responders polled per round (round-robin over members).
    window: int = 12
    n_slots: int = 16
    n_shapes: int = 96
    initiator_speed_mps: float = 1.2
    responder_speed_mps: float = 0.5
    epoch_period_s: float = 0.2
    upsample_factor: int = 4
    max_responses: int = 16
    min_peak_snr: float = 5.0
    #: CIRs per :func:`classify_batch` call.
    batch_size: int = 8

    def __post_init__(self) -> None:
        if self.n_responders < 1:
            raise ValueError("need at least one responder")
        if self.n_initiators < 1:
            raise ValueError("need at least one initiator")
        if not 1 <= self.n_concurrent <= self.n_initiators:
            raise ValueError(
                f"n_concurrent must be in 1..{self.n_initiators}, got "
                f"{self.n_concurrent}"
            )
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.cell_m <= 0 or self.comm_range_m <= 0:
            raise ValueError("cell_m and comm_range_m must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.arena_m is not None and self.arena_m <= 0:
            raise ValueError("arena_m must be positive")

    @property
    def arena(self) -> float:
        """Arena side [m] (derived from the population when unset)."""
        if self.arena_m is not None:
            return float(self.arena_m)
        return max(9.0, math.sqrt(self.n_responders) * self.spacing_m)

    @property
    def capacity(self) -> int:
        return self.n_slots * self.n_shapes


class MobilityTrace:
    """Random-waypoint mobility from a private random stream."""

    def __init__(
        self,
        rng: np.random.Generator,
        arena_m: float,
        speed_mps: float,
    ) -> None:
        self._rng = rng
        self.arena_m = float(arena_m)
        self.speed_mps = float(speed_mps)
        self.position = self._draw_point()
        self._target = self._draw_point()

    def _draw_point(self) -> Point:
        return Point(
            float(self._rng.uniform(0.0, self.arena_m)),
            float(self._rng.uniform(0.0, self.arena_m)),
        )

    def step(self, dt_s: float) -> Point:
        """Advance toward the waypoint; arriving draws the next one."""
        if self.speed_mps <= 0.0:
            return self.position
        remaining = self.speed_mps * dt_s
        while remaining > 0.0:
            dx = self._target.x - self.position.x
            dy = self._target.y - self.position.y
            gap = math.hypot(dx, dy)
            if gap <= remaining:
                self.position = self._target
                remaining -= gap
                self._target = self._draw_point()
            else:
                frac = remaining / gap
                self.position = Point(
                    self.position.x + dx * frac, self.position.y + dy * frac
                )
                remaining = 0.0
        return self.position


@dataclass(frozen=True)
class SwarmEvent:
    """One entry of the deterministic swarm event stream.

    The stream is ordered by ``(epoch, initiator)`` regardless of shard
    count — it *is* the byte-identity contract of the sharded loop.
    ``data`` holds only ints and floats so ``repr`` is canonical.
    """

    epoch: int
    initiator: int
    kind: str
    data: tuple = ()


@dataclass(frozen=True)
class SwarmResult:
    """Aggregates of one swarm run.

    Everything except ``elapsed_s`` is a deterministic function of
    ``(config, seed, n_epochs)``; ``digest()`` hashes exactly that
    deterministic surface.
    """

    events: tuple
    rounds: int
    empty_rounds: int
    polled: int
    identified: int
    ambiguous: int
    errors_m: tuple
    fix_errors_m: tuple
    track_errors_m: tuple
    coverage: float
    n_epochs: int
    elapsed_s: float

    @property
    def id_rate(self) -> float:
        """Identified (unambiguously) / polled, over all rounds."""
        return self.identified / self.polled if self.polled else float("nan")

    @property
    def ambiguous_fraction(self) -> float:
        """Correct decodes lost to above-capacity (slot, shape) aliasing."""
        return self.ambiguous / self.polled if self.polled else 0.0

    @property
    def median_abs_error_m(self) -> float:
        if not self.errors_m:
            return float("nan")
        return float(np.median(np.abs(self.errors_m)))

    @property
    def median_fix_error_m(self) -> float:
        if not self.fix_errors_m:
            return float("nan")
        return float(np.median(self.fix_errors_m))

    @property
    def median_track_error_m(self) -> float:
        if not self.track_errors_m:
            return float("nan")
        return float(np.median(self.track_errors_m))

    @property
    def rounds_per_s(self) -> float:
        return self.rounds / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def digest(self) -> str:
        """SHA-256 over the deterministic surface (never ``elapsed_s``)."""
        hasher = hashlib.sha256()
        for event in self.events:
            hasher.update(repr(event).encode())
        hasher.update(
            repr(
                (
                    self.rounds,
                    self.empty_rounds,
                    self.polled,
                    self.identified,
                    self.ambiguous,
                    self.errors_m,
                    self.fix_errors_m,
                    self.track_errors_m,
                    self.coverage,
                    self.n_epochs,
                )
            ).encode()
        )
        return hasher.hexdigest()


@dataclass
class _PendingEntry:
    """One round paused at the classification boundary."""

    epoch: int
    initiator: int
    session: ConcurrentRangingSession
    pending: object
    polled: tuple
    members: tuple


class SwarmScenario:
    """N mobile responders + concurrent initiator tags, sharded by cell.

    Parameters
    ----------
    config:
        The :class:`SwarmConfig`.
    seed:
        Master entropy (int or tuple); every stream in the scenario
        derives from it through a stable ``(seed, stream, ids...)`` key.
    shards:
        Number of spatial shards the event loop partitions cells over.
        Any value produces byte-identical results; values above 1
        exercise the halo/merge machinery.
    """

    def __init__(self, config: SwarmConfig, seed=0, shards: int = 1) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.config = config
        self.seed = seed
        self.shards = int(shards)
        self.environment = IndoorEnvironment.office()

        bank = (
            TemplateBank.paper_bank(config.n_shapes)
            if config.n_shapes <= 4
            else TemplateBank.spread(config.n_shapes)
        )
        self.scheme = CombinedScheme(
            SlotPlan.for_range(20.0, n_slots=config.n_slots), bank
        )
        # One detector config for every round: ``max_responses`` already
        # covers the largest window, so the session never has to widen
        # it per round and batched classification shares one plan.
        self._detector_config = SearchAndSubtractConfig(
            max_responses=max(config.max_responses, config.window),
            upsample_factor=config.upsample_factor,
            min_peak_snr=config.min_peak_snr,
        )

        arena = config.arena
        self._nodes: Dict[int, Node] = {}
        self._traces: Dict[int, MobilityTrace] = {}
        for uid in range(config.n_initiators + config.n_responders):
            is_initiator = uid < config.n_initiators
            trace = MobilityTrace(
                np.random.default_rng((*self._key(), STREAM_MOBILITY, uid)),
                arena,
                config.initiator_speed_mps
                if is_initiator
                else config.responder_speed_mps,
            )
            node = Node.at(
                uid,
                trace.position.x,
                trace.position.y,
                rng=np.random.default_rng(
                    (*self._key(), STREAM_CLOCK, uid)
                ),
            )
            self._nodes[uid] = node
            self._traces[uid] = trace

        self._round_robin: Dict[int, int] = {}
        self._trackers: Dict[int, ConstantVelocityTracker] = {}
        self._polled_ever: set = set()
        self._epoch = 0

    # -- identities ---------------------------------------------------------

    def _key(self) -> tuple:
        seed = self.seed
        return tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)

    def _scheme_id(self, uid: int) -> int:
        """Persistent global scheme identity of a responder node."""
        return uid - self.config.n_initiators

    # -- spatial sharding ---------------------------------------------------

    def _cell_of(self, position: Point) -> Tuple[int, int]:
        cell = self.config.cell_m
        return (int(position.x // cell), int(position.y // cell))

    def _shard_of(self, cell: Tuple[int, int]) -> int:
        # Deterministic cell->shard map (independent of arena size and
        # shard count semantics: only *which* shard runs a round varies,
        # never the round itself).
        return (cell[0] * 73856093 + cell[1] * 19349663) % self.shards

    def _build_grid(self) -> Dict[Tuple[int, int], List[int]]:
        """Responder cell grid (members ascending per cell)."""
        grid: Dict[Tuple[int, int], List[int]] = {}
        for uid in sorted(self._nodes):
            if uid < self.config.n_initiators:
                continue
            cell = self._cell_of(self._nodes[uid].position)
            grid.setdefault(cell, []).append(uid)
        return grid

    def _shard_view(
        self,
        shard: int,
        grid: Dict[Tuple[int, int], List[int]],
        halo_cells: int,
    ) -> Dict[Tuple[int, int], tuple]:
        """The cells a shard may read: its own plus a halo ring.

        The view is the sharded loop's *only* window onto responder
        positions — an in-range query escaping it raises ``KeyError``
        in :meth:`_members_in_range`, so an insufficient halo is a loud
        failure, not a silent divergence.
        """
        view: Dict[Tuple[int, int], tuple] = {}
        for cell, members in grid.items():
            owned = self._shard_of(cell) == shard
            if owned:
                view[cell] = tuple(members)
                continue
            for dx in range(-halo_cells, halo_cells + 1):
                for dy in range(-halo_cells, halo_cells + 1):
                    neighbour = (cell[0] + dx, cell[1] + dy)
                    if self._shard_of(neighbour) == shard:
                        view[cell] = tuple(members)
                        break
                else:
                    continue
                break
        return view

    def _members_in_range(
        self,
        initiator_uid: int,
        view: Dict[Tuple[int, int], tuple],
        halo_cells: int,
    ) -> List[int]:
        """Responders within ``comm_range_m`` of an initiator, from the
        shard's view only (ascending uid)."""
        position = self._nodes[initiator_uid].position
        cell = self._cell_of(position)
        members: List[int] = []
        for dx in range(-halo_cells, halo_cells + 1):
            for dy in range(-halo_cells, halo_cells + 1):
                for uid in view.get((cell[0] + dx, cell[1] + dy), ()):
                    node = self._nodes[uid]
                    if (
                        position.distance_to(node.position)
                        <= self.config.comm_range_m
                    ):
                        members.append(uid)
        return sorted(members)

    # -- scheduling ---------------------------------------------------------

    def _active_initiators(self, epoch: int) -> List[int]:
        config = self.config
        active = {
            (epoch * config.n_concurrent + k) % config.n_initiators
            for k in range(config.n_concurrent)
        }
        return sorted(active)

    def _claim_members(
        self, active: Sequence[int], members_by_initiator: Dict[int, List[int]]
    ) -> Dict[int, List[int]]:
        """Resolve responders polled by several active initiators: the
        *nearest* initiator wins, ties to the lower initiator uid.

        Computed from global positions only — the claim map is the
        "cross-shard message" every shard agrees on before rounds run.
        """
        claims: Dict[int, int] = {}
        for initiator in active:
            for uid in members_by_initiator[initiator]:
                best = claims.get(uid)
                if best is None:
                    claims[uid] = initiator
                    continue
                node = self._nodes[uid]
                d_new = node.position.distance_to(
                    self._nodes[initiator].position
                )
                d_best = node.position.distance_to(
                    self._nodes[best].position
                )
                if d_new < d_best or (d_new == d_best and initiator < best):
                    claims[uid] = initiator
        claimed: Dict[int, List[int]] = {i: [] for i in active}
        for uid in sorted(claims):
            claimed[claims[uid]].append(uid)
        return claimed

    def _poll_window(self, initiator: int, members: Sequence[int]) -> tuple:
        """Round-robin admission: the next ``window`` members."""
        if not members:
            return ()
        pointer = self._round_robin.get(initiator, 0)
        take = min(self.config.window, len(members))
        start = pointer % len(members)
        polled = [
            members[(start + k) % len(members)] for k in range(take)
        ]
        self._round_robin[initiator] = start + take
        return tuple(sorted(polled))

    # -- rounds -------------------------------------------------------------

    def _contention_plan(
        self, epoch: int, initiator: int, active: Sequence[int]
    ) -> Optional[FaultPlan]:
        """Impulsive interference from other concurrent initiators."""
        position = self._nodes[initiator].position
        interferers = sum(
            1
            for other in active
            if other != initiator
            and position.distance_to(self._nodes[other].position)
            <= self.config.interference_range_m
        )
        if interferers == 0:
            return None
        return FaultPlan(
            [
                ImpulsiveInterference(
                    burst_probability=min(1.0, 0.35 * interferers),
                    amplitude_scale=0.6,
                    n_bursts=interferers,
                    burst_width_taps=3,
                )
            ],
            seed=(*self._key(), STREAM_CONTENTION, epoch, initiator),
        )

    def _begin_round(
        self,
        epoch: int,
        initiator: int,
        members: Sequence[int],
        active: Sequence[int],
        events: List[SwarmEvent],
    ) -> Optional[_PendingEntry]:
        polled = self._poll_window(initiator, members)
        if not polled:
            events.append(SwarmEvent(epoch, initiator, "idle"))
            return None
        self._polled_ever.update(polled)
        round_rng = np.random.default_rng(
            (*self._key(), STREAM_ROUND, epoch, initiator)
        )
        medium = Medium(environment=self.environment, rng=round_rng)
        init_node = self._nodes[initiator]
        responder_nodes = [self._nodes[uid] for uid in polled]
        medium.add_nodes([init_node] + responder_nodes)
        session = ConcurrentRangingSession(
            medium=medium,
            initiator=init_node,
            responders=responder_nodes,
            scheme=self.scheme,
            detector_config=self._detector_config,
            compensate_tx_quantization=True,
            rng=round_rng,
            faults=self._contention_plan(epoch, initiator, active),
            scheme_ids=[self._scheme_id(uid) for uid in polled],
        )
        try:
            pending = session.begin_round(round_index=epoch)
        except EmptyRoundError:
            events.append(
                SwarmEvent(epoch, initiator, "empty", (len(polled),))
            )
            return None
        return _PendingEntry(
            epoch=epoch,
            initiator=initiator,
            session=session,
            pending=pending,
            polled=polled,
            members=tuple(members),
        )

    def engine_config(self):
        """The :class:`~repro.serve.engine.EngineConfig` matching this
        scenario's own classifier — the bank, detector knobs, and
        sampling period its offline ``_classify`` uses, so a service
        built from it serves byte-identical rows."""
        from repro.constants import CIR_SAMPLING_PERIOD_S
        from repro.serve.engine import EngineConfig

        return EngineConfig(
            self.scheme.bank,
            CIR_SAMPLING_PERIOD_S,
            mode="classify",
            config=self._detector_config,
        )

    def serve_config(self, workers: int = 0, **overrides):
        """A ready :class:`~repro.serve.service.ServeConfig` for live
        ingest: this scenario's engine, its batch size, and no deadline
        shedding (every round must be served for digest parity)."""
        from repro.serve.service import ServeConfig

        options = {
            "engine": self.engine_config(),
            "workers": workers,
            "batch_size": self.config.batch_size,
            "default_deadline_s": None,
        }
        options.update(overrides)
        return ServeConfig(**options)

    def _classify_via_service(
        self, service, entries: List[_PendingEntry]
    ) -> List[list]:
        """Live ingest: stream the epoch's rounds through a client.

        ``service`` is a :class:`~repro.serve.client.RangingClient`
        (anything with a ``submit_many``) over a deployment built from
        :meth:`serve_config`.  Sessions are keyed per initiator so one
        initiator's rounds stay FIFO on one shard/worker; defense/fault
        context rides the request ``annotations`` end to end.  A round
        the service cannot serve raises — digest parity with the
        replayed-pool path requires every round's responses, so a
        degraded answer must not be silently substituted.
        """
        from repro.constants import CIR_SAMPLING_PERIOD_S
        from repro.serve.request import RangingRequest

        requests = []
        for entry in entries:
            period = float(entry.pending.sampling_period_s)
            if period != CIR_SAMPLING_PERIOD_S:
                raise ValueError(
                    f"round sampling period {period} does not match the "
                    f"served engine's {CIR_SAMPLING_PERIOD_S}"
                )
            requests.append(
                RangingRequest(
                    session_id=f"swarm-{entry.initiator}",
                    sequence=entry.epoch,
                    cir=entry.pending.cir,
                    noise_std=entry.pending.noise_std,
                    annotations={
                        "epoch": entry.epoch,
                        "initiator": entry.initiator,
                        "polled": len(entry.polled),
                        "members": len(entry.members),
                    },
                )
            )
        outcomes = service.submit_many(requests)
        rows: List[list] = []
        for entry, outcome in zip(entries, outcomes):
            if not outcome.ok:
                raise RuntimeError(
                    f"swarm round (epoch {entry.epoch}, initiator "
                    f"{entry.initiator}) failed through the service: "
                    f"{outcome.status}: {outcome.error}"
                )
            rows.append(list(outcome.responses))
        return rows

    def _classify(self, entries: List[_PendingEntry]) -> List[list]:
        """Classification for every pending round, in entry order."""
        rows: List[list] = []
        step = self.config.batch_size
        for start in range(0, len(entries), step):
            chunk = entries[start : start + step]
            cirs = np.stack([entry.pending.cir for entry in chunk])
            rows.extend(
                classify_batch(
                    cirs,
                    self.scheme.bank,
                    chunk[0].pending.sampling_period_s,
                    config=self._detector_config,
                    noise_std=[entry.pending.noise_std for entry in chunk],
                )
            )
        return rows

    def _ambiguous_ids(self, members: Sequence[int]) -> set:
        """Scheme IDs (mod capacity) carried by >1 in-range member.

        Above capacity the initiator cannot tell which of two aliased
        members answered — a correct (slot, shape) decode is still an
        ambiguous identity.
        """
        capacity = self.config.capacity
        seen: Dict[int, int] = {}
        for uid in members:
            sid = self._scheme_id(uid) % capacity
            seen[sid] = seen.get(sid, 0) + 1
        return {sid for sid, count in seen.items() if count > 1}

    def _finish_round(
        self,
        entry: _PendingEntry,
        classified: list,
        events: List[SwarmEvent],
        stats: dict,
    ) -> None:
        result = entry.session.finish_round(entry.pending, classified)
        ambiguous_ids = self._ambiguous_ids(entry.members)
        capacity = self.config.capacity
        init_node = self._nodes[entry.initiator]

        identified = 0
        ambiguous = 0
        anchors: List[Point] = []
        distances: List[float] = []
        for outcome in result.outcomes:
            uid = entry.polled[outcome.responder_id]
            if not outcome.identified:
                continue
            if self._scheme_id(uid) % capacity in ambiguous_ids:
                ambiguous += 1
                continue
            identified += 1
            stats["errors_m"].append(float(outcome.error_m))
            # The responder's position rides in the RESP payload (the
            # swarmulator ping model); with its decoded identity and
            # measured distance it becomes a localization anchor.
            anchors.append(self._nodes[uid].position)
            distances.append(float(outcome.estimated_distance_m))

        stats["rounds"] += 1
        stats["polled"] += len(entry.polled)
        stats["identified"] += identified
        stats["ambiguous"] += ambiguous
        events.append(
            SwarmEvent(
                entry.epoch,
                entry.initiator,
                "round",
                (len(entry.polled), identified, ambiguous),
            )
        )

        if len(anchors) >= 3:
            fix = multilaterate_robust(anchors, distances)
            fix_error = fix.position.distance_to(init_node.position)
            stats["fix_errors_m"].append(float(fix_error))
            tracker = self._trackers.setdefault(
                entry.initiator, ConstantVelocityTracker()
            )
            state = tracker.update(
                fix.position, entry.epoch * self.config.epoch_period_s
            )
            track_error = state.position.distance_to(init_node.position)
            stats["track_errors_m"].append(float(track_error))
            events.append(
                SwarmEvent(
                    entry.epoch,
                    entry.initiator,
                    "fix",
                    (len(anchors), float(fix_error), float(track_error)),
                )
            )

    # -- the loop -----------------------------------------------------------

    def run(self, n_epochs: int, service=None) -> SwarmResult:
        """Run ``n_epochs`` scheduling beats and aggregate the result.

        With ``service`` (a :class:`~repro.serve.client.RangingClient`
        over a deployment built from :meth:`serve_config`), each
        epoch's rounds are classified **live through the serving
        stack** instead of by the in-simulator batched classifier; the
        result — events, stats, and :meth:`SwarmResult.digest` — is
        byte-identical to the replayed-pool path, which
        ``tests/test_serve_mp.py`` pins.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        config = self.config
        halo_cells = max(1, math.ceil(config.comm_range_m / config.cell_m))
        events: List[SwarmEvent] = []
        stats = {
            "rounds": 0,
            "polled": 0,
            "identified": 0,
            "ambiguous": 0,
            "errors_m": [],
            "fix_errors_m": [],
            "track_errors_m": [],
        }
        empty_rounds = 0
        started = time.perf_counter()

        for _ in range(n_epochs):
            epoch = self._epoch
            self._epoch += 1
            # 1. Mobility: every node advances on its private stream.
            for uid in sorted(self._nodes):
                position = self._traces[uid].step(config.epoch_period_s)
                self._nodes[uid].position = position

            # 2. Scheduling + global claim resolution.
            active = self._active_initiators(epoch)
            grid = self._build_grid()
            full_view = {cell: tuple(m) for cell, m in grid.items()}
            members_global = {
                initiator: self._members_in_range(
                    initiator, full_view, halo_cells
                )
                for initiator in active
            }
            claimed = self._claim_members(active, members_global)

            # 3. Sharded rounds: shard k runs the initiators whose cell
            #    hashes to it, reading positions only through its view.
            epoch_events: List[SwarmEvent] = []
            entries: List[_PendingEntry] = []
            for shard in range(self.shards):
                view = self._shard_view(shard, grid, halo_cells)
                for initiator in active:
                    cell = self._cell_of(self._nodes[initiator].position)
                    if self._shard_of(cell) != shard:
                        continue
                    mine = set(claimed[initiator])
                    members = [
                        uid
                        for uid in self._members_in_range(
                            initiator, view, halo_cells
                        )
                        if uid in mine
                    ]
                    entry = self._begin_round(
                        epoch, initiator, members, active, epoch_events
                    )
                    if entry is not None:
                        entries.append(entry)

            # 4. Deterministic cross-shard merge: order by initiator,
            #    then classify and finish.
            entries.sort(key=lambda e: e.initiator)
            if service is not None:
                rows = self._classify_via_service(service, entries)
            else:
                rows = self._classify(entries)
            for entry, classified in zip(entries, rows):
                self._finish_round(entry, classified, epoch_events, stats)
            empty_rounds += sum(
                1 for event in epoch_events if event.kind == "empty"
            )
            epoch_events.sort(
                key=lambda e: (e.initiator, _KIND_ORDER[e.kind])
            )
            events.extend(epoch_events)

        elapsed = time.perf_counter() - started
        return SwarmResult(
            events=tuple(events),
            rounds=stats["rounds"],
            empty_rounds=empty_rounds,
            polled=stats["polled"],
            identified=stats["identified"],
            ambiguous=stats["ambiguous"],
            errors_m=tuple(stats["errors_m"]),
            fix_errors_m=tuple(stats["fix_errors_m"]),
            track_errors_m=tuple(stats["track_errors_m"]),
            coverage=len(self._polled_ever) / config.n_responders,
            n_epochs=n_epochs,
            elapsed_s=elapsed,
        )
