"""EXP-S9 — Stress test: identification vs responder count (ours).

Sect. VIII gives the *capacity* formula N_max = N_RPM x N_PS but never
measures how the decode behaves as the scheme fills up.  This stress
test sweeps the responder count from 2 up to the full 12-responder
capacity of the Fig. 8 scheme (4 slots x 3 shapes) and measures the
per-responder identification rate — quantifying the graceful (or not)
degradation as slots grow crowded and the detector must pull more and
more peaks out of one CIR.

The sweep runs on the :mod:`repro.runtime` trial executor (one trial
per responder count), so ``run()`` carries the standard
``run(trials, seed, workers, batch_size, checkpoint)`` surface:
``--workers`` parallelises the per-count simulations and
``--checkpoint`` persists them.  Each count seeds its own generator as
``seed + count`` — exactly the serial sweep's derivation — so results
are identical at any worker count.

Counts *above* the 12-responder scheme capacity cannot use the static
single-round layout at all: every responder ID must be unique, so the
legacy path simply raises.  Those counts delegate to the
:class:`~repro.netsim.swarm.SwarmScenario` medium (one initiator, no
mobility-breaking concurrency), where responders keep persistent
global identities and alias onto (slot, shape) pairs modulo the
capacity — the oversubscribed regime the swarm layer was built to
measure.  Counts ``<= 12`` still run the original code path
byte-for-byte (pinned by ``tests/test_swarm.py``).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence, Tuple

import numpy as np

from repro.analysis.tables import Table
from repro.channel.stochastic import IndoorEnvironment
from repro.core.detection import SearchAndSubtractConfig
from repro.core.rpm import SlotPlan
from repro.core.scheme import CombinedScheme
from repro.experiments.common import ExperimentResult
from repro.netsim.medium import Medium
from repro.netsim.node import Node
from repro.protocol.concurrent import ConcurrentRangingSession
from repro.runtime import MetricsRegistry, run_trials
from repro.signal.templates import TemplateBank

N_SLOTS = 4
N_SHAPES = 3
RESPONDER_COUNTS = (2, 4, 6, 9, 12)

#: Oversubscribed counts (> N_SLOTS x N_SHAPES) measured on the swarm
#: medium, where identities alias modulo the scheme capacity.
SWARM_COUNTS = (18, 24)

#: Radial distance pattern: spread between 3 and 12 m.
def _distance(i: int) -> float:
    return 3.0 + (i * 9.0 / 11.0)


def _identification_rate(
    n_responders: int, trials: int, seed: int
) -> float:
    rng = np.random.default_rng(seed)
    medium = Medium(environment=IndoorEnvironment.hallway(), rng=rng)
    initiator = Node.at(0, 0.0, 0.0, rng=rng)
    responders = []
    for i in range(n_responders):
        angle = 2.0 * np.pi * i / n_responders
        responders.append(
            Node.at(
                i + 1,
                float(_distance(i) * np.cos(angle)),
                float(_distance(i) * np.sin(angle)),
                rng=rng,
            )
        )
    medium.add_nodes([initiator] + responders)
    scheme = CombinedScheme(
        SlotPlan.for_range(15.0, n_slots=N_SLOTS),
        TemplateBank.paper_bank(N_SHAPES),
    )
    session = ConcurrentRangingSession(
        medium=medium,
        initiator=initiator,
        responders=responders,
        scheme=scheme,
        detector_config=SearchAndSubtractConfig(
            max_responses=n_responders, upsample_factor=8
        ),
        compensate_tx_quantization=True,
        rng=rng,
    )
    hits = 0
    total = 0
    for _ in range(trials):
        outcome = session.run_round()
        for responder in outcome.outcomes:
            total += 1
            hits += responder.identified
    return hits / total


def _swarm_identification_rate(
    n_responders: int, trials: int, seed: int
) -> float:
    """Identification rate above scheme capacity, on the swarm medium.

    One static initiator polls a 12-wide round-robin window of a
    ``n_responders`` population whose persistent identities alias onto
    the 4 x 3 scheme modulo its capacity.  ``trials`` becomes swarm
    epochs (one round each); decodes that alias >1 in-range member
    count as *ambiguous*, not identified — exactly the failure mode
    the capacity formula predicts past ``N_max``.
    """
    from repro.netsim.swarm import SwarmConfig, SwarmScenario

    config = SwarmConfig(
        n_responders=n_responders,
        n_initiators=1,
        n_concurrent=1,
        arena_m=9.0,
        comm_range_m=6.0,
        window=12,
        n_slots=N_SLOTS,
        n_shapes=N_SHAPES,
        upsample_factor=8,
    )
    result = SwarmScenario(config, seed=seed, shards=1).run(trials)
    return result.identified / result.polled if result.polled else 0.0


def _capacity_trial(
    rng: np.random.Generator,
    index: int,
    *,
    counts: Sequence[int],
    trials: int,
    seed: int,
) -> Tuple[int, float]:
    """Measure one responder count's identification rate.

    The simulation derives its own generator from ``seed + count`` (the
    serial sweep's exact seeding), so the trial seeding contract goes
    unused — results are identical at any worker count or trial order.
    Counts above the scheme capacity dispatch to the swarm medium (the
    static layout cannot assign >12 unique IDs at all).
    """
    count = int(counts[index])
    if count <= N_SLOTS * N_SHAPES:
        return count, _identification_rate(count, trials, seed + count)
    return count, _swarm_identification_rate(count, trials, seed + count)


def run(
    *,
    trials: int = 40,
    seed: int = 67,
    workers: int = 1,
    checkpoint=None,
    metrics: MetricsRegistry | None = None,
) -> ExperimentResult:
    """Sweep responder counts and report per-responder ID rates.

    ``trials`` is the number of ranging rounds simulated per responder
    count; each count is one trial of the runner.
    """
    result = ExperimentResult(
        experiment_id="Capacity stress (ours)",
        description="identification rate as the Fig. 8 scheme fills up",
    )
    table = Table(
        ["responders", "scheme load", "medium", "per-responder ID rate"],
        title=f"4 slots x 3 shapes (capacity 12), {trials} rounds per point",
    )
    counts = RESPONDER_COUNTS + SWARM_COUNTS
    report = run_trials(
        partial(
            _capacity_trial,
            counts=counts,
            trials=trials,
            seed=seed,
        ),
        len(counts),
        seed=seed,
        workers=workers,
        metrics=metrics,
        checkpoint_dir=checkpoint,
        checkpoint_label="capacity-stress",
    )
    rates = {}
    for count, rate in report.values:
        rates[count] = rate
        medium = "static" if count <= N_SLOTS * N_SHAPES else "swarm"
        table.add_row([count, f"{count}/12", medium, rate])
    result.add_table(table)

    result.compare("id_rate_2", rates[2], paper=None)
    result.compare("id_rate_9", rates[9], paper=1.0)
    result.compare("id_rate_12_full", rates[12], paper=None)
    for count in SWARM_COUNTS:
        result.compare(f"id_rate_{count}_swarm", rates[count], paper=None)
    result.note(
        "the paper demonstrates 9 of 12; the sweep shows how much margin "
        "remains at full capacity"
    )
    result.note(
        "counts past capacity run on the swarm medium with aliased "
        "persistent identities (decodes matching >1 in-range member are "
        "ambiguous, not identified); counts <= 12 are byte-identical to "
        "the historical static sweep"
    )
    return result
