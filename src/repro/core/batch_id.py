"""Cross-trial batched pulse-shape identification (paper Sect. V at scale).

Responder identification is the same workload as detection — matched
filtering against the whole template bank — plus a per-response winner
pick, so :func:`classify_batch` is exactly the
:func:`repro.core.batch.detect_batch` engine pass over the bank followed
by the shared :func:`repro.core.pulse_id.classify_responses`.
:meth:`PulseShapeClassifier.classify
<repro.core.pulse_id.PulseShapeClassifier.classify>` is a batch of one
through it.

:class:`ClassifyBatchTrial` packages the whole pipeline for the trial
runtime: experiments supply picklable ``prepare``/``finish`` callables
and get a :class:`~repro.runtime.executor.BatchTrial` whose batched
form routes every group of trials through :func:`classify_batch` —
``run_trials(..., batch_size=B)`` (or ``batch_size="auto"`` via the
attached :class:`~repro.runtime.executor.WorkloadShape`) then exercises
the batched classifier end-to-end with unchanged per-trial seeding.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batch import search_and_subtract
from repro.core.detection import SearchAndSubtractConfig
from repro.core.plan import bank_cover
from repro.core.pulse_id import ClassifiedResponse, classify_responses
from repro.runtime.executor import BatchTrial, WorkloadShape
from repro.signal.templates import TemplateBank

__all__ = ["ClassifyBatchTrial", "classify_batch"]

#: ``prepare(rng, index) -> (cir, noise_std, context)``: everything a
#: trial does *before* classification (topology, channels, capture).
PrepareFn = Callable[
    [np.random.Generator, int], Tuple[np.ndarray, float, Any]
]

#: ``finish(classified, context, rng, index) -> value``: everything a
#: trial does *after* classification (decode, scoring).
FinishFn = Callable[
    [List[ClassifiedResponse], Any, np.random.Generator, int], Any
]


def classify_batch(
    cirs,
    bank: TemplateBank,
    sampling_period_s: float,
    config: SearchAndSubtractConfig | None = None,
    noise_std=0.0,
) -> List[List[ClassifiedResponse]]:
    """Jointly detect and identify responses in B stacked CIRs.

    The :func:`~repro.core.batch.detect_batch` engine pass over the
    bank, followed by the shared per-response winner pick
    (:func:`~repro.core.pulse_id.classify_responses`).  The pass is
    counted and timed under the ``classifier.`` prefix only.

    Parameters
    ----------
    cirs:
        ``(B, N)`` array (or sequence of B equal-length 1-D arrays) of
        complex CIR samples at the radio's native tap rate.  ``B == 0``
        returns ``[]``.
    bank:
        The pulse-shape :class:`~repro.signal.templates.TemplateBank`
        whose index *is* the (partial) responder identity.
    sampling_period_s:
        Tap spacing of every CIR in the batch.
    config:
        Detector knobs; defaults to ``SearchAndSubtractConfig()``.
    noise_std:
        Scalar shared by all trials, or a length-B sequence of per-trial
        noise standard deviations (for the early-stop gate).

    Returns
    -------
    list of list of :class:`ClassifiedResponse`
        Entry ``b`` equals ``PulseShapeClassifier(bank, config)
        .classify(cirs[b], sampling_period_s, noise_std=noise_std[b])``
        — same responses in the same delay-ascending order, same shape
        indices, same confidences.
    """
    if len(bank) < 1:
        raise ValueError("classify_batch needs a non-empty template bank")
    extracted = search_and_subtract(
        cirs, list(bank), sampling_period_s, config, noise_std,
        "classifier",
    )
    return [classify_responses(responses) for responses in extracted]


# -- runtime bridge ----------------------------------------------------------


def _classify_trial_batch(
    rngs: Sequence[np.random.Generator],
    indices: Sequence[int],
    *,
    prepare: PrepareFn,
    finish: FinishFn,
    bank: TemplateBank,
    sampling_period_s: float,
    config: Optional[SearchAndSubtractConfig],
) -> List[Any]:
    """A group of trials through one batched classifier pass.

    Each trial's ``prepare`` consumes its own generator, classification
    consumes none, and ``finish`` resumes the same generator, so entry
    ``k`` does not depend on the rest of the group: it equals the same
    trial run as a batch of one (the executor's :class:`BatchTrial`
    contract).
    """
    prepared = [
        prepare(rng, index) for rng, index in zip(rngs, indices)
    ]
    cirs = np.stack([np.asarray(cir) for cir, _, _ in prepared])
    stds = [float(noise_std) for _, noise_std, _ in prepared]
    batches = classify_batch(
        cirs, bank, sampling_period_s, config=config, noise_std=stds
    )
    return [
        finish(classified, context, rng, index)
        for classified, (_, _, context), rng, index in zip(
            batches, prepared, rngs, indices
        )
    ]


class ClassifyBatchTrial(BatchTrial):
    """A :class:`~repro.runtime.executor.BatchTrial` over the classifier.

    Experiments describe one trial as two picklable halves around the
    classification step::

        prepare(rng, index) -> (cir, noise_std, context)
        finish(classified, context, rng, index) -> value

    and each group of trials runs through :func:`classify_batch` (all
    ``prepare`` calls, one batched engine pass over the stacked CIRs
    with a per-trial ``noise_std`` vector, all ``finish`` calls); a lone
    trial is a group of one.  Each trial keeps its own seed-child
    generator through both halves, so any grouping gives the same
    values byte-for-byte given the engine equivalence.

    ``cir_length`` (when known up front, e.g. the radio's fixed
    ``CIR_LENGTH_PRF64``) attaches a
    :class:`~repro.runtime.executor.WorkloadShape` so
    ``batch_size="auto"`` can size batches from the workload — sized by
    the filter channels the engine searches (the bank's cover at the
    fine rate, :func:`~repro.core.plan.bank_cover`), not by the bank
    size; without it, ``"auto"`` degrades to unbatched execution.

    Keep ``prepare``/``finish`` picklable (module-level functions or
    ``functools.partial`` over them) so the parallel executor can ship
    the trial to worker processes.
    """

    def __init__(
        self,
        prepare: PrepareFn,
        finish: FinishFn,
        bank: TemplateBank,
        sampling_period_s: float,
        config: Optional[SearchAndSubtractConfig] = None,
        cir_length: Optional[int] = None,
    ) -> None:
        workload = None
        if cir_length is not None:
            factor = (config or SearchAndSubtractConfig()).upsample_factor
            cover = bank_cover(bank.resampled(sampling_period_s / factor))
            workload = WorkloadShape(
                cir_length=int(cir_length),
                channels=len(cover),
                upsample_factor=factor,
            )
        BatchTrial.__init__(
            self,
            batch=partial(
                _classify_trial_batch,
                prepare=prepare,
                finish=finish,
                bank=bank,
                sampling_period_s=float(sampling_period_s),
                config=config,
            ),
            workload=workload,
        )
