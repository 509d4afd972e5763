"""Responder identification from pulse shape (paper Sect. V).

Each responder transmits with its own ``TC_PGDELAY`` pulse width; the
initiator matched-filters the CIR against the whole template bank and,
for every detected response, picks the template with the largest
amplitude estimate ``alpha_hat_{k,i}`` — that template's index *is* the
responder's (partial) identity.

The classifier runs the search-and-subtract engine with a
multi-template bank.  Each iteration finds the strongest peak over the
bank's cover (:func:`repro.core.plan.bank_cover`: every template
correlates at least 0.99 with one of its channels), then scores every
template of the bank within one native tap of that peak; the best
(template, lag) is the response, its template is recorded, and that
template is subtracted, so classification and detection reinforce each
other.  Every bank the paper uses is its own cover, so there the peak
is the strongest over *all* filter outputs, as in the paper; only
near-duplicate shapes (the 96-shape swarm bank) share a search channel.
:func:`classify_responses` is the decision core;
:meth:`PulseShapeClassifier.classify` is a batch of one through
:func:`repro.core.batch_id.classify_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.core.detection import DetectedResponse, SearchAndSubtractConfig
from repro.signal.templates import TemplateBank

__all__ = [
    "ClassifiedResponse",
    "PulseShapeClassifier",
    "classify_responses",
]


@dataclass(frozen=True)
class ClassifiedResponse:
    """A detected response with its decoded pulse shape.

    ``shape_index`` is the bank index (0 for the paper's ``s1``), and
    ``confidence`` the ratio between the winning and runner-up template
    scores (1.0 means a tie; larger is more certain).
    """

    response: DetectedResponse
    shape_index: int
    confidence: float

    @property
    def shape_name(self) -> str:
        return f"s{self.shape_index + 1}"

    @property
    def delay_s(self) -> float:
        return self.response.delay_s

    @property
    def index(self) -> float:
        """Fractional sample index of the response peak.

        Always a Python ``float``: the proxied
        :attr:`DetectedResponse.index` may carry a NumPy scalar (e.g.
        ``np.float64`` from a user-constructed response), which would
        silently leak through the annotated contract — coerce instead.
        """
        return float(self.response.index)

    @property
    def amplitude(self) -> complex:
        return self.response.amplitude


def classify_responses(
    responses: Iterable[DetectedResponse],
) -> List[ClassifiedResponse]:
    """Decode each detected response's pulse shape from its scores.

    This is the maximum-amplitude decision of Sect. V, applied by
    :func:`repro.core.batch_id.classify_batch` to every detected
    response.

    Ties (equal winning and runner-up scores) yield ``confidence == 1.0``
    and keep ``np.argsort``'s descending-order winner.
    """
    classified: List[ClassifiedResponse] = []
    for response in responses:
        scores = np.asarray(response.scores, dtype=float)
        order = np.argsort(scores)[::-1]
        winner = int(order[0])
        if len(scores) > 1 and scores[order[1]] > 0.0:
            confidence = float(scores[winner] / scores[order[1]])
        else:
            confidence = float("inf")
        classified.append(
            ClassifiedResponse(
                response=response,
                shape_index=winner,
                confidence=confidence,
            )
        )
    return classified


class PulseShapeClassifier:
    """Joint detection + shape classification over a template bank.

    Detection searches the bank's cover and picks each response's shape
    from the whole bank within one native tap of the detected peak (see
    the module docstring); each response's ``scores`` hold every
    template's amplitude at the picked lag, and
    :func:`classify_responses` decodes the shape from them.
    """

    def __init__(
        self,
        bank: TemplateBank,
        config: SearchAndSubtractConfig | None = None,
    ) -> None:
        if len(bank) < 1:
            raise ValueError("classifier needs a non-empty template bank")
        self.bank = bank
        self.config = config or SearchAndSubtractConfig()

    def classify(
        self,
        cir: np.ndarray,
        sampling_period_s: float,
        noise_std: float = 0.0,
    ) -> List[ClassifiedResponse]:
        """Detect responses and decode each one's pulse shape.

        A batch of one through :func:`repro.core.batch_id.classify_batch`:
        the cached plan is immutable and every thread runs on its own
        scratch, so ``classify`` is safe to call from several threads at
        once.  Returns classified responses sorted by delay ascending.
        """
        from repro.core.batch_id import classify_batch

        cir = np.asarray(cir, dtype=complex)
        if cir.ndim != 1:
            raise ValueError(f"expected a 1-D CIR, got shape {cir.shape}")
        return classify_batch(
            cir[np.newaxis], self.bank, sampling_period_s,
            config=self.config, noise_std=noise_std,
        )[0]
