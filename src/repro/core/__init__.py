"""The paper's primary contribution: practical concurrent ranging.

* :mod:`repro.core.matched_filter` — the matched filter of Sect. IV
  (Eq. 3), aligned so output indices coincide with pulse-peak positions.
* :mod:`repro.core.detection` — the *search-and-subtract* response
  detector (Sect. IV, steps 1-7) and its oracle,
  :func:`~repro.core.detection.detect_reference`, the literal
  re-filtering loop (with the engine's coarse-to-fine pick rule) the
  engine is tested against.
* :mod:`repro.core.plan` — spectrum-cached FFT detection plans: the
  bank's cover (the coarse channels the engine searches), their
  immutable spectra, the scoring matrix of the other templates,
  memoised per shape, and the batched step-5 update that subtracts
  detected responses from the coarse outputs.
* :mod:`repro.core.batch` — the one detection engine: B CIRs of one
  shape through a single 2-D FFT pass over the cover
  (:func:`~repro.core.batch.detect_batch`) on per-thread scratch;
  ``detect()`` is a batch of one.
* :mod:`repro.core.batch_extract` — the batch-vectorised
  search-and-subtract extraction loop of that engine: search the
  cover, pick each peak's shape from the whole bank within one native
  tap, subtract.
* :mod:`repro.core.threshold` — the threshold-based baseline detector
  (Falsi et al., used as comparison in Sect. VI).
* :mod:`repro.core.pulse_id` — responder identification from pulse shape
  (Sect. V): the per-response decision over the template bank.
* :mod:`repro.core.batch_id` — identification through the engine
  (:func:`~repro.core.batch_id.classify_batch`: the detection pass
  followed by the shape decode), plus the
  :class:`~repro.core.batch_id.ClassifyBatchTrial` runtime bridge.
* :mod:`repro.core.ranging` — SS-TWR (Eq. 2) and CIR-relative (Eq. 4)
  distance computation.
* :mod:`repro.core.alignment` — CIR-to-distance alignment using d_TWR
  (Sect. IV, step 1).
* :mod:`repro.core.rpm` — response position modulation (Sect. VII).
* :mod:`repro.core.scheme` — RPM x pulse shaping combined scheme
  (Sect. VIII).
"""

from repro.core.matched_filter import matched_filter
from repro.core.detection import (
    DetectedResponse,
    SearchAndSubtract,
    SearchAndSubtractConfig,
    detect_reference,
)
from repro.core.plan import DetectorPlan, detector_plan
from repro.core.batch import detect_batch
from repro.core.threshold import (
    ThresholdDetector,
    ThresholdConfig,
    detect_threshold_reference,
)
from repro.core.pulse_id import (
    PulseShapeClassifier,
    ClassifiedResponse,
    classify_responses,
)
from repro.core.batch_id import ClassifyBatchTrial, classify_batch
from repro.core.ranging import (
    twr_distance,
    twr_distance_compensated,
    ds_twr_distance,
    concurrent_distances,
    sort_responses,
)
from repro.core.alignment import distance_axis
from repro.core.rpm import SlotPlan, paper_slot_count, safe_slot_count
from repro.core.scheme import CombinedScheme, ResponderAssignment

__all__ = [
    "matched_filter",
    "ClassifyBatchTrial",
    "DetectorPlan",
    "classify_batch",
    "classify_responses",
    "detect_batch",
    "detect_reference",
    "detect_threshold_reference",
    "detector_plan",
    "DetectedResponse",
    "SearchAndSubtract",
    "SearchAndSubtractConfig",
    "ThresholdDetector",
    "ThresholdConfig",
    "PulseShapeClassifier",
    "ClassifiedResponse",
    "twr_distance",
    "twr_distance_compensated",
    "ds_twr_distance",
    "concurrent_distances",
    "sort_responses",
    "distance_axis",
    "SlotPlan",
    "paper_slot_count",
    "safe_slot_count",
    "CombinedScheme",
    "ResponderAssignment",
]
