"""CIR-to-distance alignment (paper Sect. IV, step 1).

The DW1000 CIR has an unknown time offset, so absolute tap indices mean
nothing.  The paper aligns the CIR with the SS-TWR distance of the first
responder: the first detected peak is *defined* to sit at ``d_TWR``, and
every other tap maps to a distance through Eq. 4.  The paper notes this
is not strictly required (only delay differences matter) but that it
enables visualisation and plausibility checks — both of which the
example scripts use.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_LIGHT


def distance_axis(
    n_samples: int,
    sampling_period_s: float,
    first_peak_index: float,
    d_twr_m: float,
) -> np.ndarray:
    """Distance value of every CIR tap after d_TWR alignment.

    Tap ``first_peak_index`` maps to ``d_twr_m``; other taps map through
    the half-rate rule of Eq. 4 (1 ns of CIR delay = ~15 cm of distance,
    not 30 cm, because the delay accrues over both legs).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    indices = np.arange(n_samples, dtype=float)
    return (
        d_twr_m
        + (indices - first_peak_index) * sampling_period_s * SPEED_OF_LIGHT / 2.0
    )
