"""Matched filtering of the CIR against a pulse template (paper Eq. 3).

The paper defines the matched-filter impulse response as the
time-reversed pulse template and computes the output as the discrete
convolution with the CIR.  We additionally align the output axis so that
a pulse whose *peak* sits at CIR index ``p`` produces its matched-filter
maximum at output index ``p`` — and, because templates are unit-energy,
the output value there equals the pulse's complex amplitude.  That makes
step 4 of the detection algorithm ("amplitude of y at sample l_k") an
unbiased amplitude estimate for an isolated response.
"""

from __future__ import annotations

import numpy as np

from repro.signal.pulses import Pulse


def matched_filter(
    cir: np.ndarray,
    template: Pulse | np.ndarray,
    peak_index: int | None = None,
) -> np.ndarray:
    """Correlate a CIR against a pulse template.

    Parameters
    ----------
    cir:
        Complex (or real) CIR samples, length ``N``.
    template:
        A :class:`~repro.signal.pulses.Pulse` or a raw sample array.  Must
        be sampled at the same rate as ``cir``.
    peak_index:
        Index of the template's peak sample; defaults to the argmax of
        the template magnitude (or :attr:`Pulse.peak_index`).

    Returns
    -------
    numpy.ndarray
        Complex output of length ``N``: ``y[n]`` is the correlation of
        the CIR with the template anchored so its peak overlays CIR
        sample ``n``.
    """
    cir = np.asarray(cir)
    if cir.ndim != 1:
        raise ValueError(f"expected a 1-D CIR, got shape {cir.shape}")
    if isinstance(template, Pulse):
        samples = template.samples
        if peak_index is None:
            peak_index = template.peak_index
    else:
        samples = np.asarray(template)
        if samples.ndim != 1:
            raise ValueError("template must be a 1-D array")
        if peak_index is None:
            peak_index = int(np.argmax(np.abs(samples)))
    if len(samples) > 0 and not 0 <= peak_index < len(samples):
        raise ValueError(
            f"peak_index {peak_index} outside template of length {len(samples)}"
        )

    # Imported here, not at module level: scipy.signal drags in
    # scipy.stats/optimize/interpolate, which would dominate the
    # package's import time, and only the reference detector and the
    # Fig. 4 experiment filter this way — the engine never does.
    from scipy import signal as sp_signal

    # full correlation: c[k] = sum_j cir[k - (Nt-1) + j] * conj(s[j])
    full = sp_signal.correlate(cir, np.conj(samples), mode="full", method="auto")
    # A pulse peaking at CIR index p maximises c at k = p + (Nt-1) - peak,
    # so shifting by (Nt-1) - peak re-anchors the axis onto CIR indices.
    start = len(samples) - 1 - peak_index
    return full[start : start + len(cir)]
