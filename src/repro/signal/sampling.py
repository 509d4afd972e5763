"""FFT-based resampling and sub-sample signal placement.

Step 1 of the paper's detection algorithm upsamples the CIR "using fast
Fourier transform in order to obtain a smoother signal".  This module
implements that operation, plus the fractional (sub-sample) delays needed
to place responder pulses at physically exact path delays when the
simulated channel is synthesised.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def fft_upsample(signal: np.ndarray, factor: int) -> np.ndarray:
    """Upsample a signal by an integer factor via FFT zero-padding.

    This is the textbook band-limited interpolation used by the paper's
    step 1: transform, insert zeros at the high frequencies, inverse
    transform, rescale.  Works for real and complex signals; a real input
    yields a real output (up to float rounding, which we strip).  A batch
    of one of :func:`fft_upsample_batch`.

    Parameters
    ----------
    signal:
        1-D input array.
    factor:
        Integer upsampling factor >= 1.  ``factor == 1`` returns a copy.
    """
    signal = np.asarray(signal)
    if signal.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {signal.shape}")
    return fft_upsample_batch(signal[np.newaxis], factor)[0]


def fft_upsample_batch(signals: np.ndarray, factor: int) -> np.ndarray:
    """Upsample a batch of equal-length signals in one 2-D FFT pass.

    ``signals`` is a ``(B, N)`` array; the result is ``(B, N * factor)``.
    Pocketfft evaluates each row of the batched transform with the same
    kernel as a 1-D transform, so row ``b`` is byte-identical to
    upsampling ``signals[b]`` on its own
    (``tests/test_properties_signal.py`` holds the rows to a 1-D
    transcription of the bin bookkeeping below).

    This is the cross-*trial* batching the detection engine in
    :mod:`repro.core.batch` builds on: B Monte-Carlo CIRs share one
    forward and one inverse transform dispatch instead of 2 B.
    """
    signals = np.asarray(signals)
    if signals.ndim != 2:
        raise ValueError(
            f"expected a (B, N) batch of signals, got shape {signals.shape}"
        )
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"upsampling factor must be >= 1, got {factor}")
    if factor == 1:
        return signals.copy()

    batch, n = signals.shape
    if n == 0:
        raise ValueError("cannot upsample zero-length signals")
    was_real = np.isrealobj(signals)
    spectrum = np.fft.fft(signals, axis=1)
    padded = np.zeros((batch, n * factor), dtype=complex)
    # Number of non-negative-frequency bins (DC included).  For odd n the
    # top positive-frequency bin is (n - 1) / 2, so the positive block
    # holds (n + 1) // 2 bins; using n // 2 would misfile that bin into
    # the negative-frequency block and corrupt the interpolant.
    half = (n + 1) // 2
    padded[:, :half] = spectrum[:, :half]
    if n > half:
        padded[:, -(n - half):] = spectrum[:, half:]
    # Split the Nyquist bin symmetrically for even-length inputs so a real
    # input stays real after interpolation (odd lengths have no Nyquist
    # bin, so no split is needed).
    if n % 2 == 0:
        padded[:, half] = spectrum[:, half] / 2.0
        padded[:, -half] = spectrum[:, half] / 2.0
    upsampled = np.fft.ifft(padded, axis=1) * factor
    return upsampled.real if was_real else upsampled


def delay_kernel(signal: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The spectrum and phase-ramp base :func:`delayed_rows` shifts with.

    Both depend on ``signal`` alone, so a caller that shifts one signal
    by many delays (a channel's taps, one template's subtractions over
    a search) builds them once.
    """
    return np.fft.fft(signal), -2j * np.pi * np.fft.fftfreq(len(signal))


def delayed_rows(
    kernel: Tuple[np.ndarray, np.ndarray], delays_samples: np.ndarray
) -> np.ndarray:
    """The kernel's signal delayed by each of ``delays_samples`` samples.

    Row ``k`` of the complex ``(len(delays_samples), n)`` result is
    ``ifft(spectrum * exp(ramp_base * delays_samples[k]))``: a linear
    phase ramp applied in the frequency domain, i.e. band-limited sinc
    interpolation with circular wrap-around, in one batched inverse FFT
    for every delay.  Each row runs the same pocketfft kernel as a 1-D
    transform, so a row equals the delay computed on its own, byte for
    byte.
    """
    spectrum, ramp_base = kernel
    delays = np.asarray(delays_samples, dtype=float)
    ramps = np.exp(ramp_base[np.newaxis, :] * delays[:, np.newaxis])
    return np.fft.ifft(spectrum * ramps, axis=1)


def fractional_delay(signal: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a signal by a (possibly fractional) number of samples.

    A batch of one of :func:`delayed_rows`: band-limited sinc
    interpolation with circular wrap-around.  Callers that must avoid
    wrap-around should zero-pad first.
    """
    signal = np.asarray(signal)
    if signal.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {signal.shape}")
    shifted = delayed_rows(delay_kernel(signal), [delay_samples])[0]
    return shifted.real if np.isrealobj(signal) else shifted


def placed_segments(
    pulse_samples: np.ndarray,
    peak_positions_samples: np.ndarray,
    peak_index: int | None = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The buffer start, length and samples of every placement
    :func:`place_pulses` makes.

    A position's integer part selects the start; a fractional part is
    realised by :func:`delayed_rows` on the pulse padded with one zero
    sample, so the shift cannot wrap energy from the tail back to the
    head.  Every fractional position of one call shares a single pulse
    spectrum and one batched inverse FFT.  An integer position places
    the unshifted, unpadded pulse.

    Returns
    -------
    (starts, lengths, segments):
        ``starts[k]`` is the buffer index of ``segments[k, 0]`` (may be
        negative).  ``segments`` is ``(k, len(pulse) + 1)``; row ``k``
        holds ``lengths[k]`` samples: ``len(pulse) + 1`` when the
        position is fractional, ``len(pulse)`` (then the last column is
        zero) when it is an integer.
    """
    if pulse_samples.ndim != 1:
        raise ValueError("pulse must be a 1-D array")
    if peak_index is None:
        peak_index = int(np.argmax(np.abs(pulse_samples)))
    positions = np.asarray(peak_positions_samples, dtype=float)
    integers = np.floor(positions)
    fractions = positions - integers
    length = pulse_samples.shape[0]
    segments = np.zeros(
        (positions.shape[0], length + 1),
        dtype=complex if np.iscomplexobj(pulse_samples) else float,
    )
    segments[:, :length] = pulse_samples
    fractional = fractions != 0.0
    if fractional.any():
        shifted = delayed_rows(delay_kernel(segments[0]), fractions[fractional])
        segments[fractional] = (
            shifted.real if np.isrealobj(pulse_samples) else shifted
        )
    starts = integers.astype(np.int64) - peak_index
    lengths = np.where(fractional, length + 1, length)
    return starts, lengths, segments


def place_pulses(
    buffer: np.ndarray,
    pulse_samples: np.ndarray,
    peak_positions_samples: np.ndarray,
    amplitudes: np.ndarray,
    peak_index: int | None = None,
) -> None:
    """Add ``amplitudes[k] * pulse`` into ``buffer`` with its peak at
    ``peak_positions_samples[k]``, for every ``k`` (in place).

    This is how the channel simulation writes a channel's multipath
    components into the CIR: :func:`placed_segments` shifts every
    fractional position in one batched FFT pair, then one scatter adds
    all of them.  Parts that fall outside the buffer are clipped.  The
    scatter runs in position order, so where placements overlap, each
    buffer sample accumulates them in the order a loop over the
    positions would.

    Parameters
    ----------
    buffer:
        1-D accumulator; modified in place.
    pulse_samples:
        Real or complex template samples.
    peak_positions_samples:
        Desired positions of the template peak, in buffer samples.  May
        lie (partially) outside the buffer.
    amplitudes:
        One (complex) amplitude per position.
    peak_index:
        Index of the template's peak sample.  Defaults to the argmax of
        the template magnitude.
    """
    if buffer.ndim != 1 or pulse_samples.ndim != 1:
        raise ValueError("buffer and pulse must be 1-D arrays")
    amplitudes = np.asarray(amplitudes)
    starts, lengths, segments = placed_segments(
        pulse_samples, peak_positions_samples, peak_index
    )
    if amplitudes.shape != starts.shape:
        raise ValueError(
            f"need one amplitude per position: {starts.shape[0]} positions, "
            f"amplitudes of shape {amplitudes.shape}"
        )
    columns = np.arange(segments.shape[1])
    targets = starts[:, np.newaxis] + columns
    inside = (
        (columns < lengths[:, np.newaxis])
        & (targets >= 0)
        & (targets < buffer.shape[0])
    )
    # Boolean indexing reads row by row, so the scatter visits the
    # placements in order.
    np.add.at(
        buffer,
        targets[inside],
        (amplitudes[:, np.newaxis] * segments)[inside],
    )


def place_pulse(
    buffer: np.ndarray,
    pulse_samples: np.ndarray,
    peak_position_samples: float,
    amplitude: complex = 1.0,
    peak_index: int | None = None,
) -> None:
    """Add ``amplitude * pulse`` into ``buffer`` with its peak at a
    fractional sample position (in place): a batch of one of
    :func:`place_pulses`.
    """
    place_pulses(
        buffer, pulse_samples, [peak_position_samples], [amplitude], peak_index
    )
