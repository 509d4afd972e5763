"""FFT-based resampling and sub-sample signal placement.

Step 1 of the paper's detection algorithm upsamples the CIR "using fast
Fourier transform in order to obtain a smoother signal".  This module
implements that operation, plus the fractional (sub-sample) delays needed
to place responder pulses at physically exact path delays when the
simulated channel is synthesised.
"""

from __future__ import annotations

import numpy as np


def fft_upsample(signal: np.ndarray, factor: int) -> np.ndarray:
    """Upsample a signal by an integer factor via FFT zero-padding.

    This is the textbook band-limited interpolation used by the paper's
    step 1: transform, insert zeros at the high frequencies, inverse
    transform, rescale.  Works for real and complex signals; a real input
    yields a real output (up to float rounding, which we strip).

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
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"upsampling factor must be >= 1, got {factor}")
    if factor == 1:
        return signal.copy()

    n = len(signal)
    was_real = np.isrealobj(signal)
    spectrum = np.fft.fft(signal)
    padded = np.zeros(n * factor, dtype=complex)
    # Number of non-negative-frequency bins (DC included).  For odd n the
    # top positive-frequency bin is (n - 1) / 2, so the positive block
    # holds (n + 1) // 2 bins; using n // 2 would misfile that bin into
    # the negative-frequency block and corrupt the interpolant.
    half = (n + 1) // 2
    padded[:half] = spectrum[:half]
    if n > half:
        padded[-(n - half):] = spectrum[half:]
    # Split the Nyquist bin symmetrically for even-length inputs so a real
    # input stays real after interpolation (odd lengths have no Nyquist
    # bin, so no split is needed).
    if n % 2 == 0:
        padded[half] = spectrum[half] / 2.0
        padded[-half] = spectrum[half] / 2.0
    upsampled = np.fft.ifft(padded) * factor
    return upsampled.real if was_real else upsampled


def fft_upsample_batch(signals: np.ndarray, factor: int) -> np.ndarray:
    """Upsample a batch of equal-length signals in one 2-D FFT pass.

    ``signals`` is a ``(B, N)`` array; the result is ``(B, N * factor)``
    and row ``b`` equals ``fft_upsample(signals[b], factor)``.  The
    implementation applies *the same* spectral zero-padding as the 1-D
    function, just along ``axis=1`` of a single batched transform —
    pocketfft evaluates each row with the identical kernel, so the rows
    are byte-identical to individual :func:`fft_upsample` calls (and in
    any case agree to roundoff; ``tests/test_properties_detection.py``
    asserts ``rtol <= 1e-9``).

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
    # Identical bin bookkeeping to fft_upsample (see comments there).
    half = (n + 1) // 2
    padded[:, :half] = spectrum[:, :half]
    if n > half:
        padded[:, -(n - half):] = spectrum[:, half:]
    if n % 2 == 0:
        padded[:, half] = spectrum[:, half] / 2.0
        padded[:, -half] = spectrum[:, half] / 2.0
    upsampled = np.fft.ifft(padded, axis=1) * factor
    return upsampled.real if was_real else upsampled


def fractional_delay(signal: np.ndarray, delay_samples: float) -> np.ndarray:
    """Delay a signal by a (possibly fractional) number of samples.

    Implemented as a linear phase ramp in the frequency domain, i.e.
    band-limited sinc interpolation with circular wrap-around.  Callers
    that must avoid wrap-around should zero-pad first.
    """
    signal = np.asarray(signal)
    if signal.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {signal.shape}")
    n = len(signal)
    was_real = np.isrealobj(signal)
    freqs = np.fft.fftfreq(n)
    shifted = np.fft.ifft(
        np.fft.fft(signal) * np.exp(-2j * np.pi * freqs * delay_samples)
    )
    return shifted.real if was_real else shifted


def placed_segment(
    pulse_samples: np.ndarray,
    peak_position_samples: float,
    peak_index: int | None = None,
) -> tuple:
    """The integer start index and (fractionally shifted) samples that
    :func:`place_pulse` would add into a buffer.

    Factoring the shift out of :func:`place_pulse` lets the detection
    engine compute *exactly* the subtrahend the reference loop would
    place — same ``fractional_delay`` call on the same padded template —
    and correlate it against the template bank in a short window instead
    of re-filtering the whole signal.

    Returns
    -------
    (start, samples):
        ``start`` is the buffer index of ``samples[0]`` (may be
        negative); ``samples`` is the pulse, fractionally delayed when
        ``peak_position_samples`` has a fractional part (one padding
        sample is appended so the shift cannot wrap energy around).
    """
    if pulse_samples.ndim != 1:
        raise ValueError("pulse must be a 1-D array")
    if peak_index is None:
        peak_index = int(np.argmax(np.abs(pulse_samples)))
    integer = int(np.floor(peak_position_samples))
    fraction = float(peak_position_samples - integer)
    if fraction != 0.0:
        # Pad by one sample so the fractional shift cannot wrap energy
        # from the tail back to the head.
        padded = np.concatenate(
            [pulse_samples, np.zeros(1, dtype=pulse_samples.dtype)]
        )
        shifted = fractional_delay(padded, fraction)
    else:
        shifted = pulse_samples
    return integer - peak_index, shifted


def place_pulse(
    buffer: np.ndarray,
    pulse_samples: np.ndarray,
    peak_position_samples: float,
    amplitude: complex = 1.0,
    peak_index: int | None = None,
) -> None:
    """Add ``amplitude * pulse`` into ``buffer`` with its peak at a
    fractional sample position (in place).

    This is how the channel simulation writes each multipath component /
    responder pulse into the CIR: the integer part selects the insertion
    window and the fractional part is realised with band-limited
    interpolation of the template.

    Parameters
    ----------
    buffer:
        Complex 1-D accumulator; modified in place.
    pulse_samples:
        Real or complex template samples.
    peak_position_samples:
        Desired position of the template peak, in buffer samples.  May lie
        (partially) outside the buffer; out-of-range parts are clipped.
    amplitude:
        Complex amplitude applied to the template.
    peak_index:
        Index of the template's peak sample.  Defaults to the argmax of
        the template magnitude.
    """
    if buffer.ndim != 1 or pulse_samples.ndim != 1:
        raise ValueError("buffer and pulse must be 1-D arrays")
    start, shifted = placed_segment(
        pulse_samples, peak_position_samples, peak_index
    )
    stop = start + len(shifted)
    src_start = max(0, -start)
    src_stop = len(shifted) - max(0, stop - len(buffer))
    if src_start >= src_stop:
        return  # pulse lies entirely outside the buffer
    dst_start = start + src_start
    dst_stop = start + src_stop
    buffer[dst_start:dst_stop] += amplitude * shifted[src_start:src_stop]
