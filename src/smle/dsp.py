"""Short-time Fourier analysis/synthesis and time-frequency mask application.

Conventions used throughout the toolkit:

* frames start at sample 0 with no centering or padding, so a signal of
  ``n`` samples yields ``T = (n - frame_size) // hop + 1`` frames and any
  trailing partial frame is dropped;
* analysis and synthesis share one periodic Hann window scaled to unit L2
  norm, so a unit-RMS white signal has unit mean power per bin; the scaling
  cancels exactly in the inverse.  The recurrent networks consume these
  magnitudes directly.  They are not near 1: mixtures of unit-RMS speech
  average 0.4 per bin at +10 dB and 1.3 at -5 dB, and harmonic peaks reach
  about 60, which is why :class:`smle.neural.LstmLayer` bounds its input
  weights by the input width;
* the inverse is a weighted overlap-add normalised per sample by the summed
  squared window.  Edge samples where that sum falls below 1% of its peak
  are attenuated rather than amplified, so masked spectrograms cannot blow
  up the first/last partially-overlapped samples.  The fully-overlapped
  interior reconstructs exactly.

:func:`stft` and :func:`istft` take one signal or an equal-length batch
(a leading batch axis; one signal is the batch-of-one case) and compute in
float64 whatever the input precision.  float32 input produces
complex64/float32 output (the toolkit's working precision); float64 stays
float64.  They wrap the time-major batched functions, which, including
:func:`istft_adjoint_batch` for training, follow the input dtype.  Every
inverse returns the full span of its frames.  All functions are pure and
safe to call concurrently.
"""

import functools

import numpy as np
import scipy.fft

DEFAULT_FRAME_SIZE = 1024
DEFAULT_HOP = 256

# Window-power floor, as a fraction of the interior overlap-add weight.
_OLA_FLOOR_FRAC = 1e-2


def hann_periodic(frame_size):
    """Periodic Hann window of the given length."""
    n = np.arange(frame_size)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / frame_size))


@functools.lru_cache(maxsize=8)
def analysis_window(frame_size):
    """Periodic Hann scaled to unit L2 norm (shared by analysis and synthesis)."""
    w = hann_periodic(frame_size)
    return w / np.sqrt(np.sum(w * w))


def num_frames(n_samples, frame_size=DEFAULT_FRAME_SIZE, hop=DEFAULT_HOP):
    """Frame count for a signal of ``n_samples``; negative-free by contract."""
    return (n_samples - frame_size) // hop + 1


def coverage_length(n_frames_, frame_size=DEFAULT_FRAME_SIZE, hop=DEFAULT_HOP):
    """Number of output samples spanned by ``n_frames_`` frames."""
    return (n_frames_ - 1) * hop + frame_size


def _check_frame_args(frame_size, hop):
    if frame_size < 2 or frame_size % 2 != 0:
        raise ValueError(f"frame_size must be a positive even count, got {frame_size}")
    if hop < 1 or hop > frame_size:
        raise ValueError(f"hop must be in [1, frame_size], got {hop}")


def _overlap_add(frames, hop):
    """Sum (B, T, N) frames placed ``hop`` apart into (B, span) signals.

    Hop-long blocks of the frames (the last may be shorter) are added in
    descending block order, so every sample sums its frames in increasing
    frame order, bit for bit as a loop over frames would.
    """
    b_size, t_frames, frame_size = frames.shape
    n_blocks = -(-frame_size // hop)
    acc = np.zeros((b_size, t_frames + n_blocks - 1, hop), dtype=frames.dtype)
    for j in range(n_blocks - 1, -1, -1):
        width = min(hop, frame_size - j * hop)
        acc[:, j : j + t_frames, :width] += frames[:, :, j * hop : j * hop + width]
    return acc.reshape(b_size, -1)[:, : coverage_length(t_frames, frame_size, hop)]


@functools.lru_cache(maxsize=32)
def _ola_denominator(frame_size, hop, n_frames_):
    """Per-sample sum of squared synthesis windows, floored near the edges."""
    win = analysis_window(frame_size)
    den = _overlap_add(np.broadcast_to(win * win, (1, n_frames_, frame_size)), hop)[0]
    return np.maximum(den, _OLA_FLOOR_FRAC * den.max())


def stft(w, frame_size=DEFAULT_FRAME_SIZE, hop=DEFAULT_HOP):
    """Short-time Fourier transform of a mono waveform or an equal-length batch.

    Args:
        w: 1-D real signal (L,), or a batch of them (B, L).
        frame_size: analysis frame length in samples (even).
        hop: frame advance in samples, at most ``frame_size``.

    Returns:
        Complex spectrogram (frame_size // 2 + 1, T), nonnegative frequencies
        only, or (B, frame_size // 2 + 1, T): a view of time-major storage.
    """
    w = np.asarray(w)
    specs = stft_batch(np.atleast_2d(w).astype(np.float64, copy=False), frame_size, hop)
    if w.dtype == np.float32:
        specs = specs.astype(np.complex64)
    specs = np.swapaxes(specs, 1, 2)
    return specs if w.ndim == 2 else specs[0]


def istft(spec, frame_size=DEFAULT_FRAME_SIZE, hop=DEFAULT_HOP):
    """Inverse STFT via weighted overlap-add with the matched window.

    Args:
        spec: complex spectrogram (frame_size // 2 + 1, T) from :func:`stft`,
            or a batch of them (B, frame_size // 2 + 1, T).
        frame_size: frame length the spectrogram was produced with.
        hop: hop the spectrogram was produced with.

    Returns:
        Real waveform of ``coverage_length(T, frame_size, hop)`` samples
        spanning all T frames, or (B, that) for a batch.
    """
    spec = np.asarray(spec)
    specs_tm = np.swapaxes(spec if spec.ndim == 3 else spec[None], 1, 2)
    y = istft_batch(specs_tm.astype(np.complex128), frame_size, hop)
    if spec.dtype == np.complex64:
        y = y.astype(np.float32)
    return y if spec.ndim == 3 else y[0]


# ----------------------------------------------------------------------
# batched transforms for equal-length waveforms (training hot path), which
# the single-signal functions above wrap.  Time-major layout (B, T, F)
# avoids per-item transposes.  These follow the input dtype end to end, so
# the float32 training path stays in single precision while float64 callers
# (e.g. gradient checks) get full precision.
# ----------------------------------------------------------------------


def _frame_view(x, frame_size, hop):
    """Strided (B, T, frame_size) view of (B, L) signals, no copy."""
    return np.lib.stride_tricks.sliding_window_view(x, frame_size, axis=1)[:, ::hop]


def stft_batch(waves, frame_size=DEFAULT_FRAME_SIZE, hop=DEFAULT_HOP):
    """STFT of a (B, L) batch; returns time-major spectrograms (B, T, F)."""
    waves = np.asarray(waves)
    _check_frame_args(frame_size, hop)
    if waves.ndim != 2:
        raise ValueError(f"expected a (B, L) batch, got shape {waves.shape}")
    if waves.shape[1] < frame_size:
        raise ValueError(
            f"input too short: {waves.shape[1]} samples < one frame of {frame_size}"
        )
    win = analysis_window(frame_size).astype(waves.dtype, copy=False)
    frames = _frame_view(waves, frame_size, hop) * win
    return scipy.fft.rfft(frames, axis=2)


def istft_batch(specs_tm, frame_size=DEFAULT_FRAME_SIZE, hop=DEFAULT_HOP):
    """Inverse of :func:`stft_batch` for time-major (B, T, F) spectrograms."""
    specs_tm = np.asarray(specs_tm)
    _check_frame_args(frame_size, hop)
    if specs_tm.ndim != 3 or specs_tm.shape[2] != frame_size // 2 + 1:
        raise ValueError(f"expected (B, T, {frame_size // 2 + 1}), got {specs_tm.shape}")
    t_frames = specs_tm.shape[1]
    frames = scipy.fft.irfft(specs_tm, n=frame_size, axis=2)
    win = analysis_window(frame_size).astype(frames.dtype, copy=False)
    frames *= win
    den = _ola_denominator(frame_size, hop, t_frames).astype(frames.dtype, copy=False)
    return _overlap_add(frames, hop) / den


def istft_adjoint_batch(grad_out, n_frames_, frame_size=DEFAULT_FRAME_SIZE, hop=DEFAULT_HOP):
    """Adjoint of :func:`istft_batch` as a real-linear map.

    Propagates (B, L) gradients w.r.t. the full-span time-domain output back
    to (B, T, F) gradients w.r.t. the complex spectrograms, in the convention
    ``G = dL/dRe(S) + 1j * dL/dIm(S)``.  The imaginary parts of the DC and
    Nyquist bins are fixed at zero, matching what ``irfft`` consumes.

    ``irfft`` weighs the inner bins by 2/N and DC and Nyquist by 1/N.  The
    2/N factor is folded into the synthesis window, before the ``rfft``,
    and the real parts of the DC and Nyquist bins are then halved.  When N
    is a power of two, 2/N is too: scaling by it is exact (barring
    subnormals) and commutes with every rounding of the transform, so the
    result equals scaling the transform afterwards bit for bit.  At other
    frame sizes the two differ by a few roundings of the frame's scale.
    """
    g = np.asarray(grad_out)
    _check_frame_args(frame_size, hop)
    span = coverage_length(n_frames_, frame_size, hop)
    if g.ndim != 2 or g.shape[1] != span:
        raise ValueError(f"gradient shape {g.shape} is not (B, {span}) for {n_frames_} frames")
    full = g / _ola_denominator(frame_size, hop, n_frames_).astype(g.dtype, copy=False)
    win = (analysis_window(frame_size) * (2.0 / frame_size)).astype(g.dtype, copy=False)
    grad = scipy.fft.rfft(_frame_view(full, frame_size, hop) * win, axis=2)
    grad[:, :, 0] = 0.5 * grad[:, :, 0].real
    grad[:, :, -1] = 0.5 * grad[:, :, -1].real
    return grad


def apply_mask(mask, spec):
    """Apply a real [0, 1] ratio mask to a complex spectrogram elementwise.

    The mixture phase passes through unchanged; only bin magnitudes scale.
    """
    mask = np.asarray(mask)
    spec = np.asarray(spec)
    if mask.shape != spec.shape:
        raise ValueError(f"mask shape {mask.shape} != spectrogram shape {spec.shape}")
    return mask * spec
