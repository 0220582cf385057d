"""Objective metrics and supervised targets for the denoising task.

All functions are pure and operate on plain numpy arrays.  Decibel results
are clamped to +/-100 dB so perfect or zero-energy estimates stay finite in
averages.
"""

import numpy as np

DB_CLAMP = 100.0
IRM_EPS = 1e-8
BCE_CLAMP = 1e-7


def si_sdr(reference, estimate, scale_invariant=True):
    """Signal-to-distortion ratio in dB between a reference and an estimate.

    With ``scale_invariant`` the reference is rescaled by
    ``alpha = <estimate, reference> / <reference, reference>`` before the
    residual is formed, which leaves the residual orthogonal to the
    reference; with ``scale_invariant=False`` this is the plain SDR
    (``alpha = 1``).

    Args:
        reference: clean target signal, 1-D, not identically zero.
        estimate: estimated signal of the same length.
        scale_invariant: optimal-scaling flag described above.

    Returns:
        Ratio in dB, clamped to [-100, 100].
    """
    s = np.asarray(reference, dtype=np.float64).ravel()
    s_hat = np.asarray(estimate, dtype=np.float64).ravel()
    if s.shape != s_hat.shape:
        raise ValueError(f"length mismatch: {s.shape[0]} vs {s_hat.shape[0]}")
    if s.size == 0:
        raise ValueError("empty signals")
    ref_energy = float(np.dot(s, s))
    if ref_energy == 0.0:
        raise ValueError("undefined reference: zero-energy reference signal")
    alpha = float(np.dot(s_hat, s)) / ref_energy if scale_invariant else 1.0
    target = alpha * s
    num = float(np.dot(target, target))
    den = float(np.dot(target - s_hat, target - s_hat))
    if num == 0.0:
        return -DB_CLAMP
    if den == 0.0:
        return DB_CLAMP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CLAMP, DB_CLAMP))


def si_sdr_improvement(reference, mixture, estimate):
    """SI-SDR gain of an estimate over the unprocessed mixture, in dB."""
    return si_sdr(reference, estimate) - si_sdr(reference, mixture)


def ideal_ratio_mask(speech_mag, noise_mag):
    """Oracle ratio mask sqrt(|S|^2 / (|S|^2 + |N|^2)) from magnitude spectra.

    A small epsilon in the denominator sends silent bins (0/0) to zero, so
    every entry lies in [0, 1).
    """
    s_mag = np.asarray(speech_mag)
    n_mag = np.asarray(noise_mag)
    if s_mag.shape != n_mag.shape:
        raise ValueError(f"shape mismatch: {s_mag.shape} vs {n_mag.shape}")
    s2 = s_mag * s_mag
    n2 = n_mag * n_mag
    return np.sqrt(s2 / (s2 + n2 + IRM_EPS))


def bce_loss(probs, target):
    """Elementwise binary cross-entropy against a one-hot target, summed.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs.
    """
    p = np.asarray(probs, dtype=np.float64).ravel()
    t = np.asarray(target, dtype=np.float64).ravel()
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {t.shape[0]}")
    if not (np.all((t == 0.0) | (t == 1.0)) and t.sum() == 1.0):
        raise ValueError("target must be one-hot")
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-np.sum(t * np.log(pc) + (1.0 - t) * np.log1p(-pc)))
