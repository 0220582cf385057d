"""Objective metrics and supervised targets for the denoising task.

All functions are pure and operate on plain numpy arrays.  Decibel results
are clamped to +/-100 dB so perfect or zero-energy estimates stay finite in
averages.
"""

import numpy as np

DB_CLAMP = 100.0
IRM_EPS = 1e-8
BCE_CLAMP = 1e-7


def _sdr_terms(reference, estimate, scale_invariant=True):
    """Per-row SI-SDR (SDR with ``alpha = 1``) of (B, L) signals, and the
    terms the loss gradient reuses: ``(db, alpha, s, ref_energy, residual,
    den, in_range)``.  ``s`` is the reference cast to float64, ``alpha`` is
    ``<e, s> / <s, s>``, the residual ``alpha * s - e`` has energy ``den``,
    ``db`` is clamped as :func:`si_sdr` states, and ``in_range`` marks the
    rows strictly inside the clamp."""
    s = np.asarray(reference, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    if s.ndim != 2 or s.shape != e.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {e.shape}")
    if s.shape[1] == 0:
        raise ValueError("empty signals")
    ref_energy = np.einsum("bl,bl->b", s, s)
    if np.any(ref_energy == 0.0):
        raise ValueError("undefined reference: zero-energy reference signal")
    alpha = np.einsum("bl,bl->b", e, s) / ref_energy if scale_invariant else np.ones(len(s))
    residual = np.multiply(alpha[:, None], s)
    residual -= e
    num = alpha * alpha * ref_energy
    den = np.einsum("bl,bl->b", residual, residual)
    ok = (num > 0.0) & (den > 0.0)
    raw = np.where(ok, 10.0 * np.log10(np.where(ok, num, 1.0) / np.where(ok, den, 1.0)), 0.0)
    raw = np.where(num == 0.0, -DB_CLAMP, raw)
    raw = np.where((num > 0.0) & (den == 0.0), DB_CLAMP, raw)
    db = np.clip(raw, -DB_CLAMP, DB_CLAMP)
    return db, alpha, s, ref_energy, residual, den, ok & (np.abs(raw) < DB_CLAMP)


def si_sdr(reference, estimate, scale_invariant=True):
    """Signal-to-distortion ratio in dB of an estimate against a reference
    that is not identically zero: signals (L,) give a float, equal-shape
    batches (B, L) one ratio per row.

    With ``scale_invariant`` the reference is rescaled by
    ``alpha = <estimate, reference> / <reference, reference>`` before the
    residual is formed, which leaves the residual orthogonal to the
    reference; with ``scale_invariant=False`` this is the plain SDR
    (``alpha = 1``).  A zero scaled reference reads -100 dB, a zero
    residual +100 dB, and every other ratio is clamped to [-100, 100].
    """
    db = _sdr_terms(np.atleast_2d(reference), np.atleast_2d(estimate), scale_invariant)[0]
    return db if np.ndim(reference) == 2 else float(db[0])


def si_sdr_improvement(reference, mixture, estimate):
    """SI-SDR gain of an estimate over the unprocessed mixture, in dB (per
    row for (B, L) inputs)."""
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
    """Binary cross-entropy of probabilities (K,) or (B, K) against one-hot
    targets of the same shape: summed over classes, averaged over rows.

    Probabilities are clamped to [1e-7, 1 - 1e-7] before the logs.
    """
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    t = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {np.shape(probs)} vs {np.shape(target)}")
    if not (np.all((t == 0.0) | (t == 1.0)) and np.all(t.sum(axis=1) == 1.0)):
        raise ValueError("target must be one-hot")
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-np.sum(t * np.log(pc) + (1.0 - t) * np.log1p(-pc)) / len(p))
