"""Elementwise nonlinearities and the scaled softmax used by the gate."""

import numpy as np


def sigmoid(x):
    """Logistic function as ``0.5 * (1 + tanh(0.5 * x))``, which saturates
    cleanly instead of overflowing ``exp``.

    Computed in place on one new array, with the same operations in the
    same order as that expression; ``x`` is left unchanged.
    """
    y = np.multiply(x, 0.5)
    np.tanh(y, out=y)
    y += 1.0
    y *= 0.5
    return y


def scaled_softmax(logits, lam):
    """Softmax of ``lam * logits`` along the last axis, max-shifted for stability.

    ``lam`` sharpens the distribution: large values drive the output toward
    a one-hot vector while keeping the argmax unchanged.
    """
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    z = lam * np.asarray(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def scaled_softmax_backward(dprobs, probs, lam):
    """Gradient w.r.t. the logits given the gradient w.r.t. the probabilities."""
    inner = np.sum(dprobs * probs, axis=-1, keepdims=True)
    return lam * probs * (dprobs - inner)
