"""Finite-difference verification of every hand-written gradient path.

Checks run in float64 instances of the production code; the comparison is
the per-coordinate relative error with a small absolute floor to ignore
roundoff on near-zero entries.
"""

from dataclasses import replace

import numpy as np
import pytest

from smle import metrics, pipeline
from smle.data import MixtureSample
from smle.models import GatingModel, SpecialistModel
from smle.neural import DenseLayer, LstmLayer, Network, scaled_softmax, scaled_softmax_backward


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def fd_check(loss_fn, params_items, grads, rng, step=1e-5, samples_per_tensor=8,
             tol=1e-3):
    worst = 0.0
    for name, arr in params_items:
        g = grads[name]
        for _ in range(samples_per_tensor):
            ix = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[ix]
            arr[ix] = orig + step
            hi = loss_fn()
            arr[ix] = orig - step
            lo = loss_fn()
            arr[ix] = orig
            worst = max(worst, rel_err(g[ix], (hi - lo) / (2.0 * step)))
    assert worst < tol, f"worst relative error {worst}"
    return worst


def make_mixture(rng, n=3000):
    s = rng.standard_normal(n)
    s /= np.sqrt(np.mean(s * s))
    noise = rng.standard_normal(n)
    noise /= np.sqrt(np.mean(noise * noise))
    return MixtureSample(x=s + noise, s=s, n=noise, snr_db=0.0, cluster_label=0)


# ---------------------------------------------------------------------------
# layer-level checks
# ---------------------------------------------------------------------------


def test_dense_gradient_of_linear_map_is_the_input():
    layer = DenseLayer(3, 2, rng=np.random.default_rng(0), dtype=np.float64)
    x = np.random.default_rng(1).standard_normal((5, 3))
    y = layer.forward(x)
    _, grads = layer.backward(np.ones_like(y), x)
    # d(sum W x)/dW_ij = sum_b x_bj, independent of the row
    assert np.allclose(grads["W"], np.tile(x.sum(axis=0), (2, 1)), atol=1e-12)
    assert np.allclose(grads["b"], 5.0, atol=1e-12)


def test_lstm_layer_bptt_matches_finite_differences():
    rng = np.random.default_rng(2)
    layer = LstmLayer(4, 3, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 7, 4))
    weight = rng.standard_normal((2, 7, 3))

    def loss_fn():
        h, _ = layer.forward(x)
        return float(np.sum(h * weight))

    h, cache = layer.forward(x)
    _, grads = layer.backward(weight, cache)
    fd_check(loss_fn, [("Wx", layer.Wx), ("Wh", layer.Wh), ("b", layer.b)],
             grads, rng, step=1e-6)


def test_lstm_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    layer = LstmLayer(3, 4, rng=rng, dtype=np.float64)
    x = rng.standard_normal((1, 5, 3))
    weight = rng.standard_normal((1, 5, 4))
    h, cache = layer.forward(x)
    dx, _ = layer.backward(weight, cache)
    worst = 0.0
    for _ in range(12):
        ix = tuple(rng.integers(0, s) for s in x.shape)
        orig = x[ix]
        x[ix] = orig + 1e-6
        hi = float(np.sum(layer.forward(x)[0] * weight))
        x[ix] = orig - 1e-6
        lo = float(np.sum(layer.forward(x)[0] * weight))
        x[ix] = orig
        worst = max(worst, rel_err(dx[ix], (hi - lo) / 2e-6))
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# losses through the whole computation
# ---------------------------------------------------------------------------


def test_scaled_softmax_bce_gradient_at_symmetric_point():
    lam = 10.0
    logits = np.array([0.0, 0.0])
    probs = scaled_softmax(logits, lam)
    # dL/dp for BCE with target [1, 0]
    dprobs = np.array([-1.0 / probs[0], 1.0 / (1.0 - probs[1])])
    dlogits = scaled_softmax_backward(dprobs, probs, lam)
    assert np.allclose(dlogits, [-10.0, 10.0], atol=1e-9)
    # finite differences on the composed function
    step = 1e-6
    for j in range(2):
        bumped = logits.copy()
        bumped[j] += step
        hi = metrics.bce_loss(scaled_softmax(bumped, lam), [1.0, 0.0])
        bumped[j] -= 2 * step
        lo = metrics.bce_loss(scaled_softmax(bumped, lam), [1.0, 0.0])
        fd = (hi - lo) / (2 * step)
        assert rel_err(dlogits[j], fd) < 1e-5


def check_neg_sisdr_row(s, e, row, rng):
    """Row ``row`` of the batch SI-SDR gradient against central differences."""
    _, grads = pipeline.neg_sisdr_and_grad_batch(s, e)
    for _ in range(10):
        j = int(rng.integers(0, s.shape[1]))
        orig = e[row, j]
        e[row, j] = orig + 1e-6
        hi = pipeline.neg_sisdr_and_grad_batch(s, e)[0][row]
        e[row, j] = orig - 1e-6
        lo = pipeline.neg_sisdr_and_grad_batch(s, e)[0][row]
        e[row, j] = orig
        assert rel_err(grads[row, j], (hi - lo) / 2e-6) < 1e-4


def test_neg_sisdr_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    s = rng.standard_normal((1, 64))
    e = rng.standard_normal((1, 64)) + 0.5 * s
    check_neg_sisdr_row(s, e, 0, rng)


def test_neg_sisdr_batch_clamps_saturated_items():
    # a zero estimate (-100 dB) and an exact scaled copy (+100 dB) clamp with
    # an all-zero gradient row; the normal item in the same batch is unaffected
    rng = np.random.default_rng(8)
    s = rng.standard_normal((3, 64))
    e = np.stack([rng.standard_normal(64) + 0.5 * s[0], np.zeros(64), 0.5 * s[2]])
    losses, grads = pipeline.neg_sisdr_and_grad_batch(s, e)
    assert losses[1] == metrics.DB_CLAMP and losses[2] == -metrics.DB_CLAMP
    assert not np.any(grads[1:])
    check_neg_sisdr_row(s, e, 0, rng)


def test_specialist_loss_gradients_full_path():
    # loss -> sigmoid mask -> apply_mask -> istft -> -SI-SDR, small frames
    rng = np.random.default_rng(5)
    frame, hop = 64, 16
    bins = frame // 2 + 1
    net = Network(bins, [6, 6], bins, "sigmoid", rng=rng, dtype=np.float64)
    samples = [make_mixture(rng), make_mixture(rng)]
    _, (grads,) = pipeline.specialist_loss_and_grads(net, samples, frame, hop)

    def loss_fn():
        loss, _ = pipeline.specialist_loss_and_grads(net, samples, frame, hop)
        return loss

    fd_check(loss_fn, net.param_items(), grads, rng, samples_per_tensor=6)


def test_gating_loss_gradients():
    rng = np.random.default_rng(6)
    frame, hop = 64, 16
    bins = frame // 2 + 1
    net = Network(bins, [5], 3, "scaled_softmax", lam=10.0, rng=rng, dtype=np.float64)
    samples = [replace(make_mixture(rng), cluster_label=label) for label in (0, 2, 1)]
    _, (grads,) = pipeline.gating_loss_and_grads(net, samples, frame, hop)

    def loss_fn():
        loss, _ = pipeline.gating_loss_and_grads(net, samples, frame, hop)
        return loss

    fd_check(loss_fn, net.param_items(), grads, rng, step=1e-6, samples_per_tensor=6)


def test_ensemble_loss_gradients_reach_all_members():
    rng = np.random.default_rng(7)
    frame, hop = 64, 16
    bins = frame // 2 + 1
    specialists = [
        SpecialistModel(
            Network(bins, [5], bins, "sigmoid", rng=rng, dtype=np.float64),
            cluster_id=k, frame_size=frame, hop=hop,
        )
        for k in range(2)
    ]
    gate = GatingModel(
        Network(bins, [5], 2, "scaled_softmax", lam=10.0, rng=rng, dtype=np.float64),
        frame_size=frame, hop=hop,
    )
    samples = [make_mixture(rng), make_mixture(rng)]
    _, (*spec_grads, gate_grads) = pipeline.ensemble_loss_and_grads(specialists, gate, samples)

    def loss_fn():
        loss, _ = pipeline.ensemble_loss_and_grads(specialists, gate, samples)
        return loss

    # the gate gives one member ~1e-4 of the weight, so its gradients are
    # ~1e-8; a 1e-5 step leaves central-difference roundoff near the tolerance
    for k, model in enumerate(specialists):
        fd_check(loss_fn, model.net.param_items(), spec_grads[k], rng, step=1e-4,
                 samples_per_tensor=4)
    fd_check(loss_fn, gate.net.param_items(), gate_grads, rng, step=1e-4,
             samples_per_tensor=4)
