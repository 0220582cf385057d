import numpy as np
import pytest

from smle.neural import Adam, DenseLayer, LstmLayer, Network, scaled_softmax, sigmoid


# ---------------------------------------------------------------------------
# in-place elementwise helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_dense_forward_match_their_expressions_and_keep_inputs(dtype):
    rng = np.random.default_rng(3)
    x = (8.0 * rng.standard_normal((4, 5, 7))).astype(dtype)
    layer = DenseLayer(7, 3, rng, dtype=dtype)
    layer.b[...] = rng.standard_normal(3)
    before = x.copy()
    y = sigmoid(x)
    assert y.dtype == dtype and np.array_equal(y, 0.5 * (1.0 + np.tanh(0.5 * x)))
    out = layer.forward(x)
    assert out.dtype == dtype and np.array_equal(out, x @ layer.W.T + layer.b)
    assert np.array_equal(x, before)
    scalar = dtype(-3.0)
    assert sigmoid(0.0) == 0.5 and sigmoid(scalar) == 0.5 * (1.0 + np.tanh(0.5 * scalar))


# ---------------------------------------------------------------------------
# LSTM forward behaviour
# ---------------------------------------------------------------------------


def zeroed(layer):
    layer.Wx[...] = 0.0
    layer.Wh[...] = 0.0
    layer.b[...] = 0.0
    return layer


def test_zero_params_zero_input_gives_zero_hidden():
    layer = zeroed(LstmLayer(3, 4))
    h, cache = layer.forward(np.zeros((2, 5, 3), dtype=np.float32))
    assert np.all(h == 0) and np.all(cache.c == 0)


def test_single_timestep_matches_scalar_recurrence():
    # hand-rolled oracle: evaluate the gate equations one scalar at a time
    layer = LstmLayer(1, 2, rng=np.random.default_rng(42), dtype=np.float64)
    x = np.array([[[0.7]]])
    h, cache = layer.forward(x)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    for unit in range(2):
        z = layer.Wx[:, 0] * 0.7 + layer.b  # h_prev = 0
        i = sig(z[unit])
        f = sig(z[2 + unit])
        g = np.tanh(z[4 + unit])
        o = sig(z[6 + unit])
        c = i * g  # c_prev = 0
        expect = o * np.tanh(c)
        assert h[0, 0, unit] == pytest.approx(expect, abs=1e-12)
        assert cache.c[0, 0, unit] == pytest.approx(c, abs=1e-12)


def test_input_dim_mismatch_raises():
    layer = LstmLayer(3, 4)
    with pytest.raises(ValueError, match="input dim"):
        layer.forward(np.zeros((1, 5, 2), dtype=np.float32))


def test_lstm_param_count_closed_form():
    layer = LstmLayer(513, 128)
    assert layer.param_count() == 4 * 128 * (513 + 128 + 1)


# ---------------------------------------------------------------------------
# fused LSTM step against the per-gate reference recurrence
# ---------------------------------------------------------------------------


def ref_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def ref_lstm_forward(layer, x):
    """One call per gate and per state, (B, T, h) storage: the plain
    recurrence from zero states."""
    b_sz, t_len, d = x.shape
    h = layer.hidden_dim
    dtype = layer.Wx.dtype
    h0 = np.zeros((b_sz, h), dtype=dtype)
    c0 = np.zeros((b_sz, h), dtype=dtype)
    zx = x.reshape(b_sz * t_len, d) @ layer.Wx.T
    zx = zx.reshape(b_sz, t_len, 4 * h) + layer.b
    gates = {k: np.empty((b_sz, t_len, h), dtype=dtype) for k in "ifgoc"}
    tc = np.empty((b_sz, t_len, h), dtype=dtype)
    hs = np.empty((b_sz, t_len, h), dtype=dtype)
    h_prev, c_prev = h0, c0
    for t in range(t_len):
        z = zx[:, t] + h_prev @ layer.Wh.T
        i_t = ref_sigmoid(z[:, :h])
        f_t = ref_sigmoid(z[:, h : 2 * h])
        g_t = np.tanh(z[:, 2 * h : 3 * h])
        o_t = ref_sigmoid(z[:, 3 * h :])
        c_t = f_t * c_prev + i_t * g_t
        tc_t = np.tanh(c_t)
        h_t = o_t * tc_t
        for key, val in zip("ifgoc", (i_t, f_t, g_t, o_t, c_t)):
            gates[key][:, t] = val
        tc[:, t] = tc_t
        hs[:, t] = h_t
        h_prev, c_prev = h_t, c_t
    ref = dict(gates, x=x, h0=h0, c0=c0, tc=tc, h=hs)
    return hs, ref


def ref_lstm_backward(layer, dh_seq, ref):
    b_sz, t_len, h = dh_seq.shape
    dtype = layer.Wx.dtype
    dh_next = np.zeros((b_sz, h), dtype=dtype)
    dc = np.zeros((b_sz, h), dtype=dtype)
    dz_all = np.empty((b_sz, t_len, 4 * h), dtype=dtype)
    for t in range(t_len - 1, -1, -1):
        dh_t = dh_seq[:, t] + dh_next
        i_t, f_t, g_t, o_t = (ref[k][:, t] for k in "ifgo")
        tc_t = ref["tc"][:, t]
        c_prev = ref["c"][:, t - 1] if t > 0 else ref["c0"]
        do = dh_t * tc_t
        dc = dc + dh_t * o_t * (1.0 - tc_t * tc_t)
        di = dc * g_t
        dg = dc * i_t
        df = dc * c_prev
        dc = dc * f_t
        dz = dz_all[:, t]
        dz[:, :h] = di * i_t * (1.0 - i_t)
        dz[:, h : 2 * h] = df * f_t * (1.0 - f_t)
        dz[:, 2 * h : 3 * h] = dg * (1.0 - g_t * g_t)
        dz[:, 3 * h :] = do * o_t * (1.0 - o_t)
        dh_next = dz @ layer.Wh
    h_prev_seq = np.concatenate([ref["h0"][:, None, :], ref["h"][:, :-1]], axis=1)
    dz_flat = dz_all.reshape(b_sz * t_len, 4 * h)
    grads = {
        "Wx": dz_flat.T @ ref["x"].reshape(b_sz * t_len, layer.input_dim),
        "Wh": dz_flat.T @ h_prev_seq.reshape(b_sz * t_len, h),
        "b": dz_flat.sum(axis=0),
    }
    dx = (dz_flat @ layer.Wx).reshape(b_sz, t_len, layer.input_dim)
    return dx, grads


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# (batch, frames, input_dim, hidden)
LSTM_CASES = [(1, 1, 1, 1), (3, 7, 4, 5), (1, 59, 513, 16), (64, 59, 513, 16), (2, 9, 16, 16)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", LSTM_CASES, ids=lambda c: "x".join(map(str, c)))
def test_fused_lstm_matches_per_gate_reference_bitwise(case, dtype):
    b_sz, t_len, d, h = case
    rng = np.random.default_rng(sum(case))
    layer = LstmLayer(d, h, rng=rng, dtype=dtype)
    x = np.abs(rng.standard_normal((b_sz, t_len, d))).astype(dtype)
    dh = rng.standard_normal((b_sz, t_len, h)).astype(dtype)
    hs, cache = layer.forward(x)
    ref_hs, ref = ref_lstm_forward(layer, x)
    assert_same_bits(hs, ref_hs)
    assert_same_bits(np.ascontiguousarray(cache.c.transpose(1, 0, 2)), ref["c"])
    dx, grads = layer.backward(dh, cache)
    ref_dx, ref_grads = ref_lstm_backward(layer, dh, ref)
    assert_same_bits(dx, ref_dx)
    for key in ("Wx", "Wh", "b"):
        assert_same_bits(grads[key], ref_grads[key])


def test_backward_without_input_gradient_returns_same_grads():
    rng = np.random.default_rng(13)
    layer = LstmLayer(9, 4, rng=rng)
    x = rng.standard_normal((2, 6, 9)).astype(np.float32)
    dh = rng.standard_normal((2, 6, 4)).astype(np.float32)
    _, cache = layer.forward(x)
    dx, grads = layer.backward(dh, cache)
    no_dx, grads_no_dx = layer.backward(dh, cache, input_grad=False)
    assert dx.shape == x.shape and no_dx is None
    for key in grads:
        assert_same_bits(grads_no_dx[key], grads[key])


def ref_stack_grads(net, x, dh_top_fn):
    """Network gradients from the reference recurrence, every layer's dx included."""
    h_seq, refs = x, []
    for layer in net.lstm_layers:
        h_seq, ref = ref_lstm_forward(layer, h_seq)
        refs.append(ref)
    dh, grads = dh_top_fn(h_seq)
    for idx in range(len(net.lstm_layers) - 1, -1, -1):
        dh, layer_grads = ref_lstm_backward(net.lstm_layers[idx], dh, refs[idx])
        grads.update({f"lstm{idx}.{k}": v for k, v in layer_grads.items()})
    return grads


def test_network_backward_skips_layer0_input_gradient_and_keeps_grads(monkeypatch):
    rng = np.random.default_rng(14)
    mask_net = Network(33, [6, 5], 33, "sigmoid", rng=rng)
    gate_net = Network(33, [6, 5], 3, "scaled_softmax", lam=10.0, rng=rng)
    x = np.abs(rng.standard_normal((4, 8, 33))).astype(np.float32)
    dmasks = rng.standard_normal((4, 8, 33)).astype(np.float32)
    dlogits = rng.standard_normal((4, 3)).astype(np.float32)

    seen = []
    real_backward = LstmLayer.backward

    def spy(self, dh_seq, cache, input_grad=True):
        dx, grads = real_backward(self, dh_seq, cache, input_grad=input_grad)
        seen.append((self.input_dim, dx is None))
        return dx, grads

    monkeypatch.setattr(LstmLayer, "backward", spy)
    masks, ctx = mask_net.forward_masks(x)
    mask_grads = mask_net.backward_masks(dmasks, ctx)
    _, gctx = gate_net.forward_gate(x)
    gate_grads = gate_net.backward_gate(dlogits, gctx)
    # top layer passes dx down; layer 0 (input_dim 33) computes none
    assert seen == [(6, False), (33, True)] * 2

    def mask_top(h_seq):
        pre = mask_net.head.forward(h_seq)
        m = ref_sigmoid(pre)
        assert_same_bits(masks, m)
        dh, head = mask_net.head.backward(dmasks * m * (1.0 - m), h_seq)
        return dh, {"head.W": head["W"], "head.b": head["b"]}

    def gate_top(h_seq):
        dh_last, head = gate_net.head.backward(dlogits, h_seq[:, -1])
        dh = np.zeros_like(h_seq)
        dh[:, -1] = dh_last
        return dh, {"head.W": head["W"], "head.b": head["b"]}

    for net, grads, top in ((mask_net, mask_grads, mask_top), (gate_net, gate_grads, gate_top)):
        want = ref_stack_grads(net, x, top)
        assert sorted(grads) == sorted(want)
        for key in want:
            assert_same_bits(grads[key], want[key])


# ---------------------------------------------------------------------------
# scaled softmax
# ---------------------------------------------------------------------------


def test_symmetric_logits_split_evenly():
    assert np.allclose(scaled_softmax(np.array([0.0, 0.0]), 10.0), [0.5, 0.5])


def test_lambda_ten_saturates():
    p = scaled_softmax(np.array([1.0, 0.0]), 10.0)
    assert p[0] == pytest.approx(0.9999546021, abs=1e-9)
    assert p[1] == pytest.approx(4.5397868702e-05, abs=1e-12)


def test_lambda_one_is_plain_softmax():
    p = scaled_softmax(np.array([1.0, 0.0]), 1.0)
    assert p[0] == pytest.approx(0.7310585786, abs=1e-9)
    assert p[1] == pytest.approx(0.2689414214, abs=1e-9)


def test_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((64, 4))
    p = scaled_softmax(logits, 3.5)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
    shifted = scaled_softmax(logits + 123.4, 3.5)
    assert np.allclose(p, shifted, atol=1e-9)


def test_argmax_invariant_to_lambda():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((500, 5))
    base = np.argmax(logits, axis=1)
    for lam in (0.01, 1.0, 10.0, 250.0):
        assert np.array_equal(np.argmax(scaled_softmax(logits, lam), axis=1), base)


def test_two_way_gap_of_one_reaches_9999():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lo = rng.uniform(-5, 5)
        p = scaled_softmax(np.array([lo + rng.uniform(1.0, 4.0), lo]), 10.0)
        assert p.max() >= 0.9999


def test_nonpositive_lambda_rejected():
    with pytest.raises(ValueError, match="lam"):
        scaled_softmax(np.array([1.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_zero_gradient_leaves_params_unchanged():
    net = Network(4, [3], 2, "sigmoid", rng=np.random.default_rng(1))
    before = net.snapshot()
    adam = Adam(net.param_items())
    adam.step(net.param_items(), {k: np.zeros_like(v) for k, v in net.param_items()})
    assert adam.t == 1
    for name, arr in net.param_items():
        assert np.array_equal(arr, before[name])


def test_first_step_moves_by_lr_times_sign():
    # closed form: mhat/(sqrt(vhat)+eps) == g/(|g|+eps) on step one
    w = np.array([1.0, -2.0], dtype=np.float64)
    params = [("w", w)]
    adam = Adam(params, lr=0.001)
    adam.step(params, {"w": np.array([0.3, -0.7])})
    assert w[0] == pytest.approx(1.0 - 0.001, abs=1e-9)
    assert w[1] == pytest.approx(-2.0 + 0.001, abs=1e-9)


def test_adam_updates_are_bit_reproducible():
    def run():
        net = Network(4, [3], 2, "sigmoid", rng=np.random.default_rng(3))
        adam = Adam(net.param_items())
        grng = np.random.default_rng(4)
        for _ in range(5):
            grads = {k: grng.standard_normal(v.shape).astype(v.dtype)
                     for k, v in net.param_items()}
            adam.step(net.param_items(), grads)
        return net.snapshot()

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_adam_shape_mismatch_raises():
    net = Network(4, [3], 2, "sigmoid")
    adam = Adam(net.param_items())
    grads = {k: np.zeros_like(v) for k, v in net.param_items()}
    grads["head.W"] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        adam.step(net.param_items(), grads)


# ---------------------------------------------------------------------------
# parameter and MAC accounting
# ---------------------------------------------------------------------------


def test_gating_network_param_count():
    net = Network(513, [128, 128], 4, "scaled_softmax", lam=10.0)
    assert net.param_count() == 460804


def test_dense_only_network_param_count():
    net = Network(2, [], 3, "sigmoid")
    assert net.param_count() == 9


def test_specialist_512x2_param_count():
    net = Network(513, [512, 512], 513, "sigmoid")
    expect = 4 * 512 * (513 + 512 + 1) + 4 * 512 * (512 + 512 + 1) + (512 * 513 + 513)
    assert net.param_count() == expect == 4463617


def test_macs_count_weight_multiplies():
    net = Network(513, [16, 16], 513, "sigmoid")
    expect = 4 * 16 * (513 + 16) + 4 * 16 * (16 + 16) + 16 * 513
    assert net.macs_per_frame() == expect


def test_network_rejects_unknown_activation():
    with pytest.raises(ValueError, match="activation"):
        Network(4, [3], 2, "relu")


def test_scaled_softmax_head_requires_lambda():
    with pytest.raises(ValueError, match="lam"):
        Network(4, [3], 2, "scaled_softmax")


def test_from_params_holds_the_arrays_and_rejects_inconsistent_shapes():
    net = Network(6, [4, 3], 5, "sigmoid", rng=np.random.default_rng(8))
    params = net.snapshot()
    clone = Network.from_params(params, "sigmoid")
    assert (clone.input_dim, clone.hidden_dims, clone.output_dim) == (6, [4, 3], 5)
    for (name, a), (_, b) in zip(clone.param_items(), params.items(), strict=True):
        assert a is b, name
    with pytest.raises(ValueError, match="units below"):
        Network.from_params({**params, "lstm1.Wx": np.zeros((12, 5), np.float32)}, "sigmoid")
    with pytest.raises(ValueError, match="inconsistent LSTM"):
        Network.from_params({**params, "lstm0.b": np.zeros(15, np.float32)}, "sigmoid")
    with pytest.raises(ValueError, match="inconsistent dense"):
        Network.from_params({**params, "head.b": np.zeros(4, np.float32)}, "sigmoid")
