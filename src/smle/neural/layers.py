"""Trainable layers: unidirectional LSTM and a dense projection.

Both layers keep their parameters as plain numpy arrays and implement exact
reverse-mode gradients by hand.  Forward passes return a cache object that
the matching backward pass consumes; parameters are only ever mutated by an
optimizer, so concurrent forward passes on one layer are safe.

The LSTM time step is fused: one ``tanh`` over all four gates, in-place
writes into time-major buffers, and BPTT factors precomputed for all steps.
At small hidden widths a step costs numpy calls rather than arithmetic.
"""

from collections import namedtuple

import numpy as np


# Forward-pass state for LstmLayer.backward: ``act`` stacks the four gate
# activations time-major as (T, B, 4h); ``c`` and ``tc`` (its tanh) are
# (T, B, h); ``h`` is the (B, T, h) hidden sequence the forward returned.
LstmCache = namedtuple("LstmCache", "x act c tc h")


class LstmLayer:
    """Single unidirectional LSTM layer (no peepholes, forget bias +1).

    Gate order in the stacked weight matrices is input, forget, cell
    candidate, output.  Parameter count is 4*h*(d + h + 1).

    Initial weights are uniform: ``Wx`` within 1/sqrt(input_dim), ``Wh`` and
    ``b`` within 1/sqrt(hidden_dim).  Bounding ``Wx`` by the input width
    keeps a gate pre-activation summed over 513 raw spectrogram bins near
    the scale of one input.  A 1/sqrt(hidden_dim) bound would make it
    sqrt(513 / h) times larger and, on -5 dB mixtures, push over half of the
    first-layer gate pre-activations beyond |z| > 4 before training; this
    bound leaves under 1% there.

    A forward step scales the (B, 4h) pre-activation by 0.5 on the i, f, o
    columns and 1 on g, takes one ``tanh``, and maps the sigmoid columns
    through ``(t + 1) * 0.5``: ``sigmoid(z) = 0.5 * (1 + tanh(0.5 * z))``
    with the same operands in the same order (IEEE products and sums
    commute; ``tanh`` is elementwise), so it is bit-identical to one call
    per gate.  BPTT keeps the per-gate product order, e.g.
    ``(di * i) * (1 - i)``; an exact factor 1 on the g column lets the four
    gates share one product, again without changing a bit.
    """

    def __init__(self, input_dim, hidden_dim, rng=None, dtype=np.float32):
        if rng is None:
            rng = np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        in_bound = 1.0 / np.sqrt(input_dim)
        bound = 1.0 / np.sqrt(hidden_dim)
        self.Wx = rng.uniform(-in_bound, in_bound, (4 * hidden_dim, input_dim)).astype(dtype)
        self.Wh = rng.uniform(-bound, bound, (4 * hidden_dim, hidden_dim)).astype(dtype)
        self.b = rng.uniform(-bound, bound, 4 * hidden_dim).astype(dtype)
        self.b[hidden_dim : 2 * hidden_dim] += 1.0  # forget gate open at init

    @classmethod
    def from_params(cls, Wx, Wh, b):
        """A layer that holds the given arrays, with no random draw."""
        hidden_dim = Wh.shape[-1]
        if (Wx.ndim != 2 or Wx.shape[0] != 4 * hidden_dim or Wh.shape != (4 * hidden_dim, hidden_dim)
                or b.shape != (4 * hidden_dim,)):
            raise ValueError(f"inconsistent LSTM shapes Wx {Wx.shape}, Wh {Wh.shape}, b {b.shape}")
        layer = cls.__new__(cls)
        layer.input_dim, layer.hidden_dim = Wx.shape[1], hidden_dim
        layer.Wx, layer.Wh, layer.b = Wx, Wh, b
        return layer

    def param_count(self):
        return self.Wx.size + self.Wh.size + self.b.size

    def forward(self, x):
        """Run the recurrence from zero states over a (B, T, input_dim) batch.

        Returns the hidden sequence (B, T, h) and the cache for
        :meth:`backward`.
        """
        b_sz, t_len, d = x.shape
        if d != self.input_dim:
            raise ValueError(f"input dim {d} != layer input dim {self.input_dim}")
        h = self.hidden_dim
        # input projection for every timestep at once
        zx = x.reshape(b_sz * t_len, d) @ self.Wx.T
        zx = zx.reshape(b_sz, t_len, 4 * h) + self.b
        dtype = zx.dtype
        # 0.5 on the sigmoid gates i, f, o and 1 on g; adding -0.0 leaves
        # every value, the sign of a zero included, as it is
        is_g = np.arange(4 * h) // h == 2
        scale = np.where(is_g, 1.0, 0.5).astype(dtype)
        shift = np.where(is_g, -0.0, 1.0).astype(dtype)
        wh_t = self.Wh.T
        act = np.empty((t_len, b_sz, 4 * h), dtype=dtype)
        cs = np.empty((t_len, b_sz, h), dtype=dtype)
        tc = np.empty_like(cs)
        hs = np.empty_like(cs)
        ig = np.empty((b_sz, h), dtype=dtype)
        h_prev, c_prev = np.zeros((2, b_sz, h), dtype=dtype)
        for zx_t, z, c_t, tc_t, h_t in zip(zx.transpose(1, 0, 2), act, cs, tc, hs):
            np.matmul(h_prev, wh_t, out=z)
            np.add(zx_t, z, out=z)
            z *= scale
            np.tanh(z, out=z)
            z += shift
            z *= scale
            np.multiply(z[:, h : 2 * h], c_prev, out=c_t)
            np.multiply(z[:, :h], z[:, 2 * h : 3 * h], out=ig)
            c_t += ig
            np.tanh(c_t, out=tc_t)
            np.multiply(z[:, 3 * h :], tc_t, out=h_t)
            h_prev, c_prev = h_t, c_t
        h_seq = np.ascontiguousarray(hs.transpose(1, 0, 2))
        return h_seq, LstmCache(x, act, cs, tc, h_seq)

    def backward(self, dh_seq, cache, input_grad=True):
        """Backpropagate through time.

        ``dh_seq`` is the gradient w.r.t. the full hidden sequence.
        Returns (dx, grads dict); ``dx`` is None when ``input_grad`` is
        false, which saves a (B*T, 4h) @ (4h, input_dim) product.
        """
        b_sz, t_len, h = dh_seq.shape
        d = self.input_dim
        act = cache.act.reshape(t_len, b_sz, 4, h)
        dtype = act.dtype
        gate_i, gate_f, gate_g, gate_o = (act[:, :, k] for k in range(4))
        # per-step factors for all T at once, in one block (separate (T, B, 4h)
        # temporaries fragmented the heap: +8% peak RSS in a training run):
        # tanh'(c) = 1 - tc*tc, the multipliers [g, c_prev, i] of dc giving
        # [di, df, dg], and each gate's [i, f, 1, o] * [1-i, 1-f, 1-g*g, 1-o]
        work = np.empty((t_len, b_sz, 12, h), dtype=dtype)
        dtanh_c, dc_mult = work[:, :, 0], work[:, :, 1:4]
        left, right = work[:, :, 4:8], work[:, :, 8:]
        np.subtract(1.0, cache.tc * cache.tc, out=dtanh_c)
        dc_mult[:, :, 0], dc_mult[:, :, 2] = gate_g, gate_i
        dc_mult[0, :, 1], dc_mult[1:, :, 1] = 0.0, cache.c[:-1]
        left[...] = act
        left[:, :, 2] = 1.0
        np.subtract(1.0, act, out=right)
        np.subtract(1.0, gate_g * gate_g, out=right[:, :, 2])
        dh_next, dc = np.zeros((2, b_sz, h), dtype=dtype)
        dh_t, tmp = np.empty((2, b_sz, h), dtype=dtype)
        dgate = np.empty((b_sz, 4, h), dtype=dtype)
        dc_part, do = dgate[:, :3], dgate[:, 3]
        dz_all = np.empty((b_sz, t_len, 4, h), dtype=dtype)
        steps = zip(dh_seq.transpose(1, 0, 2), gate_o, gate_f, cache.tc, dtanh_c,
                    dc_mult, left, right, dz_all.transpose(1, 0, 2, 3))
        for dh_out, o_t, f_t, tc_t, dtanh_t, mult_t, left_t, right_t, dz in reversed(list(steps)):
            np.add(dh_out, dh_next, out=dh_t)
            np.multiply(dh_t, o_t, out=tmp)
            tmp *= dtanh_t
            dc += tmp
            np.multiply(dc[:, None], mult_t, out=dc_part)
            np.multiply(dh_t, tc_t, out=do)
            dc *= f_t  # becomes dc for t-1
            np.multiply(dgate, left_t, out=dz)
            dz *= right_t
            np.matmul(dz.reshape(b_sz, 4 * h), self.Wh, out=dh_next)
        h_prev_seq = np.concatenate([np.zeros((b_sz, 1, h), dtype=dtype), cache.h[:, :-1]], axis=1)
        dz_flat = dz_all.reshape(b_sz * t_len, 4 * h)
        grads = {
            "Wx": dz_flat.T @ cache.x.reshape(b_sz * t_len, d),
            "Wh": dz_flat.T @ h_prev_seq.reshape(b_sz * t_len, h),
            "b": dz_flat.sum(axis=0),
        }
        dx = (dz_flat @ self.Wx).reshape(b_sz, t_len, d) if input_grad else None
        return dx, grads


class DenseLayer:
    """Affine projection applied along the last axis."""

    def __init__(self, input_dim, output_dim, rng, dtype=np.float32):
        self.input_dim = input_dim
        self.output_dim = output_dim
        bound = 1.0 / np.sqrt(input_dim)
        self.W = rng.uniform(-bound, bound, (output_dim, input_dim)).astype(dtype)
        self.b = np.zeros(output_dim, dtype=dtype)

    @classmethod
    def from_params(cls, W, b):
        """A layer that holds the given arrays, with no random draw."""
        if W.ndim != 2 or b.shape != W.shape[:1]:
            raise ValueError(f"inconsistent dense shapes W {W.shape}, b {b.shape}")
        layer = cls.__new__(cls)
        layer.output_dim, layer.input_dim = W.shape
        layer.W, layer.b = W, b
        return layer

    def forward(self, x):
        y = x @ self.W.T
        y += self.b
        return y

    def backward(self, dy, x):
        dy_flat = dy.reshape(-1, self.output_dim)
        x_flat = x.reshape(-1, self.input_dim)
        grads = {"W": dy_flat.T @ x_flat, "b": dy_flat.sum(axis=0)}
        dx = dy @ self.W
        return dx, grads
