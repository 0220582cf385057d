"""Trainable layers: unidirectional LSTM and a dense projection.

Both layers keep their parameters as plain numpy arrays and implement exact
reverse-mode gradients by hand.  Forward passes return a cache object that
the matching backward pass consumes; parameters are only ever mutated by an
optimizer, so concurrent forward passes on one layer are safe.
"""

import numpy as np

from .functional import sigmoid


class LstmCache:
    __slots__ = ("x", "h0", "c0", "i", "f", "g", "o", "c", "tc", "h")

    def __init__(self, x, h0, c0, i, f, g, o, c, tc, h):
        self.x = x
        self.h0 = h0
        self.c0 = c0
        self.i = i
        self.f = f
        self.g = g
        self.o = o
        self.c = c
        self.tc = tc
        self.h = h


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

    def param_count(self):
        return self.Wx.size + self.Wh.size + self.b.size

    def forward(self, x, state=None):
        """Run the recurrence over a (B, T, input_dim) batch of sequences.

        Returns the hidden sequence (B, T, h), the final (h, c) state pair,
        and the cache for :meth:`backward`.
        """
        b_sz, t_len, d = x.shape
        if d != self.input_dim:
            raise ValueError(f"input dim {d} != layer input dim {self.input_dim}")
        h = self.hidden_dim
        dtype = self.Wx.dtype
        if state is None:
            h0 = np.zeros((b_sz, h), dtype=dtype)
            c0 = np.zeros((b_sz, h), dtype=dtype)
        else:
            h0, c0 = state
        # input projection for every timestep at once
        zx = x.reshape(b_sz * t_len, d) @ self.Wx.T
        zx = zx.reshape(b_sz, t_len, 4 * h) + self.b
        gi = np.empty((b_sz, t_len, h), dtype=dtype)
        gf = np.empty_like(gi)
        gg = np.empty_like(gi)
        go = np.empty_like(gi)
        cs = np.empty_like(gi)
        tc = np.empty_like(gi)
        hs = np.empty_like(gi)
        h_prev, c_prev = h0, c0
        for t in range(t_len):
            z = zx[:, t] + h_prev @ self.Wh.T
            i_t = sigmoid(z[:, :h])
            f_t = sigmoid(z[:, h : 2 * h])
            g_t = np.tanh(z[:, 2 * h : 3 * h])
            o_t = sigmoid(z[:, 3 * h :])
            c_t = f_t * c_prev + i_t * g_t
            tc_t = np.tanh(c_t)
            h_t = o_t * tc_t
            gi[:, t] = i_t
            gf[:, t] = f_t
            gg[:, t] = g_t
            go[:, t] = o_t
            cs[:, t] = c_t
            tc[:, t] = tc_t
            hs[:, t] = h_t
            h_prev, c_prev = h_t, c_t
        cache = LstmCache(x, h0, c0, gi, gf, gg, go, cs, tc, hs)
        return hs, (hs[:, -1].copy(), cs[:, -1].copy()), cache

    def backward(self, dh_seq, cache):
        """Backpropagate through time.

        ``dh_seq`` is the gradient w.r.t. the full hidden sequence.
        Returns (dx, grads dict).
        """
        b_sz, t_len, h = dh_seq.shape
        d = self.input_dim
        dtype = self.Wx.dtype
        dh_next = np.zeros((b_sz, h), dtype=dtype)
        dc = np.zeros((b_sz, h), dtype=dtype)
        dz_all = np.empty((b_sz, t_len, 4 * h), dtype=dtype)
        for t in range(t_len - 1, -1, -1):
            dh_t = dh_seq[:, t] + dh_next
            i_t = cache.i[:, t]
            f_t = cache.f[:, t]
            g_t = cache.g[:, t]
            o_t = cache.o[:, t]
            tc_t = cache.tc[:, t]
            c_prev = cache.c[:, t - 1] if t > 0 else cache.c0
            do = dh_t * tc_t
            dc = dc + dh_t * o_t * (1.0 - tc_t * tc_t)
            di = dc * g_t
            dg = dc * i_t
            df = dc * c_prev
            dc = dc * f_t  # becomes dc for t-1
            dz = dz_all[:, t]
            dz[:, :h] = di * i_t * (1.0 - i_t)
            dz[:, h : 2 * h] = df * f_t * (1.0 - f_t)
            dz[:, 2 * h : 3 * h] = dg * (1.0 - g_t * g_t)
            dz[:, 3 * h :] = do * o_t * (1.0 - o_t)
            dh_next = dz @ self.Wh
        h_prev_seq = np.concatenate([cache.h0[:, None, :], cache.h[:, :-1]], axis=1)
        dz_flat = dz_all.reshape(b_sz * t_len, 4 * h)
        grads = {
            "Wx": dz_flat.T @ cache.x.reshape(b_sz * t_len, d),
            "Wh": dz_flat.T @ h_prev_seq.reshape(b_sz * t_len, h),
            "b": dz_flat.sum(axis=0),
        }
        dx = (dz_flat @ self.Wx).reshape(b_sz, t_len, d)
        return dx, grads


class DenseLayer:
    """Affine projection applied along the last axis."""

    def __init__(self, input_dim, output_dim, rng, dtype=np.float32):
        self.input_dim = input_dim
        self.output_dim = output_dim
        bound = 1.0 / np.sqrt(input_dim)
        self.W = rng.uniform(-bound, bound, (output_dim, input_dim)).astype(dtype)
        self.b = np.zeros(output_dim, dtype=dtype)

    def forward(self, x):
        return x @ self.W.T + self.b

    def backward(self, dy, x):
        dy_flat = dy.reshape(-1, self.output_dim)
        x_flat = x.reshape(-1, self.input_dim)
        grads = {"W": dy_flat.T @ x_flat, "b": dy_flat.sum(axis=0)}
        dx = dy @ self.W
        return dx, grads
