"""Composition of an LSTM stack with a dense head.

Two read-out styles share one parameter set:

* per-frame masks: the dense head maps every hidden frame through a sigmoid
  (mask estimation);
* sequence summary: the dense head maps only the final hidden frame to K
  logits, turned into probabilities by the scaled softmax (gating).

A network owns its parameters; training mutates them under a single-writer
contract while read-only forward passes remain safe from any thread.
"""

import numpy as np

from .functional import scaled_softmax, sigmoid
from .layers import DenseLayer, LstmLayer

ACTIVATIONS = ("sigmoid", "scaled_softmax")


class Network:
    def __init__(
        self,
        input_dim,
        hidden_dims,
        output_dim,
        activation,
        lam=None,
        rng=None,
        dtype=np.float32,
    ):
        if rng is None:
            rng = np.random.default_rng(0)
        dims = [input_dim, *hidden_dims]
        lstm_layers = [LstmLayer(d, h, rng=rng, dtype=dtype) for d, h in zip(dims, hidden_dims)]
        self._assemble(lstm_layers, DenseLayer(dims[-1], output_dim, rng=rng, dtype=dtype),
                       activation, lam)

    @classmethod
    def from_params(cls, named_arrays, activation, lam=None):
        """A network that holds ``named_arrays`` (the names of
        :meth:`param_items`) as its parameters, with no random draw; the
        array shapes give the topology.  Names it does not use are ignored."""
        n_layers = sum(1 for name in named_arrays if name.endswith(".Wh"))
        lstm_layers = [
            LstmLayer.from_params(*(named_arrays[f"lstm{i}.{key}"] for key in ("Wx", "Wh", "b")))
            for i in range(n_layers)
        ]
        head = DenseLayer.from_params(named_arrays["head.W"], named_arrays["head.b"])
        net = cls.__new__(cls)
        net._assemble(lstm_layers, head, activation, lam)
        return net

    def _assemble(self, lstm_layers, head, activation, lam):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if activation == "scaled_softmax":
            if lam is None or not lam > 0:
                raise ValueError("scaled_softmax requires a positive lam")
        layers = [*lstm_layers, head]
        for below, above in zip(layers, layers[1:]):
            if above.input_dim != below.hidden_dim:
                raise ValueError(f"layer input dim {above.input_dim} != "
                                 f"{below.hidden_dim} units below it")
        self.input_dim = layers[0].input_dim
        self.hidden_dims = [layer.hidden_dim for layer in lstm_layers]
        self.output_dim = head.output_dim
        self.activation = activation
        self.lam = float(lam) if lam is not None else None
        self.lstm_layers = lstm_layers
        self.head = head

    @property
    def dtype(self):
        return self.head.W.dtype

    # ------------------------------------------------------------------
    # parameter bookkeeping
    # ------------------------------------------------------------------

    def param_items(self):
        """Ordered (name, array) pairs; the canonical tensor order."""
        items = []
        for idx, layer in enumerate(self.lstm_layers):
            items.append((f"lstm{idx}.Wx", layer.Wx))
            items.append((f"lstm{idx}.Wh", layer.Wh))
            items.append((f"lstm{idx}.b", layer.b))
        items.append(("head.W", self.head.W))
        items.append(("head.b", self.head.b))
        return items

    def set_params(self, named_arrays):
        current = dict(self.param_items())
        for name, arr in named_arrays.items():
            if name not in current:
                raise KeyError(f"unknown parameter {name!r}")
            if current[name].shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {current[name].shape} vs {arr.shape}"
                )
            current[name][...] = arr

    def snapshot(self):
        return {name: arr.copy() for name, arr in self.param_items()}

    def param_count(self):
        return sum(arr.size for _, arr in self.param_items())

    def macs_per_frame(self):
        """Weight multiply-accumulates per spectrogram frame (biases are adds)."""
        return sum(arr.size for name, arr in self.param_items() if not name.endswith(".b"))

    # ------------------------------------------------------------------
    # LSTM stack
    # ------------------------------------------------------------------

    def stack_forward(self, x):
        """Run the LSTM stack over (B, T, input_dim) from zero states.

        Returns the top hidden sequence and the per-layer caches.
        """
        caches = []
        h_seq = x
        for layer in self.lstm_layers:
            h_seq, cache = layer.forward(h_seq)
            caches.append(cache)
        return h_seq, caches

    def stack_backward(self, dh_top, caches):
        """Parameter gradients of the LSTM stack; the network input gets none."""
        grads = {}
        dh = dh_top
        for idx in range(len(self.lstm_layers) - 1, -1, -1):
            dh, layer_grads = self.lstm_layers[idx].backward(dh, caches[idx], input_grad=idx > 0)
            for key, val in layer_grads.items():
                grads[f"lstm{idx}.{key}"] = val
        return grads

    # ------------------------------------------------------------------
    # per-frame mask read-out
    # ------------------------------------------------------------------

    def forward_masks(self, x):
        """Per-frame sigmoid masks for a (B, T, input_dim) batch."""
        if self.activation != "sigmoid":
            raise ValueError("forward_masks requires a sigmoid head")
        h_seq, caches = self.stack_forward(x)
        pre = self.head.forward(h_seq)
        masks = sigmoid(pre)
        return masks, {"h_seq": h_seq, "caches": caches, "masks": masks}

    def backward_masks(self, dmasks, ctx):
        masks = ctx["masks"]
        dpre = dmasks * masks
        dpre *= 1.0 - masks
        dh, head_grads = self.head.backward(dpre, ctx["h_seq"])
        grads = self.stack_backward(dh, ctx["caches"])
        grads["head.W"] = head_grads["W"]
        grads["head.b"] = head_grads["b"]
        return grads

    # ------------------------------------------------------------------
    # sequence-summary read-out
    # ------------------------------------------------------------------

    def forward_gate(self, x):
        """Probabilities from the final frame of a (B, T, F) batch."""
        if self.activation != "scaled_softmax":
            raise ValueError("forward_gate requires a scaled_softmax head")
        h_seq, caches = self.stack_forward(x)
        h_last = h_seq[:, -1]
        probs = scaled_softmax(self.head.forward(h_last), self.lam)
        return probs, {"h_seq": h_seq, "h_last": h_last, "caches": caches}

    def backward_gate(self, dlogits, ctx):
        dh_last, head_grads = self.head.backward(dlogits, ctx["h_last"])
        dh_seq = np.zeros_like(ctx["h_seq"])
        dh_seq[:, -1] = dh_last
        grads = self.stack_backward(dh_seq, ctx["caches"])
        grads["head.W"] = head_grads["W"]
        grads["head.b"] = head_grads["b"]
        return grads
