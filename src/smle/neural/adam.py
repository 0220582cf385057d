"""Adam optimizer with bias correction, operating on named parameter lists."""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # fixed: only the learning rate is set


class Adam:
    def __init__(self, param_items, lr=0.001):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in param_items}
        self.v = {name: np.zeros_like(arr) for name, arr in param_items}

    def step(self, param_items, grads):
        """Update parameters in place from a {name: gradient} dict."""
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in param_items:
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name}: {g.shape} vs {p.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
