"""Denoiser models: specialists, the gating classifier, their ensemble, and
an identity-mask stub for debugging.

An ensemble combines K mask-estimating specialists with one gating network.
During fine-tuning the output mask is the gate-probability-weighted sum of
all specialist masks (differentiable, "soft"); at inference only the argmax
specialist runs ("hard"), which is what makes the ensemble cheap.  Ties at
the argmax break toward the lowest index.

Every model counts its learned parameters and MACs per frame
(``param_count``, ``macs_per_frame``) and what one input touches
(``active_params``, ``active_macs_per_frame``).

Inference on a built model is read-only and reentrant; denoise reports are
per-call values.
"""

from dataclasses import dataclass

import numpy as np

from . import dsp
from .data import SAMPLE_RATE
from .neural import Network


def freq_bins(frame_size):
    return frame_size // 2 + 1


@dataclass
class GateDecision:
    """Gate output for one input: the probability of each specialist."""

    probs: np.ndarray

    @property
    def chosen(self):
        # np.argmax returns the first maximum, i.e. the lowest tied index
        return int(np.argmax(self.probs))


@dataclass
class DenoiseReport:
    """Gate choice (ensembles only) and parameter counts of one call."""

    chosen_specialist: int | None
    gate_probs: np.ndarray | None
    active_params: int
    learned_params: int


class _DenseModel:
    """Accounting of a model that runs every parameter on every input."""

    def param_count(self):
        return self.net.param_count()

    def macs_per_frame(self):
        return self.net.macs_per_frame()

    def active_params(self):
        return self.param_count()

    def active_macs_per_frame(self):
        return self.macs_per_frame()


class SpecialistModel(_DenseModel):
    """Mask-estimating recurrent network for one subproblem.

    ``cluster_id`` names the subproblem the model was trained on; ``None``
    marks a generalist (baseline) trained on the full mixture distribution.
    """

    kind = "specialist"

    def __init__(self, net, cluster_id=None, frame_size=dsp.DEFAULT_FRAME_SIZE, hop=dsp.DEFAULT_HOP):
        if net.activation != "sigmoid":
            raise ValueError("specialist network must have a sigmoid head")
        if net.input_dim != freq_bins(frame_size) or net.output_dim != freq_bins(frame_size):
            raise ValueError(
                f"network dims {net.input_dim}->{net.output_dim} do not match "
                f"{freq_bins(frame_size)} frequency bins"
            )
        self.net = net
        self.cluster_id = cluster_id
        self.frame_size = frame_size
        self.hop = hop

    @classmethod
    def build(cls, hidden, layers, cluster_id=None, rng=None,
              frame_size=dsp.DEFAULT_FRAME_SIZE, hop=dsp.DEFAULT_HOP):
        bins = freq_bins(frame_size)
        net = Network(bins, [hidden] * layers, bins, "sigmoid", rng=rng)
        return cls(net, cluster_id=cluster_id, frame_size=frame_size, hop=hop)

    def mask(self, x_mag):
        """Ratio mask (F, T) in [0, 1] for a magnitude spectrogram (F, T)."""
        feats = _as_features(x_mag, self.net)
        masks, _ = self.net.forward_masks(feats)
        return np.ascontiguousarray(masks[0].T)


class GatingModel(_DenseModel):
    """Sequence classifier producing one probability vector per input.

    The decision reads the final-frame hidden state of the top recurrent
    layer; on long inputs only the first ``decision_seconds`` of frames are
    consulted so the choice is fixed before the bulk of the sequence runs.
    """

    kind = "gating"

    def __init__(self, net, latent="snr", frame_size=dsp.DEFAULT_FRAME_SIZE,
                 hop=dsp.DEFAULT_HOP, decision_seconds=1.0):
        if net.activation != "scaled_softmax":
            raise ValueError("gating network must have a scaled_softmax head")
        if net.input_dim != freq_bins(frame_size):
            raise ValueError(
                f"network input dim {net.input_dim} != {freq_bins(frame_size)} frequency bins"
            )
        self.net = net
        self.latent = latent
        self.frame_size = frame_size
        self.hop = hop
        self.decision_seconds = decision_seconds

    @classmethod
    def build(cls, hidden, layers, k, lam=10.0, latent="snr", rng=None,
              frame_size=dsp.DEFAULT_FRAME_SIZE, hop=dsp.DEFAULT_HOP):
        net = Network(freq_bins(frame_size), [hidden] * layers, k, "scaled_softmax",
                      lam=lam, rng=rng)
        return cls(net, latent=latent, frame_size=frame_size, hop=hop)

    @property
    def k(self):
        return self.net.output_dim

    @property
    def lam(self):
        return self.net.lam

    def decision_frames(self):
        window = int(round(self.decision_seconds * SAMPLE_RATE))
        return max(1, dsp.num_frames(window, self.frame_size, self.hop))

    def gate(self, x_mag):
        """Gate decision for a magnitude spectrogram (F, T), T >= 1."""
        feats = _as_features(x_mag, self.net)
        feats = feats[:, : self.decision_frames()]
        probs, _ = self.net.forward_gate(feats)
        return GateDecision(probs=probs[0])


class IdentityMaskModel(_DenseModel):
    """Debug model whose mask is all ones, so denoising is a no-op."""

    kind = "identity"

    def __init__(self, frame_size=dsp.DEFAULT_FRAME_SIZE, hop=dsp.DEFAULT_HOP):
        self.frame_size = frame_size
        self.hop = hop

    def mask(self, x_mag):
        return np.ones_like(np.asarray(x_mag))

    def param_count(self):
        return 0

    def macs_per_frame(self):
        return 0


class EnsembleModel:
    """K specialists behind one gating network.

    ``mode`` selects the combination rule: "soft" (probability-weighted sum
    over all specialists, used while fine-tuning) or "hard" (argmax
    specialist only, used at inference).
    """

    kind = "ensemble"

    def __init__(self, specialists, gate, mode="hard", cluster_labels=None):
        if len(specialists) != gate.k:
            raise ValueError(f"{len(specialists)} specialists != gate K={gate.k}")
        if mode not in ("soft", "hard"):
            raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
        dims = {(s.frame_size, s.hop) for s in specialists}
        if dims != {(gate.frame_size, gate.hop)}:
            raise ValueError("specialists and gate disagree on the STFT layout")
        self.specialists = list(specialists)
        self.gate = gate
        self.mode = mode
        self.cluster_labels = list(cluster_labels) if cluster_labels else [
            str(k) for k in range(gate.k)
        ]
        self.frame_size = gate.frame_size
        self.hop = gate.hop

    @property
    def k(self):
        return self.gate.k

    @property
    def lam(self):
        return self.gate.lam

    @property
    def latent(self):
        return self.gate.latent

    def mask_soft(self, x_mag):
        """Probability-weighted sum of all specialist masks (runs every one)."""
        decision = self.gate.gate(x_mag)
        combined = np.zeros(np.asarray(x_mag).shape, dtype=np.float64)
        for p_k, spec in zip(decision.probs, self.specialists):
            combined += p_k * spec.mask(x_mag).astype(np.float64)
        return combined.astype(np.asarray(x_mag).dtype), decision

    def mask_hard(self, x_mag):
        """Mask from the argmax specialist only; returns (mask, chosen index)."""
        decision = self.gate.gate(x_mag)
        chosen = decision.chosen
        return self.specialists[chosen].mask(x_mag), decision

    def param_count(self):
        return self.gate.param_count() + sum(s.param_count() for s in self.specialists)

    def macs_per_frame(self):
        return self.gate.macs_per_frame() + sum(s.macs_per_frame() for s in self.specialists)

    def active_params(self):
        """Gate plus the largest specialist when hard; every member when soft."""
        if self.mode == "soft":
            return self.param_count()
        return self.gate.param_count() + max(s.param_count() for s in self.specialists)

    def active_macs_per_frame(self):
        """Gate plus the costliest specialist when hard; every member when soft."""
        if self.mode == "soft":
            return self.macs_per_frame()
        return self.gate.macs_per_frame() + max(s.macs_per_frame() for s in self.specialists)


def denoise(model, x):
    """Full waveform denoising pipeline: stft -> mask -> apply -> istft.

    Accepts any model with ``mask``/``frame_size``/``hop`` (specialist,
    identity stub) or an :class:`EnsembleModel`.  A hard ensemble decides
    the specialist from the opening second, then that one specialist
    processes the entire sequence; a soft one weights every specialist's
    mask.  ``x`` must be finite and at least one frame long.  Returns the
    estimate (trailing samples not covered by a full frame are dropped) and
    a :class:`DenoiseReport`.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < model.frame_size:
        raise ValueError(
            f"input too short: need at least {model.frame_size} samples, got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite samples (NaN or infinity)")
    spec = dsp.stft(x, model.frame_size, model.hop)
    x_mag = np.abs(spec)
    if isinstance(model, EnsembleModel):
        mask_fn = model.mask_hard if model.mode == "hard" else model.mask_soft
        mask, decision = mask_fn(x_mag)
    else:
        mask, decision = model.mask(x_mag), None
    report = DenoiseReport(
        chosen_specialist=None if decision is None else decision.chosen,
        gate_probs=None if decision is None else decision.probs,
        active_params=model.active_params(),
        learned_params=model.param_count(),
    )
    s_hat = dsp.istft(dsp.apply_mask(mask, spec), model.frame_size, model.hop)
    return s_hat, report


def _as_features(x_mag, net):
    """(F, T) magnitude spectrogram -> (1, T, F) batch in the network dtype."""
    x_mag = np.asarray(x_mag)
    if x_mag.ndim != 2 or x_mag.shape[0] != net.input_dim:
        raise ValueError(
            f"expected magnitude spectrogram ({net.input_dim}, T), got {x_mag.shape}"
        )
    return np.ascontiguousarray(x_mag.T[None, :, :]).astype(net.dtype, copy=False)
