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

Inference takes one input or an equal-length batch with a leading axis; one
input is the batch-of-one case of the same code.  A batch row matches its
single call to float32 rounding (the batch size changes how matrix products
round, not what they compute).

Inference on a built model is read-only and reentrant; denoise reports are
per-call values.
"""

from dataclasses import dataclass

import numpy as np

from . import dsp
from .data import LATENTS, SAMPLE_RATE
from .neural import Network

# Seconds of input a gate reads before it decides.
DECISION_SECONDS = 1.0


def freq_bins(frame_size):
    return frame_size // 2 + 1


@dataclass
class GateDecision:
    """Gate output: the probability of each specialist, (K,) or (B, K)."""

    probs: np.ndarray

    @property
    def chosen(self):
        # np.argmax returns the first maximum, i.e. the lowest tied index
        chosen = np.argmax(self.probs, axis=-1)
        return int(chosen) if chosen.ndim == 0 else chosen


@dataclass
class DenoiseReport:
    """Gate choice (ensembles only, per row for a batch) and parameter counts."""

    chosen_specialist: int | np.ndarray | None
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
        """Ratio mask in [0, 1] for a magnitude spectrogram (F, T) or a batch
        (B, F, T); same shape as the input."""
        masks, _ = self.net.forward_masks(_as_features(x_mag, self.net))
        masks = np.swapaxes(masks, 1, 2)  # a view in the layout of dsp.stft
        return masks if np.ndim(x_mag) == 3 else masks[0]


class GatingModel(_DenseModel):
    """Sequence classifier producing one probability vector per input.

    The decision reads the final-frame hidden state of the top recurrent
    layer; on long inputs only the first ``DECISION_SECONDS`` of frames are
    consulted so the choice is fixed before the bulk of the sequence runs.
    """

    kind = "gating"

    def __init__(self, net, latent="snr", frame_size=dsp.DEFAULT_FRAME_SIZE,
                 hop=dsp.DEFAULT_HOP):
        if net.activation != "scaled_softmax":
            raise ValueError("gating network must have a scaled_softmax head")
        if latent not in LATENTS:
            raise ValueError(f"unknown latent {latent!r}: expected one of {LATENTS}")
        if net.input_dim != freq_bins(frame_size):
            raise ValueError(
                f"network input dim {net.input_dim} != {freq_bins(frame_size)} frequency bins"
            )
        self.net = net
        self.latent = latent
        self.frame_size = frame_size
        self.hop = hop

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
        window = int(round(DECISION_SECONDS * SAMPLE_RATE))
        return max(1, dsp.num_frames(window, self.frame_size, self.hop))

    def gate(self, x_mag):
        """Gate decision for a magnitude spectrogram (F, T), T >= 1, or a
        batch (B, F, T), from the opening :meth:`decision_frames`."""
        feats = _as_features(x_mag, self.net, frames=self.decision_frames())
        probs, _ = self.net.forward_gate(feats)
        return GateDecision(probs=probs if np.ndim(x_mag) == 3 else probs[0])


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
        if cluster_labels is None:
            cluster_labels = [str(k) for k in range(gate.k)]
        if len(cluster_labels) != gate.k:
            raise ValueError(f"{len(cluster_labels)} cluster labels != gate K={gate.k}")
        self.specialists = list(specialists)
        self.gate = gate
        self.mode = mode
        self.cluster_labels = list(cluster_labels)
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
        return soft_mask(decision.probs, (spec.mask(x_mag) for spec in self.specialists)), decision

    def mask_hard(self, x_mag):
        """Mask from the argmax specialist of each input only."""
        decision = self.gate.gate(x_mag)
        return self.route(x_mag, decision.chosen), decision

    def route(self, x_mag, experts):
        """Mask of magnitudes (F, T) or a batch (B, F, T) with each input
        sent to the specialist ``experts`` names for it (one index, or one
        per row): each named specialist runs once, on the rows routed to it."""
        x_mag = np.asarray(x_mag)
        parts = {k: self.specialists[k].mask(x_mag[experts == k]) for k in np.unique(experts)}
        mask = np.empty(x_mag.shape, dtype=np.result_type(*parts.values()))
        for k, part in parts.items():
            mask[experts == k] = part
        return mask

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


def soft_mask(probs, masks):
    """The soft ensemble mask ``sum_k probs[..., k] * masks[k]`` for gate
    probabilities (K,) or (B, K) and the K specialist masks of that input or
    batch, summed in place in the masks' (network) dtype in specialist
    order: fine-tuning trains on this mask and inference applies it."""
    combined = None
    for p_k, mask in zip(np.asarray(probs).T, masks):
        if combined is None:
            combined = np.zeros_like(mask)
        combined += np.asarray(p_k)[..., None, None] * mask
    return combined


def check_waveform(x, frame_size):
    """``x`` as an array, after checking that it is one waveform (L,) or an
    equal-length batch (B, L), finite and at least one frame long."""
    x = np.asarray(x)
    if x.ndim not in (1, 2) or x.shape[-1] < frame_size:
        raise ValueError(f"input too short: need (L,) or (B, L) with L >= "
                         f"{frame_size} samples, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite samples (NaN or infinity)")
    return x


def estimate_mask(model, x_mag):
    """Mask for magnitudes (F, T) or a batch (B, F, T), and the gate
    decision (None for a model without a gate).  An ensemble combines its
    specialists by its mode; any other model answers ``mask``."""
    if isinstance(model, EnsembleModel):
        mask_fn = model.mask_hard if model.mode == "hard" else model.mask_soft
        return mask_fn(x_mag)
    return model.mask(x_mag), None


def denoise(model, x):
    """Full waveform denoising pipeline: stft -> mask -> apply -> istft.

    Accepts any model with ``mask``/``frame_size``/``hop`` (specialist,
    identity stub) or an :class:`EnsembleModel`.  A hard ensemble decides
    the specialist from the opening second, then that one specialist
    processes the entire sequence; a soft one weights every specialist's
    mask.  ``x`` is one waveform (L,) or an equal-length batch (B, L); it
    must be finite and at least one frame long.  Returns the estimate, (L',)
    or (B, L') (trailing samples not covered by a full frame are dropped),
    and a :class:`DenoiseReport`.
    """
    x = check_waveform(x, model.frame_size)
    spec = dsp.stft(x, model.frame_size, model.hop)
    mask, decision = estimate_mask(model, np.abs(spec))
    report = DenoiseReport(
        chosen_specialist=None if decision is None else decision.chosen,
        gate_probs=None if decision is None else decision.probs,
        active_params=model.active_params(),
        learned_params=model.param_count(),
    )
    s_hat = dsp.istft(dsp.apply_mask(mask, spec), model.frame_size, model.hop)
    return s_hat, report


def _as_features(x_mag, net, frames=None):
    """(F, T) or (B, F, T) magnitudes -> (B, T, F) batch in the network dtype,
    cut to the first ``frames`` frames; no copy for the layout of dsp.stft."""
    x_mag = np.asarray(x_mag)
    if x_mag.ndim not in (2, 3) or x_mag.shape[-2] != net.input_dim:
        raise ValueError(
            f"expected magnitude spectrogram ({net.input_dim}, T) or a batch "
            f"(B, {net.input_dim}, T), got {x_mag.shape}"
        )
    feats = np.swapaxes(x_mag if x_mag.ndim == 3 else x_mag[None], 1, 2)[:, :frames]
    return np.ascontiguousarray(feats, dtype=net.dtype)

