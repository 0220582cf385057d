"""Training loops, loss gradients, and the evaluation harness.

Three trainers cover the full recipe: per-cluster specialist pre-training
on the negative SI-SDR of the reconstructed estimate, gating training on
binary cross-entropy against the cluster label, and joint fine-tuning of
all members through the soft (probability-weighted) ensemble mask.  They
share one loop (:func:`_fit`) that validates on a fixed held-out set,
stops early when the metric stalls, and restores the best-scoring
parameters (the latest of equal scores).

One trainer owns its model's parameters; batch sampling and evaluation only
read shared state, so they may run concurrently with disjoint RNG streams.
"""

import copy
import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dsp, metrics
from .data import (SNR_SET, BatchSpec, cluster_of, clusters, make_test_mixture,
                   sample_batch)
from .models import (EnsembleModel, GatingModel, SpecialistModel, check_waveform, denoise,
                     estimate_mask, soft_mask)
from .neural import Adam, scaled_softmax_backward

_LOG10_SCALE = 20.0 / np.log(10.0)
# Keeps prior logits within +-6.9 where one batch holds no speech (or noise).
_PRIOR_FLOOR = 1e-3
# Rows per mask pass when scoring many items (validation sets, evaluation
# mixtures): bounds the transient arrays of one pass.
_PASS_ROWS = 32
# Rows per block of the training loss path (:func:`_mask_path_loss`): at
# 59 frames x 513 bins a block's arrays stay near a 2 MB L2 cache; 16 was
# the fastest of a sweep.
_LOSS_ROWS = 16


@dataclass
class TrainConfig:
    hidden: int = 16
    layers: int = 2
    batch_size: int = 100
    learning_rate: float = 0.001
    lam: float = 10.0
    max_steps: int = 500
    validate_every: int = 50
    patience: int = 10
    seed: int = 0
    latent: str = "snr"  # snr | gender
    snr_set: tuple = SNR_SET
    snippet_seconds: float = 1.0
    frame_size: int = dsp.DEFAULT_FRAME_SIZE
    hop: int = dsp.DEFAULT_HOP
    val_batches: int = 2

    @property
    def k(self):
        return len(clusters(self.latent, self.snr_set))

    def cluster_labels(self):
        """One name per cluster: an SNR level as "<level>dB", a gender as is."""
        return [c if isinstance(c, str) else f"{c:g}dB"
                for c in clusters(self.latent, self.snr_set)]


# ----------------------------------------------------------------------
# losses and gradients
# ----------------------------------------------------------------------


def neg_sisdr_and_grad_batch(refs, ests):
    """Negative SI-SDR loss of (B, L) estimates and its gradient w.r.t. them.

    Returns per-item losses (B,) and gradients (B, L).  Saturated items
    (ratio beyond +/-100 dB, including a zero estimate) return the clamped
    loss with a zero gradient row.  The loss is ``metrics.si_sdr`` of the
    batch, and the gradient reuses its terms.
    """
    db, alpha, s, ref_energy, grads, den, in_range = metrics._sdr_terms(refs, ests)
    grads /= np.where(in_range, den, 1.0)[:, None]  # grads holds the residual alpha * s - e
    grads += s / (np.where(in_range, alpha, 1.0) * ref_energy)[:, None]
    grads *= -_LOG10_SCALE
    grads[~in_range] = 0.0
    return -db, grads


def _batch_features(samples, frame_size, hop, dtype):
    """stft every mixture; returns time-major spectrograms and magnitudes.

    Both outputs are (B, T, F); items must share one snippet length.
    """
    lengths = {smp.x.shape[0] for smp in samples}
    if len(lengths) != 1:
        raise ValueError("batch items must share one snippet length")
    waves = np.stack([np.asarray(smp.x, dtype=dtype) for smp in samples])
    specs = dsp.stft_batch(waves, frame_size, hop)
    return specs, np.abs(specs).astype(dtype, copy=False)


def _loss_blocks(b_size):
    """Row slices of ``_LOSS_ROWS`` rows that cover ``b_size`` rows; a single
    row left over after the last full block joins it instead."""
    starts = list(range(0, b_size, _LOSS_ROWS))
    if len(starts) > 1 and b_size - starts[-1] == 1:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [b_size])]


def _mask_path_block(samples, specs, masks, b_size, frame_size, hop, dmasks):
    """Per-row losses of one block of :func:`_mask_path_loss`; writes into
    ``dmasks`` the block's rows of dLoss/dmask for the mean over ``b_size``
    rows."""
    shat = dsp.istft_batch(masks * specs, frame_size, hop)
    refs = np.stack([smp.s[: shat.shape[1]] for smp in samples])
    losses, dshat = neg_sisdr_and_grad_batch(refs, shat)
    dshat /= b_size
    grad = dsp.istft_adjoint_batch(dshat.astype(shat.dtype, copy=False), specs.shape[1],
                                   frame_size, hop)
    np.conjugate(grad, out=grad)
    grad *= specs
    dmasks[...] = grad.real
    return losses


def _mask_path_loss(samples, specs, masks, frame_size, hop):
    """Mean negative SI-SDR through apply_mask + istft for one mask batch.

    ``specs`` and ``masks`` are time-major (B, T, F); returns the scalar
    loss and dLoss/dmask in the same layout.

    The chain (mask times spectrogram, ``istft_batch``, the loss and its
    gradient, ``istft_adjoint_batch``, Re(conj(G) S)) runs over blocks of
    ``_LOSS_ROWS`` rows, so its temporaries stay near cache size instead
    of a dozen passes over whole-batch arrays.  Every operation in it acts
    on each row alone (transforms along the last axis, per-row sums), the
    per-row losses are gathered into one array before the mean, and the
    1/B scale is the batch size, not the block size; so the loss and
    dmask equal a whole-batch pass bit for bit.  One exception is taken
    care of: ``einsum`` sums a lone row in another order than a row of a
    larger batch, so a single row left over joins the block before it
    (:func:`_loss_blocks`).
    """
    b_size = len(samples)
    losses = np.empty(b_size)
    dmasks = np.empty(specs.shape, np.finfo(np.result_type(masks.dtype, specs.dtype)).dtype)
    for rows in _loss_blocks(b_size):
        losses[rows] = _mask_path_block(samples[rows], specs[rows], masks[rows], b_size,
                                        frame_size, hop, dmasks[rows])
    return float(np.mean(losses)), dmasks


def specialist_loss_and_grads(net, samples, frame_size, hop):
    """Mean negative SI-SDR of the masked reconstruction, and ``[grads]``."""
    specs, feats = _batch_features(samples, frame_size, hop, net.dtype)
    masks, ctx = net.forward_masks(feats)
    loss, dmasks = _mask_path_loss(samples, specs, masks, frame_size, hop)
    del specs  # backward_masks never reads the spectrogram
    return loss, [net.backward_masks(dmasks.astype(net.dtype, copy=False), ctx)]


def gating_loss_and_grads(net, samples, frame_size, hop):
    """Mean summed binary cross-entropy of the gate output vs each mixture's
    one-hot cluster label, and ``[grads]``."""
    _, feats = _batch_features(samples, frame_size, hop, net.dtype)
    probs, ctx = net.forward_gate(feats)
    b_size, k = probs.shape
    onehot = np.zeros((b_size, k))
    onehot[np.arange(b_size), [smp.cluster_label for smp in samples]] = 1.0
    loss = metrics.bce_loss(probs, onehot)
    clamped = np.clip(probs.astype(np.float64), metrics.BCE_CLAMP, 1.0 - metrics.BCE_CLAMP)
    inside = (probs > metrics.BCE_CLAMP) & (probs < 1.0 - metrics.BCE_CLAMP)
    dprobs = np.where(inside, (-onehot / clamped + (1.0 - onehot) / (1.0 - clamped)) / b_size, 0.0)
    dlogits = scaled_softmax_backward(dprobs, probs.astype(np.float64), net.lam)
    return loss, [net.backward_gate(dlogits.astype(net.dtype), ctx)]


def ensemble_loss_and_grads(specialists, gate, samples, frame_size, hop):
    """Mean negative SI-SDR through the soft (probability-weighted) mask, and
    the grads of every specialist's net, then the gate's.

    Gradients flow into every specialist (scaled by its gate probability)
    and into the gate through the softmax (dLoss/dprob_k reduced in float64
    from each expert's own mask: no (K, B, T, F) stack is built).
    """
    net_dtype = gate.net.dtype
    specs, feats = _batch_features(samples, frame_size, hop, net_dtype)
    probs, gate_ctx = gate.net.forward_gate(feats)
    masks, mask_ctxs = zip(*(spec_model.net.forward_masks(feats) for spec_model in specialists))
    loss, dmasks = _mask_path_loss(samples, specs, soft_mask(probs, masks), frame_size, hop)
    del specs  # the backward passes never read the spectrogram
    grads = []
    dprobs = np.empty(probs.shape)
    for k, spec_model in enumerate(specialists):
        dmask_k = (probs[:, k, None, None] * dmasks).astype(net_dtype, copy=False)
        grads.append(spec_model.net.backward_masks(dmask_k, mask_ctxs[k]))
        dprobs[:, k] = np.einsum("btf,btf->b", dmasks, masks[k], dtype=np.float64)
    dlogits = scaled_softmax_backward(dprobs, probs.astype(np.float64), gate.net.lam)
    grads.append(gate.net.backward_gate(dlogits.astype(net_dtype), gate_ctx))
    return loss, grads


# ----------------------------------------------------------------------
# validation metrics
# ----------------------------------------------------------------------


def mask_net_sisdri(net, samples, features, frame_size, hop):
    """Mean SI-SDR improvement of one mask network over a sample list whose
    ``features`` come from :func:`_batch_features`, in passes of at most
    ``_PASS_ROWS`` items."""
    specs, feats = features
    vals = []
    for start in range(0, len(samples), _PASS_ROWS):
        part = slice(start, start + _PASS_ROWS)
        masks, _ = net.forward_masks(feats[part])
        shat = dsp.istft_batch(masks * specs[part], frame_size, hop)
        vals.append(_batch_sisdri(samples[part], shat))
    return float(np.mean(np.concatenate(vals)))


def gate_accuracy(net, feats, labels):
    probs, _ = net.forward_gate(feats)
    return float(np.mean(np.argmax(probs, axis=1) == labels))


def ensemble_hard_sisdri(ensemble, samples):
    """Mean SI-SDR improvement of the hard-gated ensemble over equal-length
    samples, denoised as one batch."""
    shat, _ = denoise(ensemble, np.stack([smp.x for smp in samples]))
    return float(np.mean(_batch_sisdri(samples, shat)))


def _batch_sisdri(samples, shat):
    """SI-SDR improvement of each (B, L') estimate over its mixture, both
    cut to L' samples, in one batched call."""
    cov = shat.shape[1]
    return metrics.si_sdr_improvement(np.stack([smp.s[:cov] for smp in samples]),
                                      np.stack([smp.x[:cov] for smp in samples]), shat)


# ----------------------------------------------------------------------
# training loops
# ----------------------------------------------------------------------


class _EarlyStopper:
    """Tracks the best validation metric and the snapshot that achieved it."""

    def __init__(self, patience):
        self.patience = patience
        self.best = -np.inf
        self.best_step = -1
        self.best_snapshots = None
        self.stale = 0

    def update(self, step, metric, snapshot_fn):
        # A tie keeps the later snapshot: a saturated metric (a gate at 100%
        # validation accuracy) must not freeze the model at its first hit.
        if metric >= self.best:
            self.best = metric
            self.best_step = step
            self.best_snapshots = snapshot_fn()
            self.stale = 0
        else:
            self.stale += 1
        return self.stale > self.patience


def _check_finite(loss, step):
    if not np.isfinite(loss):
        raise RuntimeError(f"training diverged at step {step}: loss={loss}")


def _specialist_batch_spec(config, cluster_id):
    """Batches of every cluster (``cluster_id`` None) or of one."""
    spec = BatchSpec(size=config.batch_size, snr_set=config.snr_set, latent=config.latent,
                     seconds=config.snippet_seconds)
    return spec if cluster_id is None else spec.of_cluster(cluster_id)


def _irm_prior_logits(samples, frame_size, hop):
    """Per-bin logit of the mean ideal ratio mask over ``samples``.

    A mask head whose bias starts here outputs the average target mask
    before any training.  From a zero bias, Adam moves each bias by about
    the learning rate per step, too slowly to reach the large negative
    logits of noise-dominated bins within a desk budget, and the network
    drives hidden units into saturation to stand in for that constant.
    """
    speech = dsp.stft_batch(np.stack([smp.s for smp in samples]), frame_size, hop)
    noise = dsp.stft_batch(np.stack([smp.n for smp in samples]), frame_size, hop)
    prior = metrics.ideal_ratio_mask(np.abs(speech), np.abs(noise)).mean(axis=(0, 1))
    prior = np.clip(prior, _PRIOR_FLOOR, 1.0 - _PRIOR_FLOOR)
    return np.log(prior / (1.0 - prior))


def _rngs(seed, count):
    seqs = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(s) for s in seqs]


def _val_samples(corpus, spec, config, rng):
    samples = []
    for _ in range(config.val_batches):
        samples.extend(sample_batch(corpus, spec, rng, split="val"))
    return samples


def _fit(config, corpus, spec, batch_rng, nets, loss_and_grads, validate, metric_key):
    """Train ``nets`` jointly; the loop every trainer shares.

    Each step draws a training batch from ``spec`` and ``batch_rng`` and
    applies one Adam update per net from ``loss_and_grads(batch)``, which
    returns the loss and one gradient dict per net.  ``validate()`` returns
    the metric to maximise; it runs at step 0, every ``validate_every``
    steps and after the last step, and is logged under ``metric_key``.
    Every net is restored to its snapshot at the best validation.

    Returns the history: per-step loss, validation trace, best step.
    """
    adams = [Adam(net.param_items(), lr=config.learning_rate) for net in nets]
    stopper = _EarlyStopper(config.patience)
    history = {"loss": [], "val_steps": [], metric_key: []}

    def validate_at(step):
        metric = validate()
        history["val_steps"].append(step)
        history[metric_key].append(metric)
        return stopper.update(step, metric, lambda: [net.snapshot() for net in nets])

    validate_at(0)
    for step in range(1, config.max_steps + 1):
        batch = sample_batch(corpus, spec, batch_rng, split="train")
        loss, grads = loss_and_grads(batch)
        _check_finite(loss, step)
        for adam, net, net_grads in zip(adams, nets, grads, strict=True):
            adam.step(net.param_items(), net_grads)
        history["loss"].append(loss)
        if step % config.validate_every == 0 and validate_at(step):
            break
    if history["val_steps"][-1] != len(history["loss"]):
        validate_at(len(history["loss"]))
    for net, snapshot in zip(nets, stopper.best_snapshots):
        net.set_params(snapshot)
    history["best_step"] = stopper.best_step
    return history


def train_specialist(config, corpus, cluster_id=None):
    """Pre-train one specialist (or, with ``cluster_id=None``, the baseline).

    The mask head's bias starts at the logit of the mean ideal ratio mask
    of one training batch (:func:`_irm_prior_logits`), drawn from the
    initialisation stream so the training batches stay the same.

    Returns the model with its best-validation parameters and the training
    history (per-step loss, validation trace, best step).
    """
    init_rng, batch_rng, val_rng = _rngs(config.seed, 3)
    model = SpecialistModel.build(config.hidden, config.layers, cluster_id=cluster_id,
                                  rng=init_rng, frame_size=config.frame_size, hop=config.hop)
    net, frame_size, hop = model.net, config.frame_size, config.hop
    spec = _specialist_batch_spec(config, cluster_id)
    prior_batch = sample_batch(corpus, spec, init_rng, split="train")
    net.head.b[...] = _irm_prior_logits(prior_batch, frame_size, hop)
    val_set = _val_samples(corpus, spec, config, val_rng)
    val_ctx = _batch_features(val_set, frame_size, hop, net.dtype)
    history = _fit(config, corpus, spec, batch_rng, [net],
                   lambda batch: specialist_loss_and_grads(net, batch, frame_size, hop),
                   lambda: mask_net_sisdri(net, val_set, val_ctx, frame_size, hop),
                   "val_sisdri")
    return model, history


def train_gating(config, corpus):
    """Train the gating classifier over all clusters of the configured latent."""
    init_rng, batch_rng, val_rng = _rngs(config.seed, 3)
    model = GatingModel.build(config.hidden, config.layers, config.k, lam=config.lam,
                              latent=config.latent, rng=init_rng,
                              frame_size=config.frame_size, hop=config.hop)
    net, frame_size, hop = model.net, config.frame_size, config.hop
    spec = _specialist_batch_spec(config, None)
    val_set = _val_samples(corpus, spec, config, val_rng)
    _, val_feats = _batch_features(val_set, frame_size, hop, net.dtype)
    val_labels = np.array([smp.cluster_label for smp in val_set])
    history = _fit(config, corpus, spec, batch_rng, [net],
                   lambda batch: gating_loss_and_grads(net, batch, frame_size, hop),
                   lambda: gate_accuracy(net, val_feats, val_labels), "val_accuracy")
    return model, history


def finetune_ensemble(config, specialists, gate, corpus):
    """Jointly fine-tune pre-trained members through the soft ensemble mask.

    Inputs are left untouched; the returned ensemble holds fine-tuned copies
    and is set to hard gating for inference.  Each member is copied on its
    own, so members that share one network are fine-tuned apart.
    Validation (and best-snapshot selection) uses the hard-gated SI-SDR
    improvement, starting from the untrained combination, so fine-tuning
    never ends below the naive ensemble on the validation set.  The gate
    must be of the config's latent and have one output per cluster.
    """
    if (gate.latent, gate.k) != (config.latent, config.k):
        raise ValueError(f"a {gate.k}-way {gate.latent} gate cannot route the "
                         f"{config.k} {config.latent} clusters of this config")
    _, batch_rng, val_rng = _rngs(config.seed, 3)
    tuned_specs = [copy.deepcopy(s) for s in specialists]
    tuned_gate = copy.deepcopy(gate)
    ensemble = EnsembleModel(tuned_specs, tuned_gate, mode="hard",
                             cluster_labels=config.cluster_labels())
    spec = _specialist_batch_spec(config, None)
    val_set = _val_samples(corpus, spec, config, val_rng)
    nets = [m.net for m in tuned_specs] + [tuned_gate.net]
    history = _fit(config, corpus, spec, batch_rng, nets,
                   lambda batch: ensemble_loss_and_grads(tuned_specs, tuned_gate, batch,
                                                         config.frame_size, config.hop),
                   lambda: ensemble_hard_sisdri(ensemble, val_set), "val_sisdri")
    return ensemble, history


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


@dataclass
class ModelRow:
    name: str
    per_snr: dict
    overall: float
    learned_params: int
    active_params: int
    learned_macs: int
    active_macs: int


@dataclass
class GatingSection:
    model: str
    accuracy: float
    per_class_accuracy: list
    confusion: list  # rows = true cluster, columns = predicted


@dataclass
class EvalReport:
    n_mixtures: int
    snr_set: list
    rows: list = field(default_factory=list)
    gating: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "n_mixtures": self.n_mixtures,
            "snr_set": list(self.snr_set),
            "models": [
                {
                    "name": r.name,
                    "si_sdri_per_snr": r.per_snr,
                    "si_sdri_overall": r.overall,
                    "learned_params": r.learned_params,
                    "active_params": r.active_params,
                    "learned_macs_per_frame": r.learned_macs,
                    "active_macs_per_frame": r.active_macs,
                }
                for r in self.rows
            ],
            "gating": [asdict(g) for g in self.gating],
        }

    def to_table(self):
        headers = ["model"] + [f"{lvl:g}dB" for lvl in self.snr_set] + [
            "mean", "params", "active", "macs/frame", "active macs"]
        lines = []
        for r in self.rows:
            cells = [r.name]
            cells += [f"{r.per_snr.get(f'{lvl:g}', float('nan')):7.2f}" for lvl in self.snr_set]
            cells += [f"{r.overall:7.2f}", str(r.learned_params), str(r.active_params),
                      str(r.learned_macs), str(r.active_macs)]
            lines.append(cells)
        widths = [max(len(h), *(len(row[i]) for row in lines)) if lines else len(h)
                  for i, h in enumerate(headers)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out = [fmt.format(*headers)]
        out.append("  ".join("-" * w for w in widths))
        out.extend(fmt.format(*row) for row in lines)
        for g in self.gating:
            out.append("")
            out.append(f"gating [{g.model}] accuracy={g.accuracy:.3f} "
                       f"per-class={['%.3f' % a for a in g.per_class_accuracy]}")
            for i, row in enumerate(g.confusion):
                out.append(f"  true {i}: {row}")
        return "\n".join(out)


def build_test_mixtures(corpus, n_mixtures, snr_set=SNR_SET, seed=0):
    """Deterministic full-duration test mixtures cycling through the SNR set."""
    if n_mixtures < 1:
        raise ValueError("n_mixtures must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    speech_items = corpus.speech("test")
    noise_items = corpus.noise("test")
    if not speech_items or not noise_items:
        raise ValueError("empty corpus for split 'test'")
    levels = clusters("snr", snr_set)
    mixtures = []
    for i in range(n_mixtures):
        sp = speech_items[int(rng.integers(0, len(speech_items)))]
        nz = noise_items[int(rng.integers(0, len(noise_items)))]
        snr = levels[i % len(levels)]
        mixtures.append(make_test_mixture(corpus, sp, nz, snr, rng, snr_set=levels))
    return mixtures


def _row_from_scores(name, scores, mixtures, snr_set, model=None):
    """One report row; ``model`` supplies the accounting (none: all zero)."""
    per_snr = {}
    for lvl in snr_set:
        vals = [v for v, smp in zip(scores, mixtures) if smp.snr_db == lvl]
        per_snr[f"{lvl:g}"] = float(np.mean(vals)) if vals else float("nan")
    counts = (0, 0, 0, 0) if model is None else (
        model.param_count(), model.active_params(),
        model.macs_per_frame(), model.active_macs_per_frame())
    return ModelRow(name, per_snr, float(np.mean(scores)), *counts)


def _gating_section(name, k, truth, predictions):
    confusion = [[0] * k for _ in range(k)]
    for t, p in zip(truth, predictions):
        confusion[t][p] += 1
    correct = sum(confusion[i][i] for i in range(k))
    per_class = [confusion[i][i] / max(1, sum(confusion[i])) for i in range(k)]
    return GatingSection(model=name, accuracy=correct / len(truth),
                         per_class_accuracy=per_class, confusion=confusion)


class _ChunkSpectra:
    """One STFT per mixture of a chunk in one layout, shared by every row.

    Holds each spectrogram, the magnitudes zero-padded into one
    (B, F, T_max) array, each frame count, and each mixture's SI-SDR before
    processing (the baseline every row's improvement subtracts).
    """

    def __init__(self, chunk, frame_size, hop):
        self.chunk, self.frame_size, self.hop = chunk, frame_size, hop
        self.specs = [dsp.stft(check_waveform(smp.x, frame_size), frame_size, hop)
                      for smp in chunk]
        self.frames = np.array([spec.shape[1] for spec in self.specs])
        self.mags = np.zeros((len(chunk), self.specs[0].shape[0], self.frames.max()),
                             dtype=self.specs[0].real.dtype)
        for mag, spec in zip(self.mags, self.specs):
            np.abs(spec, out=mag[:, : spec.shape[1]])
        self.base = []
        for smp, t_frames in zip(chunk, self.frames):
            cov = dsp.coverage_length(t_frames, frame_size, hop)
            self.base.append(metrics.si_sdr(smp.s[:cov], smp.x[:cov]))

    def padded(self, rows):
        """Magnitudes of ``rows`` (an index array), cut to their longest."""
        return self.mags[rows, :, : self.frames[rows].max()]

    def sisdri(self, rows, masks):
        """SI-SDR improvement of each of ``rows`` under its mask, cropped to
        the row's own frames and inverted as :func:`models.denoise` does."""
        out = []
        for i, mask in zip(rows, masks):
            spec, smp = self.specs[i], self.chunk[i]
            s_hat = dsp.istft(dsp.apply_mask(mask[:, : spec.shape[1]], spec),
                              self.frame_size, self.hop)
            out.append(metrics.si_sdr(smp.s[: s_hat.shape[0]], s_hat) - self.base[i])
        return out


def _buckets(model, frames):
    """Row groups that may share one padded mask pass.  A gate reads the
    last frame of its decision window, so rows shorter than the window
    share a pass only with rows of their own frame count."""
    if not isinstance(model, EnsembleModel):
        return [np.arange(len(frames))]
    keys = np.minimum(frames, model.gate.decision_frames())
    return [np.flatnonzero(keys == key) for key in np.unique(keys)]


def _model_scores(model, view):
    """Per-mixture SI-SDRi of ``model`` over one chunk, and each gate choice
    (-1 without a gate): one mask call per bucket."""
    scores = np.empty(len(view.chunk))
    chosen = np.full(len(view.chunk), -1)
    for rows in _buckets(model, view.frames):
        mask, decision = estimate_mask(model, view.padded(rows))
        scores[rows] = view.sisdri(rows, mask)
        if decision is not None:
            chosen[rows] = decision.chosen
    return scores, chosen


def _irm_scores(view):
    masks = [
        metrics.ideal_ratio_mask(np.abs(dsp.stft(smp.s, view.frame_size, view.hop)),
                                 np.abs(dsp.stft(smp.n, view.frame_size, view.hop)))
        for smp in view.chunk
    ]
    return view.sisdri(range(len(masks)), masks)


def evaluate(models, corpus, n_mixtures, snr_set=SNR_SET, seed=0,
             frame_size=dsp.DEFAULT_FRAME_SIZE, hop=dsp.DEFAULT_HOP, mixtures=None):
    """Score every model on shared test mixtures.

    ``models`` maps display names to model objects.  Ensembles additionally
    contribute a gating confusion section and an oracle-routing row (each
    mixture sent to its ground-truth-cluster specialist, the ensemble's
    performance ceiling with a perfect gate), so an ensemble must have one
    specialist per cluster of its latent: one per level of ``snr_set``, or
    two for gender.  The last row is the ideal-ratio-mask oracle.
    Every mixture must be finite and at least one frame long.

    Mixtures are scored in chunks of at most ``_PASS_ROWS``, so memory does
    not grow with their number.  Each mixture of a chunk is transformed
    once per STFT layout, and every row reuses that spectrogram and the
    mixture's unprocessed SI-SDR.  A model computes its masks for a chunk
    in one call on the magnitudes zero-padded to the longest mixture
    (one call per cluster for the oracle row).  The networks are
    forward-only LSTMs and so causal: padding frames after a row's own T
    frames cannot change that row's first T mask frames; only the rounding
    of matrix products with the batch size differs from one call per
    mixture.  A gate reads the last frame of its decision window, so rows
    shorter than :meth:`GatingModel.decision_frames` share a call only with
    rows of the same frame count; all longer rows share one.  Each mask is
    cropped to its mixture's frames and inverted as :func:`denoise` does.
    """
    snr_levels = clusters("snr", snr_set)
    ensembles = {name: model for name, model in models.items()
                 if isinstance(model, EnsembleModel)}
    for name, model in ensembles.items():
        k = len(clusters(model.latent, snr_levels))
        if model.k != k:
            raise ValueError(f"model {name!r}: {model.k} specialists for {k} "
                             f"{model.latent} clusters in this evaluation")
    if mixtures is None:
        mixtures = build_test_mixtures(corpus, n_mixtures, snr_levels, seed=seed)
    truth = {name: np.array([cluster_of(model.latent, snr_levels, smp.snr_db, smp.gender)
                             for smp in mixtures])
             for name, model in ensembles.items()}
    scores = {key: [] for key in ["irm", *(("model", name) for name in models),
                                  *(("oracle", name) for name in ensembles)]}
    chosen = {name: [] for name in ensembles}
    for start in range(0, len(mixtures), _PASS_ROWS):
        chunk = mixtures[start : start + _PASS_ROWS]
        spectra = functools.cache(functools.partial(_ChunkSpectra, chunk))
        for name, model in models.items():
            view = spectra(model.frame_size, model.hop)
            row_scores, row_chosen = _model_scores(model, view)
            scores[("model", name)].extend(row_scores)
            if name in ensembles:
                chosen[name].extend(row_chosen)
                rows = np.arange(len(chunk))
                mask = model.route(view.padded(rows), truth[name][start : start + len(chunk)])
                scores[("oracle", name)].extend(view.sisdri(rows, mask))
        scores["irm"].extend(_irm_scores(spectra(frame_size, hop)))
    report = EvalReport(n_mixtures=len(mixtures), snr_set=list(snr_levels))
    for name, model in models.items():
        report.rows.append(_row_from_scores(name, scores[("model", name)], mixtures,
                                            snr_levels, model))
        if name in ensembles:
            report.gating.append(_gating_section(name, model.k, truth[name], chosen[name]))
            report.rows.append(_row_from_scores(f"{name}/oracle_routing",
                                                scores[("oracle", name)], mixtures,
                                                snr_levels, model))
    report.rows.append(_row_from_scores("oracle_irm", scores["irm"], mixtures, snr_levels))
    return report
