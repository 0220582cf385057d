import copy
import importlib.util
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smle import checkpoint, data, dsp, metrics, models, neural, pipeline
from smle.data import BatchSpec, sample_batch
from smle.models import EnsembleModel, GatingModel, IdentityMaskModel, SpecialistModel


def tiny_config(**kw):
    base = dict(hidden=4, layers=1, batch_size=8, max_steps=6, validate_every=3,
                patience=10, seed=11, latent="snr", val_batches=1)
    base.update(kw)
    return pipeline.TrainConfig(**base)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_train_config_reads_its_clusters_from_the_partition():
    config = tiny_config(snr_set=(5.0, -5, 0.5))
    assert config.k == 3 and config.cluster_labels() == ["-5dB", "0.5dB", "5dB"]
    config = tiny_config(latent="gender")
    assert config.k == 2 and config.cluster_labels() == ["male", "female"]
    for bad in (tiny_config(latent="Gender"), tiny_config(snr_set=(0.0, 0.0))):
        with pytest.raises(ValueError):
            bad.k
        with pytest.raises(ValueError):
            bad.cluster_labels()


@pytest.mark.parametrize("latent, cluster_id", [("snr", -1), ("snr", 4), ("gender", 2)])
def test_specialist_training_rejects_a_cluster_outside_the_partition(tiny_corpus, latent,
                                                                    cluster_id):
    with pytest.raises(ValueError, match=f"cluster {cluster_id} is not an index"):
        pipeline.train_specialist(tiny_config(latent=latent), tiny_corpus, cluster_id)


def test_initial_loss_matches_half_mask_reconstruction(tiny_corpus):
    # zeroed head -> constant 0.5 mask; compare against a direct evaluation
    config = tiny_config()
    model = SpecialistModel.build(4, 1, cluster_id=1, rng=np.random.default_rng(0))
    model.net.head.W[...] = 0.0
    model.net.head.b[...] = 0.0
    batch = sample_batch(tiny_corpus, BatchSpec(size=4, fixed_snr=0.0),
                         np.random.default_rng(1))
    loss, _ = pipeline.specialist_loss_and_grads(model.net, batch, 1024, 256)
    expected = []
    for smp in batch:
        spec = dsp.stft(smp.x)
        shat = dsp.istft(dsp.apply_mask(np.full(spec.shape, 0.5, np.float32), spec))
        expected.append(-metrics.si_sdr(smp.s[: shat.shape[0]], shat))
    assert loss == pytest.approx(float(np.mean(expected)), abs=1e-4)


def test_half_mask_loss_equals_identity_mask_loss(tiny_corpus):
    # SI-SDR is scale invariant, so a constant 0.5 mask scores like all-ones
    batch = sample_batch(tiny_corpus, BatchSpec(size=3, fixed_snr=0.0),
                         np.random.default_rng(2))
    for smp in batch:
        spec = dsp.stft(smp.x)
        half = dsp.istft(dsp.apply_mask(np.full(spec.shape, 0.5, np.float32), spec))
        ones = dsp.istft(dsp.apply_mask(np.ones(spec.shape, np.float32), spec))
        cov = half.shape[0]
        assert metrics.si_sdr(smp.s[:cov], half) == pytest.approx(
            metrics.si_sdr(smp.s[:cov], ones), abs=1e-3)


# The loss path as it ran before it was blocked: whole-batch arrays, the
# out-of-place SI-SDR gradient, numpy's complex mask product and
# Re(conj(G) * S), the three-factor sigmoid derivative.  The production
# path must reproduce every bit of it.  The transforms are shared:
# tests/test_dsp.py pins ``istft_adjoint_batch`` to its earlier formula.


def ref_neg_sisdr_and_grad_batch(refs, ests):
    s = np.asarray(refs, dtype=np.float64)
    e = np.asarray(ests, dtype=np.float64)
    ref_energy = np.einsum("bl,bl->b", s, s)
    if np.any(ref_energy == 0.0):
        raise ValueError("undefined reference: zero-energy reference signal")
    alpha = np.einsum("bl,bl->b", e, s) / ref_energy
    resid = alpha[:, None] * s - e
    num = alpha * alpha * ref_energy
    den = np.einsum("bl,bl->b", resid, resid)
    ok = (num > 0.0) & (den > 0.0)
    safe_num = np.where(ok, num, 1.0)
    safe_den = np.where(ok, den, 1.0)
    raw = np.where(ok, 10.0 * np.log10(safe_num / safe_den), 0.0)
    raw = np.where(num == 0.0, -metrics.DB_CLAMP, raw)
    raw = np.where((num > 0.0) & (den == 0.0), metrics.DB_CLAMP, raw)
    losses = -np.clip(raw, -metrics.DB_CLAMP, metrics.DB_CLAMP)
    in_range = ok & (np.abs(raw) < metrics.DB_CLAMP)
    safe_alpha = np.where(alpha == 0.0, 1.0, alpha)
    grads = resid / safe_den[:, None] + s / (safe_alpha * ref_energy)[:, None]
    grads = np.where(in_range[:, None], -pipeline._LOG10_SCALE * grads, 0.0)
    return losses, grads


def ref_mask_path_loss(samples, specs, masks, frame_size, hop):
    b_size = len(samples)
    t_frames = specs.shape[1]
    cov = dsp.coverage_length(t_frames, frame_size, hop)
    shat = dsp.istft_batch(masks * specs, frame_size, hop)
    refs = np.stack([smp.s[:cov] for smp in samples])
    losses, dshat = ref_neg_sisdr_and_grad_batch(refs, shat)
    loss = float(np.mean(losses))
    dshat = (dshat / b_size).astype(shat.dtype, copy=False)
    grad_specs = dsp.istft_adjoint_batch(dshat, t_frames, frame_size, hop)
    return loss, (np.conj(grad_specs) * specs).real


def ref_forward_masks(self, x):
    h_seq, caches = self.stack_forward(x)
    masks = 0.5 * (1.0 + np.tanh(0.5 * (h_seq @ self.head.W.T + self.head.b)))
    return masks, {"h_seq": h_seq, "caches": caches, "masks": masks}


def ref_backward_masks(self, dmasks, ctx):
    masks = ctx["masks"]
    dh, head_grads = self.head.backward(dmasks * masks * (1.0 - masks), ctx["h_seq"])
    grads = self.stack_backward(dh, ctx["caches"])
    grads["head.W"], grads["head.b"] = head_grads["W"], head_grads["b"]
    return grads


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


def sisdr_edge_batch():
    """(7, 500) references and estimates: ordinary rows, a zero estimate, an
    exact copy, and rows beyond +100 and -100 dB."""
    rng = np.random.default_rng(21)
    s = rng.standard_normal((7, 500))
    noise = rng.standard_normal(500)
    noise -= (noise @ s[5]) / (s[5] @ s[5]) * s[5]  # orthogonal to reference 5
    e = np.stack([
        rng.standard_normal(500) + 0.5 * s[0],      # ordinary rows
        rng.standard_normal(500) - 2.0 * s[1],
        np.zeros(500),                              # zero estimate: -100 dB
        s[3].copy(),                                # equal to the reference: den = 0
        s[4] + 1e-6 * rng.standard_normal(500),     # beyond +100 dB
        1e3 * noise + 1e-4 * s[5],                  # beyond -100 dB
        0.1 * rng.standard_normal(500) + s[6],
    ])
    return s, e


def test_neg_sisdr_matches_the_out_of_place_reference_bit_for_bit():
    s, e = sisdr_edge_batch()
    for dtype in (np.float32, np.float64):
        losses, grads = pipeline.neg_sisdr_and_grad_batch(s.astype(dtype), e.astype(dtype))
        want_losses, want_grads = ref_neg_sisdr_and_grad_batch(s.astype(dtype), e.astype(dtype))
        assert_bitwise(losses, want_losses)
        assert_bitwise(grads, want_grads)
        assert losses[2] == metrics.DB_CLAMP and losses[3] == -metrics.DB_CLAMP
        assert losses[4] == -metrics.DB_CLAMP and losses[5] == metrics.DB_CLAMP
        assert not np.any(grads[2:6]) and np.all(grads[[0, 1, 6]] != 0.0)
    with pytest.raises(ValueError, match="zero-energy"):
        pipeline.neg_sisdr_and_grad_batch(np.zeros((2, 500)) + [[1.0], [0.0]], e[:2])


def test_training_loss_is_the_scored_si_sdr():
    s, e = sisdr_edge_batch()
    for dtype in (np.float32, np.float64):
        s_d, e_d = s.astype(dtype), e.astype(dtype)
        scored = metrics.si_sdr(s_d, e_d)
        assert_bitwise(-pipeline.neg_sisdr_and_grad_batch(s_d, e_d)[0], scored)
        for row, want in enumerate(scored):
            assert abs(metrics.si_sdr(s_d[row], e_d[row]) - want) <= 1e-12
        assert list(scored[2:6]) == [-100.0, 100.0, 100.0, -100.0]


@pytest.fixture(scope="module")
def loss_batch(tiny_corpus):
    return sample_batch(tiny_corpus, BatchSpec(size=64, fixed_snr=0.0),
                        np.random.default_rng(23))


@pytest.mark.parametrize("b_size, k", [(1, 2), (3, 4), (48, 2), (64, 4), (100, 4)])
def test_gating_loss_is_the_batch_mean_cross_entropy_bit_for_bit(b_size, k):
    rng = np.random.default_rng(b_size + k)
    net = neural.Network(9, [4], k, "scaled_softmax", lam=10.0, rng=rng)
    labels = rng.integers(0, k, b_size)
    # 32 samples at a 16-sample frame and a hop of 4: 5 frames of 9 bins
    samples = [data.MixtureSample(x=x, s=x, n=x, snr_db=0.0, cluster_label=int(label))
               for x, label in zip(rng.standard_normal((b_size, 32)), labels)]
    _, feats = pipeline._batch_features(samples, 16, 4, net.dtype)
    assert feats.shape == (b_size, 5, 9)
    loss, _ = pipeline.gating_loss_and_grads(net, samples, 16, 4)
    # the 2-D formula the gate trained on before it shared metrics.bce_loss
    probs = np.clip(net.forward_gate(feats)[0].astype(np.float64), 1e-7, 1.0 - 1e-7)
    onehot = np.eye(k)[labels]
    want = -np.sum(onehot * np.log(probs) + (1.0 - onehot) * np.log1p(-probs)) / b_size
    assert loss == float(want)
    assert loss == pytest.approx(np.mean([metrics.bce_loss(p, t) for p, t in zip(probs, onehot)]),
                                 rel=1e-12)


def test_loss_blocks_cover_every_row_without_a_lone_row():
    block = pipeline._LOSS_ROWS
    for b_size in [1, 2, block - 1, block, block + 1, 2 * block + 1, 64, 100]:
        slices = pipeline._loss_blocks(b_size)
        assert [i for s in slices for i in range(b_size)[s]] == list(range(b_size))
        sizes = [s.stop - s.start for s in slices]
        assert max(sizes) <= block + 1 and (b_size == 1 or min(sizes) > 1)


@pytest.mark.parametrize("b_size", sorted({1, pipeline._LOSS_ROWS - 1, pipeline._LOSS_ROWS,
                                           pipeline._LOSS_ROWS + 1, 64}))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_loss_path_equals_the_whole_batch_pass(loss_batch, b_size, dtype):
    samples = loss_batch[:b_size]
    specs, _ = pipeline._batch_features(samples, 1024, 256, dtype)
    masks = np.random.default_rng(b_size).uniform(0.0, 1.0, specs.shape).astype(dtype)
    loss, dmasks = pipeline._mask_path_loss(samples, specs, masks, 1024, 256)
    want_loss, want_dmasks = ref_mask_path_loss(samples, specs, masks, 1024, 256)
    assert loss == want_loss
    assert_bitwise(dmasks, want_dmasks)


def test_training_gradients_equal_the_whole_batch_reference(loss_batch, monkeypatch):
    batch = loss_batch[: 2 * pipeline._LOSS_ROWS + 1]
    rng = np.random.default_rng(24)
    specialists = [SpecialistModel.build(6, 2, cluster_id=k, rng=rng) for k in range(3)]
    gate = GatingModel.build(6, 1, 3, lam=10.0, rng=rng)

    def run():
        spec_out = pipeline.specialist_loss_and_grads(specialists[0].net, batch, 1024, 256)
        ens_out = pipeline.ensemble_loss_and_grads(specialists, gate, batch, 1024, 256)
        return spec_out, ens_out

    (loss, grads), (ens_loss, ens_grads) = run()
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_mask_path_loss", ref_mask_path_loss)
        patch.setattr(neural.Network, "forward_masks", ref_forward_masks)
        patch.setattr(neural.Network, "backward_masks", ref_backward_masks)
        (want_loss, want_grads), (want_ens, want_ens_grads) = run()
    assert loss == want_loss and ens_loss == want_ens
    assert len(grads) == 1 and len(ens_grads) == len(specialists) + 1
    for got, want in zip(grads + ens_grads, want_grads + want_ens_grads, strict=True):
        assert got.keys() == want.keys()
        for name in want:
            assert_bitwise(got[name], want[name])


def test_specialist_step_memory_stays_below_whole_batch_temporaries(loss_batch):
    # The traced peak of one 64 x 59 x 513 float32 step: 6.3 (B, T, F)
    # complex64 arrays with whole-batch loss temporaries, 3.7 in blocks.
    net = SpecialistModel.build(16, 2, rng=np.random.default_rng(25)).net
    pipeline.specialist_loss_and_grads(net, loss_batch, 1024, 256)  # fill the caches
    spec_bytes = np.dtype(np.complex64).itemsize * 64 * 59 * 513
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pipeline.specialist_loss_and_grads(net, loss_batch, 1024, 256)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < 5 * spec_bytes, f"peak {peak / spec_bytes:.2f} (B, T, F) complex64 arrays"


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------


def test_first_layer_gates_start_unsaturated_on_loud_mixtures(tiny_corpus):
    # -5 dB mixtures have the largest magnitudes the networks read (peaks
    # near 60); their layer-0 gate pre-activations must start mostly in the
    # sigmoid/tanh working range, not pinned at |z| > 4.
    batch = sample_batch(tiny_corpus, BatchSpec(size=16, fixed_snr=-5.0),
                         np.random.default_rng(0))
    _, feats = pipeline._batch_features(batch, 1024, 256, np.float32)
    for seed in range(3):
        layer = SpecialistModel.build(16, 2, rng=np.random.default_rng(seed)).net.lstm_layers[0]
        z = feats.reshape(-1, feats.shape[-1]) @ layer.Wx.T + layer.b
        assert np.mean(np.abs(z) > 4.0) < 0.05


def test_specialist_starts_from_the_mean_ratio_mask(tiny_corpus):
    # the head bias starts at the logit of the mean IRM, so the untrained
    # specialist already acts as a fixed spectral filter for its cluster
    _, hist = pipeline.train_specialist(tiny_config(max_steps=1, validate_every=1),
                                        tiny_corpus, cluster_id=0)
    assert hist["val_steps"][0] == 0
    assert hist["val_sisdri"][0] > 1.0


def test_early_stopper_tie_keeps_the_later_snapshot():
    stopper = pipeline._EarlyStopper(patience=2)
    stopper.update(30, 1.0, lambda: "first")
    stopper.update(60, 1.0, lambda: "second")
    stopper.update(90, 0.5, lambda: "worse")
    assert (stopper.best_step, stopper.best_snapshots) == (60, "second")


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def test_specialist_training_is_bit_deterministic(tiny_corpus):
    config = tiny_config()
    m1, h1 = pipeline.train_specialist(config, tiny_corpus, cluster_id=0)
    m2, h2 = pipeline.train_specialist(config, tiny_corpus, cluster_id=0)
    assert h1["loss"] == h2["loss"]
    assert h1["val_sisdri"] == h2["val_sisdri"]
    for name, arr in m1.net.param_items():
        assert np.array_equal(arr, dict(m2.net.param_items())[name])


NAN = float("nan")


def _fresh_members(k=4):
    rng = np.random.default_rng(9)
    specs = [SpecialistModel.build(4, 1, cluster_id=i, rng=rng) for i in range(k)]
    return specs, GatingModel.build(4, 1, k, lam=10.0, rng=rng)


# each trainer with its validation metric, its history key, and the loss
# function it steps on with a non-finite return of that function's shape
TRAINERS = {
    "train_specialist": (
        lambda cfg, corpus: pipeline.train_specialist(cfg, corpus, cluster_id=1),
        "mask_net_sisdri", "val_sisdri", "specialist_loss_and_grads", (NAN, [None])),
    "train_gating": (
        pipeline.train_gating,
        "gate_accuracy", "val_accuracy", "gating_loss_and_grads", (NAN, [None])),
    "finetune_ensemble": (
        lambda cfg, corpus: pipeline.finetune_ensemble(cfg, *_fresh_members(), corpus),
        "ensemble_hard_sisdri", "val_sisdri", "ensemble_loss_and_grads", (NAN, [None] * 5)),
}


def _nets_of(model):
    if isinstance(model, EnsembleModel):
        return [m.net for m in model.specialists] + [model.gate.net]
    return [getattr(model, "net", model)]


@pytest.mark.parametrize("trainer", TRAINERS)
def test_history_shape_and_best_restore(tiny_corpus, monkeypatch, trainer):
    # the validation metric is replaced by one that peaks at step 2 of 6, so
    # the restored parameters must be the step-2 snapshot, not the last step
    train, metric_name, key, _, _ = TRAINERS[trainer]
    real_metric = getattr(pipeline, metric_name)
    scores = iter([0.0, 2.0, 1.0, 0.5])
    seen = []

    def scripted(model, *args, **kwargs):
        real_metric(model, *args, **kwargs)
        seen.append([net.snapshot() for net in _nets_of(model)])
        return next(scores)

    monkeypatch.setattr(pipeline, metric_name, scripted)
    model, hist = train(tiny_config(max_steps=6, validate_every=2), tiny_corpus)
    assert list(hist) == ["loss", "val_steps", key, "best_step"]
    assert len(hist["loss"]) == 6
    assert hist["val_steps"] == [0, 2, 4, 6] and hist[key] == [0.0, 2.0, 1.0, 0.5]
    assert hist["best_step"] == 2
    for net, snap in zip(_nets_of(model), seen[1], strict=True):
        for name, arr in net.param_items():
            assert np.array_equal(arr, snap[name])


def test_baseline_uses_all_clusters(tiny_corpus):
    config = tiny_config(max_steps=2, validate_every=2)
    model, _ = pipeline.train_specialist(config, tiny_corpus, cluster_id=None)
    assert model.cluster_id is None


@pytest.mark.parametrize("trainer", TRAINERS)
def test_divergence_aborts_with_diagnostic(tiny_corpus, monkeypatch, trainer):
    train, _, _, loss_name, poisoned = TRAINERS[trainer]
    monkeypatch.setattr(pipeline, loss_name, lambda *args, **kwargs: poisoned)
    with pytest.raises(RuntimeError, match="diverged at step 1"):
        train(tiny_config(), tiny_corpus)


def test_ensemble_hard_sisdri_matches_per_item_denoise(tiny_corpus):
    ens = EnsembleModel(*_fresh_members(), mode="hard")
    samples = sample_batch(tiny_corpus, BatchSpec(size=12), np.random.default_rng(8),
                           split="val")
    per_item, chosen = [], set()
    for smp in samples:
        shat, report = models.denoise(ens, smp.x)
        cov = shat.shape[0]
        per_item.append(metrics.si_sdr_improvement(smp.s[:cov], smp.x[:cov], shat))
        chosen.add(report.chosen_specialist)
    assert len(chosen) >= 2
    assert abs(pipeline.ensemble_hard_sisdri(ens, samples) - np.mean(per_item)) < 1e-6


def test_untrained_gate_sits_near_chance(tiny_corpus):
    gate = GatingModel.build(4, 1, 4, lam=10.0, rng=np.random.default_rng(3))
    batch = sample_batch(tiny_corpus, BatchSpec(size=32), np.random.default_rng(4))
    _, feats = pipeline._batch_features(batch, 1024, 256, np.float32)
    labels = np.array([smp.cluster_label for smp in batch])
    acc = pipeline.gate_accuracy(gate.net, feats, labels)
    assert acc < 0.6


def test_gate_training_runs_and_logs_accuracy(tiny_corpus):
    config = tiny_config(latent="gender", max_steps=4, validate_every=2)
    gate, hist = pipeline.train_gating(config, tiny_corpus)
    assert gate.latent == "gender"
    assert len(hist["val_accuracy"]) >= 2
    assert all(0.0 <= a <= 1.0 for a in hist["val_accuracy"])


def test_finetune_leakage_is_bounded_by_gate_probability(tiny_corpus):
    # identical specialist copies make the gradient ratio exactly the
    # probability ratio; a saturated gate then bounds leakage at 1e-4
    rng = np.random.default_rng(5)
    proto = SpecialistModel.build(4, 1, cluster_id=0, rng=rng)
    specs = [proto,
             SpecialistModel(copy.deepcopy(proto.net), cluster_id=1,
                             frame_size=proto.frame_size, hop=proto.hop)]
    gate = GatingModel.build(4, 1, 2, lam=10.0, rng=rng)
    gate.net.head.W[...] = 0.0
    gate.net.head.b[...] = np.array([1.0, 0.0], dtype=np.float32)  # max p >= 0.9999
    batch = sample_batch(tiny_corpus, BatchSpec(size=4), np.random.default_rng(6))
    _, spec_grads = pipeline.ensemble_loss_and_grads(specs, gate, batch, 1024, 256)
    probs, _ = gate.net.forward_gate(pipeline._batch_features(batch, 1024, 256, gate.net.dtype)[1])
    assert probs[:, 0].min() >= 0.9999
    for name in spec_grads[0]:
        selected = float(np.abs(spec_grads[0][name]).max())
        leaked = float(np.abs(spec_grads[1][name]).max())
        if selected > 0:
            assert leaked / selected < 1.1e-4


@pytest.mark.parametrize("gate_k, gate_latent", [(3, "gender"), (2, "snr")])
def test_finetune_rejects_a_gate_outside_the_config_partition(tiny_corpus, monkeypatch,
                                                              gate_k, gate_latent):
    rng = np.random.default_rng(12)
    specs = [SpecialistModel.build(4, 1, cluster_id=k, rng=rng) for k in range(gate_k)]
    gate = GatingModel.build(4, 1, gate_k, lam=10.0, latent=gate_latent, rng=rng)
    monkeypatch.setattr(pipeline, "sample_batch", None)  # no batch may be drawn
    with pytest.raises(ValueError, match=f"a {gate_k}-way {gate_latent} gate cannot route "
                                         "the 2 gender clusters"):
        pipeline.finetune_ensemble(tiny_config(latent="gender"), specs, gate, tiny_corpus)


def test_finetune_returns_hard_ensemble_and_leaves_inputs_untouched(tiny_corpus):
    config = tiny_config(max_steps=2, validate_every=2, latent="snr")
    specialists = [
        pipeline.train_specialist(tiny_config(max_steps=1, seed=20 + k),
                                  tiny_corpus, cluster_id=k)[0]
        for k in range(4)
    ]
    gate, _ = pipeline.train_gating(tiny_config(max_steps=1, seed=30), tiny_corpus)
    before = [s.net.snapshot() for s in specialists]
    ensemble, hist = pipeline.finetune_ensemble(config, specialists, gate, tiny_corpus)
    assert ensemble.mode == "hard"
    assert ensemble.k == 4
    assert len(hist["loss"]) == 2
    for model, snap in zip(specialists, before):
        for name, arr in model.net.param_items():
            assert np.array_equal(arr, snap[name])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_identity_model_scores_zero_improvement(tiny_corpus):
    report = pipeline.evaluate({"identity": IdentityMaskModel()}, tiny_corpus,
                               n_mixtures=8, seed=0)
    row = report.rows[0]
    assert row.name == "identity"
    for val in row.per_snr.values():
        assert abs(val) < 0.3
    assert abs(row.overall) < 0.3


def test_irm_oracle_is_the_best_row(tiny_corpus):
    models = {"identity": IdentityMaskModel(),
              "fresh": SpecialistModel.build(4, 1, rng=np.random.default_rng(7))}
    report = pipeline.evaluate(models, tiny_corpus, n_mixtures=8, seed=1)
    overall = {r.name: r.overall for r in report.rows}
    assert overall["oracle_irm"] == max(overall.values())
    assert overall["oracle_irm"] > 5.0


def test_ensemble_evaluation_reports_gating_and_oracle(tiny_corpus):
    rng = np.random.default_rng(8)
    specs = [SpecialistModel.build(4, 1, cluster_id=k, rng=rng) for k in range(2)]
    gate = GatingModel.build(4, 1, 2, lam=10.0, latent="gender", rng=rng)
    ens = EnsembleModel(specs, gate, mode="hard", cluster_labels=["male", "female"])
    report = pipeline.evaluate({"ens": ens}, tiny_corpus, n_mixtures=12, seed=2)
    names = [r.name for r in report.rows]
    assert "ens" in names and "ens/oracle_routing" in names
    section = report.gating[0]
    assert section.model == "ens"
    confusion = np.array(section.confusion)
    assert confusion.sum() == 12
    trace = confusion.trace()
    assert section.accuracy == pytest.approx(trace / 12.0)
    # rows sum to per-class counts
    mixtures = pipeline.build_test_mixtures(tiny_corpus, 12, report.snr_set, seed=2)
    true = [data.cluster_of("gender", report.snr_set, smp.snr_db, smp.gender)
            for smp in mixtures]
    for cls in range(2):
        assert confusion[cls].sum() == true.count(cls)
    ens_row = next(r for r in report.rows if r.name == "ens")
    assert ens_row.active_params < ens_row.learned_params


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_evaluate_and_denoise_agree_on_active_accounting(tiny_corpus, mode):
    rng = np.random.default_rng(9)
    specs = [SpecialistModel.build(4, 1, cluster_id=k, rng=rng) for k in range(4)]
    gate = GatingModel.build(4, 1, 4, lam=10.0, rng=rng)
    ens = EnsembleModel(specs, gate, mode=mode)
    report = pipeline.evaluate({"ens": ens}, tiny_corpus, n_mixtures=4, seed=3)
    mixture = pipeline.build_test_mixtures(tiny_corpus, 1, seed=3)[0]
    _, denoised = models.denoise(ens, mixture.x)
    assert [row.name for row in report.rows] == ["ens", "ens/oracle_routing", "oracle_irm"]
    for row in report.rows[:-1]:  # the IRM oracle has no parameters
        assert row.active_params == denoised.active_params == ens.active_params()
        assert row.learned_params == denoised.learned_params == ens.param_count()
        assert row.active_macs == ens.active_macs_per_frame()
        assert row.learned_macs == ens.macs_per_frame()


# Cut lengths of the ragged evaluation set: one frame; 43 frames twice,
# under the gate's 59-frame decision window; exactly 59; 75; and full length.
RAGGED_SAMPLES = [1024, 12000, 12000, 20000, None, None, 16000, None]


def ragged_mixtures(corpus):
    """Test mixtures of several lengths with levels spread over 40 dB (an
    untrained gate then picks both experts), each under its own SNR key so
    that a report row lists per-mixture scores."""
    base = pipeline.build_test_mixtures(corpus, len(RAGGED_SAMPLES), seed=6)
    out = []
    for i, (smp, n, level) in enumerate(zip(base, RAGGED_SAMPLES,
                                            np.logspace(-2, 0, len(base)))):
        level = np.float32(level)
        out.append(replace(smp, x=level * smp.x[:n], s=level * smp.s[:n],
                           n=level * smp.n[:n], snr_db=float(i)))
    return out


def gender_members(mode):
    rng = np.random.default_rng(1)
    gate = GatingModel.build(4, 1, 2, lam=10.0, latent="gender", rng=rng)
    specs = [SpecialistModel.build(4, 1, cluster_id=k, rng=rng) for k in range(2)]
    return EnsembleModel(specs, gate, mode=mode, cluster_labels=list(data.GENDERS))


def per_mixture(report, name, count):
    row = next(r for r in report.rows if r.name == name)
    return np.array([row.per_snr[f"{i:g}"] for i in range(count)])


def sisdri_by_denoise(model, smp):
    shat, rep = models.denoise(model, smp.x)
    cov = shat.shape[0]
    return metrics.si_sdr_improvement(smp.s[:cov], smp.x[:cov], shat), rep


@pytest.mark.parametrize("pass_rows", [pipeline._PASS_ROWS, 3])
def test_batched_evaluate_matches_per_mixture_denoise(tiny_corpus, monkeypatch, pass_rows):
    monkeypatch.setattr(pipeline, "_PASS_ROWS", pass_rows)
    mixtures = ragged_mixtures(tiny_corpus)
    hard, soft = gender_members("hard"), gender_members("soft")
    scored = {"hard": hard, "soft": soft, "spec": hard.specialists[1],
              "identity": IdentityMaskModel()}
    report = pipeline.evaluate(scored, tiny_corpus, 0, snr_set=range(len(mixtures)),
                               mixtures=mixtures)
    truth = [data.GENDERS.index(smp.gender) for smp in mixtures]
    for name, model in scored.items():
        want, chosen = [], []
        for smp in mixtures:
            score, rep = sisdri_by_denoise(model, smp)
            want.append(score)
            chosen.append(rep.chosen_specialist)
        assert np.abs(per_mixture(report, name, len(mixtures)) - want).max() < 1e-4, name
        if isinstance(model, EnsembleModel):
            assert len(set(chosen)) == 2
            section = next(g for g in report.gating if g.model == name)
            confusion = np.zeros((2, 2), dtype=int)
            np.add.at(confusion, (truth, chosen), 1)
            assert section.confusion == confusion.tolist()
            oracle = [sisdri_by_denoise(model.specialists[k], smp)[0]
                      for smp, k in zip(mixtures, truth)]
            got = per_mixture(report, f"{name}/oracle_routing", len(mixtures))
            assert np.abs(got - oracle).max() < 1e-4
    irm = []
    for smp in mixtures:
        mask = metrics.ideal_ratio_mask(np.abs(dsp.stft(smp.s)), np.abs(dsp.stft(smp.n)))
        shat = dsp.istft(dsp.apply_mask(mask, dsp.stft(smp.x)))
        irm.append(metrics.si_sdr_improvement(smp.s[: len(shat)], smp.x[: len(shat)], shat))
    assert np.array_equal(per_mixture(report, "oracle_irm", len(mixtures)), irm)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_batched_evaluate_runs_one_mask_pass_per_bucket(tiny_corpus, mode):
    mixtures = ragged_mixtures(tiny_corpus)
    ens = gender_members(mode)
    frames = [dsp.num_frames(len(smp.x)) for smp in mixtures]
    buckets = len({min(t, ens.gate.decision_frames()) for t in frames})
    assert buckets == 3
    calls = []
    for idx, net in enumerate([ens.gate.net] + [s.net for s in ens.specialists]):
        forward = net.forward_gate if idx == 0 else net.forward_masks

        def counting(x, _idx=idx, _forward=forward):
            calls.append((_idx, len(x)))
            return _forward(x)

        setattr(net, "forward_gate" if idx == 0 else "forward_masks", counting)
    pipeline.evaluate({"ens": ens}, tiny_corpus, 0, snr_set=range(len(mixtures)),
                      mixtures=mixtures)
    gate_rows = [rows for idx, rows in calls if idx == 0]
    assert len(gate_rows) == buckets and sum(gate_rows) == len(mixtures)
    for k in (1, 2):
        # at most once per bucket for the model row, once for the oracle row
        assert sum(1 for idx, _ in calls if idx == k) <= buckets + 1
    # the model row and the oracle row each mask every mixture exactly once
    # when hard; a soft ensemble runs both experts on every model-row mixture
    spec_rows = sum(rows for idx, rows in calls if idx > 0)
    assert spec_rows == (2 if mode == "hard" else 3) * len(mixtures)


@pytest.mark.parametrize("cut", [
    lambda x: np.where(np.arange(x.size) == 100, np.nan, x).astype(x.dtype),
    lambda x: x[:1000],
])
def test_evaluate_rejects_non_finite_and_too_short_mixtures(tiny_corpus, cut):
    mixtures = pipeline.build_test_mixtures(tiny_corpus, 3, seed=7)
    mixtures[1] = replace(mixtures[1], x=cut(mixtures[1].x))
    for model in (gender_members("hard"), IdentityMaskModel()):
        with pytest.raises(ValueError, match="non-finite|too short"):
            pipeline.evaluate({"m": model}, tiny_corpus, 0, mixtures=mixtures)


def small_ensemble(k, latent):
    rng = np.random.default_rng(2)
    gate = GatingModel.build(4, 1, k, lam=10.0, latent=latent, rng=rng)
    specs = [SpecialistModel.build(4, 1, cluster_id=i, rng=rng) for i in range(k)]
    return EnsembleModel(specs, gate)


@pytest.mark.parametrize("k, latent, snr_set", [
    (3, "snr", data.SNR_SET), (4, "snr", (0.0, 5.0)), (3, "gender", data.SNR_SET)])
def test_evaluate_rejects_an_ensemble_that_does_not_partition_the_clusters(
        tiny_corpus, k, latent, snr_set):
    # one specialist per SNR level or per gender, or oracle routing and the
    # gating confusion have no cluster for some mixtures
    with pytest.raises(ValueError, match=f"model 'e': {k} specialists for"):
        pipeline.evaluate({"e": small_ensemble(k, latent)}, tiny_corpus, 8, snr_set=snr_set)


def test_report_serializes_and_prints(tiny_corpus):
    report = pipeline.evaluate({"identity": IdentityMaskModel()}, tiny_corpus,
                               n_mixtures=4, seed=3)
    doc = report.to_json_dict()
    assert doc["n_mixtures"] == 4
    assert doc["models"][0]["name"] == "identity"
    assert "active_params" in doc["models"][0]
    table = report.to_table()
    assert "identity" in table and "oracle_irm" in table


def test_build_test_mixtures_validates_and_reproduces(tiny_corpus):
    with pytest.raises(ValueError, match="n_mixtures"):
        pipeline.build_test_mixtures(tiny_corpus, 0)
    a = pipeline.build_test_mixtures(tiny_corpus, 6, seed=4)
    b = pipeline.build_test_mixtures(tiny_corpus, 6, seed=4)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x)
    snrs = [smp.snr_db for smp in a]
    assert snrs[:4] == [-5.0, 0.0, 5.0, 10.0]


# ---------------------------------------------------------------------------
# benchmark tracing sites
# ---------------------------------------------------------------------------


def test_benchmark_trace_sites_resolve():
    # perfbench/tracing.py wraps these names where callers look them up; a
    # deleted or renamed one would otherwise fail only a traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"checkpoint": checkpoint, "data": data, "dsp": dsp, "metrics": metrics,
               "models": models, "neural": neural, "pipeline": pipeline}
    sites = [site for target in tracing.TARGETS for site in target.sites]
    sites += [site for _, site in tracing._COUNTERS]
    missing = []
    for site in sites:
        owner = modules[site[0]]
        for part in site[1:]:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(".".join(site))
    assert not missing
