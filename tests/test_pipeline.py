import copy
import importlib.util
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


def test_initial_loss_matches_half_mask_reconstruction(tiny_corpus):
    # zeroed head -> constant 0.5 mask; compare against a direct evaluation
    config = tiny_config()
    model = SpecialistModel.build(4, 1, cluster_id=1, rng=np.random.default_rng(0))
    model.net.head.W[...] = 0.0
    model.net.head.b[...] = 0.0
    batch = sample_batch(tiny_corpus, BatchSpec(size=4, fixed_snr=0.0),
                         np.random.default_rng(1))
    loss, _ = pipeline.specialist_loss_and_grads(model.net, batch, 1024, 256,
                                                 want_grads=False)
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
        "mask_net_sisdri", "val_sisdri", "specialist_loss_and_grads", (NAN, None)),
    "train_gating": (
        pipeline.train_gating,
        "gate_accuracy", "val_accuracy", "gating_loss_and_grads", (NAN, None)),
    "finetune_ensemble": (
        lambda cfg, corpus: pipeline.finetune_ensemble(cfg, *_fresh_members(), corpus),
        "ensemble_hard_sisdri", "val_sisdri", "ensemble_loss_and_grads", (NAN, [], None, None)),
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
    _, spec_grads, _, probs = pipeline.ensemble_loss_and_grads(
        specs, gate, batch, 1024, 256)
    assert probs[:, 0].min() >= 0.9999
    for name in spec_grads[0]:
        selected = float(np.abs(spec_grads[0][name]).max())
        leaked = float(np.abs(spec_grads[1][name]).max())
        if selected > 0:
            assert leaked / selected < 1.1e-4


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
    true = [pipeline._mixture_cluster(smp, "gender", tuple(report.snr_set))
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
    report = pipeline.evaluate({"ens": ens}, tiny_corpus, n_mixtures=4, seed=3,
                               include_irm=False)
    mixture = pipeline.build_test_mixtures(tiny_corpus, 1, seed=3)[0]
    _, denoised = models.denoise(ens, mixture.x)
    for row in report.rows:
        assert row.active_params == denoised.active_params == ens.active_params()
        assert row.learned_params == denoised.learned_params == ens.param_count()
        assert row.active_macs == ens.active_macs_per_frame()
        assert row.learned_macs == ens.macs_per_frame()


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
