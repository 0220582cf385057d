"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The trend criteria (6-8) train desk-scale models on a generated synthetic
corpus inside a session fixture shared by all three; its timing is reported
by criterion 6.  Run with ``pytest tests/test_acceptance.py -v -s``; every
test here is marked ``slow``, so ``pytest -m "not slow"`` skips the module.
"""

import json
import math
import time

import numpy as np
import pytest

from smle import cli, dsp, metrics, pipeline
from smle.checkpoint import load_model, save_model
from smle.data import (
    GENDERS,
    BatchSpec,
    MixtureSample,
    SynthSpec,
    generate_synthetic_corpus,
    sample_batch,
)
from smle.models import EnsembleModel, GatingModel, SpecialistModel
from smle.neural import Network, scaled_softmax

pytestmark = pytest.mark.slow


def verdict(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale training session (criteria 3 and 6-8)
# ---------------------------------------------------------------------------

TREND_ARCH = dict(hidden=16, layers=2)
SPEC_STEPS = 360
GATE_STEPS = 240
FT_STEPS = 100
BATCH = 64
N_TEST = 200
SNR_KEYS = ("-5", "0", "5", "10")
CLUSTER_LABELS = ["-5dB", "0dB", "5dB", "10dB"]


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    spec = SynthSpec(out_dir=str(root), speakers=12, utterances=6, noises=30,
                     test_speakers=6, test_utterances=4, test_noises=12,
                     min_seconds=2.0, max_seconds=3.5, seed=2024)
    return generate_synthetic_corpus(spec)


@pytest.fixture(scope="session")
def trend(corpus):
    """Train specialists, baseline, gates, and ensembles once."""
    timings = {}
    t0 = time.monotonic()
    specialists = []
    for k in range(4):
        config = pipeline.TrainConfig(seed=100 + k, batch_size=BATCH,
                                      max_steps=SPEC_STEPS, validate_every=40,
                                      patience=10, latent="snr", val_batches=2,
                                      **TREND_ARCH)
        model, _ = pipeline.train_specialist(config, corpus, cluster_id=k)
        specialists.append(model)
    config = pipeline.TrainConfig(seed=200, batch_size=BATCH, max_steps=SPEC_STEPS,
                                  validate_every=40, patience=10, latent="snr",
                                  val_batches=2, **TREND_ARCH)
    baseline, _ = pipeline.train_specialist(config, corpus, cluster_id=None)
    timings["train_spec_baseline"] = time.monotonic() - t0

    t0 = time.monotonic()
    mixtures = pipeline.build_test_mixtures(corpus, N_TEST, seed=777)
    models = {f"spec{k}": m for k, m in enumerate(specialists)}
    models["baseline"] = baseline
    fig_a = pipeline.evaluate(models, corpus, N_TEST, seed=777, mixtures=mixtures)
    timings["eval_spec_baseline"] = time.monotonic() - t0

    t0 = time.monotonic()
    snr_gate, _ = pipeline.train_gating(
        pipeline.TrainConfig(seed=300, batch_size=BATCH, max_steps=GATE_STEPS,
                             validate_every=30, patience=10, latent="snr",
                             val_batches=2, **TREND_ARCH), corpus)
    gender_gate, _ = pipeline.train_gating(
        pipeline.TrainConfig(seed=400, batch_size=BATCH, max_steps=GATE_STEPS,
                             validate_every=30, patience=10, latent="gender",
                             val_batches=2, **TREND_ARCH), corpus)
    timings["train_gates"] = time.monotonic() - t0

    naive = EnsembleModel(specialists, snr_gate, mode="hard",
                          cluster_labels=CLUSTER_LABELS)
    t0 = time.monotonic()
    tuned, _ = pipeline.finetune_ensemble(
        pipeline.TrainConfig(seed=500, batch_size=48, max_steps=FT_STEPS,
                             validate_every=20, patience=10, latent="snr",
                             val_batches=2, **TREND_ARCH),
        specialists, snr_gate, corpus)
    timings["finetune"] = time.monotonic() - t0

    t0 = time.monotonic()
    fig_cd = pipeline.evaluate({"baseline": baseline, "naive": naive, "tuned": tuned},
                               corpus, N_TEST, seed=777, mixtures=mixtures)
    timings["eval_ensembles"] = time.monotonic() - t0
    return {
        "specialists": specialists,
        "baseline": baseline,
        "snr_gate": snr_gate,
        "gender_gate": gender_gate,
        "naive": naive,
        "tuned": tuned,
        "mixtures": mixtures,
        "fig_a": fig_a,
        "fig_cd": fig_cd,
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# 1. DSP round trip
# ---------------------------------------------------------------------------


def test_criterion_1_dsp_round_trip():
    rng = np.random.default_rng(1)
    lead = 1024 - 256
    worst = 0.0
    t0 = time.monotonic()
    for _ in range(100):
        w = rng.uniform(-1.0, 1.0, 32000).astype(np.float32)
        spec = dsp.stft(w)
        cov = dsp.coverage_length(spec.shape[1])
        y = dsp.istft(spec)
        err = float(np.abs(y[lead : cov - lead] - w[lead : cov - lead]).max())
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    verdict(1, worst < 1e-6 and elapsed < 5.0,
            f"interior round-trip error {worst:.2e} (< 1e-6), "
            f"runtime {elapsed:.2f}s (< 5s) over 100 two-second waveforms")


# ---------------------------------------------------------------------------
# 2. SI-SDR against a direct-evaluation oracle
# ---------------------------------------------------------------------------


def oracle_si_sdr(s, e, scale_invariant):
    # independent implementation: exact summation over python floats
    dot_es = math.fsum(float(a) * float(b) for a, b in zip(e, s))
    dot_ss = math.fsum(float(a) * float(a) for a in s)
    alpha = dot_es / dot_ss if scale_invariant else 1.0
    num = math.fsum((alpha * float(a)) ** 2 for a in s)
    den = math.fsum((alpha * float(a) - float(b)) ** 2 for a, b in zip(s, e))
    return 10.0 * math.log10(num / den)


def test_criterion_2_si_sdr_oracle_and_scale_invariance():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(4, 64))
        s = rng.standard_normal(n)
        e = rng.standard_normal(n)
        si = bool(i % 2)
        got = metrics.si_sdr(s, e, scale_invariant=si)
        worst = max(worst, abs(got - oracle_si_sdr(s, e, si)))
    inv_worst = 0.0
    for _ in range(100):
        s = rng.standard_normal(128)
        e = rng.standard_normal(128)
        base = metrics.si_sdr(s, e, scale_invariant=True)
        for c in (1e-3, 1.0, 1e3):
            inv_worst = max(inv_worst, abs(metrics.si_sdr(s, c * e, True) - base))
    verdict(2, worst < 1e-6 and inv_worst < 1e-6,
            f"oracle deviation {worst:.2e} dB over 1000 pairs (< 1e-6), "
            f"scale-invariance deviation {inv_worst:.2e} dB for c in {{1e-3,1,1e3}}")


# ---------------------------------------------------------------------------
# 3. IRM oracle run
# ---------------------------------------------------------------------------


def test_criterion_3_irm_oracle_improvement(corpus):
    batch = sample_batch(corpus, BatchSpec(size=100, fixed_snr=0.0, seconds=1.0),
                         np.random.default_rng(3), split="test")
    gains = []
    for smp in batch:
        spec_x = dsp.stft(smp.x)
        mask = metrics.ideal_ratio_mask(np.abs(dsp.stft(smp.s)),
                                        np.abs(dsp.stft(smp.n)))
        shat = dsp.istft(dsp.apply_mask(mask, spec_x))
        cov = shat.shape[0]
        gains.append(metrics.si_sdr_improvement(smp.s[:cov], smp.x[:cov], shat))
    mean_gain = float(np.mean(gains))
    verdict(3, mean_gain >= 10.0,
            f"mean IRM SI-SDRi {mean_gain:.2f} dB over 100 mixtures at 0 dB (>= 10)")


# ---------------------------------------------------------------------------
# 4. gradient integrity on the full loss path
# ---------------------------------------------------------------------------


def test_criterion_4_gradient_integrity():
    rng = np.random.default_rng(4)
    net = Network(513, [8, 8], 513, "sigmoid", rng=rng, dtype=np.float64)

    def unit_rms(n):
        w = rng.standard_normal(n)
        return w / np.sqrt(np.mean(w * w))

    s = unit_rms(16000)
    noise = unit_rms(16000)
    samples = [MixtureSample(x=s + noise, s=s, n=noise, snr_db=0.0, cluster_label=0)]
    assert dsp.stft(samples[0].x).shape[1] == 59
    _, (grads,) = pipeline.specialist_loss_and_grads(net, samples, 1024, 256)

    def loss():
        val, _ = pipeline.specialist_loss_and_grads(net, samples, 1024, 256)
        return val

    step = 1e-3
    worst = 0.0
    for name, arr in net.param_items():
        g = grads[name]
        for _ in range(8):
            ix = tuple(rng.integers(0, d) for d in arr.shape)
            orig = arr[ix]
            arr[ix] = orig + step
            hi = loss()
            arr[ix] = orig - step
            lo = loss()
            arr[ix] = orig
            fd = (hi - lo) / (2.0 * step)
            worst = max(worst, abs(g[ix] - fd) / max(abs(g[ix]), abs(fd), 1e-8))
    verdict(4, worst < 1e-3,
            f"analytic vs central-difference (step 1e-3) worst relative error "
            f"{worst:.2e} on 513->8->8->513 over a 59-frame snippet (< 1e-3)")


# ---------------------------------------------------------------------------
# 5. gating equations
# ---------------------------------------------------------------------------


def test_criterion_5_gating_equations():
    rng = np.random.default_rng(5)
    # saturation: two logits, gap >= 1, lambda = 10
    base = rng.uniform(-5.0, 5.0, 10000)
    gap = rng.uniform(1.0, 6.0, 10000)
    logits2 = np.stack([base + gap, base], axis=1)
    probs2 = scaled_softmax(logits2, 10.0)
    min_top = float(probs2.max(axis=1).min())

    # one-hot probabilities collapse the soft combination onto one mask
    frame, hop = 256, 64
    specs = [SpecialistModel.build(4, 1, cluster_id=i, rng=np.random.default_rng(50 + i),
                                   frame_size=frame, hop=hop) for i in range(2)]
    gate = GatingModel.build(4, 1, 2, lam=10.0, rng=np.random.default_rng(60),
                             frame_size=frame, hop=hop)
    gate.net.head.W[...] = 0.0
    gate.net.head.b[...] = np.array([100.0, -100.0], dtype=np.float32)
    mag = np.abs(rng.standard_normal((frame // 2 + 1, 25))).astype(np.float32)
    soft_mask, decision = EnsembleModel(specs, gate, mode="soft").mask_soft(mag)
    hard_mask, _ = EnsembleModel(specs, gate, mode="hard").mask_hard(mag)
    one_hot = decision.probs[0] == 1.0 and decision.probs[1] == 0.0
    bit_equal = np.array_equal(soft_mask, hard_mask)

    # argmax invariance across lambda
    arg_ok = True
    for k in (2, 3, 4, 6):
        logits = rng.standard_normal((10000, k))
        ref = np.argmax(logits, axis=1)
        for lam in (0.05, 1.0, 10.0, 400.0):
            if not np.array_equal(np.argmax(scaled_softmax(logits, lam), axis=1), ref):
                arg_ok = False
    verdict(5, min_top >= 0.9999 and one_hot and bit_equal and arg_ok,
            f"min saturated max-p {min_top:.6f} (>= 0.9999) over 1e4 two-logit "
            f"vectors with gap >= 1; one-hot soft == hard bitwise: {bit_equal}; "
            f"argmax lambda-invariant over 1e4 vectors: {arg_ok}")


# ---------------------------------------------------------------------------
# 6-8. desk-scale trends
# ---------------------------------------------------------------------------


def test_criterion_6_specialists_beat_baseline_per_band(trend):
    rows = {r.name: r for r in trend["fig_a"].rows}
    margins = {}
    for k, key in enumerate(SNR_KEYS):
        margins[key] = rows[f"spec{k}"].per_snr[key] - rows["baseline"].per_snr[key]
    runtime = trend["timings"]["train_spec_baseline"] + trend["timings"]["eval_spec_baseline"]
    ok = all(m > 0.0 for m in margins.values()) and runtime < 900.0
    detail = ", ".join(f"{k} dB band {m:+.2f}" for k, m in margins.items())
    verdict(6, ok, f"16x2 specialist vs baseline margins: {detail} "
                   f"(all > 0 over {N_TEST} mixtures); runtime {runtime:.0f}s (< 900)")


def test_criterion_7_gating_accuracy_trends(trend):
    mixtures = trend["mixtures"]
    levels = (-5.0, 0.0, 5.0, 10.0)
    snr_gate = trend["snr_gate"]
    k = snr_gate.k
    confusion = np.zeros((k, k), dtype=int)
    for smp in mixtures:
        decision = snr_gate.gate(np.abs(dsp.stft(smp.x)))
        confusion[levels.index(smp.snr_db), decision.chosen] += 1
    per_class = confusion.diagonal() / confusion.sum(axis=1)
    extrema = (per_class[0] + per_class[3]) / 2.0
    middle = (per_class[1] + per_class[2]) / 2.0

    gender_gate = trend["gender_gate"]
    hits = np.array([
        gender_gate.gate(np.abs(dsp.stft(smp.x))).chosen == GENDERS.index(smp.gender)
        for smp in mixtures
    ])
    gender_acc = float(hits.mean())
    snrs = np.array([smp.snr_db for smp in mixtures])
    per_snr = ", ".join(f"{lvl:g} dB {hits[snrs == lvl].mean():.2f}" for lvl in levels)
    ok = extrema > middle and gender_acc >= 0.9
    verdict(7, ok,
            f"SNR-gate per-class accuracy {[f'{a:.2f}' for a in per_class]}: "
            f"extrema {extrema:.2f} > middle {middle:.2f}; "
            f"gender-gate accuracy {gender_acc:.3f} (>= 0.9; per SNR: {per_snr})")


def test_criterion_8_ensemble_ordering(trend):
    rows = {r.name: r.overall for r in trend["fig_cd"].rows}
    m1 = rows["tuned"] - rows["naive"]
    m2 = rows["naive"] - rows["baseline"]
    ok = m1 >= 0.0 and m2 >= 0.0
    verdict(8, ok,
            f"mean SI-SDRi fine-tuned {rows['tuned']:.2f} >= naive {rows['naive']:.2f} "
            f">= baseline {rows['baseline']:.2f} dB (margins {m1:.2f}, {m2:.2f}); "
            f"naive with oracle routing {rows['naive/oracle_routing']:.2f} dB")


# ---------------------------------------------------------------------------
# 9. compression accounting
# ---------------------------------------------------------------------------


def test_criterion_9_compression_accounting():
    def closed_form_lstm(d, h):
        return 4 * h * (d + h + 1)

    specialist = Network(513, [512, 512], 513, "sigmoid")
    gate = Network(513, [128, 128], 4, "scaled_softmax", lam=10.0)
    big_baseline = Network(513, [1024, 1024], 513, "sigmoid")
    spec_expect = closed_form_lstm(513, 512) + closed_form_lstm(512, 512) + 512 * 513 + 513
    gate_expect = closed_form_lstm(513, 128) + closed_form_lstm(128, 128) + 128 * 4 + 4
    base_expect = closed_form_lstm(513, 1024) + closed_form_lstm(1024, 1024) + 1024 * 513 + 513
    active = specialist.param_count() + gate.param_count()
    ok = (
        specialist.param_count() == spec_expect == 4463617
        and gate.param_count() == gate_expect == 460804
        and big_baseline.param_count() == base_expect == 15218177
        and active == 4924421
        and active < big_baseline.param_count()
        and abs(active / 1e6 - 4.92) < 0.01
        and abs(big_baseline.param_count() / 1e6 - 15.2) < 0.05
    )
    verdict(9, ok,
            f"hard-gated active params {active} (~4.92M: 512x2 specialist {specialist.param_count()} "
            f"+ 128x2 gate {gate.param_count()}) < 1024x2 baseline learned {big_baseline.param_count()} "
            f"(~15.2M); all match 4h(d+h+1) closed form")


# ---------------------------------------------------------------------------
# 10. checkpoint round trip
# ---------------------------------------------------------------------------


def test_criterion_10_checkpoint_round_trip(tmp_path, trend):
    ensemble = trend["tuned"]
    p1, p2 = tmp_path / "a.smle", tmp_path / "b.smle"
    save_model(ensemble, p1)
    loaded = load_model(p1)
    save_model(loaded, p2)
    bytes_equal = p1.read_bytes() == p2.read_bytes()
    mag = np.abs(dsp.stft(trend["mixtures"][0].x))
    mask_a, dec_a = ensemble.mask_hard(mag)
    mask_b, dec_b = loaded.mask_hard(mag)
    outputs_equal = np.array_equal(mask_a, mask_b) and dec_a.chosen == dec_b.chosen
    probs_equal = np.array_equal(dec_a.probs, dec_b.probs)
    verdict(10, bytes_equal and outputs_equal and probs_equal,
            f"save->load->save byte-identical: {bytes_equal}; loaded ensemble "
            f"reproduces masks and gate probabilities bit-exactly: "
            f"{outputs_equal and probs_equal}")


# ---------------------------------------------------------------------------
# 11. training determinism
# ---------------------------------------------------------------------------


def test_criterion_11_training_determinism(tmp_path, corpus):
    runs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        out.mkdir()
        doc = {
            "seed": 17,
            "corpus": corpus.manifest_path,
            "output_dir": str(out),
            "train": {"hidden": 8, "layers": 1, "batch_size": 16, "max_steps": 30,
                      "validate_every": 10, "val_batches": 1},
        }
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(doc))
        rc = cli.main(["train-specialist", "--config", str(cfg_path), "--cluster", "1"])
        assert rc == 0
        runs.append({
            "ckpt": (out / "specialist1.smle").read_bytes(),
            "history": (out / "specialist1_history.json").read_text(),
        })
    same_ckpt = runs[0]["ckpt"] == runs[1]["ckpt"]
    same_hist = runs[0]["history"] == runs[1]["history"]
    verdict(11, same_ckpt and same_hist,
            f"two train-specialist runs with one RunConfig+seed: loss histories "
            f"identical: {same_hist}; final checkpoints byte-identical: {same_ckpt}")
