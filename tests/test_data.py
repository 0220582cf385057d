import json

import numpy as np
import pytest

from smle import data
from smle.data import (
    BatchSpec,
    Corpus,
    SynthSpec,
    generate_synthetic_corpus,
    load_wav,
    manifest_from_tree,
    mix_at_snr,
    sample_batch,
    save_wav,
)


# ---------------------------------------------------------------------------
# WAV I/O
# ---------------------------------------------------------------------------


def test_zero_file_round_trip(tmp_path):
    path = tmp_path / "z.wav"
    save_wav(path, np.zeros(1000))
    assert np.all(load_wav(path) == 0.0)


def test_full_scale_sample_scaling(tmp_path):
    path = tmp_path / "f.wav"
    save_wav(path, np.array([32767.0 / 32768.0]))
    got = load_wav(path)
    assert got[0] == pytest.approx(0.999969482, abs=1e-9)


def test_write_read_quantization_bound(tmp_path):
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.99, 0.99, 4000).astype(np.float32)
    path = tmp_path / "q.wav"
    save_wav(path, w)
    back = load_wav(path)
    assert np.abs(back - w).max() <= 1.0 / 32768.0


def test_wrong_sample_rate_rejected(tmp_path):
    import wave

    path = tmp_path / "bad.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(8000)
        fh.writeframes(b"\x00\x00" * 100)
    with pytest.raises(ValueError, match="sample rate"):
        load_wav(path)


def test_stereo_rejected(tmp_path):
    import wave

    path = tmp_path / "st.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(b"\x00\x00\x00\x00" * 100)
    with pytest.raises(ValueError, match="mono"):
        load_wav(path)


# ---------------------------------------------------------------------------
# snippet normalization
# ---------------------------------------------------------------------------


def unit_rms_crop(w, seconds, rng):
    """A ``seconds`` crop cut by ``_crop_unit_rms`` against the RMS of all
    of ``w``, recomputed on each call."""
    w = np.asarray(w, dtype=np.float32)
    rms = float(np.sqrt(np.mean(np.square(w, dtype=np.float64))))
    return data._crop_unit_rms(w, int(round(seconds * data.SAMPLE_RATE)), rng, rms)


def test_constant_half_signal_normalizes_to_unit_amplitude():
    rng = np.random.default_rng(1)
    w = np.full(32000, 0.5, dtype=np.float32)
    crop = unit_rms_crop(w, 1.0, rng)
    assert crop.shape == (16000,)
    assert np.allclose(crop, 1.0, atol=1e-6)


def test_snippet_rms_is_one():
    rng = np.random.default_rng(2)
    w = rng.uniform(-0.3, 0.3, 40000).astype(np.float32)
    crop = unit_rms_crop(w, 1.0, rng)
    rms = np.sqrt(np.mean(np.square(crop, dtype=np.float64)))
    assert rms == pytest.approx(1.0, abs=1e-6)


def test_distinct_seeds_give_distinct_crops():
    w = np.random.default_rng(3).uniform(-0.5, 0.5, 64000).astype(np.float32)
    a = unit_rms_crop(w, 1.0, np.random.default_rng(4))
    b = unit_rms_crop(w, 1.0, np.random.default_rng(5))
    assert not np.array_equal(a, b)


def test_silent_source_rejected():
    with pytest.raises(ValueError, match="silent"):
        unit_rms_crop(np.zeros(32000, dtype=np.float32), 1.0, np.random.default_rng(6))


def test_silent_crop_is_redrawn():
    # the first 16000 samples are silent, so a half-second crop starting at
    # or before 8000 is silent; this seed's first start lands there
    w = np.concatenate([np.zeros(16000), np.random.default_rng(12).uniform(-0.5, 0.5, 16000)])
    assert int(np.random.default_rng(14).integers(0, 24001)) <= 8000
    crop = unit_rms_crop(w, 0.5, np.random.default_rng(14))
    assert np.sqrt(np.mean(np.square(crop, dtype=np.float64))) == pytest.approx(1.0, abs=1e-6)


def test_all_crops_silent_raises():
    # one loud sample: only the crop starting at 0 (1 start in 16001) holds it
    w = np.zeros(32000, dtype=np.float32)
    w[0] = 1.0
    with pytest.raises(ValueError, match="all crops silent"):
        unit_rms_crop(w, 1.0, np.random.default_rng(15))


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------


def unit(rng, n=16000):
    w = rng.standard_normal(n).astype(np.float32)
    return w / np.float32(np.sqrt(np.mean(np.square(w, dtype=np.float64))))


def test_zero_db_gain_is_one():
    rng = np.random.default_rng(7)
    smp = mix_at_snr(unit(rng), unit(rng), 0.0)
    assert np.array_equal(smp.x, smp.s + smp.n)


@pytest.mark.parametrize("snr,gain", [(10.0, 0.31622776601683794), (-5.0, 1.7782794100389228)])
def test_noise_gain_matches_closed_form(snr, gain):
    rng = np.random.default_rng(8)
    n = unit(rng)
    smp = mix_at_snr(unit(rng), n, snr)
    assert np.allclose(smp.n, np.float32(gain) * n, rtol=1e-6, atol=0.0)


def test_mixture_identity_is_sample_exact():
    rng = np.random.default_rng(9)
    smp = mix_at_snr(unit(rng), unit(rng), 5.0)
    assert np.array_equal(smp.x, smp.s + smp.n)


def realized_snr_db(smp):
    es = float(np.sum(np.square(smp.s, dtype=np.float64)))
    en = float(np.sum(np.square(smp.n, dtype=np.float64)))
    return 10.0 * np.log10(es / en)


def test_realized_snr_within_tolerance():
    rng = np.random.default_rng(10)
    for snr in (-5.0, 0.0, 5.0, 10.0):
        smp = mix_at_snr(unit(rng), unit(rng), snr)
        assert abs(realized_snr_db(smp) - snr) < 1e-4


def test_mix_rejects_length_mismatch():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError, match="length"):
        mix_at_snr(unit(rng, 100), unit(rng, 101), 0.0)


def test_mix_rejects_non_unit_rms():
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="unit RMS"):
        mix_at_snr(0.5 * unit(rng), unit(rng), 0.0)


# ---------------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------------


def test_fixed_snr_batch_is_uniformly_labelled(tiny_corpus):
    spec = BatchSpec(size=16, fixed_snr=-5.0, seconds=1.0)
    batch = sample_batch(tiny_corpus, spec, np.random.default_rng(13))
    assert len(batch) == 16
    assert all(smp.snr_db == -5.0 and smp.cluster_label == 0 for smp in batch)


def test_fixed_snr_outside_snr_set_rejected(tiny_corpus):
    spec = BatchSpec(size=4, fixed_snr=3.0, seconds=1.0)
    with pytest.raises(ValueError, match="fixed_snr"):
        sample_batch(tiny_corpus, spec, np.random.default_rng(13))


def test_snr_labels_are_uniform_chi_square(tiny_corpus):
    spec = BatchSpec(size=10000, seconds=0.12)
    batch = sample_batch(tiny_corpus, spec, np.random.default_rng(14))
    counts = np.bincount([smp.cluster_label for smp in batch], minlength=4)
    expected = len(batch) / 4.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # chi-square critical value, 3 dof, alpha = 0.001
    assert chi2 < 16.27, counts


def test_same_seed_reproduces_batch(tiny_corpus):
    spec = BatchSpec(size=8, seconds=1.0)
    a = sample_batch(tiny_corpus, spec, np.random.default_rng(15))
    b = sample_batch(tiny_corpus, spec, np.random.default_rng(15))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x)
        assert sa.snr_db == sb.snr_db and sa.cluster_label == sb.cluster_label


def reference_batch(corpus, spec, rng):
    """sample_batch's draws in its order, with every snippet cut by
    unit_rms_crop, which recomputes the source RMS on each call."""
    levels = tuple(sorted(spec.snr_set))
    speech, noise = corpus.speech("train"), corpus.noise("train")
    out = []
    for _ in range(spec.size):
        sp = speech[int(rng.integers(0, len(speech)))]
        nz = noise[int(rng.integers(0, len(noise)))]
        snr = levels[int(rng.integers(0, len(levels)))]
        s = unit_rms_crop(corpus.load(sp), spec.seconds, rng)
        n = unit_rms_crop(corpus.load(nz), spec.seconds, rng)
        out.append(mix_at_snr(s, n, snr, cluster_label=levels.index(snr)))
    return out


def test_cached_source_rms_leaves_batches_unchanged(tiny_corpus):
    spec = BatchSpec(size=16, seconds=0.5)
    for seed in (21, 22):  # the second batch reads RMS values cached by the first
        got = sample_batch(tiny_corpus, spec, np.random.default_rng(seed))
        want = reference_batch(tiny_corpus, spec, np.random.default_rng(seed))
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.n, b.n)
            assert a.snr_db == b.snr_db and a.cluster_label == b.cluster_label
    # the cached value is the whole source's RMS, which sets the silence rule
    for item in tiny_corpus.speech("train") + tiny_corpus.noise("train"):
        w = tiny_corpus.load(item)
        assert tiny_corpus.source_rms(item) == np.sqrt(np.mean(np.square(w, dtype=np.float64)))


def test_batch_from_a_silent_source_raises(tmp_path):
    save_wav(tmp_path / "speech.wav", np.zeros(20000))
    save_wav(tmp_path / "noise.wav", np.full(20000, 0.25))
    corpus = Corpus([data.SpeechItem(str(tmp_path / "speech.wav"), "spk", "male", "train")],
                    [data.NoiseItem(str(tmp_path / "noise.wav"), "train")])
    for _ in range(2):  # the cached RMS keeps the rule
        with pytest.raises(ValueError, match="source is silent"):
            sample_batch(corpus, BatchSpec(size=2), np.random.default_rng(23))


def test_gender_latent_labels_and_filter(tiny_corpus):
    spec = BatchSpec(size=12, latent="gender", seconds=1.0)
    batch = sample_batch(tiny_corpus, spec, np.random.default_rng(16))
    for smp in batch:
        assert smp.cluster_label == data.GENDERS.index(smp.gender)
    only_male = BatchSpec(size=6, gender="male", latent="gender", seconds=1.0)
    batch = sample_batch(tiny_corpus, only_male, np.random.default_rng(17))
    assert all(smp.gender == "male" for smp in batch)


def test_speech_without_gender_under_the_gender_latent_names_the_item(tmp_path):
    save_wav(tmp_path / "speech.wav", np.full(20000, 0.25))
    save_wav(tmp_path / "noise.wav", np.full(20000, 0.25))
    corpus = Corpus([data.SpeechItem(str(tmp_path / "speech.wav"), "spk", None, "train")],
                    [data.NoiseItem(str(tmp_path / "noise.wav"), "train")])
    with pytest.raises(ValueError, match="speech.wav: gender None is none of the clusters"):
        sample_batch(corpus, BatchSpec(size=2, latent="gender"), np.random.default_rng(24))


def test_empty_filtered_corpus_raises(tiny_corpus):
    spec = BatchSpec(size=4, gender="robot", seconds=1.0)
    with pytest.raises(ValueError, match="empty corpus"):
        sample_batch(tiny_corpus, spec, np.random.default_rng(18))


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def autocorr_pitch(w, lo_hz=70.0, hi_hz=320.0, win=4000):
    """Test-side oracle: fundamental from the autocorrelation peak.

    Uses short windows (pitch is only locally stationary) and keeps the most
    periodic one.
    """
    lo = int(data.SAMPLE_RATE / hi_hz)
    hi = int(data.SAMPLE_RATE / lo_hz)
    best = (0.0, -1.0)
    for start in range(0, w.shape[0] - win + 1, win):
        seg = w[start : start + win] - w[start : start + win].mean()
        denom = float(np.dot(seg, seg))
        if denom == 0.0:
            continue
        ac = np.correlate(seg, seg, mode="full")[win - 1 :] / denom
        lag = lo + int(np.argmax(ac[lo:hi]))
        if ac[lag] > best[1]:
            best = (data.SAMPLE_RATE / lag, float(ac[lag]))
    return best


def spectral_flatness(w):
    mag2 = np.abs(np.fft.rfft(w)) ** 2 + 1e-12
    return float(np.exp(np.mean(np.log(mag2))) / np.mean(mag2))


def test_generator_counts_and_balanced_genders(tmp_path):
    corpus = generate_synthetic_corpus(SynthSpec(
        out_dir=str(tmp_path / "c"), speakers=10, utterances=10, noises=6,
        test_speakers=2, test_utterances=1, test_noises=2,
        min_seconds=1.2, max_seconds=1.5, seed=0))
    train_like = corpus.speech("train") + corpus.speech("val")
    assert len(train_like) == 100
    genders = [it.gender for it in train_like]
    assert genders.count("male") == genders.count("female") == 50


def test_speech_pitch_classes_match_labels(tiny_corpus):
    for item in tiny_corpus.speech_items[:6]:
        w = tiny_corpus.load(item)
        f0, peak = autocorr_pitch(w[: data.SAMPLE_RATE])
        assert peak > 0.4  # strongly periodic
        if item.gender == "male":
            assert f0 < 160.0
        else:
            assert f0 > 160.0


def test_noise_has_no_harmonic_structure(tiny_corpus):
    # harmonic signals stay correlated across a full second; noise textures
    # (even narrowband ones) decorrelate, so the long-window peak stays low
    speech_item = tiny_corpus.speech_items[0]
    speech_flatness = spectral_flatness(tiny_corpus.load(speech_item)[:16000])
    for item in tiny_corpus.noise_items[:4]:
        w = tiny_corpus.load(item)
        _, peak = autocorr_pitch(w[:16000], win=16000)
        assert peak < 0.5
        assert spectral_flatness(w[:16000]) > 10.0 * speech_flatness


def test_splits_are_disjoint(tiny_corpus):
    by_split = {
        split: {it.speaker for it in tiny_corpus.speech(split)}
        for split in ("train", "val", "test")
    }
    assert by_split["train"] | by_split["val"]  # nonempty
    assert not (by_split["train"] | by_split["val"]) & by_split["test"]
    noise = {split: {it.path for it in tiny_corpus.noise(split)}
             for split in ("train", "val", "test")}
    assert not (noise["train"] | noise["val"]) & noise["test"]
    assert not noise["train"] & noise["val"]


def test_validation_is_five_percent_of_training(tmp_path):
    corpus = generate_synthetic_corpus(SynthSpec(
        out_dir=str(tmp_path / "v"), speakers=5, utterances=8, noises=20,
        test_speakers=1, test_utterances=1, test_noises=1,
        min_seconds=1.2, max_seconds=1.4, seed=3))
    n_train = len(corpus.speech("train"))
    val_items = corpus.speech("val")
    assert n_train + len(val_items) == 40
    # every 20th item per gender group: 24 male -> 2, 16 female -> 1
    assert len(val_items) == 3
    assert {it.gender for it in val_items} == {"male", "female"}
    assert len(corpus.noise("val")) == 1


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def test_manifest_from_tree_and_corpus_load(tmp_path):
    root = tmp_path / "tree"
    for spk, gender in (("spk_a", "male"), ("spk_b", "female")):
        d = root / "speech" / spk
        d.mkdir(parents=True)
        save_wav(d / "u0.wav", np.random.default_rng(0).uniform(-0.1, 0.1, 18000))
    (root / "noise").mkdir()
    save_wav(root / "noise" / "n0.wav", np.random.default_rng(1).uniform(-0.1, 0.1, 18000))
    manifest = manifest_from_tree(root / "speech", root / "noise", split="train",
                                  gender_map={"spk_a": "male", "spk_b": "female"})
    with open(root / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    corpus = Corpus.from_manifest(root / "manifest.json")
    items = corpus.speech("train") + corpus.speech("val")
    assert {it.speaker for it in items} == {"spk_a", "spk_b"}
    assert {it.gender for it in items} == {"male", "female"}
    assert len(corpus.noise("train")) + len(corpus.noise("val")) == 1


# ---------------------------------------------------------------------------
# the subproblem partition
# ---------------------------------------------------------------------------


def test_clusters_are_the_levels_ascending_or_the_genders():
    assert data.clusters("snr", (10.0, -5.0, 5, 0.0)) == (-5.0, 0.0, 5, 10.0)
    assert data.clusters("gender", (10.0, -5.0)) == data.GENDERS == ("male", "female")


@pytest.mark.parametrize("latent, snr_set, message", [
    ("Gender", data.SNR_SET, "unknown latent 'Gender'"),
    ("snr", (), r"snr_set \[\] must hold"), ("gender", (), r"snr_set \[\] must hold"),
    ("snr", (0, 0, 5), "none repeated"), ("gender", (5.0, 0.0, 5.0), "none repeated"),
    ("snr", (0.0, -0.0), "none repeated"),
])
def test_clusters_reject_an_unknown_latent_and_an_empty_or_repeated_snr_set(
        latent, snr_set, message):
    with pytest.raises(ValueError, match=message):
        data.clusters(latent, snr_set)
    with pytest.raises(ValueError, match=message):
        data.cluster_of(latent, snr_set, 0.0, "male")


def test_cluster_of_indexes_the_clusters():
    snr_set = (10.0, -5.0, 0.0, 5.0)
    assert [data.cluster_of("snr", snr_set, lvl, "female") for lvl in (-5, 0, 5, 10)] == [
        0, 1, 2, 3]
    assert [data.cluster_of("gender", snr_set, 10.0, g) for g in ("male", "female")] == [0, 1]
    with pytest.raises(ValueError, match="snr 3.0 is none of the clusters"):
        data.cluster_of("snr", snr_set, 3.0, "male")
    with pytest.raises(ValueError, match="gender None is none of the clusters"):
        data.cluster_of("gender", snr_set, 0.0, None)


@pytest.mark.parametrize("latent, index, restriction", [
    ("snr", 0, {"fixed_snr": -5.0}), ("snr", 3, {"fixed_snr": 10.0}),
    ("gender", 1, {"gender": "female"}),
])
def test_spec_of_a_cluster_draws_only_that_cluster(tiny_corpus, latent, index, restriction):
    spec = BatchSpec(size=8, latent=latent, snr_set=(10.0, 5.0, 0.0, -5.0)).of_cluster(index)
    assert spec == BatchSpec(size=8, latent=latent, snr_set=(10.0, 5.0, 0.0, -5.0),
                             **restriction)
    batch = sample_batch(tiny_corpus, spec, np.random.default_rng(25))
    assert {smp.cluster_label for smp in batch} == {index}


@pytest.mark.parametrize("latent, index", [("snr", -1), ("snr", 4), ("gender", 2),
                                            ("gender", -2)])
def test_spec_of_a_cluster_rejects_an_index_outside_the_partition(latent, index):
    with pytest.raises(ValueError, match=f"cluster {index} is not an index"):
        BatchSpec(latent=latent).of_cluster(index)
