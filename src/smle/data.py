"""Corpus ingestion, snippet normalization, SNR-controlled mixing, and batch
sampling, plus a synthetic corpus generator so the whole pipeline runs
without external downloads.

Audio is mono 16-bit PCM WAV at 16 kHz throughout; anything else is
rejected rather than silently resampled.  A corpus is described by a JSON
manifest mapping relative file paths to metadata; 5% of the training items
(every 20th in sorted order) are held out as the validation split.

Batch producers are pure functions of (corpus, spec, rng), so concurrent
samplers simply use generators seeded from disjoint streams.
"""

import json
import wave
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
SNR_SET = (-5.0, 0.0, 5.0, 10.0)
GENDERS = ("male", "female")
LATENTS = ("snr", "gender")

# crops quieter than this fraction of the source RMS are considered silence
_SILENCE_FRAC = 1e-4
_VAL_EVERY = 20  # every 20th train item -> validation (5%)


def clusters(latent, snr_set):
    """The clusters of ``latent`` in index order: the levels of ``snr_set``
    ascending, or ``GENDERS``.

    Mixtures are drawn at the levels of ``snr_set`` under either latent, so
    it must hold at least one level and no level twice.
    """
    levels = tuple(sorted(snr_set))
    if not levels or len(set(levels)) != len(levels):
        raise ValueError(f"snr_set {list(snr_set)} must hold at least one SNR level, "
                         "none repeated")
    if latent not in LATENTS:
        raise ValueError(f"unknown latent {latent!r}: expected one of {LATENTS}")
    return levels if latent == "snr" else GENDERS


def cluster_of(latent, snr_set, snr_db, gender):
    """Cluster index of a mixture at ``snr_db`` of a ``gender`` speaker."""
    parts = clusters(latent, snr_set)
    value = snr_db if latent == "snr" else gender
    if value not in parts:
        raise ValueError(f"{latent} {value!r} is none of the clusters {parts}")
    return parts.index(value)


# ----------------------------------------------------------------------
# WAV I/O
# ----------------------------------------------------------------------


def load_wav(path):
    """Read a mono 16-bit PCM WAV at 16 kHz into float32 samples in [-1, 1).

    Integer samples are scaled by 1/32768; file format deviations raise
    instead of being converted.
    """
    with wave.open(str(path), "rb") as fh:
        if fh.getframerate() != SAMPLE_RATE:
            raise ValueError(f"{path}: sample rate {fh.getframerate()} != {SAMPLE_RATE}")
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono, got {fh.getnchannels()} channels")
        if fh.getsampwidth() != 2:
            raise ValueError(f"{path}: expected 16-bit PCM, got {8 * fh.getsampwidth()}-bit")
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0


def save_wav(path, samples):
    """Write float samples in [-1, 1) as mono 16-bit PCM WAV at 16 kHz."""
    x = np.asarray(samples, dtype=np.float64)
    ints = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(ints.tobytes())


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SpeechItem:
    path: str
    speaker: str
    gender: str | None
    split: str  # train | val | test


@dataclass(frozen=True)
class NoiseItem:
    path: str
    split: str


class Corpus:
    """Speech and noise inventories with split bookkeeping and a load cache."""

    def __init__(self, speech_items, noise_items, manifest_path=None):
        self.speech_items = list(speech_items)
        self.noise_items = list(noise_items)
        self.manifest_path = str(manifest_path) if manifest_path else None
        self._cache = {}
        self._rms = {}

    @classmethod
    def from_manifest(cls, manifest_path):
        manifest_path = Path(manifest_path)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        root = manifest_path.parent
        speech = [
            SpeechItem(
                path=str(root / rel),
                speaker=meta["speaker"],
                gender=meta.get("gender"),
                split=meta["split"],
            )
            for rel, meta in sorted(manifest["speech"].items())
        ]
        noise = [
            NoiseItem(path=str(root / rel), split=meta["split"])
            for rel, meta in sorted(manifest["noise"].items())
        ]
        return cls(
            _carve_validation(speech, key=lambda it: it.gender),
            _carve_validation(noise),
            manifest_path=manifest_path,
        )

    def speech(self, split, gender=None):
        items = [it for it in self.speech_items if it.split == split]
        if gender is not None:
            items = [it for it in items if it.gender == gender]
        return items

    def noise(self, split):
        return [it for it in self.noise_items if it.split == split]

    def load(self, item):
        w = self._cache.get(item.path)
        if w is None:
            w = load_wav(item.path)
            self._cache[item.path] = w
        return w

    def source_rms(self, item):
        """RMS of a whole item (the reference of the snippet silence rule),
        computed once."""
        rms = self._rms.get(item.path)
        if rms is None:
            rms = self._rms[item.path] = _rms(self.load(item))
        return rms


def _carve_validation(items, key=None):
    """Reassign every 20th sorted train item to the validation split.

    With ``key`` the count runs per group (e.g. per gender), so small
    corpora keep every group represented in validation.
    """
    out = []
    train_seen = {}
    for item in items:
        if item.split == "train":
            group = key(item) if key else None
            seen = train_seen.get(group, 0)
            if seen % _VAL_EVERY == 0:
                item = replace(item, split="val")
            train_seen[group] = seen + 1
        out.append(item)
    return out


def manifest_from_tree(speech_root, noise_root, split="train", gender_map=None):
    """Build manifest entries from speaker-folder speech and flat noise trees.

    ``speech_root`` holds one subdirectory per speaker with WAV files below
    it; ``noise_root`` holds WAV files.  ``gender_map`` optionally maps
    speaker directory names to "male"/"female".  Paths in the result are
    relative to the given roots' parents, so the manifest should be written
    next to them.
    """
    speech_root = Path(speech_root)
    noise_root = Path(noise_root)
    gender_map = gender_map or {}
    speech = {}
    for wav in sorted(speech_root.rglob("*.wav")):
        speaker = wav.relative_to(speech_root).parts[0]
        rel = str(wav.relative_to(speech_root.parent))
        speech[rel] = {"speaker": speaker, "gender": gender_map.get(speaker), "split": split}
    noise = {
        str(wav.relative_to(noise_root.parent)): {"split": split}
        for wav in sorted(noise_root.rglob("*.wav"))
    }
    return {"sample_rate": SAMPLE_RATE, "speech": speech, "noise": noise}


# ----------------------------------------------------------------------
# snippets and mixing
# ----------------------------------------------------------------------


def _rms(w):
    # np.mean's sum and division, without its Python wrapper
    return float(np.sqrt(np.add.reduce(np.square(w, dtype=np.float64), axis=None) / w.size))


def _crop_unit_rms(w, n, rng, source_rms):
    """Random crop of ``n`` samples scaled to unit RMS; ``source_rms`` is
    the RMS of all of ``w`` (:meth:`Corpus.source_rms`).

    Crops whose raw RMS falls below ``_SILENCE_FRAC`` of the source RMS are
    rejected and redrawn; a silent source raises.
    """
    w = np.asarray(w, dtype=np.float32)
    if w.shape[0] < n:
        raise ValueError(f"source too short: {w.shape[0]} samples < {n}")
    if source_rms == 0.0:
        raise ValueError("no usable snippet: source is silent")
    for _ in range(64):
        start = int(rng.integers(0, w.shape[0] - n + 1))
        crop = w[start : start + n]
        rms = _rms(crop)
        if rms >= _SILENCE_FRAC * source_rms:
            return crop / rms  # float32: a Python float does not promote it
    raise ValueError("no usable snippet: all crops silent")


@dataclass
class MixtureSample:
    """One noisy mixture with its clean parts; x == s + n holds sample-exact
    because n stores the already-scaled noise."""

    x: np.ndarray
    s: np.ndarray
    n: np.ndarray
    snr_db: float
    cluster_label: int
    speaker: str = ""
    gender: str | None = None
    noise_path: str = ""


def mix_at_snr(s, n, snr_db, cluster_label=0, **meta):
    """Mix unit-RMS speech and noise at the requested SNR.

    The noise is scaled by ``10**(-snr_db / 20)``, which realizes the SNR
    exactly for unit-RMS inputs.
    """
    s = np.asarray(s, dtype=np.float32)
    n = np.asarray(n, dtype=np.float32)
    if s.shape != n.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {n.shape}")
    for name, w in (("speech", s), ("noise", n)):
        rms = _rms(w)
        if abs(rms - 1.0) > 1e-3:
            raise ValueError(f"{name} must be unit RMS, got {rms:.6f}")
    return _mix(s, n, snr_db, cluster_label, **meta)


def _mix(s, n, snr_db, cluster_label, **meta):
    """:func:`mix_at_snr` of equal-length float32 unit-RMS crops
    (:func:`_crop_unit_rms`), which it does not check again."""
    gain = np.float32(10.0 ** (-snr_db / 20.0))
    n_scaled = gain * n
    return MixtureSample(
        x=s + n_scaled, s=s, n=n_scaled, snr_db=float(snr_db),
        cluster_label=cluster_label, **meta,
    )


@dataclass
class BatchSpec:
    """What to draw: size, SNR rule, optional gender filter, label space."""

    size: int = 100
    snr_set: tuple = SNR_SET
    fixed_snr: float | None = None
    gender: str | None = None
    latent: str = "snr"  # snr | gender
    seconds: float = 1.0

    def of_cluster(self, index):
        """This spec drawing only the mixtures of cluster ``index`` of its
        latent: at that SNR level, or from speakers of that gender."""
        parts = clusters(self.latent, self.snr_set)
        if index not in range(len(parts)):
            raise ValueError(f"cluster {index} is not an index of the {len(parts)} "
                             f"{self.latent} clusters {parts}")
        if self.latent == "snr":
            return replace(self, fixed_snr=parts[index])
        return replace(self, gender=parts[index])


def sample_batch(corpus, spec, rng, split="train"):
    """Draw ``spec.size`` independent mixtures, uniform over items and SNRs.

    Each mixture is labelled with its cluster (:func:`cluster_of`) under
    ``spec.latent``.  Output is a pure function of (corpus, spec, rng state).
    """
    snr_levels = clusters("snr", spec.snr_set)
    clusters(spec.latent, snr_levels)  # an unknown latent fails before any draw
    speech_items = corpus.speech(split, gender=spec.gender)
    noise_items = corpus.noise(split)
    if not speech_items or not noise_items:
        raise ValueError(
            f"empty corpus for split={split!r} gender={spec.gender!r}"
        )
    if spec.fixed_snr is not None and spec.fixed_snr not in snr_levels:
        raise ValueError(f"fixed_snr {spec.fixed_snr} is not in snr_set {snr_levels}")
    if not (np.isfinite(spec.seconds) and round(spec.seconds * SAMPLE_RATE) >= 1):
        raise ValueError(f"seconds must be finite and span one sample, got {spec.seconds}")
    n_samples = int(round(spec.seconds * SAMPLE_RATE))
    samples = []
    for _ in range(spec.size):
        sp = speech_items[int(rng.integers(0, len(speech_items)))]
        nz = noise_items[int(rng.integers(0, len(noise_items)))]
        if spec.fixed_snr is not None:
            snr = float(spec.fixed_snr)
        else:
            snr = snr_levels[int(rng.integers(0, len(snr_levels)))]
        s = _crop_unit_rms(corpus.load(sp), n_samples, rng, corpus.source_rms(sp))
        n = _crop_unit_rms(corpus.load(nz), n_samples, rng, corpus.source_rms(nz))
        try:
            label = cluster_of(spec.latent, snr_levels, snr, sp.gender)
        except ValueError as exc:
            raise ValueError(f"{sp.path}: {exc}") from None
        samples.append(_mix(s, n, snr, label,
                            speaker=sp.speaker, gender=sp.gender, noise_path=nz.path))
    return samples


def make_test_mixture(corpus, speech_item, noise_item, snr_db, rng, snr_set=SNR_SET):
    """Full-duration mixture: both sources cropped to the shorter length."""
    s_full = corpus.load(speech_item)
    n_full = corpus.load(noise_item)
    n_len = min(s_full.shape[0], n_full.shape[0])
    s = _crop_unit_rms(s_full, n_len, rng, corpus.source_rms(speech_item))
    n = _crop_unit_rms(n_full, n_len, rng, corpus.source_rms(noise_item))
    label = cluster_of("snr", snr_set, snr_db, speech_item.gender)
    return _mix(s, n, snr_db, label, speaker=speech_item.speaker,
                gender=speech_item.gender, noise_path=noise_item.path)


# ----------------------------------------------------------------------
# synthetic corpus
# ----------------------------------------------------------------------


@dataclass
class SynthSpec:
    """Counts and ranges for the generated stand-in corpus.

    "Speech" items are amplitude-modulated harmonic tone complexes whose
    fundamental encodes the speaker's pitch class (low 100-150 Hz labelled
    male, high 180-250 Hz labelled female); "noise" items are spectrally
    shaped Gaussian textures with no harmonic structure.
    """

    out_dir: str = "synth_corpus"
    speakers: int = 12
    utterances: int = 6
    noises: int = 30
    test_speakers: int = 6
    test_utterances: int = 4
    test_noises: int = 12
    min_seconds: float = 2.0
    max_seconds: float = 4.0
    seed: int = 0


_F0_RANGES = {"male": (100.0, 150.0), "female": (180.0, 250.0)}


def _tone_complex(rng, f0, seconds):
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    # slow glide plus mild vibrato keep harmonics off exact FFT bins
    glide = 1.0 + rng.uniform(-0.05, 0.05) * (t / t[-1])
    vibrato = 1.0 + 0.02 * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * glide * vibrato) / SAMPLE_RATE
    n_harm = min(int(7000.0 / (1.1 * f0)), 28)
    k = np.arange(1, n_harm + 1)
    amps = k.astype(np.float64) ** -rng.uniform(0.4, 1.4)
    # utterance-specific formant-like bumps over the harmonic frequencies
    fk = k * f0
    for _ in range(2):
        center = rng.uniform(300.0, 3200.0)
        width = rng.uniform(0.2, 0.6)
        amps = amps * (1.0 + rng.uniform(0.5, 3.0) * np.exp(
            -0.5 * ((np.log(fk) - np.log(center)) / width) ** 2
        ))
    # keep the fundamental dominant so the pitch class stays unambiguous
    amps[0] = max(amps[0], 0.8 * amps.max())
    sig = np.zeros(n)
    for i in range(n_harm):
        sig += amps[i] * np.sin(k[i] * phase + rng.uniform(0, 2 * np.pi))
    # syllable-rate modulation over a slower breath-like swell
    am_rate = rng.uniform(2.5, 5.0)
    env = 0.55 + 0.45 * np.sin(2 * np.pi * am_rate * t + rng.uniform(0, 2 * np.pi))
    env *= 1.0 + rng.uniform(0.0, 0.3) * np.sin(
        2 * np.pi * rng.uniform(0.4, 1.5) * t + rng.uniform(0, 2 * np.pi)
    )
    sig *= env
    sig *= rng.uniform(0.4, 0.7) / np.abs(sig).max()
    return sig.astype(np.float32)


def _noise_texture(rng, seconds):
    n = int(round(seconds * SAMPLE_RATE))
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE)
    shape = (freqs + 100.0) ** -rng.uniform(0.0, 1.5)
    # one or two broad spectral bumps; occasionally narrow enough to sound tonal-ish
    for _ in range(int(rng.integers(1, 3))):
        center = rng.uniform(200.0, 6500.0)
        width = rng.uniform(0.15, 1.2)
        shape = shape * (1.0 + rng.uniform(0.0, 4.0) * np.exp(
            -0.5 * ((np.log(freqs + 50.0) - np.log(center)) / width) ** 2
        ))
    shaped = np.fft.irfft(spec * shape, n=n)
    t = np.arange(n) / SAMPLE_RATE
    am_rate = rng.uniform(0.3, 2.5)
    depth = rng.uniform(0.1, 0.5)
    shaped *= 1.0 + depth * np.sin(2 * np.pi * am_rate * t + rng.uniform(0, 2 * np.pi))
    shaped *= rng.uniform(0.4, 0.7) / np.abs(shaped).max()
    return shaped.astype(np.float32)


def generate_synthetic_corpus(spec):
    """Write the synthetic corpus WAVs and manifest; returns the Corpus.

    Train and test speakers/noises are disjoint by construction; genders
    alternate across speakers so the labels stay balanced.
    """
    rng = np.random.default_rng(spec.seed)
    out = Path(spec.out_dir)
    (out / "speech").mkdir(parents=True, exist_ok=True)
    (out / "noise").mkdir(parents=True, exist_ok=True)
    speech_manifest = {}
    noise_manifest = {}

    def add_speakers(count, utt_count, split, start_idx):
        for i in range(count):
            idx = start_idx + i
            gender = GENDERS[idx % 2]
            lo, hi = _F0_RANGES[gender]
            f0 = rng.uniform(lo, hi)
            speaker = f"spk{idx:03d}"
            spk_dir = out / "speech" / speaker
            spk_dir.mkdir(exist_ok=True)
            for u in range(utt_count):
                seconds = rng.uniform(spec.min_seconds, spec.max_seconds)
                sig = _tone_complex(rng, f0, seconds)
                rel = f"speech/{speaker}/utt{u:03d}.wav"
                save_wav(out / rel, sig)
                speech_manifest[rel] = {"speaker": speaker, "gender": gender, "split": split}

    def add_noises(count, split, start_idx):
        for i in range(count):
            idx = start_idx + i
            seconds = rng.uniform(spec.min_seconds + 1.0, spec.max_seconds + 1.0)
            sig = _noise_texture(rng, seconds)
            rel = f"noise/noise{idx:03d}.wav"
            save_wav(out / rel, sig)
            noise_manifest[rel] = {"split": split}

    add_speakers(spec.speakers, spec.utterances, "train", 0)
    add_speakers(spec.test_speakers, spec.test_utterances, "test", spec.speakers)
    add_noises(spec.noises, "train", 0)
    add_noises(spec.test_noises, "test", spec.noises)

    manifest = {"sample_rate": SAMPLE_RATE, "speech": speech_manifest, "noise": noise_manifest}
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return Corpus.from_manifest(out / "manifest.json")
