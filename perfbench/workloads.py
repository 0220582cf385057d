"""The benchmark's three workloads: ``pretrain``, ``finetune`` and ``denoise``.

Each workload generates every input from the workload seed (a synthetic
corpus via ``data.generate_synthetic_corpus`` plus seeded model
initialisation), warms the program up during set-up, and then runs
identical *rounds* of operations.  An operation is a training step, a
``denoise`` call or an evaluated mixture.  Every round checks its outputs
(finite losses, finite waveforms of the expected coverage length) and
fingerprints them; the fingerprints of one operation must agree across all
rounds of a run.

Each workload reports the same end-to-end metrics, defined per workload:

* ``primary_per_s`` -- operations per second on the path the workload
  stresses;
* ``control_per_s`` -- operations per second on a path that shares most of
  that code but not the part under test;
* ``quality_db`` -- an SI-SDR improvement that changes only if the
  arithmetic changes.

plus named figures (``spec_steps_per_s``, ``denoise_rtf_p90``, ...) printed
in the report line.
"""

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from smle import checkpoint, data, dsp, models, pipeline

SAMPLE_RATE = data.SAMPLE_RATE
# The corpus content is the same for every workload seed: how well a desk
# budget trains depends strongly on the generated voices and noises, so a
# seeded corpus would bury the quality figures under corpus-to-corpus
# spread.  The workload seed drives everything drawn at run time instead:
# model initialisation, batch sampling, validation draws, test mixtures.
# The specialist that pretrain scores, the finetune workload's training,
# and the denoise workload's scored model and scored mixtures, also come
# from this seed.
CORPUS_SEED = 20050818


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; :data:`FULL` is the benchmark."""

    train_corpus: dict
    denoise_corpus: dict  # train split for the desk specialist, test split to denoise
    spec: pipeline.TrainConfig
    gate: pipeline.TrainConfig
    finetune: pipeline.TrainConfig
    desk: pipeline.TrainConfig  # the model that denoise scores
    paper_spec_hidden: int
    paper_gate_hidden: int
    mixtures: int
    mixture_seconds: tuple  # shortest and longest test mixture
    warmup_steps: int = 2


FULL = Sizes(
    # Short utterances keep corpus generation cheap; the generated test split
    # becomes a speaker- and noise-disjoint validation split, so validation
    # scores do not hinge on the one or two items the 5% carve would give.
    train_corpus=dict(speakers=32, utterances=2, noises=48, test_speakers=8,
                      test_utterances=2, test_noises=16, min_seconds=1.1, max_seconds=1.6),
    denoise_corpus=dict(speakers=8, utterances=2, noises=8, test_speakers=6,
                        test_utterances=2, test_noises=8, min_seconds=3.5, max_seconds=4.0),
    spec=pipeline.TrainConfig(hidden=16, layers=2, batch_size=64, max_steps=40,
                              validate_every=20, learning_rate=0.003, val_batches=4),
    gate=pipeline.TrainConfig(hidden=16, layers=2, batch_size=64, max_steps=80,
                              validate_every=20, learning_rate=0.005),
    finetune=pipeline.TrainConfig(hidden=16, layers=2, batch_size=48, max_steps=5,
                                  validate_every=5, learning_rate=0.01, val_batches=1),
    desk=pipeline.TrainConfig(hidden=16, layers=1, batch_size=16, max_steps=30,
                              validate_every=30, learning_rate=0.02, val_batches=1,
                              snippet_seconds=0.5, seed=CORPUS_SEED),
    paper_spec_hidden=512,
    paper_gate_hidden=128,
    mixtures=24,
    mixture_seconds=(2.0, 3.5),
)

TINY = Sizes(
    train_corpus=dict(speakers=4, utterances=2, noises=4, test_speakers=2,
                      test_utterances=1, test_noises=2, min_seconds=1.1, max_seconds=1.2),
    denoise_corpus=dict(speakers=1, utterances=2, noises=2, test_speakers=2,
                        test_utterances=1, test_noises=2, min_seconds=1.3, max_seconds=1.4),
    spec=pipeline.TrainConfig(hidden=4, layers=1, batch_size=4, max_steps=2,
                              validate_every=1, val_batches=1),
    gate=pipeline.TrainConfig(hidden=4, layers=1, batch_size=4, max_steps=2,
                              validate_every=1, val_batches=1),
    finetune=pipeline.TrainConfig(hidden=4, layers=1, batch_size=4, max_steps=1,
                                  validate_every=1, val_batches=1),
    desk=pipeline.TrainConfig(hidden=4, layers=1, batch_size=4, max_steps=2,
                              validate_every=2, val_batches=1, seed=CORPUS_SEED),
    paper_spec_hidden=8,
    paper_gate_hidden=4,
    mixtures=3,
    mixture_seconds=(1.0, 1.2),
    warmup_steps=1,
)


@dataclass
class Op:
    """One timed operation group of a round."""

    kind: str
    seconds: float
    count: int  # operations attempted
    failed: int = 0
    digest: str = ""
    values: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=float).encode())
    return h.hexdigest()


def _params_digest(*nets):
    return _digest(*[arr for net in nets for _, arr in net.param_items()])


def make_corpus(spec_kw, out_dir, val_from_test):
    """Generate the synthetic corpus; optionally relabel its test split as
    validation, so the trainers validate on unseen speakers and noises."""
    data.generate_synthetic_corpus(
        data.SynthSpec(out_dir=str(out_dir), seed=CORPUS_SEED, **spec_kw))
    manifest_path = Path(out_dir) / "manifest.json"
    if val_from_test:
        manifest = json.loads(manifest_path.read_text())
        for section in ("speech", "noise"):
            for meta in manifest[section].values():
                if meta["split"] == "test":
                    meta["split"] = "val"
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    corpus = data.Corpus.from_manifest(manifest_path)
    # fill Corpus.load's cache now, so reading WAVs is set-up work
    for item in corpus.speech_items + corpus.noise_items:
        corpus.load(item)
    return corpus


def check_waveform(x, y, frame_size, hop):
    """Error text if ``y`` is not a finite estimate of the expected coverage
    length for input ``x``, else None."""
    expected = dsp.coverage_length(dsp.num_frames(len(x), frame_size, hop), frame_size, hop)
    if y.shape != (expected,):
        return f"output shape {y.shape}, expected ({expected},)"
    if not np.all(np.isfinite(y)):
        return "non-finite output samples"
    return None


def _train_op(kind, fn, config, nets_of, quality_key):
    """Run one trainer call as an Op of ``config.max_steps`` steps; returns
    the Op and the trained result (None if the trainer raised)."""
    t0 = time.perf_counter()
    try:
        result, history = fn()
    except (RuntimeError, ValueError, FloatingPointError) as exc:
        return Op(kind, time.perf_counter() - t0, config.max_steps, config.max_steps,
                  errors=[f"{kind}: {exc!r}"]), None
    seconds = time.perf_counter() - t0
    losses = np.asarray(history["loss"], dtype=np.float64)
    vals = np.asarray(history[quality_key], dtype=np.float64)
    errors = []
    if losses.size != config.max_steps:
        errors.append(f"{kind}: ran {losses.size} of {config.max_steps} steps")
    if not (np.all(np.isfinite(losses)) and np.all(np.isfinite(vals))):
        errors.append(f"{kind}: non-finite loss or validation score")
    failed = config.max_steps if errors else 0
    digest = _digest(losses, vals, _params_digest(*nets_of(result)))
    return Op(kind, seconds, max(losses.size, config.max_steps), failed, digest,
              {"best": float(np.max(vals)), "steps": int(losses.size)}, errors), result


def _denoise_op(kind, model, mixtures):
    """Hard-gated ``denoise`` over each mixture, timed one call at a time."""
    times, outs, errors = [], [], []
    failed = 0
    for i, x in enumerate(mixtures):
        t0 = time.perf_counter()
        try:
            y, rep = models.denoise(model, x)
        except ValueError as exc:
            times.append(time.perf_counter() - t0)
            failed += 1
            errors.append(f"{kind}[{i}]: {exc!r}")
            continue
        times.append(time.perf_counter() - t0)
        problem = check_waveform(x, y, model.frame_size, model.hop)
        if problem is None and not 0 <= rep.chosen_specialist < model.k:
            problem = f"chosen specialist {rep.chosen_specialist} out of range"
        if problem:
            failed += 1
            errors.append(f"{kind}[{i}]: {problem}")
        outs.append(y)
    rtf = [t / (len(x) / SAMPLE_RATE) for t, x in zip(times, mixtures)]
    return Op(kind, sum(times), len(mixtures), failed, _digest(*outs),
              {"rtf": rtf, "call_s": times}, errors)


class Workload:
    """Set-up plus identical rounds; subclasses define both and the metrics."""

    name = ""
    blas_threads = None  # None keeps the BLAS library's default
    min_rounds = 2

    def __init__(self, seed, sizes=FULL):
        self.seed = seed
        self.sizes = sizes

    def setup(self, workdir):
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def metrics(self, rounds):
        """(end-to-end metrics, named report figures) from the rounds."""
        raise NotImplementedError


def _rate(rounds, kind):
    """Median over rounds of operations per second for one Op kind (NaN if
    no such op ran)."""
    rates = [op.count / op.seconds for r in rounds for op in r if op.kind == kind]
    return statistics.median(rates) if rates else float("nan")


def _value(rounds, kind, key):
    """A deterministic value of one Op kind (NaN if every such op failed)."""
    return next((op.values[key] for r in rounds for op in r
                 if op.kind == kind and key in op.values), float("nan"))


class Pretrain(Workload):
    """Specialist pre-training on one SNR cluster, then gate training."""

    name = "pretrain"
    cluster = 0  # the -5 dB specialist: the most room to improve

    def setup(self, workdir):
        s = self.sizes
        self.corpus = make_corpus(s.train_corpus, workdir / "corpus", True)
        # With a seeded specialist, quality_db spread 0.05-0.18 (IQR/median)
        # over ten seeds; the seed drives the gate's training.
        self.spec_cfg = replace(s.spec, seed=CORPUS_SEED)
        self.gate_cfg = replace(s.gate, seed=self.seed)
        warm = dict(max_steps=s.warmup_steps, validate_every=1)
        pipeline.train_specialist(replace(self.spec_cfg, **warm), self.corpus, self.cluster)
        pipeline.train_gating(replace(self.gate_cfg, **warm), self.corpus)

    def run_round(self):
        spec, _ = _train_op(
            "spec", lambda: pipeline.train_specialist(self.spec_cfg, self.corpus, self.cluster),
            self.spec_cfg, lambda m: [m.net], "val_sisdri")
        gate, _ = _train_op(
            "gate", lambda: pipeline.train_gating(self.gate_cfg, self.corpus),
            self.gate_cfg, lambda m: [m.net], "val_accuracy")
        return [spec, gate]

    def metrics(self, rounds):
        spec, gate = _rate(rounds, "spec"), _rate(rounds, "gate")
        quality = _value(rounds, "spec", "best")
        named = {
            "spec_steps_per_s": (spec, "1/s"),
            "gate_steps_per_s": (gate, "1/s"),
            "spec_val_sisdri_db": (quality, "dB"),
            "gate_val_acc": (_value(rounds, "gate", "best"), "fraction"),
        }
        return {"primary_per_s": spec, "control_per_s": gate, "quality_db": quality}, named


class Finetune(Workload):
    """Joint fine-tuning of K specialists and a gate in chunks, each chunk
    followed by a hard-gated pass over validation mixtures."""

    name = "finetune"
    chunks = 4  # finetune_ensemble calls per round, each continuing the last
    val_batches = 2  # batches of mixtures in each timed validation pass

    def setup(self, workdir):
        s = self.sizes
        self.corpus = make_corpus(s.train_corpus, workdir / "corpus", True)
        # Fixed initialisation, batches and validation draws: after 20 steps
        # the validation SI-SDRi spread 0.15-0.26 (IQR/median) between
        # seeds, wider than a useful bound.  The seed draws the mixtures of
        # the validation passes.
        self.cfg = replace(s.finetune, seed=CORPUS_SEED)
        rng = np.random.default_rng(np.random.SeedSequence(CORPUS_SEED).spawn(2)[1])
        cfg = self.cfg
        self.specialists = [
            models.SpecialistModel.build(cfg.hidden, cfg.layers, cluster_id=k, rng=rng)
            for k in range(cfg.k)
        ]
        self.gate = models.GatingModel.build(cfg.hidden, cfg.layers, cfg.k, lam=cfg.lam, rng=rng)
        spec = data.BatchSpec(size=cfg.batch_size, snr_set=cfg.snr_set,
                              seconds=cfg.snippet_seconds)
        val_rng = np.random.default_rng(self.seed)
        self.val_mixtures = [smp.x for _ in range(self.val_batches)
                             for smp in data.sample_batch(self.corpus, spec, val_rng, split="val")]
        pipeline.finetune_ensemble(
            replace(cfg, max_steps=s.warmup_steps, validate_every=1, val_batches=1),
            self.specialists, self.gate, self.corpus)

    def run_round(self):
        """``chunks`` calls of ``finetune_ensemble``, each with its own
        batch seed and starting from the members the last one returned, so
        a round trains ``chunks * max_steps`` steps.  Each call
        is followed by a timed validation pass of the ensemble it returned:
        short interleaved pieces sample the host's speed, which drifts by
        tens of percent over a few seconds, evenly for both rates."""
        specialists, gate = self.specialists, self.gate
        ops = []
        for chunk in range(self.chunks):
            cfg = replace(self.cfg, seed=CORPUS_SEED + chunk)
            ft, tuned = _train_op(
                "finetune",
                lambda: pipeline.finetune_ensemble(cfg, specialists, gate, self.corpus),
                cfg, lambda e: [m.net for m in e.specialists] + [e.gate.net], "val_sisdri")
            ops.append(ft)
            if tuned is None:
                break
            ops.append(_denoise_op("validate", tuned, self.val_mixtures))
            specialists, gate = tuned.specialists, tuned.gate
        return ops

    def metrics(self, rounds):
        ft = _rate(rounds, "finetune")
        # The mixtures are all one second long, so the median call time
        # gives the rate.
        calls = [t for r in rounds for op in r if op.kind == "validate"
                 for t in op.values["call_s"]]
        val = 1.0 / statistics.median(calls) if calls else float("nan")
        # the best validation score of the last chunk, after every step ran
        chunks = [op for op in rounds[0] if op.kind == "finetune"]
        quality = (chunks[-1].values.get("best", float("nan"))
                   if len(chunks) == self.chunks else float("nan"))
        named = {
            "ft_steps_per_s": (ft, "1/s"),
            "ft_val_sisdri_db": (quality, "dB"),
            "ft_val_mixtures_per_s": (val, "1/s"),
        }
        return {"primary_per_s": ft, "control_per_s": val, "quality_db": quality}, named


def fixed_length_mixtures(corpus, count, seconds, seed):
    """Full-length test mixtures cut to a fixed grid of durations, so every
    seed gives the same amount of audio."""
    lo, hi = seconds
    mixtures = pipeline.build_test_mixtures(corpus, count, seed=seed)
    grid = np.linspace(lo, hi, count) if count > 1 else [hi]
    out = []
    for smp, sec in zip(mixtures, grid):
        n = int(round(sec * SAMPLE_RATE))
        out.append(replace(smp, x=smp.x[:n], s=smp.s[:n], n=smp.n[:n]))
    return out


class Denoise(Workload):
    """Hard-gated inference: paper-scale ``denoise`` from a reloaded
    checkpoint, and ``pipeline.evaluate`` of a trained desk-scale ensemble."""

    name = "denoise"
    # At the 2-thread default, paper-scale RTF spread about 20% between
    # runs on a 2-core host against about 5% with one thread, so this
    # workload pins OpenBLAS to one thread.
    blas_threads = 1
    # 5 rounds of 24 calls leave 12 RTF samples beyond the p90
    min_rounds = 5
    paper_parts = 2  # paper-scale passes per round, each followed by an evaluate call

    def setup(self, workdir):
        s = self.sizes
        k = len(data.SNR_SET)
        self.corpus = make_corpus(s.denoise_corpus, workdir / "corpus", False)
        self.inputs = [smp.x for smp in fixed_length_mixtures(
            self.corpus, s.mixtures, s.mixture_seconds, self.seed)]
        self.scored = fixed_length_mixtures(self.corpus, s.mixtures, s.mixture_seconds,
                                            CORPUS_SEED)
        paper_rng, gate_rng = (np.random.default_rng(q)
                               for q in np.random.SeedSequence(self.seed).spawn(2))
        paper = models.EnsembleModel(
            [models.SpecialistModel.build(s.paper_spec_hidden, 2, cluster_id=i, rng=paper_rng)
             for i in range(k)],
            models.GatingModel.build(s.paper_gate_hidden, 2, k, rng=paper_rng))
        path = workdir / "paper_ensemble.smle"
        checkpoint.save_model(paper, path)
        del paper
        self.paper = checkpoint.load_model(path)
        # An untrained mask scores about 0 dB, so the scored ensemble holds
        # one briefly trained all-SNR specialist behind every cluster; the
        # gate's choice then does not move the score.
        trained, _ = pipeline.train_specialist(s.desk, self.corpus, None)
        self.desk = models.EnsembleModel(
            [models.SpecialistModel(trained.net, cluster_id=i) for i in range(k)],
            models.GatingModel.build(16, 2, k, rng=gate_rng))
        for x in self.inputs[:2]:
            models.denoise(self.paper, x)
        # the scored mixtures have the same lengths as the inputs, so this
        # also fills the per-length overlap-add caches in dsp
        pipeline.evaluate({"desk": self.desk}, self.corpus, 0, mixtures=self.scored)

    def run_round(self):
        """The paper-scale inputs in ``paper_parts`` interleaved parts (each
        with the same spread of lengths), each part followed by one
        ``evaluate`` call, so both rates sample the host's drifting speed
        evenly through the run."""
        ops = []
        parts = self.paper_parts
        for part in range(parts):
            ops.append(_denoise_op("paper", self.paper, self.inputs[part::parts]))
            ops.append(self._evaluate_op())
        return ops

    def _evaluate_op(self):
        t0 = time.perf_counter()
        errors = []
        try:
            report = pipeline.evaluate({"desk": self.desk}, self.corpus, 0,
                                       mixtures=self.scored).to_json_dict()
        except ValueError as exc:
            report = None
            errors.append(f"evaluate: {exc!r}")
        seconds = time.perf_counter() - t0
        values = {}
        if report is not None:
            overall = {row["name"]: row["si_sdri_overall"] for row in report["models"]}
            if report["n_mixtures"] != len(self.scored):
                errors.append(f"evaluate scored {report['n_mixtures']} mixtures")
            if not all(np.isfinite(v) for v in overall.values()):
                errors.append("evaluate: non-finite SI-SDR improvement")
            values = {"desk_db": overall.get("desk", float("nan")),
                      "irm_db": overall.get("oracle_irm", float("nan"))}
        n = len(self.scored)
        return Op("evaluate", seconds, n, n if errors else 0, _digest(report), values, errors)

    def metrics(self, rounds):
        rtf = [v for r in rounds for op in r if op.kind == "paper" for v in op.values["rtf"]]
        paper_rate = _rate(rounds, "paper")
        evaluate = _rate(rounds, "evaluate")
        quality = _value(rounds, "evaluate", "desk_db")
        named = {
            "denoise_rtf_p50": (statistics.median(rtf), "s/s"),
            "denoise_rtf_p90": (float(np.percentile(rtf, 90)), "s/s"),
            "denoise_rtf_samples": (len(rtf), "count"),
            "paper_mixtures_per_s": (paper_rate, "1/s"),
            "eval_mixtures_per_s": (evaluate, "1/s"),
            "eval_desk_sisdri_db": (quality, "dB"),
            "eval_oracle_irm_sisdri_db": (_value(rounds, "evaluate", "irm_db"), "dB"),
        }
        return {"primary_per_s": paper_rate, "control_per_s": evaluate,
                "quality_db": quality}, named


WORKLOADS = {w.name: w for w in (Pretrain, Finetune, Denoise)}


def check_rounds(rounds):
    """Errors from the rounds' checks plus any operation whose digest differs
    from the one at the same place in the first round."""
    errors = [e for r in rounds for op in r for e in op.errors]
    first = [(op.kind, op.digest) for op in rounds[0]]
    for i, r in enumerate(rounds[1:], start=2):
        if len(r) != len(first):
            errors.append(f"round {i}: ran {len(r)} operations, round 1 ran {len(first)}")
        for j, (op, (kind, digest)) in enumerate(zip(r, first), start=1):
            if (op.kind, op.digest) != (kind, digest):
                errors.append(f"round {i}: {op.kind} #{j} outputs differ from round 1")
    return errors

