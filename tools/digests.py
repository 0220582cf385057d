"""Digests of every artefact of a small seeded run, to check that a change
leaves training, checkpoints, denoising and evaluation bit for bit as
they were.

    PYTHONPATH=src python3 tools/digests.py
    PYTHONPATH=../parent/src python3 tools/digests.py   # another checkout
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/digests.py

It builds a seeded synthetic corpus in a temporary directory; trains at
8x2 every SNR specialist, the baseline, the SNR and gender gates and a
fine-tune of the SNR ensemble; and prints one sha256 per artefact (each
model's history, parameters and checkpoint bytes, the ``denoise`` outputs
of the hard, soft, specialist and identity models, one batched ``denoise``
of the hard ensemble over the mixtures cut to one length, an ``evaluate``
report, and one of the mixtures cut to lengths from 0.25 to 1.5 seconds,
so that the shorter ones fall inside the gate's decision window), then
the sha256 of all of them.  Matrix products round differently with the
BLAS thread count, so totals compare only at one thread count.
``digests("tiny")`` runs the same recipe on 4x1 nets in a few seconds.
"""

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

CORPORA = {
    "desk": dict(speakers=8, utterances=2, noises=8, test_speakers=4, test_utterances=2,
                 test_noises=4, min_seconds=1.2, max_seconds=2.0, seed=7),
    "tiny": dict(speakers=4, utterances=2, noises=4, test_speakers=2, test_utterances=1,
                 test_noises=2, min_seconds=1.1, max_seconds=1.3, seed=7),
}
# the trainers' settings, then fine-tuning's batch size and steps
TRAIN = {
    "desk": (dict(hidden=8, layers=2, batch_size=37, learning_rate=0.01, max_steps=20,
                  validate_every=5), dict(batch_size=33, max_steps=8)),
    "tiny": (dict(hidden=4, layers=1, batch_size=5, learning_rate=0.01, max_steps=2,
                  validate_every=1, val_batches=1), dict(batch_size=3, max_steps=1)),
}
MIXTURES = {"desk": 8, "tiny": 4}
# the range of lengths, in seconds, the mixtures of the second report are cut to
CUT_SECONDS = (0.25, 1.5)


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _json(obj):
    return json.dumps(obj, sort_keys=True).encode()


def _nets(model):
    if hasattr(model, "specialists"):
        return [m.net for m in model.specialists] + [model.gate.net]
    return [model.net]


def _params(model):
    return [chunk for net in _nets(model) for name, arr in net.param_items()
            for chunk in (name.encode(), str(arr.dtype).encode(), repr(arr.shape).encode(),
                          arr.tobytes())]


def digests(size="desk"):
    """``({artefact: sha256}, total)`` of one seeded run at ``size``."""
    import numpy as np

    from smle import checkpoint, data, models, pipeline

    train, finetune = TRAIN[size]
    snr = pipeline.TrainConfig(**train, seed=11)
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        corpus = data.generate_synthetic_corpus(data.SynthSpec(out_dir=tmp, **CORPORA[size]))

        def record(name, model, history):
            path = Path(tmp) / f"{name}.smle"
            checkpoint.save_model(model, path)
            found[f"{name}.history"] = _sha(_json(history))
            found[f"{name}.params"] = _sha(*_params(model))
            found[f"{name}.checkpoint"] = _sha(path.read_bytes())
            return model

        specialists = [record(f"specialist{k}",
                              *pipeline.train_specialist(replace(snr, seed=20 + k),
                                                         corpus, cluster_id=k))
                       for k in range(snr.k)]
        baseline = record("baseline", *pipeline.train_specialist(snr, corpus))
        gate = record("gate_snr", *pipeline.train_gating(replace(snr, seed=30), corpus))
        record("gate_gender", *pipeline.train_gating(replace(snr, seed=31, latent="gender"),
                                                     corpus))
        hard = record("finetuned", *pipeline.finetune_ensemble(
            replace(snr, seed=40, **finetune), specialists, gate, corpus))
        soft = models.EnsembleModel(hard.specialists, hard.gate, mode="soft",
                                    cluster_labels=hard.cluster_labels)
        mixtures = pipeline.build_test_mixtures(corpus, MIXTURES[size], snr.snr_set, seed=5)
        for name, model in [("hard", hard), ("soft", soft), ("specialist", specialists[0]),
                            ("identity", models.IdentityMaskModel())]:
            chunks = []
            for smp in mixtures:
                s_hat, report = models.denoise(model, smp.x)
                probs = None if report.gate_probs is None else report.gate_probs.tolist()
                chunks += [s_hat.tobytes(), _json([report.chosen_specialist, probs])]
            found[f"denoise.{name}"] = _sha(*chunks)
        length = min(smp.x.size for smp in mixtures)
        s_hat, report = models.denoise(hard, np.stack([smp.x[:length] for smp in mixtures]))
        found["denoise.hard_batch"] = _sha(s_hat.tobytes(), _json(
            [report.chosen_specialist.tolist(), report.gate_probs.tolist()]))
        scored = {"hard": hard, "soft": soft, "baseline": baseline}
        report = pipeline.evaluate(scored, corpus, 0, snr_set=snr.snr_set, mixtures=mixtures)
        found["evaluate"] = _sha(_json(report.to_json_dict()))
        cuts = [int(round(sec * data.SAMPLE_RATE))
                for sec in np.linspace(*CUT_SECONDS, len(mixtures))]
        short = [replace(smp, x=smp.x[:n], s=smp.s[:n], n=smp.n[:n])
                 for smp, n in zip(mixtures, cuts)]
        report = pipeline.evaluate(scored, corpus, 0, snr_set=snr.snr_set, mixtures=short)
        found["evaluate.short"] = _sha(_json(report.to_json_dict()))
    return found, _sha(*(f"{name}={value}\n".encode() for name, value in found.items()))


def main():
    import smle

    print(f"digests of smle in {Path(smle.__file__).parent}", file=sys.stderr)
    found, total = digests()
    for name, value in found.items():
        print(f"{value}  {name}")
    print(f"{total}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
