"""Command-line entry point for corpus tools, training, denoising, and
evaluation.

Anything that affects results lives in a JSON run config (see
``DEFAULT_CONFIG``); flags override individual scalars and the ``SMLE_SEED``
environment variable overrides the configured seed.  Every run is
reproducible from the config plus seed alone.
"""

import argparse
import copy
import json
import os
import sys
from pathlib import Path

DEFAULT_CONFIG = {
    "seed": 0,
    "corpus": None,
    "output_dir": "runs",
    "stft": {"frame_size": 1024, "hop": 256},
    "train": {
        "hidden": 16,
        "layers": 2,
        "batch_size": 100,
        "learning_rate": 0.001,
        "lambda": 10.0,
        "max_steps": 500,
        "validate_every": 50,
        "patience": 10,
        "latent": "snr",
        "snr_set": [-5.0, 0.0, 5.0, 10.0],
        "snippet_seconds": 1.0,
        "val_batches": 2,
    },
    "eval": {"n_mixtures": 200},
}


class ConfigError(ValueError):
    pass


def load_config(path=None, overrides=None):
    """Merge defaults, the config file, env seed, and flag overrides.

    Unknown keys anywhere in the document, and values whose type does not
    match the default's, are rejected.
    """
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        _merge(config, user, trail="")
    env_seed = os.environ.get("SMLE_SEED")
    if env_seed is not None:
        try:
            config["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"SMLE_SEED must be an integer, got {env_seed!r}") from None
    for dotted, value in (overrides or {}).items():
        node = config
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return config


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _type_check(default, value):
    """Whether ``value`` may replace the config default ``default``, and
    what it must be: an int stands for a float, a bool for nothing else,
    and a null default (the corpus path) takes a string."""
    if default is None:
        return value is None or isinstance(value, str), "a string or null"
    if isinstance(default, list):
        return isinstance(value, list) and all(map(_is_number, value)), "a list of numbers"
    if isinstance(default, float):
        return _is_number(value), "a number"
    return type(value) is type(default), "an integer" if isinstance(default, int) else "a string"


def _merge(base, user, trail):
    for key, value in user.items():
        if key not in base:
            raise ConfigError(f"unknown config key {trail + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {trail + key!r} must be an object")
            _merge(base[key], value, trail + key + ".")
            continue
        fits, expected = _type_check(base[key], value)
        if not fits:
            raise ConfigError(f"config key {trail + key!r} must be {expected}, "
                              f"got {json.dumps(value)}")
        base[key] = value


def _train_config(config):
    from .pipeline import TrainConfig

    train = {"lam" if key == "lambda" else key: value for key, value in config["train"].items()}
    train["snr_set"] = tuple(train["snr_set"])
    try:
        return TrainConfig(**train, **config["stft"], seed=config["seed"])
    except ValueError as exc:  # name the key the user wrote, not the field
        message = str(exc)
        if message.startswith("lam "):
            message = "lambda" + message[3:]
        raise ValueError(message) from None


def _load_corpus(config):
    from .data import Corpus

    if not config.get("corpus"):
        raise ConfigError("no corpus manifest: pass --corpus or set 'corpus' in the config")
    return Corpus.from_manifest(config["corpus"])


def _save_trained(args, config, tag, model, history, label=None):
    """Save a trained model (to ``--out`` or ``<output_dir>/<tag>.smle``)
    and its history beside it in the output directory, and print where."""
    from .checkpoint import save_model

    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    ckpt = args.out or out / f"{tag}.smle"
    save_model(model, ckpt)
    with open(out / f"{tag}_history.json", "w") as fh:
        json.dump(history, fh, indent=1)
    score = (f"val accuracy {max(history['val_accuracy']):.3f}" if "val_accuracy" in history
             else f"val SI-SDRi {max(history['val_sisdri']):.2f} dB")
    print(f"saved {label or tag} to {ckpt} (best step {history['best_step']}, {score})")
    return 0


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_synth_corpus(args):
    from .data import SynthSpec, generate_synthetic_corpus

    # each flag's dest is a SynthSpec field; a flag not given keeps its default
    fields = {key: value for key, value in vars(args).items()
              if key in SynthSpec.__dataclass_fields__}
    corpus = generate_synthetic_corpus(SynthSpec(**fields))
    print(f"wrote {len(corpus.speech_items)} speech and {len(corpus.noise_items)} "
          f"noise files under {args.out_dir}")
    return 0


def cmd_mix(args):
    from .data import save_wav
    from .pipeline import build_test_mixtures

    config = load_config(args.config, _overrides(args))
    corpus = _load_corpus(config)
    snr_set = [args.snr] if args.snr is not None else config["train"]["snr_set"]
    mixtures = build_test_mixtures(corpus, args.count, snr_set, seed=config["seed"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    index = []
    for i, smp in enumerate(mixtures):
        # one shared headroom scale keeps x == s + n intact after quantization
        peak = max(abs(smp.x).max(), abs(smp.s).max(), abs(smp.n).max())
        scale = min(1.0, 0.95 / float(peak))
        files = {}
        for tag, wav in (("x", smp.x), ("s", smp.s), ("n", smp.n)):
            rel = f"mix{i:04d}_{tag}.wav"
            save_wav(out / rel, scale * wav)
            files[tag] = rel
        index.append(
            {
                "snr_db": smp.snr_db,
                "speaker": smp.speaker,
                "gender": smp.gender,
                "noise": Path(smp.noise_path).name,
                "scale": scale,
                "files": files,
            }
        )
    with open(out / "mixtures.json", "w") as fh:
        json.dump(index, fh, indent=1)
    print(f"wrote {len(mixtures)} mixtures to {out}")
    return 0


def cmd_train_specialist(args):
    from .pipeline import train_specialist

    config = load_config(args.config, _overrides(args))
    corpus = _load_corpus(config)
    model, history = train_specialist(_train_config(config), corpus, cluster_id=args.cluster)
    tag = "baseline" if args.cluster is None else f"specialist{args.cluster}"
    return _save_trained(args, config, tag, model, history)


def cmd_train_gate(args):
    from .pipeline import train_gating

    config = load_config(args.config, _overrides(args))
    corpus = _load_corpus(config)
    model, history = train_gating(_train_config(config), corpus)
    return _save_trained(args, config, "gate", model, history)


def _load_kind(path, kind):
    """The model saved at ``path``, which must be of ``kind``."""
    from .checkpoint import load_model

    model = load_model(path)
    if model.kind != kind:
        raise ValueError(f"{path}: holds a {model.kind} model, not a {kind} model")
    return model


def cmd_finetune(args):
    from .pipeline import finetune_ensemble

    config = load_config(args.config, _overrides(args))
    corpus = _load_corpus(config)
    tc = _train_config(config)
    specialists = [_load_kind(p, "specialist") for p in args.specialists]
    gate = _load_kind(args.gate, "gating")
    ensemble, history = finetune_ensemble(tc, specialists, gate, corpus)
    return _save_trained(args, config, "ensemble", ensemble, history,
                         label="fine-tuned ensemble")


def cmd_denoise(args):
    import numpy as np

    from .checkpoint import load_model
    from .data import load_wav, save_wav
    from .models import denoise

    model = load_model(args.model)
    x = load_wav(args.infile)
    s_hat, report = denoise(model, x)
    save_wav(args.out, s_hat)
    if report.gate_probs is not None:
        probs = ", ".join(f"{p:.4f}" for p in np.asarray(report.gate_probs))
        print(f"chosen specialist: {report.chosen_specialist}  gate probs: [{probs}]")
    print(
        f"wrote {args.out} ({s_hat.shape[0]} samples); active params "
        f"{report.active_params} of {report.learned_params} learned"
    )
    return 0


def cmd_evaluate(args):
    from .checkpoint import load_model
    from .pipeline import evaluate

    config = load_config(args.config, _overrides(args))
    corpus = _load_corpus(config)
    models = {}
    for item in args.models:
        if "=" in item:
            name, path = item.split("=", 1)
        else:
            name, path = Path(item).stem, item
        if name in models:
            raise ConfigError(f"--models: the name {name!r} is given twice")
        models[name] = load_model(path)
    n = config["eval"]["n_mixtures"] if args.mixtures is None else args.mixtures
    report = evaluate(models, corpus, n, snr_set=tuple(config["train"]["snr_set"]),
                      seed=config["seed"])
    print(report.to_table())
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=1)
        print(f"\nwrote report to {args.report}")
    return 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


def _overrides(args):
    """The config flags given on the command line, as {dotted config key: value}."""
    return {key: value for key, value in vars(args).items()
            if key.partition(".")[0] in DEFAULT_CONFIG}


def _add_config_flags(p, with_train=True):
    """``--config`` and the flags that override one config key each; a flag's
    dest is its dotted key, and a flag not given sets nothing."""
    p.add_argument("--config", help="JSON run config (defaults used when omitted)")
    flags = p.add_argument_group("config overrides", argument_default=argparse.SUPPRESS)
    flags.add_argument("--corpus", help="corpus manifest path")
    flags.add_argument("--seed", type=int, help="seed (flag beats SMLE_SEED)")
    flags.add_argument("--output-dir", help="output directory")
    if with_train:
        flags.add_argument("--hidden", dest="train.hidden", type=int,
                           help="hidden units per recurrent layer")
        flags.add_argument("--layers", dest="train.layers", type=int,
                           help="recurrent layer count")
        flags.add_argument("--batch-size", dest="train.batch_size", type=int)
        flags.add_argument("--max-steps", dest="train.max_steps", type=int)
        flags.add_argument("--latent", dest="train.latent", choices=["snr", "gender"],
                           help="cluster latent space")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="smle",
        description="Sparsely-gated ensemble speech denoiser: corpus tools, "
        "training, denoising, evaluation.",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="cap worker threads (sets BLAS thread env vars)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-corpus", help="generate the synthetic stand-in corpus",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", dest="out_dir", required=True)
    for flag in ("speakers", "utterances", "noises", "test-speakers", "test-utterances",
                 "test-noises", "seed"):
        p.add_argument(f"--{flag}", type=int)
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("mix", help="write test mixtures as WAV files")
    _add_config_flags(p, with_train=False)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--snr", type=float, help="fix one SNR instead of cycling the set")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("train-specialist", help="pre-train one specialist or the baseline")
    _add_config_flags(p)
    p.add_argument("--cluster", type=int, default=None,
                   help="cluster index; omit to train the generalist baseline")
    p.add_argument("--out", help="checkpoint path")
    p.set_defaults(func=cmd_train_specialist)

    p = sub.add_parser("train-gate", help="train the gating classifier")
    _add_config_flags(p)
    p.add_argument("--out", help="checkpoint path")
    p.set_defaults(func=cmd_train_gate)

    p = sub.add_parser("finetune", help="jointly fine-tune specialists plus gate")
    _add_config_flags(p)
    p.add_argument("--specialists", nargs="+", required=True,
                   help="specialist checkpoints in cluster order")
    p.add_argument("--gate", required=True, help="gate checkpoint")
    p.add_argument("--out", help="checkpoint path")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("denoise", help="denoise one WAV file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("evaluate", help="score models on test mixtures")
    _add_config_flags(p)
    p.add_argument("--models", nargs="+", required=True,
                   help="checkpoints, optionally name=path")
    p.add_argument("--mixtures", type=int, help="test mixture count")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
