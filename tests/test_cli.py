import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smle import cli
from smle.checkpoint import load_model, save_model
from smle.data import load_wav, save_wav
from smle.models import EnsembleModel, GatingModel, IdentityMaskModel, SpecialistModel, denoise


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    rc = cli.main([
        "synth-corpus", "--out", str(root), "--speakers", "4", "--utterances", "2",
        "--noises", "6", "--test-speakers", "2", "--test-utterances", "1",
        "--test-noises", "2", "--seed", "9",
    ])
    assert rc == 0
    return root


def write_config(tmp_path, corpus_dir, **train_overrides):
    train = {"hidden": 4, "layers": 1, "batch_size": 6, "max_steps": 4,
             "validate_every": 2, "val_batches": 1}
    train.update(train_overrides)
    config = {
        "seed": 3,
        "corpus": str(corpus_dir / "manifest.json"),
        "output_dir": str(tmp_path / "out"),
        "train": train,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trian": {}}))
    with pytest.raises(cli.ConfigError, match="unknown config key 'trian'"):
        cli.load_config(path)


def test_nested_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"hiden": 4}}))
    with pytest.raises(cli.ConfigError, match="train.hiden"):
        cli.load_config(path)


def test_defaults_match_experiment_setup():
    config = cli.load_config()
    assert config["train"]["batch_size"] == 100
    assert config["train"]["learning_rate"] == 0.001
    assert config["train"]["lambda"] == 10.0
    assert config["stft"] == {"frame_size": 1024, "hop": 256}
    assert config["train"]["snr_set"] == [-5.0, 0.0, 5.0, 10.0]


def test_default_config_agrees_with_train_config_defaults():
    from smle.pipeline import TrainConfig

    train, stft = cli.DEFAULT_CONFIG["train"], cli.DEFAULT_CONFIG["stft"]
    fields = set(TrainConfig.__dataclass_fields__) - {"seed"}
    assert {"lam" if key == "lambda" else key for key in [*train, *stft]} == fields
    assert cli._train_config(cli.DEFAULT_CONFIG) == TrainConfig()


@pytest.mark.parametrize("doc, key", [
    ({"train": {"snr_set": 5}}, "train.snr_set"),
    ({"train": {"hidden": "8"}}, "train.hidden"),
])
def test_mistyped_config_value_exits_one_naming_the_key(tmp_path, corpus_dir, capsys, doc, key):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    rc = cli.main(["train-specialist", "--config", str(path),
                   "--corpus", str(corpus_dir / "manifest.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize("doc", [
    {"train": {"hidden": 8.0}}, {"train": {"hidden": True}}, {"seed": None},
    {"train": {"learning_rate": False}}, {"train": {"snr_set": [0.0, "5"]}},
    {"train": {"snr_set": [True, 5]}}, {"train": {"latent": 1}}, {"corpus": 3},
    {"output_dir": None}, {"stft": {"hop": 256.0}},
])
def test_config_values_must_match_the_default_type(tmp_path, doc):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.ConfigError, match="must be"):
        cli.load_config(path)


def test_config_accepts_ints_for_floats_and_a_null_corpus(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"corpus": None, "train": {
        "learning_rate": 1, "lambda": 10, "snr_set": [-5, 0, 5.5]}}))
    config = cli.load_config(path)
    assert config["train"]["snr_set"] == [-5, 0, 5.5] and config["corpus"] is None


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1}))
    monkeypatch.setenv("SMLE_SEED", "42")
    assert cli.load_config(path)["seed"] == 42
    # explicit flag wins over the environment
    assert cli.load_config(path, {"seed": 7})["seed"] == 7


def test_non_integer_env_seed_exits_one_naming_the_variable(tmp_path, corpus_dir, capsys,
                                                            monkeypatch):
    monkeypatch.setenv("SMLE_SEED", "abc")
    with pytest.raises(cli.ConfigError, match="SMLE_SEED must be an integer, got 'abc'"):
        cli.load_config()
    rc = cli.main(["mix", "--corpus", str(corpus_dir / "manifest.json"),
                   "--out", str(tmp_path / "mixes")])
    assert rc == 1
    assert "error: SMLE_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "mixes").exists()


def test_only_the_flags_given_override_their_config_keys(tmp_path, monkeypatch):
    args = cli.build_parser().parse_args(
        ["train-gate", "--seed", "7", "--hidden", "3", "--latent", "gender",
         "--output-dir", "d", "--out", "g.smle"])
    assert cli._overrides(args) == {"seed": 7, "train.hidden": 3, "train.latent": "gender",
                                    "output_dir": "d"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 1, "train": {"hidden": 5, "layers": 3}}))
    monkeypatch.setenv("SMLE_SEED", "42")
    config = cli.load_config(path, cli._overrides(args))
    assert (config["seed"], config["train"]["hidden"], config["train"]["layers"]) == (7, 3, 3)
    args = cli.build_parser().parse_args(["mix", "--out", "m"])
    assert cli._overrides(args) == {}
    assert cli.load_config(path, cli._overrides(args))["seed"] == 42


def test_bad_flags_exit_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-specialist", "--no-such-flag"])
    assert exc.value.code == 2


def test_importing_the_cli_loads_no_numpy():
    # --threads sets the BLAS variables in main, which works only while
    # numpy (and so the BLAS library) is not loaded yet
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, smle.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_threads_flag_sets_the_blas_variables(monkeypatch):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:  # monkeypatch restores each variable after the test
        monkeypatch.setenv(name, "7")
    seen = {}

    def record(args):
        seen.update((name, os.environ[name]) for name in names)
        return 0

    monkeypatch.setattr(cli, "cmd_mix", record)
    assert cli.main(["--threads", "1", "mix", "--out", "unused"]) == 0
    assert seen == dict.fromkeys(names, "1")


@pytest.mark.parametrize("count", ["0", "-2"])
def test_threads_below_one_is_a_usage_error(monkeypatch, capsys, count):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.setattr(cli, "cmd_mix", lambda args: pytest.fail("ran without a thread cap"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", count, "mix", "--out", "unused"])
    assert exc.value.code == 2
    assert f"argument --threads: must be at least 1, got {count}" in capsys.readouterr().err
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"


def test_runtime_failure_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = cli.main(["train-specialist", "--config", str(missing)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_synth_corpus_writes_manifest(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert len(manifest["speech"]) == 4 * 2 + 2 * 1
    assert len(manifest["noise"]) == 8


def test_mix_writes_wavs_and_index(tmp_path, corpus_dir):
    out = tmp_path / "mixes"
    rc = cli.main(["mix", "--corpus", str(corpus_dir / "manifest.json"),
                   "--out", str(out), "--count", "3", "--seed", "1"])
    assert rc == 0
    index = json.loads((out / "mixtures.json").read_text())
    assert len(index) == 3
    for entry in index:
        x = load_wav(out / entry["files"]["x"])
        s = load_wav(out / entry["files"]["s"])
        n = load_wav(out / entry["files"]["n"])
        assert x.shape == s.shape == n.shape
        # 16-bit quantization of x vs s + n
        assert np.abs(x - (s + n)).max() < 2.5 / 32768.0


def test_train_specialist_and_denoise_round_trip(tmp_path, corpus_dir):
    config = write_config(tmp_path, corpus_dir)
    rc = cli.main(["train-specialist", "--config", str(config), "--cluster", "0"])
    assert rc == 0
    out = tmp_path / "out"
    ckpt = out / "specialist0.smle"
    assert ckpt.exists()
    history = json.loads((out / "specialist0_history.json").read_text())
    assert len(history["loss"]) == 4
    model = load_model(ckpt)
    assert model.cluster_id == 0

    noisy = tmp_path / "noisy.wav"
    save_wav(noisy, np.random.default_rng(0).uniform(-0.4, 0.4, 20000))
    rc = cli.main(["denoise", "--in", str(noisy), "--out", str(tmp_path / "den.wav"),
                   "--model", str(ckpt)])
    assert rc == 0
    assert (tmp_path / "den.wav").exists()


def test_denoise_with_identity_model_is_noop(tmp_path, capsys):
    ckpt = tmp_path / "id.smle"
    save_model(IdentityMaskModel(), ckpt)
    x = np.random.default_rng(1).uniform(-0.4, 0.4, 20000).astype(np.float32)
    save_wav(tmp_path / "x.wav", x)
    rc = cli.main(["denoise", "--in", str(tmp_path / "x.wav"),
                   "--out", str(tmp_path / "y.wav"), "--model", str(ckpt)])
    assert rc == 0
    y = load_wav(tmp_path / "y.wav")
    lead = 1024 - 256
    x_q = load_wav(tmp_path / "x.wav")
    assert np.abs(y[lead:-lead] - x_q[: y.shape[0]][lead:-lead]).max() < 2.0 / 32768.0


def test_denoise_with_an_ensemble_prints_the_gate_choice(tmp_path, capsys):
    rng = np.random.default_rng(2)
    ens = EnsembleModel([SpecialistModel.build(4, 1, cluster_id=k, rng=rng) for k in range(2)],
                        GatingModel.build(4, 1, 2, latent="gender", rng=rng))
    save_model(ens, tmp_path / "ens.smle")
    save_wav(tmp_path / "x.wav", rng.uniform(-0.4, 0.4, 20000))
    rc = cli.main(["denoise", "--in", str(tmp_path / "x.wav"), "--out", str(tmp_path / "y.wav"),
                   "--model", str(tmp_path / "ens.smle")])
    assert rc == 0
    _, report = denoise(load_model(tmp_path / "ens.smle"), load_wav(tmp_path / "x.wav"))
    probs = ", ".join(f"{p:.4f}" for p in report.gate_probs)
    assert capsys.readouterr().out.splitlines()[0] == (
        f"chosen specialist: {report.chosen_specialist}  gate probs: [{probs}]")


def test_denoise_with_malformed_checkpoint_exits_one(tmp_path, capsys):
    ckpt = tmp_path / "id.smle"
    save_model(IdentityMaskModel(), ckpt)
    raw = ckpt.read_bytes()
    hlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header = json.loads(raw[16 : 16 + hlen])
    del header["model"]["hop"]
    blob = json.dumps(header).encode()
    ckpt.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + raw[16 + hlen :])
    save_wav(tmp_path / "x.wav", np.zeros(4096, dtype=np.float32))
    rc = cli.main(["denoise", "--in", str(tmp_path / "x.wav"),
                   "--out", str(tmp_path / "y.wav"), "--model", str(ckpt)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_denoise_with_truncated_checkpoint_exits_one(tmp_path, capsys):
    ckpt = tmp_path / "id.smle"
    save_model(IdentityMaskModel(), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:4])
    save_wav(tmp_path / "x.wav", np.zeros(4096, dtype=np.float32))
    rc = cli.main(["denoise", "--in", str(tmp_path / "x.wav"),
                   "--out", str(tmp_path / "y.wav"), "--model", str(ckpt)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_mix_without_corpus_names_the_flag(tmp_path, capsys):
    rc = cli.main(["mix", "--out", str(tmp_path / "mixes")])
    assert rc == 1
    assert "--corpus" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@pytest.mark.parametrize("mixtures", [4, 2])
def test_evaluate_emits_report_with_param_columns(tmp_path, corpus_dir, capsys, mixtures):
    ckpt = tmp_path / "id.smle"
    save_model(IdentityMaskModel(), ckpt)
    report_path = tmp_path / "report.json"
    rc = cli.main(["evaluate", "--corpus", str(corpus_dir / "manifest.json"),
                   "--models", f"identity={ckpt}", "--mixtures", str(mixtures),
                   "--report", str(report_path)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "active" in table and "identity" in table
    # strict JSON: a level that no mixture reached is left out, not NaN
    doc = json.loads(report_path.read_text(), parse_constant=_reject_constant)
    assert {"learned_params", "active_params", "learned_macs_per_frame",
            "active_macs_per_frame"} <= set(doc["models"][0])
    levels = ["-5", "0", "5", "10"]
    assert list(doc["models"][0]["si_sdri_per_snr"]) == levels[:mixtures]
    identity_row = next(line for line in table.splitlines() if line.startswith("identity"))
    assert identity_row.split()[1:5].count("nan") == 4 - mixtures


@pytest.mark.parametrize("spelling", ["path", "name=path"])
def test_evaluate_with_a_repeated_model_name_exits_one(tmp_path, corpus_dir, capsys, spelling):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.smle")
        save_model(IdentityMaskModel(), paths[-1])
    models = [str(p) for p in paths] if spelling == "path" else [f"x={p}" for p in paths]
    rc = cli.main(["evaluate", "--corpus", str(corpus_dir / "manifest.json"),
                   "--models", *models, "--mixtures", "4"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: --models: the name 'x' is given twice" in captured.err
    assert captured.out == ""


def test_evaluate_with_zero_mixtures_exits_one(tmp_path, corpus_dir, capsys):
    ckpt = tmp_path / "id.smle"
    save_model(IdentityMaskModel(), ckpt)
    rc = cli.main(["evaluate", "--corpus", str(corpus_dir / "manifest.json"),
                   "--models", str(ckpt), "--mixtures", "0"])
    assert rc == 1
    assert "error: n_mixtures must be >= 1" in capsys.readouterr().err


def test_evaluate_with_a_mismatched_ensemble_exits_one(tmp_path, corpus_dir, capsys):
    # three SNR specialists against the four default SNR levels
    rng = np.random.default_rng(0)
    ens = EnsembleModel([SpecialistModel.build(4, 1, cluster_id=i, rng=rng) for i in range(3)],
                        GatingModel.build(4, 1, 3, rng=rng))
    ckpt = tmp_path / "e3.smle"
    save_model(ens, ckpt)
    rc = cli.main(["evaluate", "--corpus", str(corpus_dir / "manifest.json"),
                   "--models", str(ckpt), "--mixtures", "4"])
    assert rc == 1
    assert "error: model 'e3': 3 specialists for 4 snr clusters" in capsys.readouterr().err


@pytest.mark.parametrize("swap", ["gate", "specialist"])
def test_finetune_with_a_checkpoint_of_the_wrong_kind_exits_one(tmp_path, corpus_dir, capsys,
                                                                 swap):
    rng = np.random.default_rng(0)
    spec, gate = tmp_path / "spec.smle", tmp_path / "gate.smle"
    save_model(SpecialistModel.build(4, 1, cluster_id=0, rng=rng), spec)
    save_model(GatingModel.build(4, 1, 2, rng=rng), gate)
    specialists, gate_arg = ([spec, spec], spec) if swap == "gate" else ([spec, gate], gate)
    rc = cli.main(["finetune", "--config", str(write_config(tmp_path, corpus_dir)),
                   "--specialists", *map(str, specialists), "--gate", str(gate_arg)])
    assert rc == 1
    expected = (f"error: {spec}: holds a specialist model, not a gating model" if swap == "gate"
                else f"error: {gate}: holds a gating model, not a specialist model")
    assert expected in capsys.readouterr().err


def test_train_gate_cli(tmp_path, corpus_dir):
    config = write_config(tmp_path, corpus_dir, max_steps=2)
    rc = cli.main(["train-gate", "--config", str(config), "--latent", "gender"])
    assert rc == 0
    gate = load_model(tmp_path / "out" / "gate.smle")
    assert gate.latent == "gender"
    assert gate.k == 2


def test_finetune_cli(tmp_path, corpus_dir):
    config = write_config(tmp_path, corpus_dir, max_steps=2, latent="gender")
    out = tmp_path / "out"
    for k in (0, 1):
        assert cli.main(["train-specialist", "--config", str(config),
                         "--cluster", str(k)]) == 0
    assert cli.main(["train-gate", "--config", str(config)]) == 0
    rc = cli.main([
        "finetune", "--config", str(config),
        "--specialists", str(out / "specialist0.smle"), str(out / "specialist1.smle"),
        "--gate", str(out / "gate.smle"),
    ])
    assert rc == 0
    ensemble = load_model(out / "ensemble.smle")
    assert ensemble.kind == "ensemble"
    assert ensemble.k == 2 and ensemble.mode == "hard"


def test_finetune_with_a_gate_of_another_latent_exits_one(tmp_path, corpus_dir, capsys):
    rng = np.random.default_rng(0)
    specs = [tmp_path / "spec0.smle", tmp_path / "spec1.smle"]
    for k, path in enumerate(specs):
        save_model(SpecialistModel.build(4, 1, cluster_id=k, rng=rng), path)
    save_model(GatingModel.build(4, 1, 2, latent="snr", rng=rng), tmp_path / "gate.smle")
    config = write_config(tmp_path, corpus_dir, latent="gender")
    rc = cli.main(["finetune", "--config", str(config), "--specialists", *map(str, specs),
                   "--gate", str(tmp_path / "gate.smle")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: a 2-way snr gate cannot route the 2 gender clusters")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_finetune_with_specialists_out_of_slot_order_exits_one(tmp_path, corpus_dir, capsys):
    rng = np.random.default_rng(0)
    specs = [tmp_path / f"specialist{k}.smle" for k in range(2)]
    for k, path in enumerate(specs):
        save_model(SpecialistModel.build(4, 1, cluster_id=k, rng=rng), path)
    save_model(GatingModel.build(4, 1, 2, latent="gender", rng=rng), tmp_path / "gate.smle")
    config = write_config(tmp_path, corpus_dir, latent="gender")
    rc = cli.main(["finetune", "--config", str(config), "--specialists", *map(str, specs[::-1]),
                   "--gate", str(tmp_path / "gate.smle")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: specialist slot 0 holds cluster_id 1, not 0")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


TRAINERS = (["train-specialist"], ["train-specialist", "--cluster", "0"], ["train-gate"])
PARTITION_DEFECTS = [
    *(({"latent": "Gender"}, command, "unknown latent 'Gender'")
      for command in (["train-specialist"], ["train-specialist", "--cluster", "1"],
                      ["train-gate"])),
    *(({"snr_set": snr_set}, command, f"snr_set {snr_set} must hold at least one SNR level")
      for snr_set in ([], [0, 0, 5]) for command in (*TRAINERS, ["mix"], ["evaluate"])),
    *(({}, ["train-specialist", "--cluster", cluster], f"cluster {cluster} is not an index")
      for cluster in ("-1", "7")),
]


@pytest.mark.parametrize("train, command, message", PARTITION_DEFECTS,
                         ids=[f"{json.dumps(train)} {' '.join(command)}"
                              for train, command, _ in PARTITION_DEFECTS])
def test_inputs_outside_the_partition_exit_one_and_write_no_checkpoint(
        tmp_path, corpus_dir, capsys, train, command, message):
    config = write_config(tmp_path, corpus_dir, **train)
    save_model(IdentityMaskModel(), tmp_path / "id.smle")
    extra = {"mix": ["--out", str(tmp_path / "mixes")],
             "evaluate": ["--models", str(tmp_path / "id.smle"), "--mixtures", "4"]}
    rc = cli.main([*command, "--config", str(config), *extra.get(command[0], [])])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "mixes").exists()


RANGE_DEFECTS = [
    ({"validate_every": 0}, [], "validate_every must be at least 1, got 0"),
    ({}, ["--hidden", "0"], "hidden must be at least 1, got 0"),
    ({"val_batches": 0}, [], "val_batches must be at least 1, got 0"),
    ({}, ["--batch-size", "0"], "batch_size must be at least 1, got 0"),
    ({"layers": 0}, [], "layers must be at least 1, got 0"),
    ({"learning_rate": -1}, [], "learning_rate must be a positive finite number, got -1"),
    ({"patience": -1}, [], "patience must not be negative, got -1"),
    ({}, ["--max-steps", "-1"], "max_steps must not be negative, got -1"),
    ({"lambda": 0}, [], "lambda must be a positive finite number, got 0"),
    ({"snippet_seconds": 0}, [],
     "snippet_seconds must be finite and span one frame of 1024 samples, got 0"),
]


@pytest.mark.parametrize("train, flags, message", RANGE_DEFECTS,
                         ids=[f"{json.dumps(train)} {' '.join(flags)}"
                              for train, flags, _ in RANGE_DEFECTS])
def test_out_of_range_training_values_exit_one_and_write_nothing(
        tmp_path, corpus_dir, capsys, train, flags, message):
    config = write_config(tmp_path, corpus_dir, **train)
    rc = cli.main(["train-specialist", "--config", str(config), *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_zero_max_steps_saves_the_initial_model(tmp_path, corpus_dir):
    config = write_config(tmp_path, corpus_dir, max_steps=0)
    assert cli.main(["train-specialist", "--config", str(config), "--cluster", "0"]) == 0
    history = json.loads((tmp_path / "out" / "specialist0_history.json").read_text())
    assert history["loss"] == [] and history["val_steps"] == [0] and history["best_step"] == 0
