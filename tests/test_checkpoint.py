import hashlib
import json

import numpy as np
import pytest

from smle.checkpoint import MAGIC, load_model, save_model
from smle.models import EnsembleModel, GatingModel, IdentityMaskModel, SpecialistModel
from smle.neural import DenseLayer, LstmLayer

FRAME, HOP = 256, 64
BINS = FRAME // 2 + 1


def build_specialist(seed=0):
    return SpecialistModel.build(4, 2, cluster_id=1, rng=np.random.default_rng(seed),
                                 frame_size=FRAME, hop=HOP)


def build_specialist_4x1():
    return SpecialistModel.build(4, 1, cluster_id=0, rng=np.random.default_rng(6),
                                 frame_size=FRAME, hop=HOP)


def build_gate(seed=1, k=2):
    return GatingModel.build(3, 1, k, lam=10.0, latent="gender",
                             rng=np.random.default_rng(seed), frame_size=FRAME, hop=HOP)


def build_ensemble(seed=2):
    specs = [
        SpecialistModel.build(4, 1, cluster_id=i, rng=np.random.default_rng(seed + i),
                              frame_size=FRAME, hop=HOP)
        for i in range(2)
    ]
    return EnsembleModel(specs, build_gate(seed + 10), mode="hard",
                         cluster_labels=["male", "female"])


def read_header(path):
    raw = open(path, "rb").read()
    hlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    return json.loads(raw[16 : 16 + hlen].decode()), raw[16 + hlen :]


@pytest.mark.parametrize("builder", [build_specialist, build_gate, build_ensemble,
                                     lambda: IdentityMaskModel(FRAME, HOP),
                                     build_specialist_4x1])
def test_save_load_save_is_byte_identical(tmp_path, builder):
    model = builder()
    p1 = tmp_path / "a.smle"
    p2 = tmp_path / "b.smle"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_specialist_reproduces_outputs_bitwise(tmp_path):
    model = build_specialist()
    save_model(model, tmp_path / "m.smle")
    clone = load_model(tmp_path / "m.smle")
    mag = np.abs(np.random.default_rng(3).standard_normal((BINS, 20))).astype(np.float32)
    assert np.array_equal(model.mask(mag), clone.mask(mag))


def test_loaded_gate_reproduces_outputs_bitwise(tmp_path):
    model = build_gate()
    save_model(model, tmp_path / "g.smle")
    clone = load_model(tmp_path / "g.smle")
    assert clone.latent == "gender"
    mag = np.abs(np.random.default_rng(4).standard_normal((BINS, 20))).astype(np.float32)
    assert np.array_equal(model.gate(mag).probs, clone.gate(mag).probs)


def test_loaded_ensemble_round_trip_behaviour(tmp_path):
    ens = build_ensemble()
    save_model(ens, tmp_path / "e.smle")
    clone = load_model(tmp_path / "e.smle")
    assert clone.mode == "hard"
    assert clone.cluster_labels == ["male", "female"]
    assert clone.k == 2
    mag = np.abs(np.random.default_rng(5).standard_normal((BINS, 30))).astype(np.float32)
    mask_a, dec_a = ens.mask_hard(mag)
    mask_b, dec_b = clone.mask_hard(mag)
    assert dec_a.chosen == dec_b.chosen
    assert np.array_equal(mask_a, mask_b)


def test_ensemble_manifest_lists_members_and_checksums(tmp_path):
    ens = build_ensemble()
    path = tmp_path / "e.smle"
    save_model(ens, path)
    header, payload = read_header(path)
    manifest = header["ensemble"]
    assert manifest["K"] == 2
    assert manifest["lambda"] == 10.0
    assert manifest["cluster_labels"] == ["male", "female"]
    names = [m["name"] for m in manifest["members"]]
    assert names == ["gate", "spec0", "spec1"]
    # recompute each member's checksum from its payload slice
    offset = 0
    slices = {}
    for spec in header["tensors"]:
        n = int(np.prod(spec["shape"]))
        member = spec["name"].split(".")[0]
        slices.setdefault(member, b"")
        slices[member] += payload[offset : offset + 4 * n]
        offset += 4 * n
    for member in manifest["members"]:
        assert member["checksum"] == hashlib.sha256(slices[member["name"]]).hexdigest()


def test_header_is_canonical_and_versioned(tmp_path):
    model = build_specialist()
    path = tmp_path / "m.smle"
    save_model(model, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int(np.frombuffer(raw[4:8], dtype="<u4")[0]) == 1
    header, _ = read_header(path)
    assert header["model"]["kind"] == "specialist"
    assert header["model"]["cluster_id"] == 1
    assert all(t["dtype"] == "float32" for t in header["tensors"])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.smle"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_bad_version_rejected(tmp_path):
    model = build_specialist()
    path = tmp_path / "m.smle"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = np.uint32(99).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_truncated_payload_rejected(tmp_path):
    model = build_specialist()
    path = tmp_path / "m.smle"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_model(path)


@pytest.mark.parametrize("length", range(17))
def test_prefix_truncation_raises_value_error_naming_the_file(tmp_path, length):
    path = tmp_path / "m.smle"
    save_model(build_specialist(), path)
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(ValueError, match="m.smle"):
        load_model(path)


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of ``path`` in place, keeping the payload."""
    header, payload = read_header(path)
    edit(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + np.uint64(len(blob)).tobytes() + blob + payload)


def test_flipped_payload_byte_names_the_member(tmp_path):
    path = tmp_path / "e.smle"
    save_model(build_ensemble(), path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01  # inside spec1.head.b, the last tensor
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum mismatch in ensemble member 'spec1'"):
        load_model(path)


@pytest.mark.parametrize("builder", [build_specialist_4x1, build_gate])
def test_single_model_header_carries_payload_checksum(tmp_path, builder):
    path = tmp_path / "m.smle"
    save_model(builder(), path)
    header, payload = read_header(path)
    assert header["model"]["checksum"] == hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("builder", [build_specialist_4x1, build_gate])
def test_flipped_single_model_payload_byte_raises_naming_the_file(tmp_path, builder):
    path = tmp_path / "flipped.smle"
    save_model(builder(), path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="flipped.smle: checksum mismatch"):
        load_model(path)


@pytest.mark.parametrize("builder", [build_specialist_4x1, build_gate])
def test_missing_single_model_checksum_is_a_malformed_header(tmp_path, builder):
    path = tmp_path / "m.smle"
    save_model(builder(), path)
    rewrite_header(path, lambda h: h["model"].pop("checksum"))
    with pytest.raises(ValueError, match="malformed checkpoint header"):
        load_model(path)


@pytest.mark.parametrize("builder", [build_specialist, build_ensemble])
def test_missing_header_key_raises_value_error(tmp_path, builder):
    path = tmp_path / "m.smle"
    save_model(builder(), path)
    rewrite_header(path, lambda h: h["model"].pop("hop"))
    with pytest.raises(ValueError, match="malformed checkpoint header"):
        load_model(path)


def test_wrongly_typed_header_raises_value_error(tmp_path):
    path = tmp_path / "m.smle"
    save_model(build_ensemble(), path)
    rewrite_header(path, lambda h: h["ensemble"].update(members=7))
    with pytest.raises(ValueError, match="malformed checkpoint header"):
        load_model(path)


@pytest.mark.parametrize("builder", [build_specialist, build_gate, build_ensemble])
def test_load_draws_no_random_initialisation(tmp_path, monkeypatch, builder):
    # a loaded net holds copies of the stored tensors; no layer constructor
    # (and so no random draw to overwrite) runs
    model = builder()
    save_model(model, tmp_path / "m.smle")

    def no_init(self, *args, **kwargs):
        raise AssertionError("random initialisation while loading")

    monkeypatch.setattr(LstmLayer, "__init__", no_init)
    monkeypatch.setattr(DenseLayer, "__init__", no_init)
    clone = load_model(tmp_path / "m.smle")
    members = lambda m: [m.gate, *m.specialists] if isinstance(m, EnsembleModel) else [m]
    for original, loaded in zip(members(model), members(clone), strict=True):
        for (name, a), (_, b) in zip(original.net.param_items(), loaded.net.param_items()):
            assert b.flags.writeable and b.flags.c_contiguous and b.dtype == np.float32
            assert np.array_equal(a, b), name


def test_header_topology_disagreeing_with_tensors_raises(tmp_path):
    path = tmp_path / "m.smle"
    save_model(build_specialist(), path)
    rewrite_header(path, lambda h: h["model"].update(hidden=[4, 4, 4]))
    with pytest.raises(ValueError, match="topology"):
        load_model(path)
