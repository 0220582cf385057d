import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from smle import checkpoint
from smle.checkpoint import MAGIC, VERSION, load_model, save_model
from smle.models import EnsembleModel, GatingModel, IdentityMaskModel, SpecialistModel
from smle.neural import DenseLayer, LstmLayer, Network

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


def member_slices(header, payload):
    """Each member's payload bytes, from the tensor list."""
    offset = 0
    slices = {}
    for spec in header["tensors"]:
        n = int(np.prod(spec["shape"]))
        member = spec["name"].split(".")[0]
        slices.setdefault(member, b"")
        slices[member] += payload[offset : offset + 4 * n]
        offset += 4 * n
    assert offset == len(payload)
    return slices


def test_ensemble_manifest_lists_members_and_checksums(tmp_path):
    ens = build_ensemble()
    path = tmp_path / "e.smle"
    save_model(ens, path)
    header, payload = read_header(path)
    assert set(header) == {"model", "members", "tensors"}
    assert header["model"] == {"kind": "ensemble", "frame_size": FRAME, "hop": HOP,
                               "mode": "hard", "cluster_labels": ["male", "female"]}
    members = header["members"]
    assert [m["name"] for m in members] == ["gate", "spec0", "spec1"]
    # K and lambda are stated once, by the gate member
    assert members[0]["kind"] == "gating" and members[0]["output_dim"] == 2
    assert members[0]["lambda"] == 10.0 and members[0]["latent"] == "gender"
    assert [m["cluster_id"] for m in members[1:]] == [0, 1]
    # recompute each member's checksum from its payload slice
    slices = member_slices(header, payload)
    for member in members:
        assert member["checksum"] == hashlib.sha256(slices[member["name"]]).hexdigest()


def test_header_is_canonical_and_versioned(tmp_path):
    model = build_specialist()
    path = tmp_path / "m.smle"
    save_model(model, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int(np.frombuffer(raw[4:8], dtype="<u4")[0]) == VERSION == 2
    header, _ = read_header(path)
    assert header["model"] == {"kind": "specialist", "frame_size": FRAME, "hop": HOP}
    [member] = header["members"]
    assert member["name"] == "net" and member["kind"] == "specialist"
    assert member["cluster_id"] == 1
    # every tensor is named by its member and carries only a shape
    assert all(set(t) == {"name", "shape"} and t["name"].startswith("net.")
               for t in header["tensors"])
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert raw[16 : 16 + len(blob)] == blob


def test_identity_model_has_no_members_and_no_payload(tmp_path):
    path = tmp_path / "id.smle"
    save_model(IdentityMaskModel(FRAME, HOP), path)
    header, payload = read_header(path)
    assert header == {"model": {"kind": "identity", "frame_size": FRAME, "hop": HOP},
                      "members": [], "tensors": []}
    assert payload == b""


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
    with pytest.raises(ValueError, match="e.smle: checksum mismatch in member 'spec1'"):
        load_model(path)


@pytest.mark.parametrize("builder", [build_specialist_4x1, build_gate])
def test_single_model_header_carries_payload_checksum(tmp_path, builder):
    path = tmp_path / "m.smle"
    save_model(builder(), path)
    header, payload = read_header(path)
    [member] = header["members"]
    assert member["name"] == "net"
    assert member["checksum"] == hashlib.sha256(payload).hexdigest()


@pytest.mark.parametrize("builder", [build_specialist_4x1, build_gate])
def test_flipped_single_model_payload_byte_raises_naming_the_file(tmp_path, builder):
    path = tmp_path / "flipped.smle"
    save_model(builder(), path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="flipped.smle: checksum mismatch in member 'net'"):
        load_model(path)


@pytest.mark.parametrize("builder", [build_specialist_4x1, build_gate])
def test_missing_single_model_checksum_is_a_malformed_header(tmp_path, builder):
    path = tmp_path / "m.smle"
    save_model(builder(), path)
    rewrite_header(path, lambda h: h["members"][0].pop("checksum"))
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
    rewrite_header(path, lambda h: h.update(members=7))
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
    rewrite_header(path, lambda h: h["members"][0].update(hidden=[4, 4, 4]))
    with pytest.raises(ValueError, match="topology"):
        load_model(path)


@pytest.mark.parametrize("builder", [build_specialist, build_ensemble])
def test_tensor_of_no_member_raises_value_error(tmp_path, builder):
    # renaming a tensor out of its member would leave its bytes under no
    # checksum; the loader refuses it
    path = tmp_path / "orphan.smle"
    save_model(builder(), path)
    rewrite_header(path, lambda h: h["tensors"][-1].update(name="extra.head.b"))
    with pytest.raises(ValueError, match="orphan.smle: tensor 'extra.head.b' belongs to no member"):
        load_model(path)


def test_tensor_listed_twice_raises_value_error(tmp_path):
    path = tmp_path / "twice.smle"
    save_model(build_specialist_4x1(), path)
    rewrite_header(path, lambda h: h["tensors"][-1].update(name=h["tensors"][-2]["name"]))
    with pytest.raises(ValueError, match="twice.smle: tensor 'net.head.W'"):
        load_model(path)


def test_member_listed_twice_raises_value_error(tmp_path):
    # a repeated member entry would collapse into one and load with the wrong K
    path = tmp_path / "twice.smle"
    save_model(build_ensemble(), path)
    rewrite_header(path, lambda h: h["members"].append(dict(h["members"][-1])))
    with pytest.raises(ValueError, match="twice.smle: the member list repeats a name"):
        load_model(path)


def test_gate_of_an_unknown_latent_raises_naming_the_file(tmp_path):
    path = tmp_path / "bogus.smle"
    save_model(build_gate(), path)
    rewrite_header(path, lambda h: h["members"][0].update(latent="bogus"))
    with pytest.raises(ValueError, match="bogus.smle: unknown latent 'bogus'"):
        load_model(path)


def test_ensemble_with_a_label_count_other_than_k_raises_naming_the_file(tmp_path):
    path = tmp_path / "labels.smle"
    save_model(build_ensemble(), path)
    rewrite_header(path, lambda h: h["model"].update(cluster_labels=["-5dB", "0dB", "5dB"]))
    with pytest.raises(ValueError, match="labels.smle: 3 cluster labels != gate K=2"):
        load_model(path)


def test_members_must_match_the_model_kind(tmp_path):
    path = tmp_path / "m.smle"
    save_model(build_gate(), path)
    rewrite_header(path, lambda h: h["model"].update(kind="specialist"))
    with pytest.raises(ValueError, match="do not make a model of kind 'specialist'"):
        load_model(path)


def test_version_one_checkpoint_is_unsupported(tmp_path):
    path = tmp_path / "old.smle"
    save_model(build_specialist(), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = np.uint32(1).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="old.smle: unsupported checkpoint version 1"):
        load_model(path)


def test_loading_peaks_at_the_payload_size(tmp_path):
    # each tensor is read straight into the array the model keeps, so the
    # traced peak is one payload; wide enough that a second copy (over 1 MB)
    # would show
    rng = np.random.default_rng(7)
    ens = EnsembleModel([SpecialistModel.build(64, 2, cluster_id=i, rng=rng) for i in range(4)],
                        GatingModel.build(16, 2, 4, rng=rng))
    path = tmp_path / "e.smle"
    save_model(ens, path)
    _, payload = read_header(path)
    tracemalloc.start()
    try:
        clone = load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(payload) > 3 * 2**20
    assert peak <= len(payload) + 2**20
    assert clone.k == 4


def tensor_offset(path, index):
    """Byte offset in ``path`` at which tensor ``index`` starts."""
    header, payload = read_header(path)
    before = sum(4 * int(np.prod(t["shape"])) for t in header["tensors"][:index])
    return path.stat().st_size - len(payload) + before


def test_file_cut_inside_a_tensor_raises_naming_the_file(tmp_path):
    path = tmp_path / "cut.smle"
    save_model(build_ensemble(), path)
    path.write_bytes(path.read_bytes()[: tensor_offset(path, 2) + 6])
    with pytest.raises(ValueError, match="cut.smle: payload size mismatch"):
        load_model(path)


def test_file_shrinking_after_the_size_check_raises_naming_the_file(tmp_path, monkeypatch):
    # the table matched the size the file had when opened, but the read
    # runs out inside a tensor
    path = tmp_path / "cut.smle"
    save_model(build_ensemble(), path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[: tensor_offset(path, 2) + 6])
    monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: SimpleNamespace(st_size=full))
    with pytest.raises(ValueError, match="cut.smle: payload ends inside tensor 'gate.lstm0.b'"):
        load_model(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["members"][0].update(hidden=[4, 4]),
     r"m.smle: tensor shapes give topology \(129, \[4\], 129\), the header \(129, \[4, 4\], 129\)"),
    # the same bytes read as a (4, 16) recurrent matrix
    (lambda h: h["tensors"][1].update(shape=[4, 16]), "m.smle: inconsistent LSTM shapes"),
    (lambda h: h["members"][0].update(activation="relu"), "m.smle: unknown activation 'relu'"),
], ids=["topology", "lstm-shapes", "activation"])
def test_member_build_errors_name_the_file(tmp_path, edit, message):
    path = tmp_path / "m.smle"
    save_model(build_specialist_4x1(), path)
    rewrite_header(path, edit)
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert str(info.value).count("m.smle") == 1


@pytest.mark.parametrize("shape", [[-16, -129], [16, 129.0], [16, True], "16x129", None])
def test_shape_that_is_not_a_list_of_non_negative_ints_raises_naming_the_file(tmp_path, shape):
    path = tmp_path / "neg.smle"
    save_model(build_specialist_4x1(), path)
    rewrite_header(path, lambda h: h["tensors"][0].update(shape=shape))
    with pytest.raises(ValueError, match=r"neg.smle: tensor 'net.lstm0.Wx' has shape .*"
                                         "not a list of non-negative ints"):
        load_model(path)


def test_table_larger_than_the_file_raises_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "huge.smle"
    save_model(build_specialist_4x1(), path)
    rewrite_header(path, lambda h: h["tensors"][0].update(shape=[2**40, 2**20]))

    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated a tensor before checking the table")

    monkeypatch.setattr(checkpoint.np, "empty", no_alloc)
    with pytest.raises(ValueError, match="huge.smle: payload size mismatch"):
        load_model(path)


def test_checksums_are_compared_before_any_network_is_built(tmp_path, monkeypatch):
    path = tmp_path / "e.smle"
    save_model(build_ensemble(), path)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x01  # inside the last member
    path.write_bytes(bytes(raw))

    def no_build(*args, **kwargs):
        raise AssertionError("built a network before every checksum was compared")

    monkeypatch.setattr(Network, "from_params", no_build)
    with pytest.raises(ValueError, match="e.smle: checksum mismatch in member 'spec1'"):
        load_model(path)
