"""Bit-exact binary checkpoints for every model kind.

Layout:

    bytes 0..3    magic b"SMLE"
    bytes 4..7    format version, uint32 little-endian
    bytes 8..15   header length, uint64 little-endian
    header        UTF-8 JSON (canonical: sorted keys, compact separators)
    payload       raw float32 little-endian tensor data, concatenated in
                  header order

The header describes the model topology and every tensor (name, shape,
role).  A specialist or gate header carries the sha256 checksum of its
payload.  Ensemble checkpoints store all member tensors under per-member
name prefixes plus a manifest with K, the softmax scale, cluster labels, and
a sha256 checksum of each member's payload slice.  Loading verifies every
checksum, so a flipped payload byte raises instead of loading.
Canonical JSON plus fixed tensor order makes save -> load -> save
byte-identical.
"""

import hashlib
import json

import numpy as np

from .models import EnsembleModel, GatingModel, IdentityMaskModel, SpecialistModel
from .neural import Network

MAGIC = b"SMLE"
VERSION = 1


def save_model(model, path):
    """Serialize a model to ``path`` in the container format above."""
    header, tensors = _describe(model)
    payload = b"".join(blob for _, blob in tensors)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint64(len(header_bytes)).tobytes())
        fh.write(header_bytes)
        fh.write(payload)


def load_model(path):
    """Deserialize any model previously written by :func:`save_model`.

    Any malformed, truncated or corrupt file raises ValueError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated checkpoint ({len(raw)} of 16 prefix bytes)")
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic {raw[:4]!r})")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    if len(raw) < 16 + header_len:
        raise ValueError(f"{path}: truncated checkpoint header")
    # views into ``raw``: the payload is neither copied nor hashed from a copy
    payload = memoryview(raw)[16 + header_len :]
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        arrays, spans = {}, {}
        offset = 0
        for spec in header["tensors"]:
            n = int(np.prod(spec["shape"], dtype=np.int64)) if spec["shape"] else 1
            if offset + 4 * n > len(payload):
                raise ValueError(f"{path}: payload size mismatch")
            spans[spec["name"]] = payload[offset : offset + 4 * n]
            arrays[spec["name"]] = np.frombuffer(spans[spec["name"]], dtype="<f4").reshape(
                spec["shape"])
            offset += 4 * n
        if offset != len(payload):
            raise ValueError(f"{path}: payload size mismatch")
        if header["ensemble"] is not None:
            _verify_members(header["ensemble"]["members"], spans, path)
        elif header["tensors"] and (
                hashlib.sha256(payload).hexdigest() != header["model"]["checksum"]):
            raise ValueError(f"{path}: checksum mismatch in the {header['model']['kind']} payload")
        return _rebuild(header, arrays)
    except (KeyError, TypeError, IndexError, AttributeError, UnicodeError,
            json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc


def _verify_members(members, spans, path):
    """Check each ensemble member's tensor bytes against its sha256."""
    for member in members:
        digest = hashlib.sha256()
        for name, chunk in spans.items():
            if name.startswith(member["name"] + "."):
                digest.update(chunk)
        if digest.hexdigest() != member["checksum"]:
            raise ValueError(f"{path}: checksum mismatch in ensemble member {member['name']!r}")


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------


def _net_tensors(net, prefix=""):
    out = []
    for name, arr in net.param_items():
        arr32 = np.ascontiguousarray(arr, dtype="<f4")
        out.append((prefix + name, arr32))
    return out


def _tensor_specs(named):
    specs = []
    for name, arr in named:
        role = "bias" if name.endswith(".b") else "weight"
        specs.append({"name": name, "shape": list(arr.shape), "role": role, "dtype": "float32"})
    return specs


def _net_topology(net):
    return {
        "input_dim": net.input_dim,
        "hidden": list(net.hidden_dims),
        "output_dim": net.output_dim,
        "activation": net.activation,
        "lambda": net.lam,
    }


def _member_header(model):
    if isinstance(model, SpecialistModel):
        return {"kind": "specialist", "cluster_id": model.cluster_id, **_net_topology(model.net)}
    if isinstance(model, GatingModel):
        return {
            "kind": "gating",
            "latent": model.latent,
            "decision_seconds": model.decision_seconds,
            **_net_topology(model.net),
        }
    raise TypeError(f"cannot serialize ensemble member of type {type(model).__name__}")


def _describe(model):
    base = {"frame_size": model.frame_size, "hop": model.hop}
    if isinstance(model, IdentityMaskModel):
        header = {"model": {"kind": "identity", **base}, "tensors": [], "ensemble": None}
        return header, []
    if isinstance(model, (SpecialistModel, GatingModel)):
        named = _net_tensors(model.net)
        checksum = hashlib.sha256(b"".join(arr.tobytes() for _, arr in named)).hexdigest()
        header = {
            "model": {**_member_header(model), **base, "checksum": checksum},
            "tensors": _tensor_specs(named),
            "ensemble": None,
        }
        return header, [(name, arr.tobytes()) for name, arr in named]
    if isinstance(model, EnsembleModel):
        members = [("gate", model.gate)] + [
            (f"spec{i}", spec) for i, spec in enumerate(model.specialists)
        ]
        named = []
        manifest_members = []
        for mname, member in members:
            tensors = _net_tensors(member.net, prefix=f"{mname}.")
            blob = b"".join(arr.tobytes() for _, arr in tensors)
            manifest_members.append(
                {
                    "name": mname,
                    "checksum": hashlib.sha256(blob).hexdigest(),
                    **_member_header(member),
                }
            )
            named.extend(tensors)
        header = {
            "model": {"kind": "ensemble", "mode": model.mode, **base},
            "tensors": _tensor_specs(named),
            "ensemble": {
                "K": model.k,
                "lambda": model.lam,
                "latent": model.latent,
                "cluster_labels": list(model.cluster_labels),
                "members": manifest_members,
            },
        }
        return header, [(name, arr.tobytes()) for name, arr in named]
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


# ----------------------------------------------------------------------
# deserialization helpers
# ----------------------------------------------------------------------


def _build_net(info, arrays, prefix=""):
    net = Network(
        info["input_dim"],
        info["hidden"],
        info["output_dim"],
        info["activation"],
        lam=info.get("lambda"),
        rng=np.random.default_rng(0),
    )
    net.set_params({name: arrays[prefix + name] for name, _ in net.param_items()})
    return net


def _build_member(info, arrays, frame_size, hop, prefix=""):
    net = _build_net(info, arrays, prefix=prefix)
    if info["kind"] == "specialist":
        return SpecialistModel(net, cluster_id=info["cluster_id"], frame_size=frame_size, hop=hop)
    if info["kind"] == "gating":
        return GatingModel(
            net,
            latent=info["latent"],
            frame_size=frame_size,
            hop=hop,
            decision_seconds=info["decision_seconds"],
        )
    raise ValueError(f"unknown member kind {info['kind']!r}")


def _rebuild(header, arrays):
    info = header["model"]
    kind = info["kind"]
    frame_size, hop = info["frame_size"], info["hop"]
    if kind == "identity":
        return IdentityMaskModel(frame_size=frame_size, hop=hop)
    if kind in ("specialist", "gating"):
        return _build_member(info, arrays, frame_size, hop)
    if kind == "ensemble":
        manifest = header["ensemble"]
        gate = None
        specialists = {}
        for member in manifest["members"]:
            built = _build_member(member, arrays, frame_size, hop, prefix=member["name"] + ".")
            if member["name"] == "gate":
                gate = built
            else:
                specialists[int(member["name"][4:])] = built
        ordered = [specialists[i] for i in range(len(specialists))]
        return EnsembleModel(
            ordered, gate, mode=info["mode"], cluster_labels=manifest["cluster_labels"]
        )
    raise ValueError(f"unknown model kind {kind!r}")
