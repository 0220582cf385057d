"""Bit-exact binary checkpoints for every model kind.

Layout:

    bytes 0..3    magic b"SMLE"
    bytes 4..7    format version, uint32 little-endian
    bytes 8..15   header length, uint64 little-endian
    header        UTF-8 JSON (canonical: sorted keys, compact separators)
    payload       raw float32 little-endian tensor data, concatenated in
                  header order

The header has three parts.  ``model`` holds the kind and STFT layout (and
for an ensemble its mode and cluster labels).  ``members`` lists the
networks the model holds: each member's name, kind, topology and the sha256
checksum of its tensors' bytes.  A specialist or gate is one member named
``net``, an ensemble has ``gate`` and ``spec0`` .. ``spec{K-1}``, and an
identity model has none.  ``tensors`` gives each tensor's name
(``<member>.<parameter>``) and shape, in payload order.  Loading rejects a
tensor that belongs to no member and verifies every member's checksum, so
a flipped payload byte raises instead of loading.  Canonical JSON plus
fixed tensor order makes save -> load -> save byte-identical.
"""

import hashlib
import json

import numpy as np

from .models import EnsembleModel, GatingModel, IdentityMaskModel, SpecialistModel
from .neural import Network

MAGIC = b"SMLE"
VERSION = 2


def save_model(model, path):
    """Serialize a model to ``path`` in the container format above."""
    header, arrays = _describe(model)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint64(len(header_bytes)).tobytes())
        fh.write(header_bytes)
        for arr in arrays:
            fh.write(arr)


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
        tensors = _member_tensors(header, payload, path)
        _verify_members(header["members"], tensors, path)
        return _rebuild(header, tensors)
    except (KeyError, TypeError, IndexError, AttributeError, UnicodeError,
            json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc


def _member_tensors(header, payload, path):
    """The payload's tensors grouped by member, in header order:
    ``{member: {parameter: (bytes, shape)}}``."""
    tensors = {member["name"]: {} for member in header["members"]}
    offset = 0
    for spec in header["tensors"]:
        n = int(np.prod(spec["shape"], dtype=np.int64)) if spec["shape"] else 1
        if offset + 4 * n > len(payload):
            raise ValueError(f"{path}: payload size mismatch")
        member, _, param = spec["name"].partition(".")
        if member not in tensors or param in tensors[member]:
            raise ValueError(f"{path}: tensor {spec['name']!r} belongs to no member "
                             "or is listed twice")
        tensors[member][param] = (payload[offset : offset + 4 * n], spec["shape"])
        offset += 4 * n
    if offset != len(payload):
        raise ValueError(f"{path}: payload size mismatch")
    return tensors


def _verify_members(members, tensors, path):
    """Check each member's tensor bytes against its sha256."""
    for member in members:
        digest = hashlib.sha256()
        for chunk, _ in tensors[member["name"]].values():
            digest.update(chunk)
        if digest.hexdigest() != member["checksum"]:
            raise ValueError(f"{path}: checksum mismatch in member {member['name']!r}")


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------


def _members(model):
    """(name, specialist or gate) of each network ``model`` holds."""
    if isinstance(model, EnsembleModel):
        return [("gate", model.gate), *((f"spec{i}", s) for i, s in enumerate(model.specialists))]
    if isinstance(model, (SpecialistModel, GatingModel)):
        return [("net", model)]
    if isinstance(model, IdentityMaskModel):
        return []
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def _member_header(model):
    net = model.net
    topology = {"input_dim": net.input_dim, "hidden": list(net.hidden_dims),
                "output_dim": net.output_dim, "activation": net.activation, "lambda": net.lam}
    if isinstance(model, SpecialistModel):
        return {"kind": "specialist", "cluster_id": model.cluster_id, **topology}
    if isinstance(model, GatingModel):
        return {"kind": "gating", "latent": model.latent, **topology}
    raise TypeError(f"cannot serialize ensemble member of type {type(model).__name__}")


def _describe(model):
    """The header of ``model`` and its tensors in payload order, each
    hashed into its member's checksum as it is listed."""
    info = {"kind": model.kind, "frame_size": model.frame_size, "hop": model.hop}
    if isinstance(model, EnsembleModel):
        info.update(mode=model.mode, cluster_labels=list(model.cluster_labels))
    members, specs, arrays = [], [], []
    for name, member in _members(model):
        digest = hashlib.sha256()
        for param, arr in member.net.param_items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            digest.update(arr)
            specs.append({"name": f"{name}.{param}", "shape": list(arr.shape)})
            arrays.append(arr)
        members.append({"name": name, "checksum": digest.hexdigest(), **_member_header(member)})
    return {"model": info, "members": members, "tensors": specs}, arrays


# ----------------------------------------------------------------------
# deserialization helpers
# ----------------------------------------------------------------------


def _build_member(info, tensors, frame_size, hop):
    """The specialist or gate a member entry describes, holding float32
    copies of its stored tensors (no random initialisation to overwrite)."""
    params = {param: np.array(np.frombuffer(chunk, dtype="<f4").reshape(shape), dtype=np.float32)
              for param, (chunk, shape) in tensors.items()}
    net = Network.from_params(params, info["activation"], lam=info.get("lambda"))
    topology = (net.input_dim, net.hidden_dims, net.output_dim)
    if topology != (info["input_dim"], info["hidden"], info["output_dim"]):
        raise ValueError(f"tensor shapes give topology {topology}, the header "
                         f"{(info['input_dim'], info['hidden'], info['output_dim'])}")
    if info["kind"] == "specialist":
        return SpecialistModel(net, cluster_id=info["cluster_id"], frame_size=frame_size, hop=hop)
    if info["kind"] == "gating":
        return GatingModel(net, latent=info["latent"], frame_size=frame_size, hop=hop)
    raise ValueError(f"unknown member kind {info['kind']!r}")


def _rebuild(header, tensors):
    """Build every member the same way, then assemble them by model kind."""
    info = header["model"]
    kind, frame_size, hop = info["kind"], info["frame_size"], info["hop"]
    built = {member["name"]: _build_member(member, tensors[member["name"]], frame_size, hop)
             for member in header["members"]}
    if kind == "ensemble":
        gate = built.pop("gate")
        return EnsembleModel([built[f"spec{i}"] for i in range(len(built))], gate,
                             mode=info["mode"], cluster_labels=info["cluster_labels"])
    if kind == "identity" and not built:
        return IdentityMaskModel(frame_size=frame_size, hop=hop)
    if list(built) == ["net"] and built["net"].kind == kind:
        return built["net"]
    raise ValueError(f"members {list(built)} do not make a model of kind {kind!r}")
