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
tensor that belongs to no member, reads each tensor straight into its own
array and verifies every member's checksum before building any network,
so a flipped payload byte raises instead of loading.  Canonical JSON plus
fixed tensor order makes save -> load -> save byte-identical.
"""

import hashlib
import json
import math
import os

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
    """Deserialize any model previously written by :func:`save_model`,
    holding one copy of its payload.

    Any malformed, truncated or corrupt file raises ValueError naming ``path``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        if len(prefix) < 16:
            raise ValueError(f"{path}: truncated checkpoint ({len(prefix)} of 16 prefix bytes)")
        if prefix[:4] != MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic {prefix[:4]!r})")
        version = int(np.frombuffer(prefix[4:8], dtype="<u4")[0])
        if version != VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        header_len = int(np.frombuffer(prefix[8:16], dtype="<u8")[0])
        if size < 16 + header_len:
            raise ValueError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            tensors = _read_members(fh, header, size - 16 - header_len)
            return _rebuild(header, tensors)
        except (KeyError, TypeError, IndexError, AttributeError, UnicodeError,
                json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _read_members(fh, header, payload_len):
    """Read the payload from ``fh`` into one array per tensor, grouped by
    member (``{member: {parameter: array}}``), and check each member's
    sha256.  The tensor table must account for exactly ``payload_len``
    bytes before the first array is allocated."""
    checksums = {member["name"]: member["checksum"] for member in header["members"]}
    if len(checksums) != len(header["members"]):
        raise ValueError("the member list repeats a name")
    shapes, total = {}, 0
    for spec in header["tensors"]:
        name, shape = spec["name"], spec["shape"]
        if name.partition(".")[0] not in checksums or name in shapes:
            raise ValueError(f"tensor {name!r} belongs to no member or is listed twice")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"tensor {name!r} has shape {shape!r}, "
                             "not a list of non-negative ints")
        shapes[name] = shape
        total += 4 * math.prod(shape)
    if total != payload_len:
        raise ValueError(f"payload size mismatch ({total} bytes listed, {payload_len} stored)")
    tensors = {name: {} for name in checksums}
    digests = {name: hashlib.sha256() for name in checksums}
    for name, shape in shapes.items():
        member, _, param = name.partition(".")
        arr = np.empty(shape, dtype="<f4")
        if fh.readinto(arr) != arr.nbytes:
            raise ValueError(f"payload ends inside tensor {name!r}")
        digests[member].update(arr)
        tensors[member][param] = arr
    for name, checksum in checksums.items():
        if digests[name].hexdigest() != checksum:
            raise ValueError(f"checksum mismatch in member {name!r}")
    return tensors


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


def _build_member(info, params, frame_size, hop):
    """The specialist or gate a member entry describes, holding the arrays
    read for it (no random initialisation to overwrite)."""
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
