"""Property tests over drawn STFT layouts, checkpoint truncations and
flipped checkpoint bytes.

``derandomize=True`` draws the same examples on every run, so these tests
are as deterministic as the rest of the suite.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smle import dsp
from smle.checkpoint import load_model, save_model
from smle.models import EnsembleModel, GatingModel, SpecialistModel

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def layouts(draw):
    """(frame_size, hop, length, batch): any even frame, any hop up to it
    (non-divisors included), and a length of one frame or more."""
    frame_size = 2 * draw(st.integers(1, 64))
    hop = draw(st.integers(1, frame_size))
    length = frame_size + draw(st.integers(0, 3 * frame_size))
    return frame_size, hop, length, draw(st.integers(1, 3))


@PROPERTY
@given(layout=layouts(), seed=st.integers(0, 2**32 - 1),
       a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0))
def test_stft_is_linear(layout, seed, a, b):
    frame_size, hop, length, batch = layout
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, batch, length))
    lhs = dsp.stft_batch(a * x + b * y, frame_size, hop)
    rhs = a * dsp.stft_batch(x, frame_size, hop) + b * dsp.stft_batch(y, frame_size, hop)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


@PROPERTY
@given(layout=layouts(), seed=st.integers(0, 2**32 - 1))
def test_istft_adjoint_inner_product_identity(layout, seed):
    # <istft(S), g> == Re <S, adjoint(g)> for every row of a batch
    frame_size, hop, length, batch = layout
    t_frames = dsp.num_frames(length, frame_size, hop)
    rng = np.random.default_rng(seed)
    shape = (batch, t_frames, frame_size // 2 + 1)
    specs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    specs[:, :, 0] = specs[:, :, 0].real
    specs[:, :, -1] = specs[:, :, -1].real
    ys = dsp.istft_batch(specs, frame_size, hop)
    g = rng.standard_normal(ys.shape)
    grads = dsp.istft_adjoint_batch(g, t_frames, frame_size, hop)
    lhs = np.einsum("bl,bl->b", ys, g)
    rhs = np.sum(specs * np.conj(grads), axis=(1, 2)).real
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def small_models():
    rng = np.random.default_rng(0)
    specs = [SpecialistModel.build(3, 1, cluster_id=k, rng=rng, frame_size=64, hop=16)
             for k in range(2)]
    gate = GatingModel.build(3, 1, 2, rng=rng, frame_size=64, hop=16)
    return {"specialist": specs[0], "gate": gate, "ensemble": EnsembleModel(specs, gate)}


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    paths = {}
    for kind, model in small_models().items():
        paths[kind] = root / f"{kind}.smle"
        save_model(model, paths[kind])
    return paths


@pytest.fixture(scope="module")
def saved_ensemble(saved_models):
    return saved_models["ensemble"]


def payload_members(raw):
    """Offset of the payload in ``raw`` and the member owning each byte."""
    header_len = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    header = json.loads(raw[16 : 16 + header_len])
    owners = []
    for spec in header["tensors"]:
        owners += [spec["name"].split(".")[0]] * (4 * int(np.prod(spec["shape"])))
    return 16 + header_len, owners


@PROPERTY
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_any_truncation_raises_value_error(saved_ensemble, cut):
    raw = saved_ensemble.read_bytes()
    truncated = saved_ensemble.with_name("truncated.smle")
    truncated.write_bytes(raw[: int(cut * len(raw))])
    with pytest.raises(ValueError, match="truncated.smle"):
        load_model(truncated)


@PROPERTY
@given(kind=st.sampled_from(["specialist", "gate", "ensemble"]),
       where=st.floats(0.0, 1.0, exclude_max=True), bit=st.integers(0, 7))
def test_any_flipped_payload_byte_raises_naming_the_member(saved_models, kind, where, bit):
    raw = bytearray(saved_models[kind].read_bytes())
    start, owners = payload_members(bytes(raw))
    index = int(where * len(owners))
    raw[start + index] ^= 1 << bit
    flipped = saved_models[kind].with_name("flipped.smle")
    flipped.write_bytes(bytes(raw))
    with pytest.raises(ValueError,
                       match=f"flipped.smle: checksum mismatch in member '{owners[index]}'"):
        load_model(flipped)
