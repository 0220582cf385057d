import numpy as np
import pytest

from smle import dsp

SR = 16000


# ---------------------------------------------------------------------------
# stft
# ---------------------------------------------------------------------------


def test_one_second_shape():
    w = np.random.default_rng(0).standard_normal(SR).astype(np.float32)
    spec = dsp.stft(w, 1024, 256)
    assert spec.shape == (513, 59)  # T = (16000 - 1024) // 256 + 1


def test_zero_waveform_gives_zero_spectrogram():
    spec = dsp.stft(np.zeros(4096, dtype=np.float32))
    assert spec.shape == (513, 13)
    assert np.all(spec == 0)


def test_bin_centered_cosine_concentrates_at_its_bin():
    k = 40
    freq = k * SR / 1024
    t = np.arange(4 * 1024) / SR
    w = np.cos(2 * np.pi * freq * t)
    spec = dsp.stft(w, 1024, 256)
    mags = np.abs(spec)
    assert np.all(np.argmax(mags, axis=0) == k)


def direct_dft(w, t_idx, k, frame_size, hop):
    """Independent oracle: the windowed DFT sum of one frame, evaluated directly."""
    frame = w[t_idx * hop : t_idx * hop + frame_size] * dsp.analysis_window(frame_size)
    n = np.arange(frame_size)
    return np.sum(frame * np.exp(-2j * np.pi * k * n / frame_size))


def test_matches_direct_dft_of_windowed_frame():
    rng = np.random.default_rng(1)
    w = rng.standard_normal(2048)
    frame_size, hop = 256, 64
    spec = dsp.stft(w, frame_size, hop)
    for k in (0, 5, 97, 128):
        assert abs(spec[k, 3] - direct_dft(w, 3, k, frame_size, hop)) < 1e-9


def test_stft_rejects_short_input():
    with pytest.raises(ValueError, match="too short"):
        dsp.stft(np.zeros(1023, dtype=np.float32), 1024, 256)


def test_stft_rejects_bad_frame_args():
    w = np.zeros(4096, dtype=np.float32)
    with pytest.raises(ValueError):
        dsp.stft(w, 1023, 256)  # odd frame
    with pytest.raises(ValueError):
        dsp.stft(w, 1024, 2048)  # hop > frame


# ---------------------------------------------------------------------------
# istft round trip
# ---------------------------------------------------------------------------


def _interior(frame_size, hop, n):
    lead = frame_size - hop
    return slice(lead, n - lead)


def test_round_trip_interior_error_below_1e6():
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rng.uniform(-1, 1, 2 * SR).astype(np.float32)
        spec = dsp.stft(w)
        cov = dsp.coverage_length(spec.shape[1])
        y = dsp.istft(spec)
        sl = _interior(1024, 256, cov)
        assert np.abs(y[sl] - w[:cov][sl]).max() < 1e-6


def test_round_trip_holds_for_any_length_above_four_frames():
    rng = np.random.default_rng(3)
    for n in (4096, 5000, 12345):
        w = rng.uniform(-1, 1, n).astype(np.float32)
        spec = dsp.stft(w)
        cov = dsp.coverage_length(spec.shape[1])
        y = dsp.istft(spec)
        sl = _interior(1024, 256, cov)
        assert np.abs(y[sl] - w[:cov][sl]).max() < 1e-6


def test_zero_spectrogram_gives_zero_waveform():
    y = dsp.istft(np.zeros((513, 10), dtype=np.complex64))
    assert np.all(y == 0)


def test_istft_linearity():
    rng = np.random.default_rng(4)
    s = rng.standard_normal(SR).astype(np.float32)
    n = rng.standard_normal(SR).astype(np.float32)
    lhs = dsp.istft(dsp.stft(s + n))
    rhs = dsp.istft(dsp.stft(s)) + dsp.istft(dsp.stft(n))
    assert np.abs(lhs - rhs).max() < 1e-6


def test_stft_scalar_scaling_linearity():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(8000).astype(np.float64)
    spec = dsp.stft(w)
    spec3 = dsp.stft(3.0 * w)
    assert np.allclose(spec3, 3.0 * spec, rtol=1e-6, atol=1e-9)


def test_istft_rejects_bad_bin_count():
    with pytest.raises(ValueError):
        dsp.istft(np.zeros((512, 10), dtype=np.complex64))


# ---------------------------------------------------------------------------
# apply_mask
# ---------------------------------------------------------------------------


def test_ones_mask_is_identity():
    spec = dsp.stft(np.random.default_rng(6).standard_normal(SR).astype(np.float32))
    out = dsp.apply_mask(np.ones(spec.shape, dtype=np.float32), spec)
    assert np.array_equal(out, spec)


def test_zeros_mask_silences():
    spec = dsp.stft(np.random.default_rng(7).standard_normal(SR).astype(np.float32))
    out = dsp.apply_mask(np.zeros(spec.shape, dtype=np.float32), spec)
    assert np.all(out == 0)


def test_half_mask_halves_magnitude_preserves_phase():
    spec = dsp.stft(np.random.default_rng(8).standard_normal(SR).astype(np.float32))
    out = dsp.apply_mask(np.full(spec.shape, 0.5, dtype=np.float32), spec)
    assert np.allclose(np.abs(out), 0.5 * np.abs(spec), rtol=1e-6)
    nz = np.abs(spec) > 1e-6
    assert np.allclose(np.angle(out[nz]), np.angle(spec[nz]), atol=1e-6)


def test_random_mask_never_changes_phase():
    rng = np.random.default_rng(9)
    spec = dsp.stft(rng.standard_normal(SR).astype(np.float32))
    mask = rng.uniform(0.01, 1.0, spec.shape).astype(np.float32)
    out = dsp.apply_mask(mask, spec)
    nz = np.abs(spec) > 1e-6
    assert np.allclose(np.angle(out[nz]), np.angle(spec[nz]), atol=1e-6)


def test_identity_mask_denoise_is_noop_on_interior():
    rng = np.random.default_rng(10)
    x = rng.uniform(-0.5, 0.5, SR).astype(np.float32)
    spec = dsp.stft(x)
    y = dsp.istft(dsp.apply_mask(np.ones(spec.shape, dtype=np.float32), spec))
    cov = y.shape[0]
    sl = _interior(1024, 256, cov)
    assert np.abs(y[sl] - x[:cov][sl]).max() < 1e-6


def test_apply_mask_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        dsp.apply_mask(np.ones((513, 10)), np.zeros((513, 11), dtype=np.complex64))


# ---------------------------------------------------------------------------
# adjoint and batched variants
# ---------------------------------------------------------------------------


def test_istft_adjoint_inner_product_identity():
    # <istft(S), g> == Re <S, adjoint(g)> for every row of a batch
    rng = np.random.default_rng(11)
    specs = rng.standard_normal((3, 17, 129)) + 1j * rng.standard_normal((3, 17, 129))
    specs[:, :, 0] = specs[:, :, 0].real
    specs[:, :, -1] = specs[:, :, -1].real
    ys = dsp.istft_batch(specs, 256, 64)
    g = rng.standard_normal(ys.shape)
    grads = dsp.istft_adjoint_batch(g, 17, 256, 64)
    for i in range(3):
        lhs = float(np.dot(ys[i], g[i]))
        rhs = float(np.sum(specs[i] * np.conj(grads[i])).real)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_istft_adjoint_rejects_partial_span_gradient():
    span = dsp.coverage_length(17, 256, 64)
    with pytest.raises(ValueError, match="gradient shape"):
        dsp.istft_adjoint_batch(np.zeros((2, span - 1)), 17, 256, 64)


def _istft_adjoint_scaled_after(g, n_frames_, frame_size, hop):
    """The adjoint with 2/N applied to the transform's output, not the window."""
    import scipy.fft

    full = g / dsp._ola_denominator(frame_size, hop, n_frames_).astype(g.dtype, copy=False)
    win = dsp.analysis_window(frame_size).astype(g.dtype, copy=False)
    frames = dsp._frame_view(full, frame_size, hop) * win
    r = scipy.fft.rfft(frames, axis=2)
    grad = (2.0 / frame_size) * r
    grad[:, :, 0] = r[:, :, 0].real / frame_size
    grad[:, :, -1] = r[:, :, -1].real / frame_size
    return grad, frames


@pytest.mark.parametrize("frame_size,hop", [(1024, 256), (256, 64), (96, 24), (1000, 250),
                                            (6, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_folded_adjoint_scale(frame_size, hop, dtype):
    # exact when 2/N is a power of two; otherwise within a few roundings of
    # the frame's l1 norm, which bounds every bin of its transform
    rng = np.random.default_rng(16)
    g = rng.standard_normal((3, dsp.coverage_length(9, frame_size, hop))).astype(dtype)
    got = dsp.istft_adjoint_batch(g, 9, frame_size, hop)
    want, frames = _istft_adjoint_scaled_after(g, 9, frame_size, hop)
    assert got.dtype == want.dtype
    if frame_size & (frame_size - 1) == 0:
        assert np.array_equal(got, want)
    else:
        assert not np.array_equal(got, want)
        scale = (2.0 / frame_size) * np.abs(frames).sum(axis=2, keepdims=True)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(dtype).eps * scale)


def test_batched_variants_match_single():
    # batched helpers run in the input precision; the single-signal functions
    # keep float64 internals, so float32 batches may differ by ~1e-6
    rng = np.random.default_rng(12)
    waves = rng.standard_normal((3, 5000)).astype(np.float32)
    specs = dsp.stft_batch(waves, 256, 64)
    for i in range(3):
        single = dsp.stft(waves[i], 256, 64)
        assert np.allclose(specs[i].T, single, rtol=1e-4, atol=2e-6)
    ys = dsp.istft_batch(specs, 256, 64)
    for i in range(3):
        single = dsp.istft(np.ascontiguousarray(specs[i].T), 256, 64)
        assert np.abs(ys[i] - single).max() < 2e-6


def test_stft_batch_rows_match_direct_dft():
    rng = np.random.default_rng(13)
    waves = rng.standard_normal((2, 5000))
    specs = dsp.stft_batch(waves, 256, 64)
    for i in range(2):
        for t_idx in (0, 30, specs.shape[1] - 1):
            for k in (0, 5, 97, 128):
                direct = direct_dft(waves[i], t_idx, k, 256, 64)
                assert abs(specs[i, t_idx, k] - direct) < 1e-9


def _istft_per_frame(specs, frame_size, hop):
    """Reference inverse: overlap-add one frame at a time, in frame order."""
    import scipy.fft

    frames = scipy.fft.irfft(specs, n=frame_size, axis=2)
    win = dsp.analysis_window(frame_size)
    frames *= win.astype(frames.dtype)
    t_frames = specs.shape[1]
    span = dsp.coverage_length(t_frames, frame_size, hop)
    acc = np.zeros((specs.shape[0], span), dtype=frames.dtype)
    den = np.zeros(span)
    for t in range(t_frames):
        acc[:, t * hop : t * hop + frame_size] += frames[:, t]
        den[t * hop : t * hop + frame_size] += win * win
    den = np.maximum(den, 1e-2 * den.max())
    return acc / den.astype(frames.dtype)


@pytest.mark.parametrize("frame_size,hop", [(1024, 256), (256, 64), (64, 16), (512, 512),
                                            (256, 96)])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_istft_batch_equals_per_frame_overlap_add_bitwise(frame_size, hop, dtype):
    rng = np.random.default_rng(14)
    shape = (3, 11, frame_size // 2 + 1)
    specs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
    assert np.array_equal(dsp.istft_batch(specs, frame_size, hop),
                          _istft_per_frame(specs, frame_size, hop))


def test_stft_and_istft_take_a_batch_row_for_row():
    rng = np.random.default_rng(15)
    waves = rng.standard_normal((3, 5000)).astype(np.float32)
    specs = dsp.stft(waves, 256, 64)
    ys = dsp.istft(specs, 256, 64)
    assert specs.dtype == np.complex64 and ys.dtype == np.float32
    for i in range(3):
        assert np.array_equal(specs[i], dsp.stft(waves[i], 256, 64))
        assert np.array_equal(ys[i], dsp.istft(specs[i], 256, 64))
