import numpy as np
import pytest

from smle import metrics


# ---------------------------------------------------------------------------
# si_sdr
# ---------------------------------------------------------------------------


def test_sdr_fixed_scale_example():
    # residual energy 0.25 -> 10*log10(1/0.25)
    got = metrics.si_sdr([1.0, 0.0], [1.0, 0.5], scale_invariant=False)
    assert got == pytest.approx(6.0205999133, abs=1e-6)


def test_scale_invariant_collapses_scaled_estimates():
    a = metrics.si_sdr([1.0, 0.0], [1.0, 0.5], scale_invariant=True)
    b = metrics.si_sdr([1.0, 0.0], [2.0, 1.0], scale_invariant=True)
    assert a == pytest.approx(6.0205999133, abs=1e-6)
    assert b == pytest.approx(a, abs=1e-9)


def test_perfect_estimate_clamps_high():
    s = np.array([0.3, -0.2, 0.9])
    assert metrics.si_sdr(s, s) == 100.0


def test_zero_reference_raises():
    with pytest.raises(ValueError, match="undefined reference"):
        metrics.si_sdr(np.zeros(8), np.ones(8))


def test_zero_estimate_clamps_low_when_scale_invariant():
    assert metrics.si_sdr(np.ones(8), np.zeros(8), scale_invariant=True) == -100.0


def test_length_mismatch_raises():
    with pytest.raises(ValueError, match="length"):
        metrics.si_sdr(np.ones(4), np.ones(5))


def test_batch_rows_match_single_signal_calls_and_shapes_are_checked():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((4, 300))
    e = s + rng.standard_normal((4, 300))
    for si in (True, False):
        batch = metrics.si_sdr(s, e, scale_invariant=si)
        assert batch.shape == (4,)
        for row in range(4):
            assert abs(metrics.si_sdr(s[row], e[row], si) - batch[row]) <= 1e-12
    gains = metrics.si_sdr_improvement(s, e, s)
    assert np.allclose(gains, 100.0 - metrics.si_sdr(s, e), atol=1e-12)
    with pytest.raises(ValueError, match="length"):
        metrics.si_sdr(s, e[:, :-1])
    with pytest.raises(ValueError, match="empty"):
        metrics.si_sdr(np.ones((2, 0)), np.ones((2, 0)))
    with pytest.raises(ValueError, match="undefined reference"):
        metrics.si_sdr(np.vstack([s[:1], np.zeros((1, 300))]), e[:2])


def test_scale_invariance_property():
    rng = np.random.default_rng(0)
    s = rng.standard_normal(500)
    e = rng.standard_normal(500)
    base = metrics.si_sdr(s, e, scale_invariant=True)
    for c in (1e-3, 1.0, 1e3):
        assert metrics.si_sdr(s, c * e, scale_invariant=True) == pytest.approx(base, abs=1e-6)


def test_optimal_scaling_never_hurts_for_unattenuated_estimates():
    # holds whenever the estimate's projection onto the reference has
    # coefficient >= 1; underscaled noisy estimates can favour plain SDR
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.standard_normal(64)
        noise = rng.standard_normal(64)
        noise -= s * np.dot(noise, s) / np.dot(s, s)
        e = rng.uniform(1.0, 2.0) * s + rng.uniform(0.1, 2.0) * noise
        si = metrics.si_sdr(s, e, scale_invariant=True)
        sdr = metrics.si_sdr(s, e, scale_invariant=False)
        assert si >= sdr - 1e-6


# ---------------------------------------------------------------------------
# ideal_ratio_mask
# ---------------------------------------------------------------------------


def test_irm_silent_speech_is_zero():
    mask = metrics.ideal_ratio_mask(np.zeros((4, 5)), np.ones((4, 5)))
    assert np.all(mask < 1e-3)


def test_irm_equal_energies_is_inv_sqrt2():
    mask = metrics.ideal_ratio_mask(np.full((3, 3), 2.0), np.full((3, 3), 2.0))
    assert np.allclose(mask, 1.0 / np.sqrt(2.0), atol=1e-6)


def test_irm_three_four_gives_point_six():
    mask = metrics.ideal_ratio_mask(np.array([[3.0]]), np.array([[4.0]]))
    assert mask[0, 0] == pytest.approx(0.6, abs=1e-7)


def test_irm_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        metrics.ideal_ratio_mask(np.ones((2, 3)), np.ones((3, 2)))


def test_irm_bounded_and_monotone_in_speech():
    rng = np.random.default_rng(2)
    n_mag = rng.uniform(0.1, 2.0, (6, 7))
    s_lo = rng.uniform(0.0, 1.0, (6, 7))
    s_hi = s_lo + rng.uniform(0.1, 1.0, (6, 7))
    m_lo = metrics.ideal_ratio_mask(s_lo, n_mag)
    m_hi = metrics.ideal_ratio_mask(s_hi, n_mag)
    for m in (m_lo, m_hi):
        assert np.all(m >= 0.0) and np.all(m <= 1.0)
    assert np.all(m_hi >= m_lo)


# ---------------------------------------------------------------------------
# bce_loss
# ---------------------------------------------------------------------------


def test_bce_near_perfect_prediction_is_near_zero():
    loss = metrics.bce_loss([1.0 - 1e-7, 1e-7], [1.0, 0.0])
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_bce_uniform_two_way():
    loss = metrics.bce_loss([0.5, 0.5], [1.0, 0.0])
    assert loss == pytest.approx(2.0 * np.log(2.0), abs=1e-9)


def test_bce_uniform_four_way():
    loss = metrics.bce_loss([0.25] * 4, [0.0, 0.0, 1.0, 0.0])
    assert loss == pytest.approx(2.2493405785, abs=1e-7)


def test_bce_rejects_non_one_hot():
    with pytest.raises(ValueError, match="one-hot"):
        metrics.bce_loss([0.5, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError, match="one-hot"):
        metrics.bce_loss([0.5, 0.5], [0.7, 0.3])


def test_bce_batch_averages_its_rows_and_checks_every_target():
    probs = np.array([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]])
    target = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    rows = [metrics.bce_loss(p, t) for p, t in zip(probs, target)]
    assert metrics.bce_loss(probs, target) == pytest.approx(np.mean(rows), rel=1e-15)
    assert metrics.bce_loss(probs[:1], target[:1]) == rows[0]
    with pytest.raises(ValueError, match="one-hot"):
        metrics.bce_loss(probs, [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="shape mismatch"):
        metrics.bce_loss(probs, target[:2])


def test_bce_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        p = rng.uniform(1e-6, 1.0 - 1e-6, k)
        t = np.zeros(k)
        t[rng.integers(0, k)] = 1.0
        assert metrics.bce_loss(p, t) >= 0.0


# ---------------------------------------------------------------------------
# si_sdr_improvement
# ---------------------------------------------------------------------------


def test_improvement_zero_when_estimate_is_mixture():
    rng = np.random.default_rng(4)
    s = rng.standard_normal(100)
    x = s + rng.standard_normal(100)
    assert metrics.si_sdr_improvement(s, x, x) == pytest.approx(0.0, abs=1e-12)


def test_improvement_for_perfect_estimate():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(100)
    x = s + 0.5 * rng.standard_normal(100)
    got = metrics.si_sdr_improvement(s, x, s)
    assert got == pytest.approx(100.0 - metrics.si_sdr(s, x), abs=1e-9)
