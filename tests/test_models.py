import numpy as np
import pytest

from smle import dsp
from smle.models import (
    EnsembleModel,
    GatingModel,
    IdentityMaskModel,
    SpecialistModel,
    denoise,
)

FRAME, HOP = 256, 64
BINS = FRAME // 2 + 1


def specialist(seed, hidden=5, cluster=0):
    return SpecialistModel.build(hidden, 1, cluster_id=cluster,
                                 rng=np.random.default_rng(seed),
                                 frame_size=FRAME, hop=HOP)


def gating(seed, k=2, lam=10.0, hidden=5):
    return GatingModel.build(hidden, 1, k, lam=lam, rng=np.random.default_rng(seed),
                             frame_size=FRAME, hop=HOP)


def x_mag(seed, t=30):
    return np.abs(np.random.default_rng(seed).standard_normal((t, BINS))).astype(np.float32)


# ---------------------------------------------------------------------------
# specialist
# ---------------------------------------------------------------------------


def test_zeroed_head_gives_half_mask():
    model = specialist(0)
    model.net.head.W[...] = 0.0
    model.net.head.b[...] = 0.0
    mask = model.mask(x_mag(1))
    assert np.allclose(mask, 0.5, atol=1e-7)


def test_mask_always_within_unit_interval():
    model = specialist(2)
    for seed in range(3):
        mask = model.mask(10.0 * x_mag(seed))
        assert mask.shape == (30, BINS)
        assert np.all(mask >= 0.0) and np.all(mask <= 1.0)


def test_spectrograms_and_masks_are_time_major():
    w = np.random.default_rng(4).standard_normal(4000).astype(np.float32)
    spec = dsp.stft(w, FRAME, HOP)
    assert spec.shape == (dsp.num_frames(4000, FRAME, HOP), BINS)
    assert np.array_equal(spec, dsp.stft(w[None], FRAME, HOP)[0])
    assert specialist(4).mask(np.abs(spec)).shape == spec.shape


def test_specialist_rejects_wrong_bins():
    model = specialist(3)
    with pytest.raises(ValueError):
        model.mask(np.zeros((10, BINS - 1), dtype=np.float32))


def test_specialist_requires_sigmoid_head():
    from smle.neural import Network

    net = Network(BINS, [4], 2, "scaled_softmax", lam=10.0)
    with pytest.raises(ValueError, match="sigmoid"):
        SpecialistModel(net, frame_size=FRAME, hop=HOP)


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------


def test_zeroed_head_gate_is_uniform_and_ties_break_low():
    gate = gating(4)
    gate.net.head.W[...] = 0.0
    gate.net.head.b[...] = 0.0
    decision = gate.gate(x_mag(5))
    assert np.allclose(decision.probs, [0.5, 0.5], atol=1e-7)
    assert decision.chosen == 0


def test_gate_decision_uses_only_the_opening_window():
    gate = gating(6)
    mag = x_mag(7, t=gate.decision_frames() + 40)
    head = mag[: gate.decision_frames()]
    full = gate.gate(mag)
    only_head = gate.gate(head)
    assert np.array_equal(full.probs, only_head.probs)


def test_gate_is_deterministic_per_input():
    gate = gating(8)
    mag = x_mag(9)
    assert np.array_equal(gate.gate(mag).probs, gate.gate(mag).probs)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def saturated_gate(seed, k=2, chosen=0):
    """Gate whose logits are far enough apart that probs are exactly one-hot
    in float32."""
    gate = gating(seed, k=k)
    gate.net.head.W[...] = 0.0
    gate.net.head.b[...] = -100.0
    gate.net.head.b[chosen] = 100.0
    return gate


def test_one_hot_gate_makes_soft_equal_hard_bitwise():
    specs = [specialist(10, cluster=0), specialist(11, cluster=1)]
    ens_soft = EnsembleModel(specs, saturated_gate(12), mode="soft")
    ens_hard = EnsembleModel(specs, saturated_gate(12), mode="hard")
    mag = x_mag(13)
    soft_mask, decision = ens_soft.mask_soft(mag)
    hard_mask, _ = ens_hard.mask_hard(mag)
    assert decision.probs[0] == 1.0 and decision.probs[1] == 0.0
    assert np.array_equal(soft_mask, hard_mask)


def test_soft_mask_is_per_bin_convex_combination():
    specs = [specialist(s, cluster=i) for i, s in enumerate((14, 15, 16))]
    gate = gating(17, k=3, lam=1.0)
    ens = EnsembleModel(specs, gate, mode="soft")
    mag = x_mag(18)
    soft_mask, _ = ens.mask_soft(mag)
    stack = np.stack([m.mask(mag) for m in specs])
    assert np.all(soft_mask >= stack.min(axis=0) - 1e-6)
    assert np.all(soft_mask <= stack.max(axis=0) + 1e-6)


def test_hard_gating_evaluates_exactly_one_specialist():
    specs = [specialist(19, cluster=0), specialist(20, cluster=1)]
    calls = []
    for idx, model in enumerate(specs):
        orig = model.net.forward_masks

        def counting(x, _idx=idx, _orig=orig):
            calls.append(_idx)
            return _orig(x)

        model.net.forward_masks = counting
    ens = EnsembleModel(specs, saturated_gate(21, chosen=1), mode="hard")
    _, decision = ens.mask_hard(x_mag(22))
    assert decision.chosen == 1
    assert calls == [1]


def test_saturated_soft_and_hard_agree_per_entry():
    specs = [specialist(23, cluster=0), specialist(24, cluster=1)]
    gate = gating(25)
    gate.net.head.W[...] = 0.0
    gate.net.head.b[...] = np.array([1.5, 0.0], dtype=np.float32)  # p0 ~ 1 - 3e-7
    mag = x_mag(26)
    ens = EnsembleModel(specs, gate, mode="soft")
    soft_mask, decision = ens.mask_soft(mag)
    assert decision.probs.max() >= 0.9999
    hard_mask, _ = EnsembleModel(specs, gate, mode="hard").mask_hard(mag)
    assert np.abs(soft_mask - hard_mask).max() < 1e-3


def test_ensemble_validates_member_count_and_mode():
    specs = [specialist(27)]
    with pytest.raises(ValueError, match="specialists"):
        EnsembleModel(specs, gating(28, k=2))
    with pytest.raises(ValueError, match="mode"):
        EnsembleModel([specialist(29), specialist(30)], gating(31, k=2), mode="warm")


def test_ensemble_needs_one_cluster_label_per_member():
    specs = [specialist(32 + k, cluster=k) for k in range(4)]
    with pytest.raises(ValueError, match="2 cluster labels != gate K=4"):
        EnsembleModel(specs, gating(36, k=4), cluster_labels=["male", "female"])
    ens = EnsembleModel(specs, gating(36, k=4))
    assert ens.cluster_labels == ["0", "1", "2", "3"]


@pytest.mark.parametrize("ids, slot, held", [([1, 0], 0, 1), ([0, None], 1, None),
                                             ([0, 2], 1, 2)])
def test_ensemble_rejects_a_specialist_outside_its_slot(ids, slot, held):
    specs = [specialist(40 + i, cluster=cid) for i, cid in enumerate(ids)]
    with pytest.raises(ValueError, match=f"specialist slot {slot} holds cluster_id {held}, "
                                         f"not {slot}"):
        EnsembleModel(specs, gating(43, k=2))


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------


def test_identity_model_denoise_is_noop_on_interior():
    rng = np.random.default_rng(32)
    x = rng.uniform(-0.5, 0.5, 6000).astype(np.float32)
    model = IdentityMaskModel(frame_size=FRAME, hop=HOP)
    s_hat, report = denoise(model, x)
    lead = FRAME - HOP
    cov = s_hat.shape[0]
    assert np.abs(s_hat[lead : cov - lead] - x[:cov][lead : cov - lead]).max() < 1e-6
    assert report.active_params == 0 and report.learned_params == 0
    assert report.chosen_specialist is None


def test_denoise_reports_hard_ensemble_accounting():
    specs = [specialist(33, cluster=0), specialist(34, cluster=1)]
    ens = EnsembleModel(specs, saturated_gate(35), mode="hard")
    x = np.random.default_rng(36).uniform(-0.5, 0.5, 6000).astype(np.float32)
    s_hat, report = denoise(ens, x)
    assert report.chosen_specialist == 0
    assert report.gate_probs.shape == (2,)
    one_specialist = specs[0].param_count()
    assert report.active_params == ens.gate.param_count() + one_specialist
    assert report.active_params < report.learned_params
    assert report.learned_params == ens.gate.param_count() + 2 * one_specialist


def test_soft_ensemble_touches_every_member():
    specs = [specialist(41, cluster=0), specialist(42, cluster=1, hidden=7)]
    gate = gating(43)
    soft = EnsembleModel(specs, gate, mode="soft")
    hard = EnsembleModel(specs, gate, mode="hard")
    assert soft.active_params() == soft.param_count() == hard.param_count()
    assert soft.active_macs_per_frame() == soft.macs_per_frame()
    # hard: the gate plus the larger specialist
    assert hard.active_params() == gate.param_count() + specs[1].param_count()
    assert hard.active_macs_per_frame() == gate.macs_per_frame() + specs[1].macs_per_frame()
    x = np.random.default_rng(44).uniform(-0.5, 0.5, 6000).astype(np.float32)
    _, report = denoise(soft, x)
    assert report.active_params == report.learned_params == soft.param_count()


def test_denoise_rejects_non_finite_input():
    x = np.random.default_rng(45).uniform(-0.5, 0.5, 6000).astype(np.float32)
    x[3000] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        denoise(specialist(46), x)
    x[3000] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        denoise(IdentityMaskModel(frame_size=FRAME, hop=HOP), x)


def test_denoise_rejects_short_input():
    with pytest.raises(ValueError, match="too short"):
        denoise(IdentityMaskModel(frame_size=FRAME, hop=HOP),
                np.zeros(FRAME - 1, dtype=np.float32))


def test_masks_satisfy_unit_interval_through_ensemble():
    specs = [specialist(37, cluster=0), specialist(38, cluster=1)]
    ens = EnsembleModel(specs, gating(39), mode="soft")
    soft_mask, _ = ens.mask_soft(x_mag(40))
    assert np.all(soft_mask >= 0.0) and np.all(soft_mask <= 1.0)


# ---------------------------------------------------------------------------
# batched inference
# ---------------------------------------------------------------------------


def spread_waves(seed, rows=6, length=6000):
    """Equal-length rows whose levels span 40 dB, so an untrained gate does
    not send every row to the same specialist."""
    rng = np.random.default_rng(seed)
    levels = np.logspace(-2, 0, rows)[:, None]
    return (levels * rng.uniform(-1.0, 1.0, (rows, length))).astype(np.float32)


def routing_ensemble(mode="hard"):
    """Three specialists behind a gate that sends the rows of
    ``spread_waves(54)`` to specialists 0 and 1, never 2."""
    specs = [specialist(50 + i, cluster=i) for i in range(3)]
    return EnsembleModel(specs, gating(53, k=3), mode=mode)


@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_batch_rows_match_single_calls(mode):
    ens = routing_ensemble(mode)
    waves = spread_waves(54)
    batch, report = denoise(ens, waves)
    assert report.gate_probs.shape == (len(waves), 3)
    assert len(set(report.chosen_specialist.tolist())) >= 2
    for row, x in enumerate(waves):
        single, single_report = denoise(ens, x)
        assert batch.shape[1:] == single.shape
        assert report.chosen_specialist[row] == single_report.chosen_specialist
        assert np.abs(batch[row] - single).max() < 1e-5


def test_hard_batch_runs_gate_once_and_each_chosen_specialist_once():
    ens = routing_ensemble()
    calls = []
    for idx, model in enumerate(ens.specialists):
        orig = model.net.forward_masks

        def counting(x, _idx=idx, _orig=orig):
            calls.append(_idx)
            return _orig(x)

        model.net.forward_masks = counting
    gate_orig = ens.gate.net.forward_gate

    def counting_gate(x):
        calls.append("gate")
        return gate_orig(x)

    ens.gate.net.forward_gate = counting_gate
    _, report = denoise(ens, spread_waves(54))
    chosen = sorted(set(report.chosen_specialist.tolist()))
    assert len(chosen) >= 2 and 2 not in chosen
    assert calls[0] == "gate" and calls.count("gate") == 1
    assert sorted(calls[1:]) == chosen


def test_batch_rejects_ragged_and_non_finite_rows():
    ens = routing_ensemble()
    waves = spread_waves(55)
    with pytest.raises(ValueError):
        denoise(ens, [waves[0], waves[1][:-10]])
    waves[2, 100] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        denoise(ens, waves)


def test_route_masks_each_row_with_its_named_specialist():
    ens = routing_ensemble()
    mags = np.stack([x_mag(60 + i) for i in range(5)])
    experts = np.array([2, 0, 2, 1, 0])
    mask = ens.route(mags, experts)
    assert mask.shape == mags.shape and mask.dtype == np.float32
    for k in range(3):
        rows = experts == k
        assert np.array_equal(mask[rows], ens.specialists[k].mask(mags[rows]))
    assert np.array_equal(ens.route(mags[1], 2), ens.specialists[2].mask(mags[1]))
