"""Metric and loss function tests."""

import numpy as np
import pytest

from regionsep import BinauralSignal, Waveform, snri
from regionsep.metrics import (
    LOSS_FLOOR_DB,
    SNR_CLAMP_DB,
    LossConfig,
    evaluate_regions,
    loss_inactive,
    loss_snr,
    region_loss,
    snr,
)
from regionsep.scenes import RegionMixtureSet
from helpers import swap_ears


def test_snr_hand_values():
    assert snr([1, 0, 0, 0], [0.5, 0, 0, 0]) == pytest.approx(6.0206, abs=1e-3)
    x = np.array([0.3, -0.2, 0.1])
    assert snr(x, x) == SNR_CLAMP_DB
    assert snr(x, np.zeros(3)) == 0.0
    with pytest.raises(ValueError, match="zero energy"):
        snr(np.zeros(3), x)
    with pytest.raises(ValueError, match="mismatch"):
        snr([1.0, 0.0], [1.0])


def test_snri_identities():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100)
    m = x + rng.standard_normal(100)
    assert snri(x, m, m) == 0.0
    assert snri(x, x, m) >= SNR_CLAMP_DB - snr(x, m)


def test_snri_halved_orthogonal_interferer():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    interferer = np.array([0.0, 1.0, 0.0, 0.0])
    m = x + interferer
    est = x + interferer / np.sqrt(2.0)  # halves the interferer energy
    assert snri(x, est, m) == pytest.approx(3.0103, abs=1e-3)


def test_loss_config_tau():
    assert LossConfig().tau == pytest.approx(1e-3)
    assert LossConfig(snr_max_db=10.0).tau == pytest.approx(0.1)
    with pytest.raises(ValueError):
        LossConfig(snr_max_db=0.0)


def test_loss_snr_values():
    y = np.array([1.0, 0.0])  # unit energy
    assert loss_snr(y, y) == pytest.approx(-30.0, abs=1e-9)
    assert loss_snr(y, np.zeros(2)) == pytest.approx(10 * np.log10(1.001), abs=1e-9)
    assert loss_snr(np.zeros(2), np.zeros(2)) == LOSS_FLOOR_DB


def test_loss_snr_monotone_in_error():
    y = np.array([1.0, 0.0, 0.0])
    losses = [loss_snr(y, y + np.array([e, 0, 0])) for e in (0.0, 0.1, 0.5, 1.0)]
    assert losses == sorted(losses)


def test_loss_inactive_values():
    x = np.array([1.0, 0.0])
    assert loss_inactive(x, np.zeros(2)) == pytest.approx(-30.0, abs=1e-9)
    assert loss_inactive(x, np.array([1.0, 0.0])) == pytest.approx(
        10 * np.log10(1.001), abs=1e-9
    )
    assert loss_inactive(np.zeros(2), np.zeros(2)) == LOSS_FLOOR_DB


def _unit(samples):
    return Waveform(np.asarray(samples, dtype=float), 16000)


def _sig(left, right):
    return BinauralSignal(_unit(left), _unit(right))


def _zero_sig(n=4):
    return _sig(np.zeros(n), np.zeros(n))


def test_region_loss_perfect_case():
    ref1 = _sig([1, 0, 0, 0], [0, 1, 0, 0])  # unit energy per channel
    mixture = ref1
    refs = RegionMixtureSet(
        region_signals=(ref1, _zero_sig(), _zero_sig()),
        mixture=mixture,
        active=(True, False, False),
    )
    total = region_loss(refs, [ref1, _zero_sig(), _zero_sig()])
    assert total == pytest.approx(6 * -30.0, abs=1e-6)


def test_region_loss_all_inactive_floor():
    mixture = _sig([1, 0, 0, 0], [0, 1, 0, 0])
    refs = RegionMixtureSet(
        region_signals=(_zero_sig(), _zero_sig(), _zero_sig()),
        mixture=mixture,
        active=(False, False, False),
    )
    total = region_loss(refs, [_zero_sig(), _zero_sig(), _zero_sig()])
    assert total == pytest.approx(-180.0, abs=1e-6)


def test_region_loss_no_permutation_invariance():
    ref1 = _sig([1, 0, 0, 0], [1, 0, 0, 0])
    ref2 = _sig([0, 0, 1, 0], [0, 0, 1, 0])
    mixture = _sig(
        ref1.left.samples + ref2.left.samples, ref1.right.samples + ref2.right.samples
    )
    refs = RegionMixtureSet(
        region_signals=(ref1, ref2, _zero_sig()),
        mixture=mixture,
        active=(True, True, False),
    )
    aligned = region_loss(refs, [ref1, ref2, _zero_sig()])
    permuted = region_loss(refs, [ref2, ref1, _zero_sig()])
    assert permuted > aligned


def test_region_loss_validation():
    refs = RegionMixtureSet(
        region_signals=(_zero_sig(), _zero_sig()),
        mixture=_sig([1, 0, 0, 0], [1, 0, 0, 0]),
        active=(False, False),
    )
    with pytest.raises(ValueError, match="expected 2"):
        region_loss(refs, [_zero_sig()])
    with pytest.raises(ValueError, match="estimate/reference length mismatch"):
        region_loss(refs, [_zero_sig(), _zero_sig(3)])


def _demo_refs(active=(True, True, False)):
    rng = np.random.default_rng(1)
    sigs = []
    for flag in active:
        if flag:
            sigs.append(
                _sig(rng.standard_normal(64) * 0.2, rng.standard_normal(64) * 0.2)
            )
        else:
            sigs.append(_zero_sig(64))
    mixture = _sig(
        sum(s.left.samples for s in sigs), sum(s.right.samples for s in sigs)
    )
    return RegionMixtureSet(region_signals=tuple(sigs), mixture=mixture, active=active)


def test_evaluate_regions_modes():
    refs1 = _demo_refs((True, False, False))
    report = evaluate_regions(refs1, list(refs1.region_signals))
    assert report.mode == "s_snr"
    assert report.clamped
    assert report.aggregate_db == SNR_CLAMP_DB

    refs2 = _demo_refs((True, True, False))
    report2 = evaluate_regions(refs2, [refs2.mixture, refs2.mixture, _zero_sig(64)])
    assert report2.mode == "2_snri"
    assert report2.aggregate_db == 0.0

    refs3 = _demo_refs((True, True, True))
    report3 = evaluate_regions(refs3, list(refs3.region_signals))
    assert report3.mode == "3_snri"
    assert report3.aggregate_db > 0.0
    record = report3.to_record()
    assert record["mode"] == "3_snri"
    assert len(record["per_region_db"]) == 3


def test_evaluate_regions_channel_swap_invariance():
    refs = _demo_refs((True, True, False))
    estimates = [refs.mixture, refs.mixture, _zero_sig(64)]
    swapped_refs = RegionMixtureSet(
        region_signals=tuple(swap_ears(s) for s in refs.region_signals),
        mixture=swap_ears(refs.mixture),
        active=refs.active,
    )
    swapped_est = [swap_ears(e) for e in estimates]
    a = evaluate_regions(refs, estimates)
    b = evaluate_regions(swapped_refs, swapped_est)
    assert a.aggregate_db == b.aggregate_db
    assert a.per_region_db == b.per_region_db


def test_evaluate_regions_requires_active():
    refs = _demo_refs((True, False, False))
    inactive = RegionMixtureSet(
        region_signals=refs.region_signals,
        mixture=refs.mixture,
        active=(False, False, False),
    )
    with pytest.raises(ValueError, match="no active"):
        evaluate_regions(inactive, list(refs.region_signals))
    with pytest.raises(ValueError, match="expected 3 estimates, got 2"):
        evaluate_regions(refs, list(refs.region_signals)[:2])
