"""Interaural feature extraction tests."""

import numpy as np
import pytest

import regionsep.parallel as parallel
from regionsep import (
    Waveform,
    compute_features,
    stft,
)
from regionsep.features import FeatureGrid, aliasing_bin, aliasing_frequency
from regionsep.stft import BLOCK_FRAMES, Spectrogram, StftConfig, clustering_config
from helpers import oracle_features


def test_aliasing_frequency_values():
    assert aliasing_frequency(0.0005) == pytest.approx(1000.0)
    assert aliasing_frequency(0.00089) == pytest.approx(561.8, abs=0.05)
    assert aliasing_frequency(0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        aliasing_frequency(0.0)


def test_aliasing_bin_562_is_36():
    assert aliasing_bin(562.0, clustering_config()) == 36


def _delayed_pair(delay_s=0.0005, f0=250.0, duration=2.0, sr=16000):
    n = int(duration * sr)
    t = np.arange(n) / sr
    left = Waveform(np.cos(2 * np.pi * f0 * t), sr)
    right = Waveform(np.cos(2 * np.pi * f0 * (t - delay_s)), sr)
    return left, right


def test_delayed_channel_itd_sign_convention():
    cfg = clustering_config()
    left, right = _delayed_pair()
    grid = compute_features(stft(left, cfg), stft(right, cfg), 562.0)
    interior = slice(2, grid.itd.shape[0] - 2)
    # right delayed by 0.5 ms at the 250 Hz bin: phase 2*pi*250*5e-4 = pi/4,
    # positive ITD (left leads) of exactly the delay
    itd = grid.itd[interior, 16]
    assert np.allclose(itd * 2 * np.pi * 250.0, np.pi / 4, atol=1e-6)
    assert np.allclose(itd, 0.0005, atol=1e-9)


def test_identical_channels_zero_features():
    cfg = clustering_config()
    x = Waveform(np.random.default_rng(3).standard_normal(16000) * 0.1, 16000)
    spec = stft(x, cfg)
    grid = compute_features(spec, spec, 562.0)
    above = ~grid.excluded
    assert np.allclose(grid.ild[above], 0.0)
    valid = np.isfinite(grid.itd) & above
    assert np.allclose(grid.itd[valid], 0.0)


def test_double_magnitude_ild():
    cfg = StftConfig(fft_size=8, hop=4, sample_rate=16000)
    rng = np.random.default_rng(5)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(3, 5)))
    mr = phases
    ml = 2.0 * phases * np.exp(1j * 0.1)
    grid = compute_features(
        Spectrogram(ml, cfg, 16), Spectrogram(mr, cfg, 16), 562.0
    )
    assert np.allclose(grid.ild, 20 * np.log10(2.0), atol=1e-9)
    assert grid.ild[0, 0] == pytest.approx(6.0206, abs=1e-3)


def test_itd_nan_layout_and_sample_collection():
    cfg = clustering_config()
    left, right = _delayed_pair()
    grid = compute_features(stft(left, cfg), stft(right, cfg), 562.0)
    assert grid.aliasing_bin == 36
    assert np.all(np.isnan(grid.itd[:, 0]))
    assert np.all(np.isnan(grid.itd[:, 36:]))
    samples = grid.itd_samples()
    assert samples.size > 0
    assert np.all(np.isfinite(samples))
    # every collected sample comes from a non-excluded unaliased bin
    valid = np.isfinite(grid.itd) & ~grid.excluded
    assert samples.size == int(valid.sum())


def test_channel_swap_antisymmetry():
    cfg = clustering_config()
    left, right = _delayed_pair()
    sl, sr_ = stft(left, cfg), stft(right, cfg)
    grid = compute_features(sl, sr_, 562.0)
    swapped = compute_features(sr_, sl, 562.0)
    # the phase behind each valid ITD; 1e-12 rad is at most 1.1e-14 s
    phase = grid.itd * 2 * np.pi * np.arange(cfg.num_bins) * cfg.bin_hz
    valid = np.isfinite(grid.itd) & ~grid.excluded
    valid &= ~np.isclose(np.abs(phase), np.pi, atol=1e-9)
    assert valid.any()
    assert np.allclose(swapped.itd[valid], -grid.itd[valid], atol=1.1e-14)
    assert np.allclose(swapped.ild, -grid.ild, atol=1e-12)


def test_itd_equals_full_grid_phase_formula():
    # 16000 samples give 33 frames: an odd count, so the grid's rows
    # do not pair up evenly for the vectorised complex multiply
    cfg = clustering_config()
    rng = np.random.default_rng(8)
    sl = stft(Waveform(rng.standard_normal(16000) * 0.1, 16000), cfg)
    sr_ = stft(Waveform(rng.standard_normal(16000) * 0.1, 16000), cfg)
    assert sl.num_frames % 2 == 1
    grid = compute_features(sl, sr_, 562.0)

    phase = np.angle(sl.bins * np.conj(sr_.bins))  # over the whole grid
    phase = np.where(phase <= -np.pi, phase + 2 * np.pi, phase)
    freqs = np.arange(cfg.num_bins) * cfg.bin_hz
    expected = np.full(phase.shape, np.nan)
    expected[:, 1:36] = phase[:, 1:36] / (2 * np.pi * freqs[None, 1:36])
    assert np.array_equal(grid.itd, expected, equal_nan=True)


def test_all_zero_input_everything_excluded():
    cfg = clustering_config()
    spec = stft(Waveform(np.zeros(4096), 16000), cfg)
    grid = compute_features(spec, spec, 562.0)
    assert np.all(grid.excluded)
    assert grid.itd_samples().size == 0


def test_shape_mismatch_rejected():
    cfg = clustering_config()
    a = stft(Waveform(np.zeros(2048), 16000), cfg)
    b = stft(Waveform(np.zeros(4096), 16000), cfg)
    with pytest.raises(ValueError, match="shape mismatch"):
        compute_features(a, b, 562.0)
    # the same (frames, bins) shape at another sample rate
    cfg8k = StftConfig(fft_size=1024, hop=512, sample_rate=8000)
    c = stft(Waveform(np.zeros(2048), 8000), cfg8k)
    with pytest.raises(ValueError, match="spectrogram configs differ"):
        compute_features(a, c, 562.0)


def test_feature_grid_rejects_an_itd_low_of_another_width():
    full = np.zeros((4, 513))
    grid = dict(ild=full, energy=full, excluded=full.astype(bool), aliasing_bin=36)
    FeatureGrid(itd_low=np.zeros((4, 35)), **grid)  # bins 1 .. 35
    with pytest.raises(ValueError, match=r"itd_low shape \(4, 34\) != \(4, 35\)"):
        FeatureGrid(itd_low=np.zeros((4, 34)), **grid)


def _random_spectrograms(rng, frames, cfg, loud_bins=None):
    """Two random spectrograms whose bin energies span many decades."""
    shape = (frames, cfg.num_bins)
    specs = []
    for _ in range(2):
        bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        bins *= 10.0 ** rng.uniform(-3.0, 0.0, size=shape)
        if loud_bins is not None:
            bins[:, loud_bins] *= 1e3
        specs.append(Spectrogram(bins, cfg, frames * cfg.hop))
    return specs


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize("f_aliasing", [562.0, 9000.0])  # 9 kHz: bin 576, past the grid
@pytest.mark.parametrize(
    "frames",
    # 31 and 32 frames lie either side of the 256 KiB at which NumPy's
    # temporary elision would turn ``ml * conj(mr)`` into ``conj(mr) *= ml``;
    # the blocked code and the oracle use ``conj(mr) * ml`` at both
    [31, 32, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES,
     2 * BLOCK_FRAMES + 1, 3 * BLOCK_FRAMES + 1],
)
def test_blocked_features_equal_whole_grid_oracle(monkeypatch, frames, f_aliasing, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    cfg = clustering_config()
    sl, sr_ = _random_spectrograms(np.random.default_rng(frames), frames, cfg)
    sl.bins[-1, 100] = 30.0  # the energy peak, in the last block's last frame
    grid = compute_features(sl, sr_, f_aliasing, 30.0)
    want = oracle_features(sl, sr_, f_aliasing, 30.0)
    assert want["excluded"].any() and not want["excluded"].all()
    assert np.array_equal(grid.itd, want["itd"], equal_nan=True)
    for name in ("ild", "energy", "excluded"):
        assert np.array_equal(getattr(grid, name), want[name]), name
    valid = np.isfinite(want["itd"]) & ~want["excluded"]
    assert np.array_equal(grid.itd_samples(), want["itd"][valid])


def test_frame_energy_equals_full_width_masked_sum():
    # both add the same nonnegative terms of the n low bins, in different
    # orders, so each is within (n - 1) eps / 2, relative, of the exact sum
    # and they agree to 2 n eps; most grids put their energy in bins
    # 32..35, the last low bins at the default 562 Hz
    rng = np.random.default_rng(11)
    cases = [
        (clustering_config(), 562.0, slice(32, 36)),
        (clustering_config(), 562.0, None),
        (clustering_config(), 140.0, None),   # aliasing bin 9
        (clustering_config(), 2100.0, slice(120, 135)),  # bin 135: full width
        (StftConfig(fft_size=64, hop=32, sample_rate=16000), 7000.0, None),  # 33 bins
        (StftConfig(fft_size=8, hop=4, sample_rate=16000), 3000.0, None),  # 5 bins
    ]
    for k in range(60):
        cfg, f_aliasing, loud = cases[(k // 2) % len(cases)] if k % 2 else cases[0]
        frames = int(rng.integers(1, 300))
        sl, sr_ = _random_spectrograms(rng, frames, cfg, loud)
        grid = compute_features(sl, sr_, f_aliasing)
        mask = np.zeros(grid.energy.shape, dtype=bool)
        mask[:, grid.low_bins] = rng.random(grid.itd_low.shape) < 0.7
        want = (grid.energy * mask).sum(axis=1)
        rtol = 2 * grid.low_bins.stop * np.finfo(float).eps
        err = np.abs(grid.frame_energy(mask) - want)
        assert np.all(err <= rtol * want), (k, cfg, f_aliasing)
