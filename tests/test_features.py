"""Interaural feature extraction tests."""

import numpy as np
import pytest

from regionsep import (
    StftConfig,
    Waveform,
    aliasing_bin,
    aliasing_frequency,
    clustering_config,
    compute_features,
    stft,
)
from regionsep.stft import Spectrogram


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
