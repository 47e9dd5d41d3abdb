"""Synthetic band-noise source generator tests."""

import numpy as np
import pytest

from regionsep.signals import (
    HIGH_BANDS,
    LOW_GROUP_BANDS,
    SLOT_SECONDS,
    band_noise_source,
    make_source_pool,
)

SR = 16000


def test_pool_determinism_and_keys():
    a = make_source_pool(seed=5, count=4, duration=1.0, sample_rate=SR)
    b = make_source_pool(seed=5, count=4, duration=1.0, sample_rate=SR)
    assert sorted(a) == ["src000", "src001", "src002", "src003"]
    for key in a:
        assert np.array_equal(a[key].samples, b[key].samples)
    c = make_source_pool(seed=6, count=4, duration=1.0, sample_rate=SR)
    assert not np.array_equal(a["src000"].samples, c["src000"].samples)


def test_duration_rate_and_peak():
    rng = np.random.default_rng(0)
    wave = band_noise_source(rng, 2.0, SR, band_group=0)
    assert len(wave) == 2 * SR
    assert wave.sample_rate == SR
    assert np.max(np.abs(wave.samples)) == pytest.approx(0.25, rel=1e-12)


def test_band_confinement():
    rng = np.random.default_rng(1)
    duration = 4.0
    wave = band_noise_source(rng, duration, SR, band_group=0)
    spectrum = np.abs(np.fft.rfft(wave.samples)) ** 2
    scale = len(wave) / 1024  # analysis-bin units to full-signal bins
    allowed = np.zeros(spectrum.size, dtype=bool)
    guard = int(2 * scale)  # gate/envelope modulation sidebands
    for start, stop in (LOW_GROUP_BANDS[0],) + HIGH_BANDS:
        lo = max(0, int(start * scale) - guard)
        hi = min(spectrum.size, int(stop * scale) + guard)
        allowed[lo:hi] = True
    in_band = spectrum[allowed].sum()
    out_band = spectrum[~allowed].sum()
    assert in_band > 0
    assert out_band < 1e-3 * in_band


def test_groups_use_disjoint_low_bands():
    lo0, lo1 = LOW_GROUP_BANDS
    assert lo0[1] <= lo1[0] or lo1[1] <= lo0[0]
    rng = np.random.default_rng(2)
    w0 = band_noise_source(rng, 2.0, SR, band_group=0)
    w1 = band_noise_source(rng, 2.0, SR, band_group=1)
    scale = len(w0) / 1024
    s0 = np.abs(np.fft.rfft(w0.samples)) ** 2
    s1 = np.abs(np.fft.rfft(w1.samples)) ** 2
    band0 = slice(int(lo0[0] * scale), int(lo0[1] * scale))
    band1 = slice(int(lo1[0] * scale), int(lo1[1] * scale))
    assert s0[band0].sum() > 100 * s0[band1].sum()
    assert s1[band1].sum() > 100 * s1[band0].sum()


def test_alternating_time_slots():
    rng = np.random.default_rng(3)
    duration = 4.0
    w0 = band_noise_source(rng, duration, SR, band_group=0)
    w1 = band_noise_source(rng, duration, SR, band_group=1)
    slot = int(SLOT_SECONDS * SR)
    margin = slot // 4  # stay clear of the ramps
    # group 0 is loud on even slots, group 1 on odd slots
    for k in range(1, 7):
        seg = slice(k * slot + margin, (k + 1) * slot - margin)
        e0 = float(np.sum(w0.samples[seg] ** 2))
        e1 = float(np.sum(w1.samples[seg] ** 2))
        loud, quiet = (e0, e1) if k % 2 == 0 else (e1, e0)
        assert loud > 25 * quiet


@pytest.mark.parametrize("count", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "duration, rate",
    [(4.0, SR), (0.05, SR), (1.0, 11025)],  # the fade is n // 2; odd n
)
def test_pool_equals_sequential_sources(count, duration, rate):
    pool = make_source_pool(seed=21, count=count, duration=duration, sample_rate=rate)
    rng = np.random.default_rng(21)
    assert sorted(pool) == [f"src{i:03d}" for i in range(count)]
    for i in range(count):
        want = band_noise_source(rng, duration, rate, band_group=i % 2)
        got = pool[f"src{i:03d}"]
        assert got.sample_rate == rate
        assert np.array_equal(got.samples, want.samples), i
