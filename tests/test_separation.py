"""Selective spatial separation pipeline tests."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

import regionsep.parallel as parallel
from regionsep import (
    BinauralSignal,
    Discarded,
    Passthrough,
    Separated,
    SeparationConfig,
    Waveform,
    aliased_frequency_masks,
    compute_features,
    dominance_sets,
    istft,
    low_frequency_masks,
    separate,
    snri,
    stft,
)
from regionsep.features import FeatureGrid
from regionsep.itd_model import REASON_PEAKS_TOO_CLOSE, GaussianComponent
from regionsep.separation import REASON_NO_DOMINANT_FRAMES
from regionsep.stft import StftConfig
from helpers import (
    SR,
    check_mask_algebra,
    oracle_aliased_frequency_masks,
    single_source_scene,
    swap_ears,
    two_source_scene,
)


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        SeparationConfig(alpha=1.0)
    # 1/(2*dt) = 9 kHz, above the 8 kHz nyquist of the 16 kHz default
    with pytest.raises(ValueError, match="delta_tau_max .* outside \\(0, nyquist\\)"):
        SeparationConfig(delta_tau_max=1.0 / 18000.0)
    # 1/(2*6.25e-5) is exactly the 8000.0 Hz nyquist, which is outside too
    with pytest.raises(ValueError, match="aliasing frequency 8000.0 outside"):
        SeparationConfig(delta_tau_max=6.25e-5)
    with pytest.raises(ValueError, match="delta_tau_max must be positive"):
        SeparationConfig(delta_tau_max=0.0)
    with pytest.raises(ValueError, match="positive"):
        SeparationConfig(sigma_th=0.0)
    with pytest.raises(ValueError, match="positive"):
        SeparationConfig(delta_tau_min=0.0)
    # without overlap a 2048-point window's squared edge is below the floor
    with pytest.raises(ValueError, match="fft_size 2048 with hop 2048 cannot be"):
        SeparationConfig(stft=StftConfig(2048, 2048, SR))
    for fft_size, hop in ((1024, 1024), (4096, 2048)):
        SeparationConfig(stft=StftConfig(fft_size, hop, SR))


def test_dominance_hand_trace_no_decay():
    t1, t2, alpha = dominance_sets([10.0, 1.0, 5.0], [1.0, 10.0, 5.0], 5.0)
    assert list(t1) == [0]
    assert list(t2) == [1]
    assert alpha == 5.0


def test_dominance_decay_sequence():
    t1, t2, alpha = dominance_sets([2.0, 1.0], [1.0, 2.0], 5.0)
    assert list(t1) == [0]
    assert list(t2) == [1]
    # first alpha below 2 is 5 * 0.9^9
    assert alpha == pytest.approx(5.0 * 0.9**9)


def test_dominance_abandons_on_proportional_energies():
    assert dominance_sets([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 5.0) is None


def test_dominance_validation():
    with pytest.raises(ValueError, match="alpha"):
        dominance_sets([1.0], [1.0], 1.0)
    with pytest.raises(ValueError, match="equal length"):
        dominance_sets([1.0, 2.0], [1.0], 5.0)


def _toy_grid(itd_row, excluded_row=None, ild=None, aliasing_bin=4):
    itd = np.array([itd_row], dtype=float)
    shape = itd.shape
    excluded = (
        np.array([excluded_row], dtype=bool)
        if excluded_row is not None
        else np.zeros(shape, dtype=bool)
    )
    return FeatureGrid(
        itd_low=itd[:, 1:aliasing_bin],
        ild=np.zeros(shape) if ild is None else np.array(ild, dtype=float),
        energy=np.ones(shape),
        excluded=excluded,
        aliasing_bin=aliasing_bin,
    )


def test_low_masks_assignment_and_tie_break():
    c1 = GaussianComponent(-1e-4, 2e-5, 0.5)
    c2 = GaussianComponent(1e-4, 2e-5, 0.5)
    nan = np.nan
    # bins: DC (nan), at mu1, at mu2, equal-posterior midpoint, aliased (nan)
    grid = _toy_grid([nan, -1e-4, 1e-4, 0.0, nan])
    m1, m2 = low_frequency_masks(grid, (c1, c2))
    assert m1.tolist() == [[False, True, False, True, False]]
    assert m2.tolist() == [[False, False, True, False, False]]


def test_low_masks_exclude_floor_bins():
    c1 = GaussianComponent(-1e-4, 2e-5, 0.5)
    c2 = GaussianComponent(1e-4, 2e-5, 0.5)
    grid = _toy_grid(
        [np.nan, -1e-4, 1e-4, 0.0, np.nan],
        excluded_row=[True, True, True, True, True],
    )
    m1, m2 = low_frequency_masks(grid, (c1, c2))
    assert not m1.any() and not m2.any()


def test_aliased_masks_threshold_and_ties():
    # 2 frames, 6 bins, aliasing at bin 2: high bins are 2..5
    ild = np.array(
        [
            [0.0, 0.0, 6.0, 6.0, 3.0, 0.0],
            [0.0, 0.0, -6.0, -6.0, -3.0, 0.0],
        ]
    )
    grid = FeatureGrid(
        itd_low=np.full((2, 1), np.nan),
        ild=ild,
        energy=np.ones((2, 6)),
        excluded=np.zeros((2, 6), dtype=bool),
        aliasing_bin=2,
    )
    m1, m2 = aliased_frequency_masks(grid, np.array([0]), np.array([1]))
    # frame 0 rides source 1's side of the midpoint; ties (bin 5, threshold 0
    # equals the value) and degenerate thresholds go to source 1
    assert m1[0, 2:].tolist() == [True, True, True, True]
    assert m2[0, 2:].tolist() == [False, False, False, False]
    assert m1[1, 2:].tolist() == [False, False, False, True]
    assert m2[1, 2:].tolist() == [True, True, True, False]
    assert not m1[:, :2].any() and not m2[:, :2].any()  # low bins untouched
    with pytest.raises(ValueError, match="non-empty"):
        aliased_frequency_masks(grid, np.array([]), np.array([1]))


def test_aliased_masks_respect_exclusion():
    ild = np.array([[0.0, 6.0], [0.0, -6.0]])
    excluded = np.array([[False, True], [False, False]])
    grid = FeatureGrid(
        itd_low=np.zeros((2, 0)),
        ild=ild,
        energy=np.ones((2, 2)),
        excluded=excluded,
        aliasing_bin=1,
    )
    m1, m2 = aliased_frequency_masks(grid, np.array([0]), np.array([1]))
    assert not m1[0, 1] and not m2[0, 1]  # excluded bin stays out of both


def _tied_high_band_grid(rng, n_frames, aliasing_bin=36, n_bins=513):
    """A grid whose ILDs sit on a half-dB lattice. Rows 0, 3, 6, ... hold
    each column's source-1 value and rows 1, 4, 7, ... its source-2 value,
    so the dominant-frame means are exact; the other rows hold either
    value, their exact midpoint (a tie) or another lattice value. A
    quarter of the columns are degenerate (equal values), a fifth of the
    bins and every tenth row are excluded."""
    a = rng.integers(-12, 13, n_bins) / 2.0
    b = rng.integers(-12, 13, n_bins) / 2.0
    degenerate = rng.random(n_bins) < 0.25
    b[degenerate] = a[degenerate]
    choices = np.stack([a, b, 0.5 * (a + b), rng.integers(-12, 13, n_bins) / 2.0])
    ild = choices[rng.integers(0, 4, (n_frames, n_bins)), np.arange(n_bins)]
    ild[0::3] = a
    ild[1::3] = b
    excluded = rng.random((n_frames, n_bins)) < 0.2
    excluded[5::10] = True
    grid = FeatureGrid(
        itd_low=np.full((n_frames, min(aliasing_bin, n_bins) - 1), np.nan),
        ild=ild,
        energy=np.ones((n_frames, n_bins)),
        excluded=excluded,
        aliasing_bin=aliasing_bin,
    )
    frames1 = np.arange(0, n_frames, 3)
    frames2 = np.arange(1, n_frames, 3) if n_frames > 1 else frames1
    return grid, frames1, frames2


@pytest.mark.parametrize("n_frames", [1, 63, 64, 65, 255, 256, 257, 3751])
def test_blocked_aliased_masks_equal_the_sign_product(n_frames):
    rng = np.random.default_rng(n_frames)
    grid, frames1, frames2 = _tied_high_band_grid(rng, n_frames)
    hi = grid.ild[:, 36:]
    threshold = 0.5 * (hi[frames1].mean(axis=0) + hi[frames2].mean(axis=0))
    if n_frames > 2:
        assert np.any(hi[2::3] == threshold)  # exact ties are exercised
    got = aliased_frequency_masks(grid, frames1, frames2)
    want = oracle_aliased_frequency_masks(grid, frames1, frames2)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert not got[0][5::10].any() and not got[1][5::10].any()


def test_blocked_aliased_masks_on_real_features_and_an_empty_band():
    mixture, *_ = two_source_scene(300.0, 60.0, seed=11, duration=20.0)
    cfg = SeparationConfig()
    grid = compute_features(
        stft(mixture.left, cfg.stft), stft(mixture.right, cfg.stft), cfg.f_aliasing
    )
    rng = np.random.default_rng(4)
    for _ in range(5):
        frames1, frames2 = np.sort(rng.choice(grid.ild.shape[0], (2, 40)))
        got = aliased_frequency_masks(grid, frames1, frames2)
        want = oracle_aliased_frequency_masks(grid, frames1, frames2)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # no high band: both masks stay empty
    empty, frames1, frames2 = _tied_high_band_grid(rng, 300, aliasing_bin=513)
    m1, m2 = aliased_frequency_masks(empty, frames1, frames2)
    assert not m1.any() and not m2.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_separate_rejects_a_recording_whose_transform_overflows():
    # finite samples whose DC bins overflow to Inf
    loud = BinauralSignal(
        Waveform(np.full(40000, 1e306), SR), Waveform(np.full(40000, -1e306), SR)
    )
    with pytest.raises(ValueError, match="non-finite"):
        separate(loud, SeparationConfig())


def test_single_source_passthrough():
    cfg = SeparationConfig()
    signal, true_itd = single_source_scene(40.0, seed=101)
    outcome = separate(signal, cfg)
    assert isinstance(outcome, Passthrough)
    assert abs(outcome.itd - true_itd) < 2e-5
    # passthrough returns the input untouched
    assert outcome.signal is signal
    assert np.array_equal(outcome.signal.left.samples, signal.left.samples)


def test_two_sources_90_degrees_apart_separated():
    cfg = SeparationConfig()
    mixture, s1, s2, itd1, itd2 = two_source_scene(315.0, 45.0, seed=202)
    outcome = separate(mixture, cfg)
    assert isinstance(outcome, Separated)
    check_mask_algebra(mixture, cfg, outcome.masks)

    # match estimates to references by ITD and require > 5 dB improvement
    pairs = sorted(
        [(outcome.itd1, outcome.source1), (outcome.itd2, outcome.source2)],
        key=lambda p: p[0],
    )
    refs = sorted([(itd1, s1), (itd2, s2)], key=lambda p: p[0])
    for (est_itd, est), (ref_itd, ref) in zip(pairs, refs):
        assert abs(est_itd - ref_itd) < 2e-5
        for side in ("left", "right"):
            gain = snri(
                getattr(ref, side).samples,
                getattr(est, side).samples,
                getattr(mixture, side).samples,
            )
            assert gain > 5.0


def test_two_sources_10_degrees_apart_discarded():
    cfg = SeparationConfig()
    mixture, *_ = two_source_scene(15.0, 25.0, seed=303)
    outcome = separate(mixture, cfg)
    assert isinstance(outcome, Discarded)
    assert outcome.reason == REASON_PEAKS_TOO_CLOSE


def test_two_steady_tones_have_no_dominant_frames():
    # tones at the unaliased bins 16 and 32, 0.8 ms apart in ITD, under one
    # smooth envelope: the ITDs form two tight peaks, but the second tone
    # carries four times the first's energy in every frame
    t = np.arange(4 * SR) / SR
    envelope = 0.5 - 0.5 * np.cos(np.pi * np.minimum(1.0, np.minimum(t, t[::-1]) / 0.5))

    def tones(delay1: float, delay2: float) -> Waveform:
        low = 0.1 * np.sin(2 * np.pi * 250.0 * (t - delay1))
        high = 0.2 * np.sin(2 * np.pi * 500.0 * (t - delay2))
        return Waveform(envelope * (low + high), SR)

    mixture = BinauralSignal(tones(0.0, 0.0), tones(4e-4, -4e-4))
    outcome = separate(mixture, SeparationConfig())
    assert outcome == Discarded(REASON_NO_DOMINANT_FRAMES)


def test_input_validation():
    cfg = SeparationConfig()
    short = BinauralSignal(
        Waveform(np.zeros(1000), SR), Waveform(np.zeros(1000), SR)
    )
    with pytest.raises(ValueError, match="too short"):
        separate(short, cfg)
    wrong_rate = BinauralSignal(
        Waveform(np.zeros(10000), 8000), Waveform(np.zeros(10000), 8000)
    )
    with pytest.raises(ValueError, match="rate"):
        separate(wrong_rate, cfg)


def test_separated_channels_equal_istft_of_masked_spectrograms():
    cfg = SeparationConfig()
    mixture, *_ = two_source_scene(315.0, 45.0, seed=202)
    outcome = separate(mixture, cfg)
    assert isinstance(outcome, Separated)
    for mask, est in zip(outcome.masks, (outcome.source1, outcome.source2)):
        for side in ("left", "right"):
            spec = stft(getattr(mixture, side), cfg.stft)
            want = istft(spec.masked(mask)).samples
            assert np.array_equal(getattr(est, side).samples, want)


def test_separate_same_bits_on_threads_and_serially(monkeypatch):
    # 20 s is several frame blocks, so the transforms fan out to threads
    mixture, *_ = two_source_scene(315.0, 45.0, seed=202, duration=20.0)
    outcomes = []
    for cpus in (2, 1):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        outcomes.append(separate(mixture, SeparationConfig()))
    threaded, serial = outcomes
    assert isinstance(threaded, Separated) and isinstance(serial, Separated)
    for a, b in zip(threaded.masks, serial.masks):
        assert np.array_equal(a, b)
    pairs = zip((threaded.source1, threaded.source2), (serial.source1, serial.source2))
    for a, b in pairs:
        assert np.array_equal(a.left.samples, b.left.samples)
        assert np.array_equal(a.right.samples, b.right.samples)


@pytest.mark.parametrize("duration, pools", [(4.0, 0), (20.0, 3)])
def test_separate_uses_threads_only_past_one_frame_block(monkeypatch, duration, pools):
    # 4 s fits in one block and runs serially; 20 s fans out its forward
    # transforms, its feature blocks and its inversions, one thread pool each
    started = []

    class CountingPool(parallel.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", CountingPool)
    mixture, *_ = two_source_scene(315.0, 45.0, seed=202, duration=duration)
    assert isinstance(separate(mixture, SeparationConfig()), Separated)
    assert len(started) == pools


def test_separate_traced_memory_per_input_second():
    # the peak of everything separate() allocates, per second of input
    seconds = 20.0
    mixture, *_ = two_source_scene(315.0, 45.0, seed=202, duration=seconds)
    tracemalloc.start()
    try:
        outcome = separate(mixture, SeparationConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(outcome, Separated)
    assert peak / 1e6 / seconds <= 2.0


# Metamorphic properties of separate() on 12 seeded 4 s mixtures: 11
# two-source scenes at seeded azimuths and one single source. A power-of-2
# gain scales every output exactly; swapping the ears swaps the sources and
# masks, mirrors each source's channels and negates the ITDs.
N_METAMORPHIC = 12


@lru_cache(maxsize=None)
def _metamorphic_case(k: int):
    """Mixture ``k`` and its outcome at the default config."""
    if k == N_METAMORPHIC - 1:
        mixture = single_source_scene(40.0, seed=101)[0]
    else:
        azimuths = np.random.default_rng(16).uniform(0.0, 360.0, (N_METAMORPHIC - 1, 2))
        az1, az2 = azimuths[k]
        mixture = two_source_scene(az1, az2, seed=600 + k)[0]
    return mixture, separate(mixture, SeparationConfig())


def _channels(sig: BinauralSignal):
    return sig.left.samples, sig.right.samples


def _same_kind(outcome, other):
    assert type(other) is type(outcome)
    if isinstance(outcome, Discarded):
        assert other.reason == outcome.reason


def test_metamorphic_cases_cover_every_outcome():
    kinds = {type(_metamorphic_case(k)[1]) for k in range(N_METAMORPHIC)}
    assert kinds == {Separated, Passthrough, Discarded}


@pytest.mark.parametrize("k", range(N_METAMORPHIC))
@pytest.mark.parametrize("exponent", [1, -2])
def test_a_power_of_two_gain_scales_every_output_exactly(k, exponent):
    mixture, outcome = _metamorphic_case(k)
    gain = 2.0**exponent
    scaled_input = BinauralSignal(*(Waveform(x * gain, SR) for x in _channels(mixture)))
    scaled = separate(scaled_input, SeparationConfig())
    _same_kind(outcome, scaled)
    if isinstance(outcome, Passthrough):
        assert scaled.itd == outcome.itd
        assert scaled.signal is scaled_input
    elif isinstance(outcome, Separated):
        assert (scaled.itd1, scaled.itd2) == (outcome.itd1, outcome.itd2)
        assert scaled.final_alpha == outcome.final_alpha
        for got, want in zip(scaled.masks, outcome.masks):
            assert np.array_equal(got, want)
        pairs = ((scaled.source1, outcome.source1), (scaled.source2, outcome.source2))
        for got, want in pairs:
            for x, y in zip(_channels(got), _channels(want)):
                assert np.array_equal(x, y * gain)


@pytest.mark.parametrize("k", range(N_METAMORPHIC))
def test_an_ear_swap_mirrors_every_output(k):
    mixture, outcome = _metamorphic_case(k)
    swapped = swap_ears(mixture)
    mirrored = separate(swapped, SeparationConfig())
    _same_kind(outcome, mirrored)
    if isinstance(outcome, Passthrough):
        assert mirrored.itd == pytest.approx(-outcome.itd, rel=1e-12, abs=0.0)
        assert mirrored.signal is swapped
    elif isinstance(outcome, Separated):
        # the components are ordered by ITD, so the two sources swap places
        assert mirrored.itd1 == pytest.approx(-outcome.itd2, rel=1e-12, abs=0.0)
        assert mirrored.itd2 == pytest.approx(-outcome.itd1, rel=1e-12, abs=0.0)
        assert np.array_equal(mirrored.masks[0], outcome.masks[1])
        assert np.array_equal(mirrored.masks[1], outcome.masks[0])
        sources = (outcome.source1, outcome.source2)
        for got, want in zip((mirrored.source2, mirrored.source1), sources):
            assert all(map(np.array_equal, _channels(got), _channels(swap_ears(want))))
