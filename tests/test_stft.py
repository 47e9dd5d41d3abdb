"""STFT analysis/synthesis contract tests."""

import numpy as np
import pytest

from regionsep import Waveform, compute_features, istft, stft
from regionsep.stft import (
    BLOCK_FRAMES,
    Spectrogram,
    StftConfig,
    clustering_config,
    _window_sum,
    istft_many,
    stft_many,
)
from helpers import oracle_istft, oracle_window_sum

# one frame, 63 to 65 frames, block edges, and several blocks with a
# partial last one
B = BLOCK_FRAMES
FRAME_COUNTS = (1, 63, 64, 65, B - 1, B, B + 1, B + 65, 3 * B + 17)


def _frame_count(length, cfg):
    """The documented frame count of a ``length``-sample signal: frames
    start every hop from half a frame before the first sample, up to the
    last frame that starts at or before the last sample (an empty signal
    has the frames of one sample)."""
    return 1 + (cfg.fft_size // 2 + max(length, 1) - 1) // cfg.hop


def _rel_l2(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(x)


def test_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        StftConfig(fft_size=1000, hop=500, sample_rate=16000)
    with pytest.raises(ValueError, match="hop"):
        StftConfig(fft_size=1024, hop=0, sample_rate=16000)
    with pytest.raises(ValueError, match="hop"):
        StftConfig(fft_size=1024, hop=2048, sample_rate=16000)
    with pytest.raises(ValueError, match="sample_rate"):
        StftConfig(fft_size=1024, hop=512, sample_rate=0)
    # a hop of at most half a frame covers every sample with two frames
    for n in (2, 8, 1024, 4096):
        assert StftConfig(fft_size=n, hop=n // 2, sample_rate=16000).hop == n // 2
        for hop in (n // 2 + 1, n):
            message = f"fft_size {n} with hop {hop} cannot be inverted"
            with pytest.raises(ValueError, match=message):
                StftConfig(fft_size=n, hop=hop, sample_rate=16000)


def test_clustering_config_constants():
    cfg = clustering_config()
    assert cfg.fft_size == 1024
    assert cfg.hop == 512
    assert cfg.sample_rate == 16000
    assert cfg.num_bins == 513
    assert cfg.bin_hz == 15.625


def test_bin16_cosine_concentrated_in_interior_frames():
    cfg = clustering_config()
    n = 16000
    t = np.arange(n)
    x = Waveform(np.cos(2 * np.pi * 250 * t / 16000), 16000)  # exactly bin 16
    spec = stft(x, cfg)
    mags = np.abs(spec.bins)
    # frames fully inside the signal (lead pad 512, hop 512)
    interior = range(1, (512 + n - cfg.fft_size) // cfg.hop + 1)
    assert len(list(interior)) > 10
    for f in interior:
        row = mags[f]
        peak = row[16]
        others = np.delete(row, [15, 16, 17])  # Hann leaks only to adjacent bins
        assert np.all(others <= peak * 1e-3), f"frame {f} leaks beyond adjacent bins"


def test_all_zero_input_and_spectrogram():
    cfg = clustering_config()
    spec = stft(Waveform(np.zeros(3000), 16000), cfg)
    assert np.all(spec.bins == 0)
    back = istft(spec)
    assert np.array_equal(back.samples, np.zeros(3000))


def test_short_input_frame_count_and_round_trip():
    cfg = clustering_config()
    # centered convention: every sample is covered by >= 2 frames, so even a
    # sub-frame input occupies 2 frames; the round trip stays exact
    for n in (1, 100, 1023):
        x = Waveform(np.random.default_rng(n).standard_normal(n) * 0.1, 16000)
        spec = stft(x, cfg)
        assert spec.num_frames == _frame_count(n, cfg)
        assert spec.num_frames == 1 + (512 + n - 1) // 512
        back = istft(spec)
        assert len(back) == n
        assert np.max(np.abs(back.samples - x.samples)) < 1e-12


def test_round_trip_10s_noise():
    cfg = clustering_config()
    x = Waveform(np.random.default_rng(7).standard_normal(160000) * 0.1, 16000)
    back = istft(stft(x, cfg))
    assert _rel_l2(x.samples, back.samples) < 1e-8


def test_identity_mask_round_trip():
    cfg = clustering_config()
    x = Waveform(np.random.default_rng(8).standard_normal(48000) * 0.1, 16000)
    spec = stft(x, cfg)
    back = istft(spec.masked(np.ones(spec.bins.shape, dtype=bool)))
    assert _rel_l2(x.samples, back.samples) < 1e-8


def test_round_trip_awkward_lengths():
    cfg = clustering_config()
    for n in (1024, 1025, 1537, 4096, 50001):
        x = Waveform(np.random.default_rng(n).standard_normal(n) * 0.1, 16000)
        back = istft(stft(x, cfg))
        assert _rel_l2(x.samples, back.samples) < 1e-12


def test_rate_mismatch_rejected():
    cfg = clustering_config()
    with pytest.raises(ValueError, match="rate"):
        stft(Waveform(np.zeros(2048), 8000), cfg)


def test_spectrogram_validation():
    cfg = clustering_config()
    n_frames = _frame_count(2048, cfg)  # 5
    Spectrogram(np.zeros((n_frames, 513), dtype=complex), cfg, 2048)
    for shape in [(n_frames, 100), (n_frames - 1, 513), (n_frames + 1, 513), (513,)]:
        with pytest.raises(ValueError, match=r"inconsistent.*stft gives \(5, 513\)"):
            Spectrogram(np.zeros(shape, dtype=complex), cfg, 2048)
    # the shape is checked before the bins are scanned
    with pytest.raises(ValueError, match="inconsistent"):
        Spectrogram(np.full((4, 513), np.nan + 0j), cfg, 2048)
    bad = np.zeros((n_frames, 513), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Spectrogram(bad, cfg, 2048)
    # an empty signal has two frames; a negative length has none
    empty = np.zeros((_frame_count(0, cfg), 513), dtype=complex)
    assert Spectrogram(empty, cfg, 0).num_frames == 2
    with pytest.raises(ValueError, match="original_length -1 is negative"):
        Spectrogram(empty, cfg, -1)


def test_spectrogram_length_must_be_an_integer():
    # a float length equal to an integer passed the shape check and then
    # failed inside istft with a TypeError
    cfg = clustering_config()
    bins = np.zeros((_frame_count(2048, cfg), 513), dtype=complex)
    with pytest.raises(ValueError, match="original_length 2048.0 is not an integer"):
        Spectrogram(bins, cfg, 2048.0)
    spec = Spectrogram(bins, cfg, np.int64(2048))
    assert np.array_equal(istft(spec).samples, np.zeros(2048))


def test_spectrogram_past_its_frames_is_rejected():
    # four frames at 4096/2048 cover 6144 samples; inverting them over
    # 20000 divided the samples past them by a window sum of 2.2e-14
    cfg = StftConfig(fft_size=4096, hop=2048, sample_rate=16000)
    bins = np.random.default_rng(3).standard_normal((4, cfg.num_bins)) + 0j
    with pytest.raises(ValueError, match=r"20000 samples: stft gives \(11, 2049\)"):
        Spectrogram(bins, cfg, 20000)


@pytest.mark.parametrize("fft_size, hop", [(1024, 512), (1024, 384), (8, 4)])
def test_round_trip_at_frame_boundaries(fft_size, hop):
    """``stft`` then ``istft`` gives back every sample at lengths 0 and 1
    and one sample either side of each length where the frame count
    steps, and a spectrogram with one frame more or fewer than ``stft``
    gives for its length is rejected."""
    cfg = StftConfig(fft_size=fft_size, hop=hop, sample_rate=16000)
    rng = np.random.default_rng(fft_size + hop)
    steps = [f * hop - fft_size // 2 for f in (2, 3, 4, 9)]  # longest with f frames
    lengths = {0, 1} | {max(s + d, 0) for s in steps for d in (-1, 0, 1)}
    for length in sorted(lengths):
        x = Waveform(rng.standard_normal(length) * 0.1, 16000)
        spec = stft(x, cfg)
        assert spec.num_frames == _frame_count(length, cfg)
        back = istft(spec)
        assert len(back) == length
        assert np.max(np.abs(back.samples - x.samples), initial=0.0) < 1e-12
        row = np.zeros((1, cfg.num_bins), dtype=complex)
        for bins in (spec.bins[:-1], np.vstack([spec.bins, row])):
            with pytest.raises(ValueError, match="inconsistent"):
                Spectrogram(bins, cfg, length)


def _istft_oracle(spec):
    """Frame-by-frame weighted overlap-add: the reference istft is held to."""
    cfg = spec.config
    n, hop = cfg.fft_size, cfg.hop
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(n) + 0.5) / n)
    frames = np.fft.irfft(spec.bins, n=n, axis=1) * win
    out_len = (spec.num_frames - 1) * hop + n
    acc = np.zeros(out_len)
    wsum = np.zeros(out_len)
    for t in range(spec.num_frames):
        acc[t * hop : t * hop + n] += frames[t]
        wsum[t * hop : t * hop + n] += win * win
    kept = slice(n // 2, n // 2 + spec.original_length)
    return acc[kept] / wsum[kept]


def _unblocked_stft_bins(x, cfg):
    """One ``rfft`` of the whole frame matrix: the reference stft is held to."""
    n, hop, lead = cfg.fft_size, cfg.hop, cfg.fft_size // 2
    n_frames = _frame_count(len(x), cfg)
    padded = np.zeros((n_frames - 1) * hop + n)
    padded[lead : lead + len(x)] = x.samples
    frames = np.stack([padded[t * hop : t * hop + n] for t in range(n_frames)])
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(n) + 0.5) / n)
    return np.fft.rfft(frames * win, axis=1)


@pytest.mark.parametrize(
    "fft_size, hop, exact",
    [
        (1024, 512, True),
        (1024, 256, False),
        (1024, 384, False),
        (256, 128, True),
        (2048, 1024, True),
    ],
)
def test_istft_matches_frame_loop_oracle(fft_size, hop, exact):
    # stft rows are independent transforms, so blocking leaves them equal.
    # At hop = N/2 every sample sums two frames, so the blocked phase-wise
    # overlap-add is bit-identical; with more overlap only the summation
    # order differs
    cfg = StftConfig(fft_size=fft_size, hop=hop, sample_rate=16000)
    rng = np.random.default_rng(fft_size + hop)
    # the longest signal with each frame count; a count that needs fewer
    # samples than one is below this hop's minimum and is left out
    cases = [(20001, _frame_count(20001, cfg))]
    cases += [(f * hop - fft_size // 2, f) for f in FRAME_COUNTS]
    for length, n_frames in cases:
        if length < 1:
            continue
        x = Waveform(rng.standard_normal(length) * 0.1, 16000)
        spec = stft(x, cfg)
        assert spec.num_frames == n_frames
        assert np.array_equal(spec.bins, _unblocked_stft_bins(x, cfg))
        mask = rng.random(spec.bins.shape) < 0.5
        got = [istft(spec)] + istft_many(spec, [mask, ~mask])
        want = [_istft_oracle(s) for s in (spec, spec.masked(mask), spec.masked(~mask))]
        for g, w in zip(got, want):
            if exact:
                assert np.array_equal(g.samples, w)
            else:
                assert np.max(np.abs(g.samples - w)) <= 1e-12


def test_istft_many_rejects_a_mask_of_another_shape():
    spec = stft(Waveform(np.zeros(4000), 16000), clustering_config())
    with pytest.raises(ValueError, match="mask shape"):
        istft_many(spec, [None, np.ones(spec.bins.shape[1], dtype=bool)])


def test_istft_keeps_original_length_beyond_frames():
    """Random bins, which no signal has, keep every sample up to the
    original length, those past the last frame's start included, within
    twice the largest inverse-transform sample: at ``hop = N/2`` a sample
    is ``(w1 a + w2 b) / (w1**2 + w2**2)`` with ``w1 + w2 = 1`` and
    ``w1**2 + w2**2 >= 1/2``, at most ``2 max(|a|, |b|)``."""
    for fft_size, length in [(1024, 5000), (4096, 20000)]:
        cfg = StftConfig(fft_size=fft_size, hop=fft_size // 2, sample_rate=16000)
        shape = (_frame_count(length, cfg), cfg.num_bins)
        bins = np.random.default_rng(3).standard_normal(shape) + 0j
        spec = Spectrogram(bins, cfg, length)
        back = istft(spec)
        assert len(back) == length
        assert np.array_equal(back.samples, _istft_oracle(spec))
        frames = np.fft.irfft(bins, n=fft_size, axis=1)
        assert np.max(np.abs(back.samples)) <= 2 * np.max(np.abs(frames))


@pytest.mark.parametrize("hop", [512, 256, 384])
def test_istft_keeps_the_block_summation_order(hop):
    """Each sample's terms are summed in the order of a frame-by-frame
    loop over each block's frames by phase, then by time, bit for bit at
    every hop. The frame-loop test sums in time order, so where three or
    more frames overlap (hops 256 and 384) it checks only to 1e-12; this
    test pins the order there, which the output bits depend on."""
    cfg = StftConfig(fft_size=1024, hop=hop, sample_rate=16000)
    rng = np.random.default_rng(hop)
    for n_frames in FRAME_COUNTS[1:]:
        length = n_frames * hop - 512
        spec = stft(Waveform(rng.standard_normal(length) * 0.1, 16000), cfg)
        mask = rng.random(spec.bins.shape) < 0.5
        got = istft_many(spec, [None, mask])
        assert np.array_equal(got[0].samples, oracle_istft(spec))
        assert np.array_equal(got[1].samples, oracle_istft(spec, mask))


def test_istft_many_of_nothing_is_empty():
    spec = stft(Waveform(np.zeros(4000), 16000), clustering_config())
    assert istft_many(spec, []) == []


@pytest.mark.parametrize("hop", [512, 256, 384])
def test_window_sum_equals_the_oracle_overlap_add(hop):
    """``_window_sum`` alone equals a frame-by-frame sum of the squared
    window in phase order, bit for bit at every hop: every sample, at
    frame counts up to 3751 and at the shortest, a middle and the longest
    length with each count. The frame-loop test sees the window sum only
    through whole inversions, at one length per frame count and, where
    three or more frames overlap, only to 1e-12."""
    cfg = StftConfig(fft_size=1024, hop=hop, sample_rate=16000)
    for n_frames in (2, 3, 5, 11, 12, 13, 63, 64, 65, 255, 256, 257, 3751):
        longest = n_frames * hop - 512
        for length in {max(longest - hop + 1, 1), longest - hop // 3, longest}:
            if length < 1 or _frame_count(length, cfg) != n_frames:
                continue  # fewer frames than a signal at this hop has
            want = oracle_window_sum(cfg, n_frames, length)
            got = _window_sum(cfg, length)
            assert np.array_equal(got, want), (n_frames, length)


def test_window_sum_is_at_least_one_half():
    """With a hop of at most half a frame, the squared-window sum that an
    inversion divides by is at least 1/2 at every sample of the signal:
    one sample, the lead-in and one hop period, and three frames and one."""
    for n in (2, 4, 8, 16, 32, 64, 128, 256):
        for hop in range(1, n // 2 + 1):
            cfg = StftConfig(fft_size=n, hop=hop, sample_rate=16000)
            for length in (1, n // 2 + hop, 3 * n + 1):
                wsum = _window_sum(cfg, length)
                assert len(wsum) == length and wsum.min() >= 0.5, (n, hop, length)


def _spectrogram_pair(n_frames, seed=0):
    cfg = clustering_config()
    rng = np.random.default_rng(seed)
    length = n_frames * cfg.hop - cfg.fft_size // 2
    return [stft(Waveform(rng.standard_normal(length) * 0.1, 16000), cfg) for _ in "lr"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", [0, B - 1, B, 2 * B + 9])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_features_check_the_bins_stft_does_not_scan(row, bad):
    # stft_many's spectrograms skip the finiteness scan; compute_features
    # raises on a NaN or Inf bin in any block, or on bins whose energy
    # overflows, wherever the block sits among the finite ones
    spec_l, spec_r = _spectrogram_pair(2 * B + 10)
    spec_r.bins[row, 7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        compute_features(spec_l, spec_r, 561.8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stft_of_an_overflowing_signal_is_caught_by_the_features():
    # stft_many, separate()'s path, leaves the check to compute_features
    cfg = clustering_config()
    x = Waveform(np.full(8000, 1e306), 16000)
    (spec,) = stft_many([x], cfg)
    assert not np.all(np.isfinite(spec.bins))
    with pytest.raises(ValueError, match="non-finite"):
        compute_features(spec, spec, 561.8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stft_and_istft_raise_on_an_overflowing_transform():
    cfg = clustering_config()
    with pytest.raises(ValueError, match="non-finite"):
        stft(Waveform(np.full(8000, 1e306), 16000), cfg)
    # finite bins whose inverse overflows
    bins = np.full((_frame_count(8000, cfg), cfg.num_bins), 1e306 + 0j)
    with pytest.raises(ValueError, match="NaN or Inf"):
        istft(Spectrogram(bins, cfg, 8000))
