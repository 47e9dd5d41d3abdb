"""Shared fixtures-in-spirit: scene builders and tree checksums for tests."""

from __future__ import annotations

import hashlib
import math
import struct
from functools import lru_cache
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from regionsep import (
    BinauralSignal,
    HrirBank,
    SeparationConfig,
    Waveform,
    compute_features,
    fit_single_gaussian,
    make_spherical_bank,
    render_binaural_source,
    spherical_itd,
    stft,
)
from regionsep.scenes import (
    RENDER_GROUP_BLOCKS,
    RegionMixtureSet,
    _fft_size,
    region_of_azimuth,
)
from regionsep.signals import band_noise_source
from regionsep.stft import (
    BLOCK_FRAMES,
    WSUM_FLOOR,
    Spectrogram,
    _lead_pad,
    _overlap_add,
    _synthesis_length,
    _window,
    padded_frames,
)

SR = 16000
DTM = SeparationConfig().delta_tau_max  # seconds


@lru_cache(maxsize=2)
def spherical_bank(step: float = 5.0):
    return make_spherical_bank(np.arange(0.0, 360.0, step), DTM, SR)


def mixed_tap_bank() -> HrirBank:
    """One entry per region side, each with its own tap count: 256 and 300
    taps (two FFT lengths) in region 1, 1 tap in region 2, 7 in region 3."""
    rng = np.random.default_rng(21)
    taps = {0.0: 256, 90.0: 7, 180.0: 300, 270.0: 1}
    return HrirBank(
        entries={
            az: tuple(Waveform(rng.standard_normal(n) * 0.3, SR) for _ in "lr")
            for az, n in taps.items()
        },
        sample_rate=SR,
    )


def single_source_scene(
    azimuth: float,
    seed: int,
    duration: float = 4.0,
    group: Optional[int] = None,
) -> Tuple[BinauralSignal, float]:
    """Band-noise source rendered at one azimuth; returns (signal, true ITD)."""
    rng = np.random.default_rng(seed)
    src = band_noise_source(rng, duration, SR, band_group=group)
    bank = spherical_bank()
    rendered = render_binaural_source(src, bank, azimuth, duration)
    return rendered, spherical_itd(bank.nearest_azimuth(azimuth), DTM)


def two_source_scene(
    az1: float, az2: float, seed: int, duration: float = 4.0
) -> Tuple[BinauralSignal, BinauralSignal, BinauralSignal, float, float]:
    """Opposite-group pair; returns (mixture, s1, s2, itd1, itd2)."""
    rng = np.random.default_rng(seed)
    src1 = band_noise_source(rng, duration, SR, band_group=0)
    src2 = band_noise_source(rng, duration, SR, band_group=1)
    bank = spherical_bank()
    s1 = render_binaural_source(src1, bank, az1, duration)
    s2 = render_binaural_source(src2, bank, az2, duration)
    mixture = BinauralSignal(
        Waveform(s1.left.samples + s2.left.samples, SR),
        Waveform(s1.right.samples + s2.right.samples, SR),
    )
    return mixture, s1, s2, spherical_itd(az1, DTM), spherical_itd(az2, DTM)


def swap_ears(sig: BinauralSignal) -> BinauralSignal:
    """The same signal with its left and right channels exchanged."""
    return BinauralSignal(left=sig.right, right=sig.left)


def check_mask_algebra(
    mixture: BinauralSignal, cfg: SeparationConfig, masks
) -> None:
    """Disjointness, coverage of non-excluded bins, exact energy split."""
    mask1, mask2 = masks
    grid = compute_features(
        stft(mixture.left, cfg.stft),
        stft(mixture.right, cfg.stft),
        cfg.f_aliasing,
        cfg.energy_floor_db,
    )
    assert not np.any(mask1 & mask2), "masks overlap"
    assert np.array_equal(mask1 | mask2, ~grid.excluded), (
        "masks do not cover exactly the non-excluded bins"
    )
    split = grid.energy * mask1 + grid.energy * mask2
    kept = grid.energy * ~grid.excluded
    assert np.array_equal(split, kept), "masked energies do not sum exactly"


def tree_digest(root) -> str:
    """SHA-256 over the relative path of every directory under root, and
    (relative path, bytes) of every file, so an empty directory counts."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(root.rglob("*")):
        h.update(str(path.relative_to(root)).encode())
        if path.is_dir():
            h.update(b"/\x00")
        else:
            h.update(b"\x00")
            h.update(path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------- whole-array oracles
#
# The codec, the feature stage, the high-band masks and the squared-window
# sum work in blocks or periods; these are their former whole-array
# formulas, which the new code must equal bit for bit. The renderer's
# oracle is the direct convolution it replaced; overlap-save sums in
# another order, so it agrees to rounding. The scene oracle renders each
# source whole and sums the regions afterwards, which ``synth_scene`` must
# equal bit for bit. The log-density oracle stacks two separately built
# rows, which the broadcast ``log_joint`` must equal bit for bit.


def oracle_write_wav(signal, path) -> int:
    """``write_wav`` as one whole-array encode: stack, scale, round, clip."""
    if isinstance(signal, BinauralSignal):
        frames = np.stack([signal.left.samples, signal.right.samples], axis=1)
    else:
        frames = signal.samples[:, None]
    channels = frames.shape[1]
    clipped = int(np.count_nonzero((frames > 1.0) | (frames < -1.0)))
    ints = np.clip(np.round(frames * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack(
                "<IHHIIHH", 16, 1, channels, signal.sample_rate,
                signal.sample_rate * channels * 2, channels * 2, 16,
            ),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    Path(path).write_bytes(header + payload)
    return clipped


def oracle_decode(payload: bytes, channels: int, dtype: str):
    """The channels of a WAV data chunk, decoded as one interleaved array."""
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if dtype == "<i2":
        samples /= 32768.0
    samples = samples.reshape(-1, channels)
    return [samples[:, c].copy() for c in range(channels)]


def oracle_features(
    spec_left: Spectrogram, spec_right: Spectrogram, f_aliasing: float, floor_db: float
) -> dict:
    """Full-grid ``itd``, ``ild``, ``energy`` and ``excluded``, computed whole.

    ``ml * np.conj(mr)`` stays as written: NumPy's temporary elision picks
    its operand order by the grid's size, and the blocked code must follow.
    """
    cfg = spec_left.config
    ml, mr = spec_left.bins, spec_right.bins
    cross = ml * np.conj(mr)
    k_alias = int(np.ceil(f_aliasing / cfg.bin_hz))
    freqs = np.arange(cfg.num_bins) * cfg.bin_hz
    itd = np.full(cross.shape, np.nan)
    lo = slice(1, max(1, min(k_alias, cfg.num_bins)))
    phase = np.angle(cross[:, lo])
    phase = np.where(phase <= -np.pi, phase + 2.0 * np.pi, phase)
    itd[:, lo] = phase / (2.0 * np.pi * freqs[None, lo])
    abs_l = np.abs(ml)
    abs_r = np.abs(mr)
    ild = 20.0 * np.log10(np.maximum(abs_l, 1e-12) / np.maximum(abs_r, 1e-12))
    energy = abs_l * abs_l + abs_r * abs_r
    peak = energy.max() if energy.size else 0.0
    if peak > 0.0:
        excluded = energy < peak * 10.0 ** (-abs(floor_db) / 10.0)
    else:
        excluded = np.ones(energy.shape, dtype=bool)
    return {"itd": itd, "ild": ild, "energy": energy, "excluded": excluded}


def oracle_render(samples: np.ndarray, taps: np.ndarray, gain: float, n_out: int):
    """One ear of ``_render_source`` as a direct convolution: the first
    ``n_out`` samples of ``gain * np.convolve(samples, taps)``, zero-padded."""
    y = gain * np.convolve(samples, taps)
    out = np.zeros(n_out)
    m = min(n_out, y.size)
    out[:m] = y[:m]
    return out


def oracle_single_gaussian_log_likelihood(samples) -> float:
    """Log-likelihood of ``samples`` under their ``fit_single_gaussian`` fit."""
    c = fit_single_gaussian(samples)
    z = (np.asarray(samples, dtype=np.float64) - c.mean) / c.std
    return float(np.sum(-0.5 * z * z - math.log(c.std) - 0.5 * math.log(2.0 * math.pi)))


def oracle_overlap_save(x, h_left, h_right, n_out):
    """Each ear's first ``n_out`` samples of ``x`` convolved with its taps,
    by the renderer's overlap-save groups, written whole into fresh zeros."""
    taps = max(len(h_left), len(h_right))
    n_fft = _fft_size(taps)
    step = n_fft - taps + 1
    spectra = np.stack([np.fft.rfft(h_left, n=n_fft), np.fft.rfft(h_right, n=n_fft)])
    left, right = np.zeros(n_out), np.zeros(n_out)
    n_valid = min(n_out, len(x) + taps - 1)
    for a in range(0, n_valid, RENDER_GROUP_BLOCKS * step):
        b = min(a + RENDER_GROUP_BLOCKS * step, n_valid)
        frames = padded_frames(x, a - (taps - 1), -(-(b - a) // step), n_fft, step)
        spectrum = np.fft.rfft(frames, axis=1)
        y = np.fft.irfft(spectrum[:, None, :] * spectra, n=n_fft, axis=2)
        left[a:b] = y[:, 0, taps - 1 :].reshape(-1)[: b - a]
        right[a:b] = y[:, 1, taps - 1 :].reshape(-1)[: b - a]
    return left, right


def oracle_synth_scene(spec, bank, layout, pool) -> RegionMixtureSet:
    """``synth_scene`` as each source rendered whole and scaled by its gain,
    then added into its region, then the regions summed into the mixture."""
    n_out = int(round(spec.duration * bank.sample_rate))
    regions = [(np.zeros(n_out), np.zeros(n_out)) for _ in range(layout.num_regions)]
    active = [False] * layout.num_regions
    for src in spec.sources:
        snapped = bank.nearest_azimuth(src.azimuth)
        h_left, h_right = bank.entries[snapped]
        left, right = oracle_overlap_save(
            pool[src.source_id].samples, h_left.samples, h_right.samples, n_out
        )
        left *= src.gain
        right *= src.gain
        region = region_of_azimuth(layout, snapped)
        region_l, region_r = regions[region - 1]
        region_l += left
        region_r += right
        active[region - 1] = True
    mix_l, mix_r = np.zeros(n_out), np.zeros(n_out)
    for left, right in regions:
        mix_l += left
        mix_r += right

    def binaural(left, right):
        return BinauralSignal(
            Waveform(left, bank.sample_rate), Waveform(right, bank.sample_rate)
        )

    return RegionMixtureSet(
        region_signals=tuple(binaural(*channels) for channels in regions),
        mixture=binaural(mix_l, mix_r),
        active=tuple(active),
    )


def oracle_aliased_frequency_masks(grid, frames1, frames2):
    """``aliased_frequency_masks`` on the whole high band at once, by the
    sign product of the ILD's and source 1's offsets from the threshold."""
    if frames1.size == 0 or frames2.size == 0:
        raise ValueError("dominant frame sets must be non-empty")
    shape = grid.ild.shape
    mask1 = np.zeros(shape, dtype=bool)
    mask2 = np.zeros(shape, dtype=bool)
    hi = slice(grid.aliasing_bin, shape[1])
    if grid.aliasing_bin >= shape[1]:
        return mask1, mask2
    ild_hi = grid.ild[:, hi]
    ild1 = ild_hi[frames1].mean(axis=0)
    ild2 = ild_hi[frames2].mean(axis=0)
    threshold = 0.5 * (ild1 + ild2)
    side1 = np.sign(ild1 - threshold)
    to_first = np.sign(ild_hi - threshold) * side1[None, :] >= 0.0
    include = ~grid.excluded[:, hi]
    mask1[:, hi] = to_first & include
    mask2[:, hi] = ~to_first & include
    return mask1, mask2


def oracle_window_sum(cfg, n_frames: int, original_length: int) -> np.ndarray:
    """The squared-window overlap sum over the samples an inversion keeps,
    overlap-added over every frame."""
    win = _window(cfg.fft_size)
    acc = np.zeros(_synthesis_length(cfg, n_frames))
    _overlap_add(acc, np.broadcast_to(win * win, (n_frames, cfg.fft_size)), cfg.hop)
    lead = _lead_pad(cfg)
    out_len = (n_frames - 1) * cfg.hop + cfg.fft_size
    wsum = acc[lead : lead + min(original_length, out_len - lead)]
    if np.any(wsum < WSUM_FLOOR):
        raise ValueError("overlapped squared-window sum underflows the 1e-12 floor")
    return wsum


def oracle_istft(spec, mask=None) -> np.ndarray:
    """The inverse of ``spec.bins * mask`` with each ``BLOCK_FRAMES`` block
    masked, inverted and windowed whole, over the full window sum: the
    summation order ``istft_many`` keeps at every hop."""
    cfg, n_frames = spec.config, spec.num_frames
    win = _window(cfg.fft_size)
    acc = np.zeros(_synthesis_length(cfg, n_frames))
    for s in range(0, n_frames, BLOCK_FRAMES):
        e = min(s + BLOCK_FRAMES, n_frames)
        block = spec.bins[s:e] if mask is None else spec.bins[s:e] * mask[s:e]
        frames = np.fft.irfft(block, n=cfg.fft_size, axis=1)
        frames *= win
        _overlap_add(acc[s * cfg.hop :], frames, cfg.hop)
    wsum = oracle_window_sum(cfg, n_frames, spec.original_length)
    lead = _lead_pad(cfg)
    out = acc[lead : lead + len(wsum)] / wsum
    return np.concatenate([out, np.zeros(spec.original_length - len(wsum))])


def oracle_log_joint(x, mu, sigma, w) -> np.ndarray:
    """``log_joint`` as two rows, each from scalar parameters, stacked."""

    def log_pdf(mean, std):
        z = (x - mean) / std
        return -0.5 * z * z - math.log(std) - 0.5 * math.log(2.0 * math.pi)

    return np.stack(
        [math.log(max(w[k], 1e-300)) + log_pdf(mu[k], sigma[k]) for k in (0, 1)]
    )
