"""Short-time Fourier transform with weighted overlap-add reconstruction.

Analysis frames are taken from a signal zero-padded by half a frame on
the left (centered convention), so every real sample is covered by at
least two overlapping frames. That keeps the squared-window overlap sum
bounded well away from zero, which matters when inverting a *masked*
spectrogram: with no lead-in padding the first hop of samples is covered
by a single frame whose window tail is ~1e-6, and dividing the (no longer
consistent) masked frames by that squared tail amplifies edge garbage by
many orders of magnitude.

The window is a Hann curve sampled on the half-integer grid
``w[n] = 0.5 - 0.5*cos(2*pi*(n + 0.5)/N)``, which keeps the exact
three-coefficient spectrum of the periodic Hann (an integer-bin sinusoid
leaks only into adjacent bins) while being strictly positive at every
sample, so the squared-window-sum division reconstructs every sample of
the input exactly, edges included.

Synthesis is a phase-wise overlap-add. With ``P = ceil(N/hop)``, frames
``r, r+P, r+2P, ...`` start ``P*hop >= N`` samples apart and never
overlap, so each of the ``P`` phases is one vectorised add into a
``(frames, P*hop)`` view of the output instead of one add per frame. The
squared-window sum is built the same way from a broadcast of ``w**2``.
At the default ``hop = N/2`` each output sample sums at most two frames,
and a two-term floating-point sum does not depend on its order, so the
result equals a frame-by-frame loop's bit for bit; with more overlap the
summation order differs and results agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import DEFAULT_SAMPLE_RATE, Waveform

WSUM_FLOOR = 1e-12


@dataclass(frozen=True)
class StftConfig:
    fft_size: int
    hop: int
    sample_rate: int

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ValueError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0 < self.hop <= self.fft_size:
            raise ValueError(f"hop must be in (0, fft_size], got {self.hop}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def num_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.fft_size


def clustering_config() -> StftConfig:
    """The 1024-point / 512-hop configuration used for spatial clustering."""
    return StftConfig(fft_size=1024, hop=512, sample_rate=DEFAULT_SAMPLE_RATE)


@dataclass(frozen=True)
class Spectrogram:
    bins: np.ndarray  # complex, shape (frames, fft_size//2 + 1)
    config: StftConfig
    original_length: int

    def __post_init__(self):
        if self.bins.ndim != 2 or self.bins.shape[1] != self.config.num_bins:
            raise ValueError(
                f"bins shape {self.bins.shape} inconsistent with "
                f"fft_size {self.config.fft_size}"
            )
        if self.bins.size and not np.all(np.isfinite(self.bins)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def num_frames(self) -> int:
        return self.bins.shape[0]

    def masked(self, mask: np.ndarray) -> "Spectrogram":
        return Spectrogram(self.bins * mask, self.config, self.original_length)


def _window(fft_size: int) -> np.ndarray:
    n = np.arange(fft_size)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * (n + 0.5) / fft_size)


def _lead_pad(cfg: StftConfig) -> int:
    return cfg.fft_size // 2


def _num_frames(length: int, cfg: StftConfig) -> int:
    # enough frames that the last real sample is still covered by the
    # frame starting at or before it (two-frame coverage at hop = N/2)
    return 1 + (_lead_pad(cfg) + max(length, 1) - 1) // cfg.hop


def stft(x: Waveform, cfg: StftConfig) -> Spectrogram:
    if x.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"signal rate {x.sample_rate} != config rate {cfg.sample_rate}"
        )
    n_frames = _num_frames(len(x), cfg)
    lead = _lead_pad(cfg)
    padded_len = (n_frames - 1) * cfg.hop + cfg.fft_size
    padded = np.zeros(padded_len)
    padded[lead : lead + len(x)] = x.samples

    frames = sliding_window_view(padded, cfg.fft_size)[:: cfg.hop]
    return Spectrogram(
        np.fft.rfft(frames * _window(cfg.fft_size), axis=1), cfg, len(x)
    )


def _overlap_add(frames: np.ndarray, hop: int, out_len: int) -> np.ndarray:
    """Sum frame t into ``out[t*hop : t*hop + N]`` for every t, one phase at a time."""
    n_frames, size = frames.shape
    phases = -(-size // hop)
    stride = phases * hop
    # phase r's view spans whole strides from r * hop, so it ends by
    # (n_frames + phases - 1) * hop, which is at least out_len
    acc = np.zeros((n_frames + phases - 1) * hop)
    for r in range(phases):
        group = frames[r::phases]
        start = r * hop
        view = acc[start : start + group.shape[0] * stride].reshape(-1, stride)
        view[:, :size] += group
    return acc[:out_len]


def istft(spec: Spectrogram) -> Waveform:
    cfg = spec.config
    win = _window(cfg.fft_size)
    out_len = (spec.num_frames - 1) * cfg.hop + cfg.fft_size
    lead = _lead_pad(cfg)
    keep = min(spec.original_length, out_len - lead)
    wsum = _overlap_add(
        np.broadcast_to(win * win, (spec.num_frames, cfg.fft_size)), cfg.hop, out_len
    )[lead : lead + keep]
    if np.any(wsum < WSUM_FLOOR):
        raise ValueError(
            "overlapped squared-window sum underflows the 1e-12 floor; "
            "check fft_size/hop configuration"
        )

    frames = np.fft.irfft(spec.bins, n=cfg.fft_size, axis=1)
    frames *= win
    out = _overlap_add(frames, cfg.hop, out_len)[lead : lead + keep]
    del frames
    out /= wsum
    if keep < spec.original_length:
        out = np.concatenate([out, np.zeros(spec.original_length - keep)])
    return Waveform(out, cfg.sample_rate)
