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

Both transforms work in the ``BLOCK_FRAMES``-frame blocks of
``frame_blocks``, so their transient memory is a few megabytes per
block, not a copy of the whole recording. Analysis zero-pads and
windows one block of frames at a time and writes its ``rfft`` rows into
a preallocated ``(frames, bins)`` array; each row is an independent
transform, so the bins equal one ``rfft`` of the whole frame matrix.
Synthesis masks, inverts and windows one block at a time and
overlap-adds the block's frames straight into the output.

The overlap-add within a block is phase-wise. With ``P = ceil(N/hop)``,
frames ``r, r+P, r+2P, ...`` start ``P*hop >= N`` samples apart and never
overlap, so each of the ``P`` phases is one vectorised add into a
``(frames, P*hop)`` view of the output instead of one add per frame. The
squared-window sum is built the same way, from a broadcast of ``w**2``
over every frame. At the default ``hop = N/2`` each output sample sums at
most two frames, and a two-term floating-point sum does not depend on its
order (nor on which block each term came from), so the result equals a
frame-by-frame loop's bit for bit; with more overlap the summation order
differs and results agree to rounding.

``stft_many`` and ``istft_many`` transform several channels, or several
masked versions of one channel, at once. They allocate every result in
the calling thread and, when an input spans more than one block, fill
them on one thread per result, up to the usable CPUs
(``parallel.thread_map``); NumPy's FFTs and ufuncs release the
interpreter lock. Their results are not scanned for NaN and Inf again:
the spectrograms ``stft_many`` computes are checked once, by
``features.compute_features`` from the energy peak, and the waveforms
``istft_many`` computes are built with ``audio.finite_waveform``. The
single-signal ``stft`` and ``istft`` build their results through the
scanning ``Spectrogram`` and ``Waveform`` constructors, so an input whose
transform overflows raises ``ValueError`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import DEFAULT_SAMPLE_RATE, Waveform, finite_waveform
from .parallel import thread_map

WSUM_FLOOR = 1e-12
BLOCK_FRAMES = 256  # about 8 s at the 512-sample hop and 16 kHz


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
                f"bins shape {self.bins.shape} inconsistent with fft_size "
                f"{self.config.fft_size}"
            )
        if self.bins.size and not np.all(np.isfinite(self.bins)):
            raise ValueError("spectrogram contains non-finite entries")

    @property
    def num_frames(self) -> int:
        return self.bins.shape[0]

    def masked(self, mask: np.ndarray) -> "Spectrogram":
        return Spectrogram(self.bins * mask, self.config, self.original_length)


def _computed_spectrogram(
    bins: np.ndarray, config: StftConfig, original_length: int
) -> Spectrogram:
    """A Spectrogram of the ``(frames, config.num_bins)`` bins ``stft_many``
    allocated and computed: they are not scanned (``compute_features``
    checks their energy peak)."""
    spec = object.__new__(Spectrogram)
    object.__setattr__(spec, "bins", bins)
    object.__setattr__(spec, "config", config)
    object.__setattr__(spec, "original_length", original_length)
    return spec


def _window(fft_size: int) -> np.ndarray:
    n = np.arange(fft_size)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * (n + 0.5) / fft_size)


def _lead_pad(cfg: StftConfig) -> int:
    return cfg.fft_size // 2


def _num_frames(length: int, cfg: StftConfig) -> int:
    # enough frames that the last real sample is still covered by the
    # frame starting at or before it (two-frame coverage at hop = N/2)
    return 1 + (_lead_pad(cfg) + max(length, 1) - 1) // cfg.hop


def frame_blocks(n_frames: int) -> List[slice]:
    """The row slices of an ``n_frames``-frame grid's ``BLOCK_FRAMES``-frame
    blocks: the one partition of every blocked pass over a spectrogram grid.

    Each block starts a multiple of 256 rows in, so an elementwise step
    over a block's whole rows gives each value its lane in NumPy's vector
    loops over the whole grid, and so the bits of a whole-grid computation;
    a narrower slice may round differently in the last bit. The inverse
    STFT's summation order is one block after another.
    """
    starts = range(0, n_frames, BLOCK_FRAMES)
    return [slice(s, min(s + BLOCK_FRAMES, n_frames)) for s in starts]


def stft(x: Waveform, cfg: StftConfig) -> Spectrogram:
    """The spectrogram of ``x``, scanned: ``ValueError`` if a bin overflows."""
    (spec,) = stft_many([x], cfg)
    return Spectrogram(spec.bins, cfg, spec.original_length)


def stft_many(signals: Sequence[Waveform], cfg: StftConfig) -> List[Spectrogram]:
    """``stft(x, cfg)`` of each signal; on threads when one spans several blocks."""
    for x in signals:
        if x.sample_rate != cfg.sample_rate:
            raise ValueError(
                f"signal rate {x.sample_rate} != config rate {cfg.sample_rate}"
            )
    bins = [
        np.empty((_num_frames(len(x), cfg), cfg.num_bins), dtype=complex)
        for x in signals
    ]
    thread_map(
        lambda job: _analyse_into(*job, cfg),
        [(b, x.samples) for b, x in zip(bins, signals)],
        threaded=any(len(b) > BLOCK_FRAMES for b in bins),
    )
    return [_computed_spectrogram(b, cfg, len(x)) for b, x in zip(bins, signals)]


def padded_frames(
    x: np.ndarray, first: int, count: int, size: int, step: int
) -> np.ndarray:
    """``count`` frames of ``size`` samples, ``step`` apart, from sample
    ``first`` of ``x`` on, reading zeros outside ``x``: a read-only strided
    view of one zero-padded copy of their span."""
    span = np.zeros((count - 1) * step + size)
    lo, hi = max(first, 0), min(first + len(span), len(x))
    span[lo - first : hi - first] = x[lo:hi]
    return sliding_window_view(span, size)[::step]


def _analyse_into(bins: np.ndarray, samples: np.ndarray, cfg: StftConfig) -> None:
    """Fill ``bins`` with the lead-padded signal's frame spectra, block by block."""
    n, hop = cfg.fft_size, cfg.hop
    win = _window(n)
    for rows in frame_blocks(len(bins)):
        first = rows.start * hop - _lead_pad(cfg)
        frames = padded_frames(samples, first, rows.stop - rows.start, n, hop)
        bins[rows] = np.fft.rfft(frames * win, axis=1)


def _synthesis_length(cfg: StftConfig, n_frames: int) -> int:
    # the last phase-wise view spans whole strides of P * hop samples, so
    # it ends by (frames + P - 1) * hop, past the last frame's end
    phases = -(-cfg.fft_size // cfg.hop)
    return (n_frames + phases - 1) * cfg.hop


def _overlap_add(acc: np.ndarray, frames: np.ndarray, hop: int) -> None:
    """Add frame t into ``acc[t*hop : t*hop + N]`` for every t, one phase at a time."""
    size = frames.shape[1]
    phases = -(-size // hop)
    stride = phases * hop
    for r in range(phases):
        group = frames[r::phases]
        start = r * hop
        view = acc[start : start + group.shape[0] * stride].reshape(-1, stride)
        view[:, :size] += group


def _window_sum(cfg: StftConfig, n_frames: int, original_length: int) -> np.ndarray:
    """The squared-window overlap sum over the samples an inversion keeps."""
    win = _window(cfg.fft_size)
    acc = np.zeros(_synthesis_length(cfg, n_frames))
    _overlap_add(acc, np.broadcast_to(win * win, (n_frames, cfg.fft_size)), cfg.hop)
    lead = _lead_pad(cfg)
    out_len = (n_frames - 1) * cfg.hop + cfg.fft_size
    wsum = acc[lead : lead + min(original_length, out_len - lead)]
    if wsum.size and wsum.min() < WSUM_FLOOR:
        raise ValueError(
            f"fft_size {cfg.fft_size} with hop {cfg.hop} cannot be inverted: "
            f"the overlapped squared-window sum underflows the {WSUM_FLOOR:g} floor"
        )
    return wsum


def check_invertible(cfg: StftConfig) -> None:
    """Raise ValueError if inverting an input under ``cfg`` would divide by
    a squared-window overlap sum below the floor.

    The probe of ``fft_size // 2 + hop`` samples covers the lead-in and one
    full hop period, so its smallest sum is that of any input length.
    """
    probe = _lead_pad(cfg) + cfg.hop
    _window_sum(cfg, _num_frames(probe, cfg), probe)


def _invert_into(
    acc: np.ndarray,
    bins: np.ndarray,
    mask: Optional[np.ndarray],
    wsum: np.ndarray,
    cfg: StftConfig,
) -> None:
    """Overlap-add the windowed inverse of ``bins * mask`` into the zeroed
    ``acc`` block by block, then divide the kept samples by ``wsum``."""
    win = _window(cfg.fft_size)
    for rows in frame_blocks(len(bins)):
        block = bins[rows] if mask is None else bins[rows] * mask[rows]
        frames = np.fft.irfft(block, n=cfg.fft_size, axis=1)
        frames *= win
        _overlap_add(acc[rows.start * cfg.hop :], frames, cfg.hop)
    lead = _lead_pad(cfg)
    acc[lead : lead + len(wsum)] /= wsum


def istft(spec: Spectrogram) -> Waveform:
    """The waveform of ``spec``, scanned: ``ValueError`` if a sample overflows."""
    (out,) = istft_many([(spec, None)])
    return Waveform(out.samples, out.sample_rate)


def istft_many(
    pairs: Iterable[Tuple[Spectrogram, Optional[np.ndarray]]]
) -> List[Waveform]:
    """``istft(spec.masked(mask))`` for each ``(spec, mask)`` pair, or
    ``istft(spec)`` where the mask is None.

    The spectrograms must share their configuration, frame count and
    original length, so that one squared-window sum serves every pair.
    Inversions run on threads when the spectrograms span several blocks.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    layout = (pairs[0][0].config, pairs[0][0].num_frames, pairs[0][0].original_length)
    for spec, mask in pairs:
        if (spec.config, spec.num_frames, spec.original_length) != layout:
            raise ValueError(
                "spectrograms differ in configuration, frame count or length"
            )
        if mask is not None and mask.shape != spec.bins.shape:
            raise ValueError(
                f"mask shape {mask.shape} != spectrogram shape {spec.bins.shape}"
            )
    cfg, n_frames, length = layout
    wsum = _window_sum(cfg, n_frames, length)
    accs = [np.zeros(_synthesis_length(cfg, n_frames)) for _ in pairs]
    thread_map(
        lambda job: _invert_into(*job, wsum, cfg),
        [(acc, spec.bins, mask) for acc, (spec, mask) in zip(accs, pairs)],
        threaded=n_frames > BLOCK_FRAMES,
    )
    lead, keep = _lead_pad(cfg), len(wsum)
    outs = []
    for acc in accs:
        out = acc[lead : lead + keep]
        if keep < length:
            out = np.concatenate([out, np.zeros(length - keep)])
        outs.append(finite_waveform(out, cfg.sample_rate))
    return outs
