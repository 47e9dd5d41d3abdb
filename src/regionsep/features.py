"""Per-bin interaural features: time difference (ITD) and level difference.

Sign convention: a source nearer the left ear arrives at the left channel
first, so the right channel is a delayed copy and the phase of
``M_left / M_right`` is positive. Positive ITD therefore means the left
ear leads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parallel import thread_map
from .stft import Spectrogram, frame_blocks

MAG_FLOOR = 1e-12
DEFAULT_ENERGY_FLOOR_DB = 30.0


def aliasing_frequency(delta_tau_max: float) -> float:
    """Lowest frequency at which the interaural phase can wrap: 1/(2*dt_max)."""
    if delta_tau_max <= 0:
        raise ValueError(f"delta_tau_max must be positive, got {delta_tau_max}")
    return 1.0 / (2.0 * delta_tau_max)


def aliasing_bin(f_aliasing: float, config) -> int:
    """First FFT bin whose frequency is >= f_aliasing."""
    return int(np.ceil(f_aliasing / config.bin_hz))


@dataclass(frozen=True)
class FeatureGrid:
    """Spatial features on the (frame, bin) grid of a spectrogram pair.

    ``itd_low`` holds the ITD of bins 1 to ``aliasing_bin - 1`` only: a
    phase-derived delay is undefined at DC and ambiguous at and above the
    aliasing bin, so the full-grid ``itd`` is NaN there and is built only
    when read. ``ild``, ``energy`` and ``excluded`` span the whole grid.
    ``excluded`` flags bins whose energy falls more than the configured
    floor below the loudest bin; those bins contribute no ITD samples and
    are masked to neither source during separation.
    """

    itd_low: np.ndarray   # seconds, bins 1 .. aliasing_bin - 1
    ild: np.ndarray       # dB
    energy: np.ndarray    # |M_l|^2 + |M_r|^2
    excluded: np.ndarray  # bool, below the relative energy floor
    aliasing_bin: int

    def __post_init__(self):
        frames, bins = self.energy.shape
        want = (frames, _low_bins(self.aliasing_bin, bins).stop - 1)
        if self.itd_low.shape != want:
            raise ValueError(f"itd_low shape {self.itd_low.shape} != {want}")

    @property
    def low_bins(self) -> slice:
        """The columns ``itd_low`` covers: 1 up to the aliasing bin."""
        return _low_bins(self.aliasing_bin, self.energy.shape[1])

    @property
    def itd(self) -> np.ndarray:
        """ITD in seconds on the whole grid, NaN outside ``low_bins``."""
        itd = np.full(self.energy.shape, np.nan)
        itd[:, self.low_bins] = self.itd_low
        return itd

    @property
    def valid_low(self) -> np.ndarray:
        """Where ``itd_low`` is finite and above the floor: the bins the ITD
        model is fit on and the low-band masks assign."""
        return np.isfinite(self.itd_low) & ~self.excluded[:, self.low_bins]

    def itd_samples(self) -> np.ndarray:
        """ITD values of unaliased, above-floor, non-DC bins, flattened."""
        return self.itd_low[self.valid_low]

    def frame_energy(self, mask: np.ndarray) -> np.ndarray:
        """Each frame's energy in the bins of ``mask``, a mask of the low band
        (False outside ``low_bins``), summed over ``low_bins`` alone."""
        lo = self.low_bins
        return (self.energy[:, lo] * mask[:, lo]).sum(axis=1)


def _low_bins(k_alias: int, num_bins: int) -> slice:
    return slice(1, max(1, min(k_alias, num_bins)))


def _wrap_phase(phi: np.ndarray) -> np.ndarray:
    # wrap to (-pi, pi]: np.angle returns [-pi, pi], so only flip -pi
    return np.where(phi <= -np.pi, phi + 2.0 * np.pi, phi)


def compute_features(
    spec_left: Spectrogram,
    spec_right: Spectrogram,
    f_aliasing: float,
    energy_floor_db: float = DEFAULT_ENERGY_FLOOR_DB,
) -> FeatureGrid:
    """Interaural features of two spectrograms, block by block (``stft.frame_blocks``).

    Blocks run on threads when there are several (``parallel.thread_map``).
    Each block fills its rows of arrays allocated here and returns its
    energy peak; the floor mask follows from the global peak. A block peak
    that is not finite raises ``ValueError``: this is where the bins
    ``stft_many`` computes, which it does not scan, are checked. Every
    elementwise step takes whole rows of a block, so the results equal a
    whole-grid computation bit for bit (``stft.frame_blocks`` says why).
    That is why the complex product spans whole rows though the phase is
    taken below the aliasing bin only: a narrow slice of it may round
    differently in the last bit, which would move the ITDs.

    With fused multiply-adds a complex product is not symmetric in its
    operands in the last bit, so the cross-spectrum is always
    ``conj(M_r) * M_l``, computed in place in the conjugate: one operand
    order at every grid and block size.
    """
    if spec_left.bins.shape != spec_right.bins.shape:
        raise ValueError(
            f"spectrogram shape mismatch: {spec_left.bins.shape} vs "
            f"{spec_right.bins.shape}"
        )
    if spec_left.config != spec_right.config:
        raise ValueError("spectrogram configs differ")
    cfg = spec_left.config
    n_frames = spec_left.num_frames
    k_alias = aliasing_bin(f_aliasing, cfg)
    lo = _low_bins(k_alias, cfg.num_bins)
    omega = 2.0 * np.pi * (np.arange(cfg.num_bins) * cfg.bin_hz)[None, lo]

    itd_low = np.empty((n_frames, lo.stop - 1))
    ild = np.empty((n_frames, cfg.num_bins))
    energy = np.empty((n_frames, cfg.num_bins))

    def fill(rows: slice) -> float:
        ml, mr = spec_left.bins[rows], spec_right.bins[rows]
        cross = np.conj(mr)
        cross *= ml
        itd_low[rows] = _wrap_phase(np.angle(cross[:, lo])) / omega
        del cross
        abs_l = np.abs(ml)
        abs_r = np.abs(mr)
        ratio = np.maximum(abs_l, MAG_FLOOR) / np.maximum(abs_r, MAG_FLOOR)
        ild[rows] = 20.0 * np.log10(ratio)
        block = energy[rows]
        np.multiply(abs_l, abs_l, out=block)
        abs_r *= abs_r
        block += abs_r
        return block.max()

    peaks = thread_map(fill, frame_blocks(n_frames), threaded=True)
    # the spectrograms' one finiteness check: a NaN or Inf bin, or bins
    # whose energy overflows, makes its block's peak NaN or Inf
    if not all(np.isfinite(p) for p in peaks):
        raise ValueError(
            "spectrogram contains non-finite entries or its energy overflows"
        )
    peak = max(peaks, default=0.0)
    if peak > 0.0:
        excluded = energy < peak * 10.0 ** (-abs(energy_floor_db) / 10.0)
    else:
        excluded = np.ones(energy.shape, dtype=bool)

    return FeatureGrid(
        itd_low=itd_low,
        ild=ild,
        energy=energy,
        excluded=excluded,
        aliasing_bin=k_alias,
    )
