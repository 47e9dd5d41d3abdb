"""Per-bin interaural features: time difference (ITD) and level difference.

Sign convention: a source nearer the left ear arrives at the left channel
first, so the right channel is a delayed copy and the phase of
``M_left / M_right`` is positive. Positive ITD therefore means the left
ear leads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram

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

    ``itd`` holds NaN at the DC bin and at/above the aliasing bin, where a
    phase-derived delay is undefined or ambiguous. ``excluded`` flags bins
    whose energy falls more than the configured floor below the loudest
    bin; those bins contribute no ITD samples and are masked to neither
    source during separation.
    """

    itd: np.ndarray       # seconds; NaN where undefined
    ild: np.ndarray       # dB
    energy: np.ndarray    # |M_l|^2 + |M_r|^2
    excluded: np.ndarray  # bool, below the relative energy floor
    aliasing_bin: int

    def itd_samples(self) -> np.ndarray:
        """ITD values of unaliased, above-floor, non-DC bins, flattened."""
        valid = np.isfinite(self.itd) & ~self.excluded
        return self.itd[valid]


def _wrap_phase(phi: np.ndarray) -> np.ndarray:
    # wrap to (-pi, pi]: np.angle returns [-pi, pi], so only flip -pi
    return np.where(phi <= -np.pi, phi + 2.0 * np.pi, phi)


def compute_features(
    spec_left: Spectrogram,
    spec_right: Spectrogram,
    f_aliasing: float,
    energy_floor_db: float = DEFAULT_ENERGY_FLOOR_DB,
) -> FeatureGrid:
    if spec_left.bins.shape != spec_right.bins.shape:
        raise ValueError(
            f"spectrogram shape mismatch: {spec_left.bins.shape} vs "
            f"{spec_right.bins.shape}"
        )
    if spec_left.config != spec_right.config:
        raise ValueError("spectrogram configs differ")
    cfg = spec_left.config
    ml, mr = spec_left.bins, spec_right.bins

    # the phase is taken only below the aliasing bin, but the product spans
    # the whole grid: NumPy's complex multiply may round a narrow slice
    # differently in the last bit, which would move the ITDs
    cross = ml * np.conj(mr)
    k_alias = aliasing_bin(f_aliasing, cfg)
    freqs = np.arange(cfg.num_bins) * cfg.bin_hz
    itd = np.full(cross.shape, np.nan)
    lo = slice(1, max(1, min(k_alias, cfg.num_bins)))
    itd[:, lo] = _wrap_phase(np.angle(cross[:, lo])) / (2.0 * np.pi * freqs[None, lo])
    del cross

    abs_l = np.abs(ml)
    abs_r = np.abs(mr)
    ild = 20.0 * np.log10(np.maximum(abs_l, MAG_FLOOR) / np.maximum(abs_r, MAG_FLOOR))

    energy = abs_l * abs_l + abs_r * abs_r
    peak = energy.max() if energy.size else 0.0
    if peak > 0.0:
        excluded = energy < peak * 10.0 ** (-abs(energy_floor_db) / 10.0)
    else:
        excluded = np.ones(energy.shape, dtype=bool)

    return FeatureGrid(
        itd=itd,
        ild=ild,
        energy=energy,
        excluded=excluded,
        aliasing_bin=k_alias,
    )
