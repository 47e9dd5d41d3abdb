"""End-to-end selective spatial separation of a binaural recording.

Pipeline: STFT both channels, collect ITD samples from the unaliased
low-frequency bins, render a peak verdict, and on a two-peak verdict build
binary masks -- GMM-posterior assignment below the aliasing frequency,
per-frequency ILD thresholding above it -- then invert. Single-peak
recordings pass through untouched; everything else is discarded.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from .audio import BinauralSignal
from .features import (
    DEFAULT_ENERGY_FLOOR_DB,
    FeatureGrid,
    aliasing_frequency,
    compute_features,
)
from .itd_model import (
    Discard,
    EmSettings,
    GaussianComponent,
    SinglePeak,
    classify_itds,
    log_joint,
)
from .stft import (
    StftConfig,
    clustering_config,
    frame_blocks,
    istft_many,
    stft_many,
)

REASON_NO_DOMINANT_FRAMES = "no_dominant_frames"


@dataclass(frozen=True)
class SeparationConfig:
    """The parameters of ``separate()``.

    ``seed`` seeds the EM fit's jittered restarts: ``separate()`` runs the
    fit with ``em`` but its seed replaced by ``seed``, so
    ``SeparationConfig(em=EmSettings(seed=5))`` still fits with seed 0.
    Only a direct ``classify_itds`` or ``fit_gmm2`` call reads ``em.seed``.
    """

    stft: StftConfig = field(default_factory=clustering_config)
    delta_tau_max: float = 8.9e-4   # seconds, the head's largest ITD
    sigma_th: float = 7e-5          # seconds
    delta_tau_min: float = 6e-4     # seconds
    alpha: float = 5.0              # time-domain dominance factor
    energy_floor_db: float = DEFAULT_ENERGY_FLOOR_DB
    em: EmSettings = field(default_factory=EmSettings)
    seed: int = 0

    def __post_init__(self):
        for key in ("sigma_th", "delta_tau_min", "alpha", "energy_floor_db"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1, got {self.alpha}")
        if not 0.0 < self.f_aliasing < self.stft.sample_rate / 2:
            raise ValueError(
                f"delta_tau_max {self.delta_tau_max} gives aliasing frequency "
                f"{self.f_aliasing} outside (0, nyquist)"
            )
        if self.sigma_th <= 0 or self.delta_tau_min <= 0:
            raise ValueError("sigma_th and delta_tau_min must be positive")

    @property
    def f_aliasing(self) -> float:
        """Lowest frequency whose interaural phase can wrap, set by delta_tau_max."""
        return aliasing_frequency(self.delta_tau_max)

    @property
    def min_input_samples(self) -> int:
        """Shortest input ``separate`` accepts: 4 STFT frames."""
        return self.stft.fft_size + 3 * self.stft.hop


@dataclass(frozen=True)
class Passthrough:
    signal: BinauralSignal
    itd: float


@dataclass(frozen=True)
class Separated:
    source1: BinauralSignal
    itd1: float
    source2: BinauralSignal
    itd2: float
    masks: Tuple[np.ndarray, np.ndarray]
    final_alpha: float


@dataclass(frozen=True)
class Discarded:
    reason: str


SeparationOutcome = Union[Passthrough, Separated, Discarded]


def low_frequency_masks(
    grid: FeatureGrid, components: Tuple[GaussianComponent, GaussianComponent]
) -> Tuple[np.ndarray, np.ndarray]:
    """Assign unaliased bins to the GMM component with the larger posterior.

    Ties go to the lower-mean component. Excluded (below-floor) bins and
    the DC bin belong to neither mask. Returned matrices span the full
    (frame, bin) grid; columns at/above the aliasing bin are zero.
    """
    c1, c2 = components
    mask1 = np.zeros(grid.energy.shape, dtype=bool)
    mask2 = np.zeros(grid.energy.shape, dtype=bool)
    lo, valid = grid.low_bins, grid.valid_low
    log_p = log_joint(
        grid.itd_low[valid],
        (c1.mean, c2.mean),
        (c1.std, c2.std),
        (c1.weight, c2.weight),
    )
    first_wins = log_p[0] >= log_p[1]
    mask1[:, lo][valid] = first_wins
    mask2[:, lo][valid] = ~first_wins
    return mask1, mask2


def dominance_sets(
    energy1: np.ndarray, energy2: np.ndarray, alpha: float
) -> Optional[Tuple[np.ndarray, np.ndarray, float]]:
    """Frames where one masked source's energy dominates the other's by alpha.

    Alpha decays by 0.9 per attempt until both sets are non-empty; gives up
    (returns None) once alpha would drop to 1 or below, which means the two
    energy profiles are proportional everywhere.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    e1 = np.asarray(energy1, dtype=np.float64)
    e2 = np.asarray(energy2, dtype=np.float64)
    if e1.shape != e2.shape:
        raise ValueError("energy profiles must have equal length")

    while alpha > 1.0:
        t1 = np.flatnonzero(e1 > alpha * e2)
        t2 = np.flatnonzero(e2 > alpha * e1)
        if t1.size and t2.size:
            return t1, t2, alpha
        alpha *= 0.9
    return None


def aliased_frequency_masks(
    grid: FeatureGrid,
    frames1: np.ndarray,
    frames2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """ILD-threshold assignment of bins at/above the aliasing frequency.

    Each source's per-frequency ILD is averaged over its dominant frames;
    a bin goes to source 1 when its ILD lies on source 1's side of the
    midpoint threshold (ties and degenerate thresholds go to source 1).
    Excluded bins stay out of both masks.
    """
    if frames1.size == 0 or frames2.size == 0:
        raise ValueError("dominant frame sets must be non-empty")
    shape = grid.ild.shape
    mask1 = np.zeros(shape, dtype=bool)
    mask2 = np.zeros(shape, dtype=bool)
    hi = slice(grid.aliasing_bin, shape[1])
    ild_hi = grid.ild[:, hi]
    ild1 = ild_hi[frames1].mean(axis=0)
    ild2 = ild_hi[frames2].mean(axis=0)
    threshold = 0.5 * (ild1 + ild2)
    side1 = np.sign(ild1 - threshold)  # zero when ild1 == ild2 (degenerate)

    # a bin goes to source 1 when sign(ild - threshold) * side1 >= 0; with
    # side1 in {-1, 0, 1} and a finite difference, the difference times
    # side1 has the same sign (a zero of either sign passes), so each block
    # tests that product in place
    for rows in frame_blocks(shape[0]):
        d = ild_hi[rows] - threshold
        d *= side1
        to_first = d >= 0.0
        include = ~grid.excluded[rows, hi]
        np.logical_and(to_first, include, out=mask1[rows, hi])
        np.logical_not(to_first, out=to_first)
        np.logical_and(to_first, include, out=mask2[rows, hi])
    return mask1, mask2


def separate(m: BinauralSignal, cfg: SeparationConfig) -> SeparationOutcome:
    if len(m) < cfg.min_input_samples:
        raise ValueError(
            f"input too short: {len(m)} samples, need at least "
            f"{cfg.min_input_samples} (4 STFT frames)"
        )

    spec_l, spec_r = stft_many((m.left, m.right), cfg.stft)
    grid = compute_features(spec_l, spec_r, cfg.f_aliasing, cfg.energy_floor_db)

    em = dataclasses.replace(cfg.em, seed=cfg.seed)
    verdict = classify_itds(grid.itd_samples(), cfg.sigma_th, cfg.delta_tau_min, em)

    if isinstance(verdict, Discard):
        return Discarded(verdict.reason)
    if isinstance(verdict, SinglePeak):
        return Passthrough(signal=m, itd=verdict.component.mean)

    mask1_low, mask2_low = low_frequency_masks(grid, (verdict.low, verdict.high))
    energy1 = grid.frame_energy(mask1_low)
    energy2 = grid.frame_energy(mask2_low)
    dom = dominance_sets(energy1, energy2, cfg.alpha)
    if dom is None:
        return Discarded(REASON_NO_DOMINANT_FRAMES)
    frames1, frames2, final_alpha = dom

    mask1_high, mask2_high = aliased_frequency_masks(grid, frames1, frames2)
    mask1 = mask1_low | mask1_high
    mask2 = mask2_low | mask2_high
    # the feature grid is about as large as one spectrogram; free it
    # before the inversions allocate their outputs
    del grid, mask1_low, mask2_low, mask1_high, mask2_high

    # each channel's inversions need only its own spectrogram, so the left
    # one is freed before the right channel's outputs are allocated
    left1, left2 = istft_many(spec_l, (mask1, mask2))
    del spec_l
    right1, right2 = istft_many(spec_r, (mask1, mask2))
    return Separated(
        source1=BinauralSignal(left1, right1),
        itd1=verdict.low.mean,
        source2=BinauralSignal(left2, right2),
        itd2=verdict.high.mean,
        masks=(mask1, mask2),
        final_alpha=final_alpha,
    )
