"""Separation quality metrics and the region-wise training losses.

SNR-style metrics are clamped at +100 dB for (near-)perfect estimates and
the log-domain losses are floored at -300 so reports stay finite. SI-SDR
is deliberately absent: it is scale-invariant and would not penalize ILD
distortion, which binaural outputs must preserve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .audio import BinauralSignal

SNR_CLAMP_DB = 100.0
LOSS_FLOOR_DB = -300.0
_LOSS_FLOOR_ARG = 1e-30


@dataclass(frozen=True)
class LossConfig:
    snr_max_db: float = 30.0

    def __post_init__(self):
        if self.snr_max_db <= 0:
            raise ValueError("snr_max_db must be positive")

    @property
    def tau(self) -> float:
        return 10.0 ** (-self.snr_max_db / 10.0)


def _paired(a, b) -> Tuple[np.ndarray, np.ndarray]:
    """Two signals as float64 arrays of one shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return a, b


def snr(reference, estimate) -> float:
    """10*log10(||x||^2 / ||x - xhat||^2), clamped at +100 dB."""
    x, xhat = _paired(reference, estimate)
    ref_energy = float(np.sum(x * x))
    if ref_energy <= 0.0:
        raise ValueError("reference signal has zero energy")
    err_energy = float(np.sum((x - xhat) ** 2))
    if err_energy < ref_energy * 1e-10:
        return SNR_CLAMP_DB
    return 10.0 * np.log10(ref_energy / err_energy)


def snri(reference, estimate, mixture) -> float:
    """SNR improvement of the estimate over the unprocessed mixture."""
    return snr(reference, estimate) - snr(reference, mixture)


def _floored_log10(value: float) -> float:
    if value < _LOSS_FLOOR_ARG:
        return LOSS_FLOOR_DB
    return 10.0 * np.log10(value)


def loss_snr(reference, estimate, cfg: LossConfig = LossConfig()) -> float:
    """Capped negative-SNR loss: 10*log10(||y - yhat||^2 + tau*||y||^2)."""
    y, yhat = _paired(reference, estimate)
    return _floored_log10(
        float(np.sum((y - yhat) ** 2)) + cfg.tau * float(np.sum(y * y))
    )


def loss_inactive(mixture, estimate, cfg: LossConfig = LossConfig()) -> float:
    """Silence-enforcing loss: 10*log10(||yhat||^2 + tau*||x||^2)."""
    x, yhat = _paired(mixture, estimate)
    return _floored_log10(
        float(np.sum(yhat * yhat)) + cfg.tau * float(np.sum(x * x))
    )


def region_loss(
    refs, estimates: Sequence[BinauralSignal], cfg: LossConfig = LossConfig()
) -> float:
    """Total loss over regions, without permutation search.

    Active regions contribute the SNR loss against their reference on each
    channel; inactive regions contribute the silence loss against the full
    mixture on each channel.
    """
    if len(estimates) != refs.num_regions:
        raise ValueError(
            f"expected {refs.num_regions} estimates, got {len(estimates)}"
        )
    total = 0.0
    for ref, est, active in zip(refs.region_signals, estimates, refs.active):
        if len(est) != len(ref):
            raise ValueError("estimate/reference length mismatch")
        if active:
            total += loss_snr(ref.left.samples, est.left.samples, cfg)
            total += loss_snr(ref.right.samples, est.right.samples, cfg)
        else:
            total += loss_inactive(refs.mixture.left.samples, est.left.samples, cfg)
            total += loss_inactive(refs.mixture.right.samples, est.right.samples, cfg)
    return total


@dataclass(frozen=True)
class RegionEvalReport:
    """Per-region channel-averaged scores plus the paper-style aggregate."""

    active: Tuple[bool, ...]
    per_region_db: Tuple[Optional[float], ...]  # None for inactive regions
    aggregate_db: float
    mode: str  # "s_snr", "2_snri", "3_snri", ...
    clamped: bool

    def to_record(self) -> dict:
        return asdict(self)


def evaluate_regions(refs, estimates: Sequence[BinauralSignal]) -> RegionEvalReport:
    """Score estimates per the active-region count.

    One active region: plain SNR on that region (single-region SNR).
    Multiple active regions: mean SNR improvement over the mixture.
    Every score is averaged over the left/right channels.
    """
    if len(estimates) != refs.num_regions:
        raise ValueError(
            f"expected {refs.num_regions} estimates, got {len(estimates)}"
        )
    n_active = sum(refs.active)
    if n_active == 0:
        raise ValueError("no active regions to evaluate")

    clamped = False
    per_region: List[Optional[float]] = []
    for ref, est, active in zip(refs.region_signals, estimates, refs.active):
        if not active:
            per_region.append(None)
            continue
        values = []
        for ref_ch, est_ch, mix_ch in (
            (ref.left, est.left, refs.mixture.left),
            (ref.right, est.right, refs.mixture.right),
        ):
            if n_active == 1:
                val = snr(ref_ch.samples, est_ch.samples)
                clamped = clamped or val >= SNR_CLAMP_DB
            else:
                base = snr(ref_ch.samples, mix_ch.samples)
                top = snr(ref_ch.samples, est_ch.samples)
                clamped = clamped or top >= SNR_CLAMP_DB or base >= SNR_CLAMP_DB
                val = top - base
            values.append(val)
        per_region.append(float(np.mean(values)))

    scores = [v for v in per_region if v is not None]
    mode = "s_snr" if n_active == 1 else f"{n_active}_snri"
    return RegionEvalReport(
        active=tuple(refs.active),
        per_region_db=tuple(per_region),
        aggregate_db=float(np.mean(scores)),
        mode=mode,
        clamped=bool(clamped),  # the comparisons give np.bool_, not JSON-serializable
    )
