"""Gaussian modeling of per-bin ITD samples and the peak verdict.

A recording is kept as-is when its ITD histogram shows one tight peak,
split when a 2-component Gaussian mixture finds two tight, well-separated
peaks, and discarded otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

STD_FLOOR = 1e-9  # seconds; avoids likelihood singularities
MIN_SAMPLES = 10
EM_MAX_ITER = 200  # iterations per EM run
EM_REL_TOL = 1e-10  # relative change of the log-likelihood that ends a run
EM_RESTARTS = 3  # seeded restarts after a degenerate run
EM_MIN_RESPONSIBILITY = 1e-6  # a component with less mass makes a run degenerate

REASON_TOO_FEW = "too_few_samples"
REASON_WIDE_SINGLE_BAD_GMM = "wide_single_and_bad_gmm"
REASON_COMPONENTS_TOO_WIDE = "components_too_wide"
REASON_PEAKS_TOO_CLOSE = "peaks_too_close"


class EmFailure(RuntimeError):
    """EM degenerated on every restart (all responsibility mass collapsed)."""


@dataclass(frozen=True)
class GaussianComponent:
    mean: float
    std: float
    weight: float = 1.0

    def __post_init__(self):
        if self.std <= 0:
            raise ValueError(f"std must be positive, got {self.std}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0,1], got {self.weight}")


@dataclass(frozen=True)
class EmSettings:
    seed: int = 0  # of the jittered restarts


@dataclass(frozen=True)
class SinglePeak:
    component: GaussianComponent


@dataclass(frozen=True)
class TwoPeaks:
    low: GaussianComponent   # smaller mean
    high: GaussianComponent

    def __post_init__(self):
        if self.low.mean > self.high.mean:
            raise ValueError("TwoPeaks components must be mean-ascending")


@dataclass(frozen=True)
class Discard:
    reason: str


ItdVerdict = Union[SinglePeak, TwoPeaks, Discard]


def fit_single_gaussian(samples: Sequence[float]) -> GaussianComponent:
    """MLE Gaussian fit: sample mean and population standard deviation."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError(f"need at least 2 samples, got {x.size}")
    mean = float(np.mean(x))
    std = max(float(np.std(x)), STD_FLOOR)
    return GaussianComponent(mean=mean, std=std, weight=1.0)


def log_joint(x, mu, sigma, w) -> np.ndarray:
    """Log of weight times density, per component (rows) and sample: what
    EM fits and what the low-band masks compare.

    Both rows are built in one broadcast over ``(2, 1)`` columns of the
    component parameters, with each log constant taken by ``math.log``.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(2, 1)
    sigma = np.asarray(sigma, dtype=np.float64).reshape(2, 1)
    log_w = np.array([[math.log(max(w[k], 1e-300))] for k in (0, 1)])
    log_std = np.array([[math.log(sigma[k, 0])] for k in (0, 1)])
    z = (x - mu) / sigma
    return log_w + (-0.5 * z * z - log_std - 0.5 * math.log(2.0 * math.pi))


def _em_run(x, mu, sigma, w):
    """One EM run. Returns (components, log_likelihood) or None if degenerate."""
    n = x.size
    xx = x * x
    prev_ll = -np.inf
    for _ in range(EM_MAX_ITER):
        log_p = log_joint(x, mu, sigma, w)
        log_norm = np.logaddexp(log_p[0], log_p[1])
        ll = float(np.sum(log_norm))
        resp = np.exp(log_p - log_norm)

        mass = resp.sum(axis=1)
        if mass.min() < EM_MIN_RESPONSIBILITY:
            return None

        mu = (resp @ x) / mass
        var = (resp @ xx) / mass - mu * mu
        sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), STD_FLOOR)
        w = mass / n

        if abs(ll - prev_ll) <= EM_REL_TOL * max(abs(ll), 1.0):
            prev_ll = ll
            break
        prev_ll = ll

    # report the likelihood of the returned (post-M-step) parameters
    log_p = log_joint(x, mu, sigma, w)
    final_ll = float(np.sum(np.logaddexp(log_p[0], log_p[1])))

    order = np.argsort(mu)
    comps = tuple(
        GaussianComponent(float(mu[i]), float(sigma[i]), float(w[i])) for i in order
    )
    return comps, final_ll


def _quartiles(x: np.ndarray) -> np.ndarray:
    """The 25th and 75th percentiles of ``x``, bit for bit as
    ``np.percentile(x, [25, 75])`` (its default linear rule) on finite
    samples, from a sorted copy. ``np.percentile`` imports ``numpy.ma``,
    which each fresh pool worker would import again on its first fit."""
    xs = np.sort(x)
    last = xs.size - 1
    out = np.empty(2)
    for k, q in enumerate((0.25, 0.75)):
        pos = last * q
        i = math.floor(pos)
        t = pos - i
        a, b = xs[i], xs[min(i + 1, last)]
        # NumPy's _lerp: interpolate from the nearer end
        out[k] = b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t
    return out


def fit_gmm2(
    samples: Sequence[float], settings: EmSettings = EmSettings()
) -> Tuple[GaussianComponent, GaussianComponent, float]:
    """Fit a 2-component 1-D GMM by EM.

    Initialization is quantile-based (25th/75th percentile means, half the
    sample std, equal weights), which makes the fit deterministic and
    equivariant under shifts and positive scalings of the sample set.
    Degenerate runs are retried with seeded jittered means.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {x.size}")

    spread = max(float(np.std(x)), STD_FLOOR)
    mu0 = _quartiles(x)
    sigma0 = np.array([spread / 2.0, spread / 2.0])
    sigma0 = np.maximum(sigma0, STD_FLOOR)
    w0 = np.array([0.5, 0.5])

    rng = np.random.default_rng(settings.seed)
    for attempt in range(EM_RESTARTS + 1):
        if attempt == 0:
            mu = mu0.copy()
        else:
            # jitter relative to the sample spread keeps affine equivariance
            mu = mu0 + rng.standard_normal(2) * spread * 0.5
        result = _em_run(x, mu, sigma0.copy(), w0.copy())
        if result is not None:
            (c1, c2), ll = result
            return c1, c2, ll
    raise EmFailure("EM collapsed on every restart")


def classify_itds(
    samples: Sequence[float],
    sigma_th: float,
    delta_tau_min: float,
    settings: EmSettings = EmSettings(),
) -> ItdVerdict:
    """Single-peak / two-peak / discard verdict on an ITD sample set."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size < MIN_SAMPLES:
        return Discard(REASON_TOO_FEW)

    single = fit_single_gaussian(x)
    if single.std < sigma_th:
        return SinglePeak(single)

    try:
        c1, c2, _ = fit_gmm2(x, settings)
    except EmFailure:
        return Discard(REASON_WIDE_SINGLE_BAD_GMM)

    if c1.std > sigma_th or c2.std > sigma_th:
        return Discard(REASON_COMPONENTS_TOO_WIDE)
    if abs(c1.mean - c2.mean) < delta_tau_min:
        return Discard(REASON_PEAKS_TOO_CLOSE)
    return TwoPeaks(low=c1, high=c2)
