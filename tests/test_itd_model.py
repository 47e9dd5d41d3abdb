"""Gaussian / GMM ITD modeling and verdict tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from regionsep import (
    Discard,
    EmSettings,
    GaussianComponent,
    SinglePeak,
    TwoPeaks,
    classify_itds,
    fit_gmm2,
    fit_single_gaussian,
)
import regionsep.itd_model as itd_model
from regionsep.itd_model import (
    EM_RESTARTS,
    REASON_COMPONENTS_TOO_WIDE,
    REASON_PEAKS_TOO_CLOSE,
    REASON_TOO_FEW,
    REASON_WIDE_SINGLE_BAD_GMM,
    STD_FLOOR,
    EmFailure,
    log_joint,
)
from helpers import oracle_log_joint
from helpers import oracle_single_gaussian_log_likelihood

SIGMA_TH = 7e-5
DTAU_MIN = 6e-4


def test_constant_samples_hit_std_floor():
    c = fit_single_gaussian([0.0003] * 20)
    assert c.mean == pytest.approx(0.0003)
    assert c.std == STD_FLOOR


def test_two_point_mle():
    c = fit_single_gaussian([-1e-4, 1e-4])
    assert c.mean == pytest.approx(0.0, abs=1e-20)
    assert c.std == pytest.approx(1e-4)


def test_single_gaussian_monte_carlo():
    rng = np.random.default_rng(42)
    x = rng.normal(2e-4, 3e-5, size=10000)
    c = fit_single_gaussian(x)
    assert abs(c.mean - 2e-4) < 1e-6
    assert abs(c.std - 3e-5) < 2e-6


def test_fit_single_needs_two_samples():
    with pytest.raises(ValueError):
        fit_single_gaussian([1e-4])


def _bimodal(rng, mu1, mu2, sigma, n):
    half = n // 2
    return np.concatenate(
        [rng.normal(mu1, sigma, half), rng.normal(mu2, sigma, n - half)]
    )


def test_gmm_recovers_two_clusters():
    rng = np.random.default_rng(11)
    x = _bimodal(rng, -3e-4, 3e-4, 2e-5, 2000)
    c1, c2, _ = fit_gmm2(x)
    assert abs(c1.mean - (-3e-4)) < 1e-5
    assert abs(c2.mean - 3e-4) < 1e-5
    assert abs(c1.weight - 0.5) < 0.05
    assert abs(c2.weight - 0.5) < 0.05


def test_gmm_collapses_on_single_cluster():
    rng = np.random.default_rng(12)
    x = rng.normal(0.0, 2e-5, size=1000)
    c1, c2, _ = fit_gmm2(x)
    assert abs(c1.mean - c2.mean) < 1e-4


def test_gmm_nests_single_gaussian():
    rng = np.random.default_rng(13)
    for x in (
        _bimodal(rng, -2e-4, 2e-4, 3e-5, 600),
        rng.normal(1e-4, 5e-5, size=600),
    ):
        _, _, ll = fit_gmm2(x)
        assert ll >= oracle_single_gaussian_log_likelihood(x) - 1e-6


def test_gmm_shift_scale_equivariance():
    rng = np.random.default_rng(14)
    x = _bimodal(rng, -3e-4, 3e-4, 2e-5, 800)
    a, b = 5e-4, 2.5
    c1, c2, _ = fit_gmm2(x)
    d1, d2, _ = fit_gmm2(a + b * x)
    spread = float(np.std(x))
    assert abs(d1.mean - (a + b * c1.mean)) < 1e-4 * b * spread
    assert abs(d2.mean - (a + b * c2.mean)) < 1e-4 * b * spread
    assert d1.std == pytest.approx(b * c1.std, rel=1e-3)
    assert d2.std == pytest.approx(b * c2.std, rel=1e-3)
    assert d1.weight == pytest.approx(c1.weight, abs=1e-6)


def test_classify_too_few():
    verdict = classify_itds([1e-4] * 9, SIGMA_TH, DTAU_MIN)
    assert isinstance(verdict, Discard)
    assert verdict.reason == REASON_TOO_FEW


def test_classify_single_peak():
    rng = np.random.default_rng(15)
    x = rng.normal(2e-4, 2e-5, size=500)
    verdict = classify_itds(x, SIGMA_TH, DTAU_MIN)
    assert isinstance(verdict, SinglePeak)
    assert verdict.component.std < SIGMA_TH
    assert abs(verdict.component.mean - 2e-4) < 1e-5


def test_classify_two_peaks():
    rng = np.random.default_rng(16)
    x = _bimodal(rng, -4e-4, 4e-4, 2e-5, 1000)
    verdict = classify_itds(x, SIGMA_TH, DTAU_MIN)
    assert isinstance(verdict, TwoPeaks)
    gap = verdict.high.mean - verdict.low.mean
    assert gap == pytest.approx(8e-4, abs=5e-6)
    assert gap > DTAU_MIN


def test_classify_peaks_too_close():
    rng = np.random.default_rng(17)
    x = _bimodal(rng, 0.0, 3e-4, 2e-5, 1000)
    verdict = classify_itds(x, SIGMA_TH, DTAU_MIN)
    assert isinstance(verdict, Discard)
    assert verdict.reason == REASON_PEAKS_TOO_CLOSE


def test_classify_components_too_wide():
    rng = np.random.default_rng(18)
    x = _bimodal(rng, -4e-4, 4e-4, 2e-4, 1000)
    verdict = classify_itds(x, SIGMA_TH, DTAU_MIN)
    assert isinstance(verdict, Discard)
    assert verdict.reason == REASON_COMPONENTS_TOO_WIDE


def test_component_validation():
    with pytest.raises(ValueError, match="std"):
        GaussianComponent(mean=0.0, std=0.0)
    with pytest.raises(ValueError, match="weight"):
        GaussianComponent(mean=0.0, std=1e-5, weight=1.5)
    with pytest.raises(ValueError, match="mean-ascending"):
        TwoPeaks(
            low=GaussianComponent(1e-4, 1e-5, 0.5),
            high=GaussianComponent(-1e-4, 1e-5, 0.5),
        )


def test_fit_gmm2_deterministic():
    rng = np.random.default_rng(19)
    x = _bimodal(rng, -3e-4, 3e-4, 2e-5, 400)
    first = fit_gmm2(x, EmSettings(seed=1))
    second = fit_gmm2(x, EmSettings(seed=1))
    assert first == second


def test_em_run_is_degenerate_when_a_component_owns_no_sample():
    x = np.random.default_rng(20).normal(0.0, 1.0, size=200)
    far = itd_model._em_run(x, np.array([0.0, 1e3]), np.ones(2), np.full(2, 0.5))
    assert far is None
    near = itd_model._em_run(x, np.array([-0.5, 0.5]), np.ones(2), np.full(2, 0.5))
    assert near is not None


def _spy_em_runs(monkeypatch, failures: int) -> list:
    """Record the start means of each EM run; the first ``failures`` degenerate."""
    starts = []
    real = itd_model._em_run

    def em_run(x, mu, sigma, w):
        starts.append(mu.copy())
        return None if len(starts) <= failures else real(x, mu, sigma, w)

    monkeypatch.setattr(itd_model, "_em_run", em_run)
    return starts


def test_degenerate_run_restarts_from_seeded_jittered_means(monkeypatch):
    x = _bimodal(np.random.default_rng(21), -3e-4, 3e-4, 2e-5, 400)
    starts = _spy_em_runs(monkeypatch, failures=1)
    c1, c2, _ = fit_gmm2(x, EmSettings(seed=5))
    assert len(starts) == 2
    np.testing.assert_array_equal(starts[0], np.percentile(x, [25.0, 75.0]))
    jitter = np.random.default_rng(5).standard_normal(2) * np.std(x) * 0.5
    np.testing.assert_array_equal(starts[1], starts[0] + jitter)
    assert abs(c1.mean + 3e-4) < 1e-5 and abs(c2.mean - 3e-4) < 1e-5


def test_em_failure_on_every_restart_discards(monkeypatch):
    x = _bimodal(np.random.default_rng(22), -4e-4, 4e-4, 2e-5, 400)
    starts = _spy_em_runs(monkeypatch, failures=2 * (EM_RESTARTS + 1))
    with pytest.raises(EmFailure):
        fit_gmm2(x)
    assert len(starts) == EM_RESTARTS + 1
    verdict = classify_itds(x, SIGMA_TH, DTAU_MIN)
    assert verdict == Discard(REASON_WIDE_SINGLE_BAD_GMM)
    assert len(starts) == 2 * (EM_RESTARTS + 1)


def _quartile_cases():
    rng = np.random.default_rng(23)
    for n in list(range(10, 40)) + [97, 100, 255, 256, 401, 1000, 1999, 2000]:
        yield rng.normal(0.0, 3e-4, size=n)  # ITD-sized, all distinct
        yield rng.integers(-3, 4, size=n) * 1e-4  # many ties
        yield np.repeat(rng.normal(size=(n + 2) // 3), 3)[:n]  # triplicates
        yield np.full(n, 2.5e-4)  # all equal
        yield rng.normal(size=n) * 10.0 ** rng.integers(-12, 3)


def test_quartiles_equal_numpy_percentile_bit_for_bit():
    for x in _quartile_cases():
        expected = np.percentile(x, [25.0, 75.0])
        assert itd_model._quartiles(x).tobytes() == expected.tobytes(), x.size


def test_fit_gmm2_does_not_import_numpy_ma():
    # np.percentile imports numpy.ma, a cost every fresh pool worker paid
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from regionsep import fit_gmm2\n"
        "before = 'numpy.ma' in sys.modules\n"
        "fit_gmm2(np.random.default_rng(0).normal(size=400))\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(itd_model.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("n", [1, 7, 100, 4097, 131_000])
def test_log_joint_equals_two_stacked_rows(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 3e-4
    params = [
        (np.array([-2e-4, 3e-4]), np.array([5e-5, 8e-5]), np.array([0.3, 0.7])),
        ((-2e-4, 3e-4), (5e-5, 5e-5), (0.5, 0.5)),  # the low-band masks' tuples
        (np.array([1e-4, 1e-4]), np.array([1e-9, 2e-4]), np.array([0.0, 1.0])),
    ]
    for mu, sigma, w in params:
        got = log_joint(x, mu, sigma, w)
        want = oracle_log_joint(x, mu, sigma, w)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_em_fit_is_the_fit_with_the_stacked_log_density(monkeypatch):
    rng = np.random.default_rng(96)
    sets = [
        np.concatenate([rng.normal(-3e-4, 4e-5, 400), rng.normal(2e-4, 6e-5, 900)]),
        rng.normal(0.0, 2e-4, 2000),  # one wide peak: runs to the iteration cap
        np.concatenate([rng.normal(0.0, 1e-5, 50), rng.normal(5e-4, 1e-5, 5000)]),
    ]
    got = [fit_gmm2(x, EmSettings(seed=k)) for k, x in enumerate(sets)]
    monkeypatch.setattr(itd_model, "log_joint", oracle_log_joint)
    want = [fit_gmm2(x, EmSettings(seed=k)) for k, x in enumerate(sets)]
    assert got == want
