"""Acceptance gate: ten quantitative end-to-end checks.

Each test prints one PASS line on success; a failed assertion fails the
test (and pytest prints the FAILED line for it).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from regionsep import (
    BinauralSignal,
    EmSettings,
    Passthrough,
    Separated,
    SeparationConfig,
    Waveform,
    compute_features,
    default_layout_r3,
    istft,
    random_scene,
    separate,
    snri,
    stft,
    synth_scene,
)
from regionsep import Discarded
from regionsep.features import aliasing_bin
from regionsep.itd_model import REASON_TOO_FEW, fit_gmm2, fit_single_gaussian
from regionsep.metrics import LossConfig, loss_inactive, loss_snr, region_loss
from regionsep.scenes import RegionMixtureSet
from regionsep.stft import clustering_config
from helpers import (
    SR,
    check_mask_algebra,
    single_source_scene,
    spherical_bank,
    tree_digest,
    two_source_scene,
)

SIGMA_TH = 7e-5

# Separated outcomes collected by criteria 3/4 and re-audited by criterion 10.
_SEPARATED = []


def _separate_and_collect(mixture, cfg):
    outcome = separate(mixture, cfg)
    if isinstance(outcome, Separated):
        _SEPARATED.append((mixture, cfg, outcome.masks))
    return outcome


def _itd_samples(mixture, cfg):
    grid = compute_features(
        stft(mixture.left, cfg.stft),
        stft(mixture.right, cfg.stft),
        cfg.f_aliasing,
        cfg.energy_floor_db,
    )
    return grid.itd_samples()


def test_criterion_1_stft_round_trip():
    x = Waveform(np.random.default_rng(1).standard_normal(10 * SR) * 0.1, SR)
    cfg = clustering_config()

    start = time.perf_counter()
    back = istft(stft(x, cfg))
    elapsed = time.perf_counter() - start

    # independent oracle: direct frame-by-frame overlap-add recomputation
    fft, hop, lead = 1024, 512, 512
    w = 0.5 - 0.5 * np.cos(2 * np.pi * (np.arange(fft) + 0.5) / fft)
    n_frames = 1 + (lead + len(x) - 1) // hop
    padded = np.zeros((n_frames - 1) * hop + fft)
    padded[lead : lead + len(x)] = x.samples
    acc = np.zeros_like(padded)
    wsum = np.zeros_like(padded)
    for t in range(n_frames):
        seg = padded[t * hop : t * hop + fft] * w
        acc[t * hop : t * hop + fft] += np.fft.irfft(np.fft.rfft(seg), n=fft) * w
        wsum[t * hop : t * hop + fft] += w * w
    oracle = (acc / wsum)[lead : lead + len(x)]

    rel = np.linalg.norm(back.samples - x.samples) / np.linalg.norm(x.samples)
    rel_oracle = np.linalg.norm(oracle - x.samples) / np.linalg.norm(x.samples)
    assert rel < 1e-8, f"round-trip error {rel:.3e}"
    assert rel_oracle < 1e-8, f"oracle error {rel_oracle:.3e}"
    assert np.allclose(back.samples, oracle, atol=1e-12)
    assert elapsed < 1.0, f"round trip took {elapsed:.3f} s"
    print(f"ACCEPTANCE 1 STFT round trip: PASS (err {rel:.2e}, {elapsed*1e3:.0f} ms)")


def test_criterion_2_itd_fidelity_8_azimuths():
    cfg = SeparationConfig()
    worst = 0.0
    for i, az in enumerate(range(0, 360, 45)):
        signal, true_itd = single_source_scene(float(az), seed=1000 + i, group=i % 2)
        outcome = separate(signal, cfg)
        assert isinstance(outcome, Passthrough), f"azimuth {az} not passthrough"
        err = abs(outcome.itd - true_itd)
        worst = max(worst, err)
        assert err < 2e-5, f"azimuth {az}: ITD error {err:.2e}"
    print(f"ACCEPTANCE 2 ITD fidelity at 8 azimuths: PASS (worst {worst:.2e} s)")


def test_criterion_3_std_gap_property():
    cfg = SeparationConfig()
    bank_azimuths = spherical_bank().azimuths

    # 20 single-source trials: ITD STD below threshold in every one
    rng = np.random.default_rng(2024)
    worst_std = 0.0
    for i in range(20):
        az = float(rng.choice(bank_azimuths))
        signal, _ = single_source_scene(az, seed=3000 + i, group=i % 2)
        std = fit_single_gaussian(_itd_samples(signal, cfg)).std
        worst_std = max(worst_std, std)
        assert std < SIGMA_TH, f"single-source trial {i} (az {az}): std {std:.2e}"
        assert isinstance(separate(signal, cfg), Passthrough)

    # 15 trials with two sources >= 30 degrees apart: every one reaches the
    # GMM branch (the single-Gaussian fit is too wide to pass through)
    jitter = (-10.0, -5.0, 0.0, 5.0, 10.0)
    for i in range(15):
        center = 40.0 if i % 2 == 0 else -40.0
        sep = (30.0, 45.0, 60.0)[i % 3]
        c = center + jitter[i % 5]
        az1, az2 = (c - sep / 2) % 360.0, (c + sep / 2) % 360.0
        mixture, *_ = two_source_scene(az1, az2, seed=4000 + i)
        std = fit_single_gaussian(_itd_samples(mixture, cfg)).std
        assert std >= SIGMA_TH, f"2-source trial {i}: std {std:.2e} skipped GMM"
        outcome = _separate_and_collect(mixture, cfg)
        assert not isinstance(outcome, Passthrough)
        if isinstance(outcome, Discarded):
            assert outcome.reason != REASON_TOO_FEW

    # 15 trials with sources 10 degrees apart: discarded in >= 90%
    discarded = 0
    for i in range(15):
        az1, az2 = (15.0, 25.0) if i % 2 == 0 else (335.0, 345.0)
        mixture, *_ = two_source_scene(az1, az2, seed=5000 + i)
        outcome = _separate_and_collect(mixture, cfg)
        if not isinstance(outcome, (Passthrough, Separated)):
            discarded += 1
    assert discarded >= 14, f"only {discarded}/15 close-pair trials discarded"
    print(
        "ACCEPTANCE 3 STD-gap property: PASS "
        f"(single worst std {worst_std:.2e} s, {discarded}/15 close pairs discarded)"
    )


def test_criterion_4_snri_monotone_in_separation():
    # the model-ITD gap at 30 degrees separation is below the default
    # minimum peak distance, so the study uses a lower bound
    cfg = SeparationConfig(delta_tau_min=3e-4)
    centers = (40.0, -40.0)
    means = {}
    for sep in (30.0, 60.0, 90.0):
        scores = []
        for i in range(10):
            c = centers[i % 2]
            az1, az2 = (c - sep / 2) % 360.0, (c + sep / 2) % 360.0
            mixture, s1, s2, itd1, itd2 = two_source_scene(
                az1, az2, seed=6000 + int(sep) * 10 + i
            )
            outcome = _separate_and_collect(mixture, cfg)
            assert isinstance(outcome, Separated), (
                f"sep {sep} trial {i}: {outcome}"
            )
            estimates = sorted(
                [(outcome.itd1, outcome.source1), (outcome.itd2, outcome.source2)],
                key=lambda p: p[0],
            )
            refs = sorted([(itd1, s1), (itd2, s2)], key=lambda p: p[0])
            for (_, est), (_, ref) in zip(estimates, refs):
                for side in ("left", "right"):
                    scores.append(
                        snri(
                            getattr(ref, side).samples,
                            getattr(est, side).samples,
                            getattr(mixture, side).samples,
                        )
                    )
        means[sep] = float(np.mean(scores))

    assert means[30.0] > 0.0, f"mean SNRi at 30 deg: {means[30.0]:.2f} dB"
    assert means[60.0] >= means[30.0] - 0.5
    assert means[90.0] >= means[60.0] - 0.5
    assert means[90.0] >= 5.0, f"mean SNRi at 90 deg: {means[90.0]:.2f} dB"
    print(
        "ACCEPTANCE 4 SNRi monotonicity: PASS "
        f"(30: {means[30.0]:.2f} dB, 60: {means[60.0]:.2f} dB, 90: {means[90.0]:.2f} dB)"
    )


def test_criterion_5_exact_identities():
    bank = spherical_bank()
    layout = default_layout_r3()
    from regionsep.signals import make_source_pool

    pool = make_source_pool(seed=55, count=6, duration=1.0, sample_rate=SR)
    for seed in range(100):
        spec = random_scene((2, 5), layout, bank, sorted(pool), seed, duration=1.0)
        out = synth_scene(spec, bank, layout, pool)
        total_l = sum(sig.left.samples for sig in out.region_signals)
        total_r = sum(sig.right.samples for sig in out.region_signals)
        assert np.array_equal(out.mixture.left.samples, total_l)
        assert np.array_equal(out.mixture.right.samples, total_r)

    signal, _ = single_source_scene(20.0, seed=60)
    outcome = separate(signal, SeparationConfig())
    assert isinstance(outcome, Passthrough)
    assert outcome.signal is signal  # bit-identical by construction

    rng = np.random.default_rng(61)
    x = rng.standard_normal(500)
    m = x + rng.standard_normal(500)
    assert abs(snri(x, m, m)) <= 1e-12
    print("ACCEPTANCE 5 exact identities: PASS (100 scenes, passthrough, snri)")


def test_criterion_6_loss_constants():
    cfg = LossConfig(snr_max_db=30.0)
    assert cfg.tau == pytest.approx(1e-3, rel=1e-12)

    y = np.zeros(64)
    y[0] = 1.0  # unit energy
    assert abs(loss_snr(y, y, cfg) - (-30.0)) <= 1e-9

    mixture = BinauralSignal(Waveform(y, SR), Waveform(np.roll(y, 1), SR))
    zero = BinauralSignal(Waveform(np.zeros(64), SR), Waveform(np.zeros(64), SR))
    refs = RegionMixtureSet(
        region_signals=(zero, zero, zero),
        mixture=mixture,
        active=(False, False, False),
    )
    total = region_loss(refs, [zero, zero, zero], cfg)
    assert abs(total - (-180.0)) <= 1e-6
    assert loss_inactive(y, np.zeros(64), cfg) == pytest.approx(-30.0, abs=1e-9)
    print("ACCEPTANCE 6 loss constants: PASS (tau 1e-3, -30 dB, -180 dB)")


def _grid_search_ll(x):
    """Brute-force 50^4 grid: two means x shared std x weight."""
    n_grid = 50
    mus = np.linspace(float(x.min()), float(x.max()), n_grid)
    sample_std = float(np.std(x))
    sigmas = np.geomspace(sample_std / 30.0, sample_std * 1.5, n_grid)
    weights = np.linspace(0.02, 0.98, n_grid)
    log_w = np.log(weights).astype(np.float32)
    log_1w = np.log(1.0 - weights).astype(np.float32)

    i_idx, j_idx = np.triu_indices(n_grid)  # mu1 <= mu2 covers both orders
    xs = x.astype(np.float32)
    best = -np.inf
    for sigma in sigmas:
        z = (xs[None, :] - mus[:, None].astype(np.float32)) / np.float32(sigma)
        log_pdf = -0.5 * z * z - np.float32(np.log(sigma) + 0.5 * np.log(2 * np.pi))
        p1 = log_pdf[i_idx][:, None, :] + log_w[None, :, None]
        p2 = log_pdf[j_idx][:, None, :] + log_1w[None, :, None]
        ll = np.logaddexp(p1, p2).sum(axis=2)  # (pairs, weights)
        best = max(best, float(ll.max()))
    return best


def _pruned_grid_search_ll(x):
    """``_grid_search_ll``'s maximum, skipping grid cells that cannot win.

    A cell is one (std, mean pair). At any weight its LL is at most
    sum_x max(lp_i, lp_j), because log(w e^a + (1-w) e^b) <= max(a, b).
    Cells are evaluated in decreasing order of that bound, in the
    reference's float32 arithmetic, until the bound plus a slack of 1.0
    (for float32 rounding) is below the best LL found. Returns the best LL
    and the number of cells evaluated.
    """
    n_grid = 50
    mus = np.linspace(float(x.min()), float(x.max()), n_grid)
    sample_std = float(np.std(x))
    sigmas = np.geomspace(sample_std / 30.0, sample_std * 1.5, n_grid)
    weights = np.linspace(0.02, 0.98, n_grid)
    log_w = np.log(weights).astype(np.float32)
    log_1w = np.log(1.0 - weights).astype(np.float32)

    i_idx, j_idx = np.triu_indices(n_grid)
    xs = x.astype(np.float32)
    log_pdf = []  # (std, mean, sample), each std's rows as in the reference
    for sigma in sigmas:
        z = (xs[None, :] - mus[:, None].astype(np.float32)) / np.float32(sigma)
        log_pdf.append(
            -0.5 * z * z - np.float32(np.log(sigma) + 0.5 * np.log(2 * np.pi))
        )
    log_pdf = np.stack(log_pdf)
    bound = np.maximum(log_pdf[:, i_idx], log_pdf[:, j_idx]).sum(
        axis=2, dtype=np.float64
    )  # (std, pair)
    order = np.argsort(-bound, axis=None, kind="stable")
    s_idx, pair_idx = np.unravel_index(order, bound.shape)

    best = -np.inf
    batch = 64
    for start in range(0, order.size, batch):
        if bound.flat[order[start]] + 1.0 < best:
            return best, start
        s = s_idx[start : start + batch]
        pairs = pair_idx[start : start + batch]
        p1 = log_pdf[s, i_idx[pairs]][:, None, :] + log_w[None, :, None]
        p2 = log_pdf[s, j_idx[pairs]][:, None, :] + log_1w[None, :, None]
        best = max(best, float(np.logaddexp(p1, p2).sum(axis=2).max()))
    return best, order.size


def test_criterion_7_gmm_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst_margin = np.inf
    worst_mean_err = 0.0
    evaluated = 0
    for trial in range(20):
        mu1 = float(rng.uniform(-5e-4, -2e-4))
        mu2 = float(rng.uniform(2e-4, 5e-4))
        sigma = 1e-5
        n = 60
        x = np.concatenate(
            [rng.normal(mu1, sigma, n // 2), rng.normal(mu2, sigma, n - n // 2)]
        )
        c1, c2, ll = fit_gmm2(x, EmSettings(seed=trial))
        grid_ll, cells = _pruned_grid_search_ll(x)
        evaluated += cells
        if trial == 0:
            # the pruned search finds the full grid's maximum, bit for bit
            assert grid_ll == _grid_search_ll(x)
        margin = ll - grid_ll
        worst_margin = min(worst_margin, margin)
        assert ll >= grid_ll - 1e-4, f"trial {trial}: EM {ll:.6f} < grid {grid_ll:.6f}"
        err = max(abs(c1.mean - mu1), abs(c2.mean - mu2))
        worst_mean_err = max(worst_mean_err, err)
        assert err < 1e-5, f"trial {trial}: mean error {err:.2e}"
    print(
        "ACCEPTANCE 7 GMM oracle equivalence: PASS "
        f"(min LL margin {worst_margin:.3f}, worst mean err {worst_mean_err:.2e} s, "
        f"{evaluated} of {20 * 50 * 1275} grid cells evaluated)"
    )


def test_criterion_8_aliasing_constant():
    cfg = clustering_config()
    assert cfg.bin_hz == 15.625
    assert 562.0 / cfg.bin_hz == pytest.approx(35.97, abs=0.01)
    assert aliasing_bin(562.0, cfg) == 36
    # the default head's derived 561.80 Hz falls in the same bin
    assert aliasing_bin(SeparationConfig().f_aliasing, cfg) == 36
    print("ACCEPTANCE 8 aliasing constant: PASS (562 Hz -> bin 36)")


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "regionsep.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_9_cli_determinism(tmp_path):
    from regionsep import write_wav

    common = ["--seed", "13", "--duration", "2.0"]

    synth_digests = []
    for name, jobs in (("s1", 1), ("s2", 1), ("s8", 8)):
        out = tmp_path / name
        _run_cli(
            ["synth", "--out", str(out), "--num-scenes", "6", "--jobs", str(jobs)]
            + common
        )
        synth_digests.append(tree_digest(out))
    assert synth_digests[0] == synth_digests[1] == synth_digests[2]

    mixture, *_ = two_source_scene(315.0, 45.0, seed=90)
    wav = tmp_path / "pair.wav"
    write_wav(mixture, wav)
    sep_digests = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        # separate reads no --duration
        argv = ["separate", str(wav), "--out", str(out), "--diagnostics", "--seed", "13"]
        _run_cli(argv)
        sep_digests.append(tree_digest(out))
    assert sep_digests[0] == sep_digests[1]

    eval_digests = []
    for name in ("e1", "e2"):
        report = tmp_path / f"{name}.jsonl"
        _run_cli(
            [
                "eval",
                "--estimates",
                str(tmp_path / "s1"),
                "--references",
                str(tmp_path / "s1"),
                "--out",
                str(report),
            ]
        )
        eval_digests.append(report.read_bytes())
    assert eval_digests[0] == eval_digests[1]

    data_digests = []
    for name, jobs in (("d1", 1), ("d2", 1), ("d8", 8), ("dj2", 2)):
        out = tmp_path / name
        _run_cli(
            [
                "dataset",
                "--out",
                str(out),
                "--num",
                "8",
                "--tuples",
                "2",
                "--pool-size",
                "4",
                "--jobs",
                str(jobs),
            ]
            + common
        )
        data_digests.append(tree_digest(out))
    assert data_digests[0] == data_digests[1] == data_digests[2] == data_digests[3]
    print(
        "ACCEPTANCE 9 CLI determinism: PASS "
        "(synth/separate/eval/dataset, jobs 1 & 8, dataset also jobs 2)"
    )


def test_criterion_10_mask_algebra_across_suite():
    # fresh separations plus every Separated outcome from criteria 3 and 4
    cfg = SeparationConfig()
    for i, (az1, az2) in enumerate(((300.0, 10.0), (275.0, 355.0), (325.0, 55.0))):
        mixture, *_ = two_source_scene(az1, az2, seed=7000 + i)
        _separate_and_collect(mixture, cfg)

    checked = 0
    for mixture, used_cfg, masks in _SEPARATED:
        check_mask_algebra(mixture, used_cfg, masks)
        checked += 1
    assert checked >= 3
    print(f"ACCEPTANCE 10 mask algebra: PASS ({checked} separated outcomes audited)")
