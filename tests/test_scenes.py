"""Region geometry, HRIR synthesis, and scene rendering tests."""

import json
import tracemalloc

import numpy as np
import pytest

from regionsep import (
    BinauralSignal,
    SceneSpec,
    Waveform,
    compute_features,
    default_layout_r3,
    random_scene,
    region_of_itd,
    render_binaural_source,
    spherical_itd,
    stft,
    synth_scene,
)
import regionsep.scenes as scenes
from regionsep.hrir import HrirBank
from regionsep.scenes import (
    RENDER_GROUP_BLOCKS,
    RegionLayout,
    SceneSource,
    _fft_size,
    draw_region_first,
    region_of_azimuth,
    sum_regions,
    synth_spherical_hrir,
)
from regionsep.stft import clustering_config
from helpers import DTM, SR, mixed_tap_bank, oracle_render, oracle_synth_scene
from helpers import spherical_bank


def test_region_of_azimuth_landmarks():
    layout = default_layout_r3()
    assert region_of_azimuth(layout, 0.0) == 1
    assert region_of_azimuth(layout, 180.0) == 1
    assert region_of_azimuth(layout, 90.0) == 3
    assert region_of_azimuth(layout, 270.0) == 2
    assert region_of_azimuth(layout, 45.0) == 3      # half-open [45, 135)
    assert region_of_azimuth(layout, 44.999) == 1
    with pytest.raises(ValueError):
        region_of_azimuth(layout, 360.0)


def test_region_sweep_partition_and_mirrors():
    layout = default_layout_r3()
    for i in range(50):
        az = i * 7.2
        region = region_of_azimuth(layout, az)
        assert region in (1, 2, 3)
        mirror = (180.0 - az) % 360.0
        if region == 1:  # front/back cones are merged
            assert region_of_azimuth(layout, mirror) == 1


def test_layout_validation():
    with pytest.raises(ValueError, match="at least 2"):
        RegionLayout(regions=((((0.0, 360.0),)),))
    with pytest.raises(ValueError, match="partition"):
        RegionLayout(regions=(((0.0, 100.0),), ((120.0, 360.0),)))
    with pytest.raises(ValueError, match="cover"):
        RegionLayout(regions=(((0.0, 100.0),), ((100.0, 350.0),)))
    for lo, hi in ((200.0, 400.0), (-10.0, 200.0), (200.0, 200.0)):
        with pytest.raises(ValueError, match="bad interval"):
            RegionLayout(regions=(((0.0, 200.0),), ((lo, hi),)))


def test_scene_source_gain_must_be_positive():
    for gain in (0.0, -1.0):
        with pytest.raises(ValueError, match="gain must be positive"):
            SceneSource(source_id="a", azimuth=0.0, gain=gain)


def test_spherical_itd_sign_convention():
    assert spherical_itd(0.0, DTM) == 0.0
    assert spherical_itd(90.0, DTM) == pytest.approx(-DTM)   # full right
    assert spherical_itd(270.0, DTM) == pytest.approx(DTM)   # full left


def test_region_of_itd():
    assert region_of_itd(0.0, DTM) == 1
    assert region_of_itd(DTM, DTM) == 2
    assert region_of_itd(-DTM, DTM) == 3
    assert region_of_itd(0.5 * DTM, DTM) == 1  # 0.5 < sin(45 deg)
    with pytest.warns(UserWarning, match="labeled by its sign"):
        assert region_of_itd(2 * DTM, DTM) == 2
    with pytest.warns(UserWarning, match="exceeds delta_tau_max"):
        assert region_of_itd(-2 * DTM, DTM) == 3


def test_region_of_itd_matches_layout_off_the_boundaries(monkeypatch):
    # c/180-c and 180+c/360-c deg share an ITD but not a layout region; a
    # second cone width, set through the one cone statement, holds the ITD
    # rule to the layout's geometry
    for cone in (45.0, 30.0):
        monkeypatch.setattr(scenes, "R3_CONE_DEGREES", cone)
        layout = default_layout_r3()
        for az in np.arange(0.0, 360.0, 5.0):
            if az in (cone, 180.0 - cone, 180.0 + cone, 360.0 - cone):
                continue
            itd = spherical_itd(az, DTM)
            assert region_of_itd(itd, DTM) == region_of_azimuth(layout, az), (cone, az)


def test_synth_scene_hand_convolution():
    sr = 16000
    bank = HrirBank(
        entries={
            0.0: (
                Waveform(np.array([0.5, 0.0]), sr),
                Waveform(np.array([0.0, 0.25]), sr),
            )
        },
        sample_rate=sr,
    )
    spec = SceneSpec(
        sources=(SceneSource("a", azimuth=0.0),), duration=3 / sr, seed=0
    )
    pool = {"a": Waveform(np.array([1.0, 0.0, 0.0]), sr)}
    out = synth_scene(spec, bank, default_layout_r3(), pool)
    region1 = out.region_signals[0]
    assert np.array_equal(region1.left.samples, [0.5, 0.0, 0.0])
    assert np.array_equal(region1.right.samples, [0.0, 0.25, 0.0])
    assert out.active == (True, False, False)
    assert np.array_equal(out.mixture.left.samples, region1.left.samples)


def test_synth_scene_empty_and_same_region_additivity():
    bank = spherical_bank()
    layout = default_layout_r3()
    empty = synth_scene(SceneSpec(sources=(), duration=0.1), bank, layout, {})
    assert not any(empty.active)
    assert not np.any(empty.mixture.left.samples)

    rng = np.random.default_rng(0)
    pool = {
        "a": Waveform(rng.standard_normal(1600) * 0.1, SR),
        "b": Waveform(rng.standard_normal(1600) * 0.1, SR),
    }
    both = synth_scene(
        SceneSpec(
            sources=(SceneSource("a", 60.0), SceneSource("b", 100.0)), duration=0.2
        ),
        bank,
        layout,
        pool,
    )
    only_a = synth_scene(
        SceneSpec(sources=(SceneSource("a", 60.0),), duration=0.2), bank, layout, pool
    )
    only_b = synth_scene(
        SceneSpec(sources=(SceneSource("b", 100.0),), duration=0.2), bank, layout, pool
    )
    # both sources sit in region 3; other regions stay silent
    assert both.active == (False, False, True)
    assert np.allclose(
        both.region_signals[2].left.samples,
        only_a.region_signals[2].left.samples + only_b.region_signals[2].left.samples,
        atol=1e-15,
    )


def _stereo(left, right):
    return BinauralSignal(Waveform(np.array(left), SR), Waveform(np.array(right), SR))


def test_sum_regions_pads_silences_and_sums_exactly():
    rng = np.random.default_rng(12)
    long_a = _stereo(rng.standard_normal(6), rng.standard_normal(6))
    long_b = _stereo(rng.standard_normal(6), rng.standard_normal(6))
    short = _stereo([0.5, -0.25], [1.0, 2.0])
    out = sum_regions([(2, long_a), (3, short), (2, long_b)], 3, 6, SR)

    assert out.active == (False, True, True)
    silent = out.region_signals[0]
    assert not silent.left.samples.any() and not silent.right.samples.any()
    assert len(silent) == 6 and silent.sample_rate == SR
    # a shorter source is zero-padded at the end
    assert out.region_signals[2].left.samples.tolist() == [0.5, -0.25, 0, 0, 0, 0]
    assert out.region_signals[2].right.samples.tolist() == [1.0, 2.0, 0, 0, 0, 0]
    assert np.array_equal(
        out.region_signals[1].left.samples,
        long_a.left.samples + long_b.left.samples,
    )
    # the mixture is exactly the sum of the regions, in region order
    for side in ("left", "right"):
        total = np.zeros(6)
        for sig in out.region_signals:
            total += getattr(sig, side).samples
        assert np.array_equal(getattr(out.mixture, side).samples, total)


def test_gain_linearity():
    bank = spherical_bank()
    rng = np.random.default_rng(1)
    wave = Waveform(rng.standard_normal(1600) * 0.1, SR)
    base = render_binaural_source(wave, bank, 40.0, 0.2, gain=1.0)
    doubled = render_binaural_source(wave, bank, 40.0, 0.2, gain=2.0)
    assert np.array_equal(doubled.left.samples, 2.0 * base.left.samples)
    assert np.array_equal(doubled.right.samples, 2.0 * base.right.samples)


def test_spherical_hrir_symmetry_and_shadow():
    left0, right0 = synth_spherical_hrir(0.0, DTM, SR)
    assert np.array_equal(left0.samples, right0.samples)

    left90, right90 = synth_spherical_hrir(90.0, DTM, SR)
    # full right: right ear louder (broadband), left ear delayed and shadowed
    assert np.sum(right90.samples**2) > np.sum(left90.samples**2)
    lag_left = int(np.argmax(np.abs(left90.samples)))
    lag_right = int(np.argmax(np.abs(right90.samples)))
    delay_taps = DTM * SR  # about 14.2 samples of interaural delay
    assert lag_left - lag_right == round(delay_taps)


def test_hrir_feature_loop_closure():
    # a rendered single source must return its construction ITD
    bank = spherical_bank()
    rng = np.random.default_rng(2)
    from regionsep.signals import band_noise_source

    src = band_noise_source(rng, 2.0, SR, band_group=0)
    for az in (60.0, 300.0):
        rendered = render_binaural_source(src, bank, az, 2.0)
        cfg = clustering_config()
        grid = compute_features(
            stft(rendered.left, cfg), stft(rendered.right, cfg), 562.0
        )
        est = float(np.mean(grid.itd_samples()))
        assert abs(est - spherical_itd(az, DTM)) < 2e-5


def test_azimuth_snapping():
    bank = spherical_bank()
    rng = np.random.default_rng(3)
    wave = Waveform(rng.standard_normal(800) * 0.1, SR)
    snapped = render_binaural_source(wave, bank, 52.0, 0.05)
    exact = render_binaural_source(wave, bank, 50.0, 0.05)
    assert np.array_equal(snapped.left.samples, exact.left.samples)

    sparse = HrirBank(
        entries={0.0: (Waveform(np.zeros(64), SR), Waveform(np.zeros(64), SR))},
        sample_rate=SR,
    )
    with pytest.raises(ValueError, match="within"):
        render_binaural_source(wave, sparse, 90.0, 0.05)


def test_scene_spec_json_round_trip():
    spec = SceneSpec(
        sources=(SceneSource("a", 45.0, 0.8), SceneSource("b", 270.0)),
        duration=2.0,
        seed=9,
        hrir_bank_id="spherical",
    )
    assert SceneSpec.from_json(spec.to_json()) == spec


def test_scene_spec_json_rejects_unknown_and_missing_keys():
    text = SceneSpec(sources=(SceneSource("a", 45.0),), duration=2.0).to_json()
    obj = json.loads(text)
    with pytest.raises(TypeError, match="extra"):
        SceneSpec.from_json(json.dumps({**obj, "extra": 1}))
    obj["sources"][0]["extra"] = 1
    with pytest.raises(TypeError, match="extra"):
        SceneSpec.from_json(json.dumps(obj))
    del obj["sources"][0]["extra"], obj["sources"][0]["azimuth"]
    with pytest.raises(TypeError, match="azimuth"):
        SceneSpec.from_json(json.dumps(obj))
    # a key with a default (seed, hrir_bank_id, gain) may be left out
    del obj["seed"], obj["hrir_bank_id"]
    obj["sources"] = [{"source_id": "a", "azimuth": 45.0}]
    spec = SceneSpec.from_json(json.dumps(obj))
    assert spec == SceneSpec(sources=(SceneSource("a", 45.0),), duration=2.0)


def test_random_scene_determinism_and_k_range():
    bank = spherical_bank()
    layout = default_layout_r3()
    a = random_scene((2, 5), layout, bank, ["a", "b"], seed=7, duration=1.0)
    b = random_scene((2, 5), layout, bank, ["a", "b"], seed=7, duration=1.0)
    assert a == b
    for seed in range(10):
        spec = random_scene((2, 2), layout, bank, ["a"], seed=seed, duration=1.0)
        assert len(spec.sources) == 2
    with pytest.raises(ValueError, match="source pool is empty"):
        random_scene((2, 3), layout, bank, [], seed=0, duration=1.0)
    for k_range in ((0, 2), (3, 2)):
        with pytest.raises(ValueError, match="bad k_range"):
            random_scene(k_range, layout, bank, ["a"], seed=0, duration=1.0)


def test_random_scene_region_uniformity():
    bank = spherical_bank()
    layout = default_layout_r3()
    counts = {1: 0, 2: 0, 3: 0}
    n_scenes = 7500  # 4 sources each -> 30000 region draws
    for seed in range(n_scenes):
        spec = random_scene((4, 4), layout, bank, ["a"], seed=seed, duration=1.0)
        for src in spec.sources:
            counts[region_of_azimuth(layout, src.azimuth)] += 1
    total = sum(counts.values())
    assert total == 4 * n_scenes
    for region in (1, 2, 3):
        assert abs(counts[region] / total - 1 / 3) < 0.02 / 3


def _rejection_draw(rng, by_region, num_regions):
    """Region-first draw by rejection: a uniform id in 1..num_regions,
    redrawn while it has no members, then a uniform member."""
    while True:
        region = 1 + int(rng.integers(num_regions))
        if by_region.get(region):
            members = by_region[region]
            return region, members[int(rng.integers(len(members)))]


def test_draw_region_first_equals_rejection_when_every_region_has_members():
    by_region = {1: ["a", "b", "c"], 2: ["d"], 3: ["e", "f"]}
    for seed in range(200):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            expected = _rejection_draw(old, by_region, 3)
            assert draw_region_first(new, by_region) == expected
        # the same calls: both generators are left in the same state
        assert new.random() == old.random()


def test_draw_region_first_is_uniform_over_populated_regions():
    rng = np.random.default_rng(0)
    by_region = {1: ["a", "b"], 2: [], 4: ["c"]}  # 2 is empty, 3 absent
    n = 30000
    counts = {}
    for _ in range(n):
        draw = draw_region_first(rng, by_region)
        counts[draw] = counts.get(draw, 0) + 1
    assert set(counts) == {(1, "a"), (1, "b"), (4, "c")}
    expected = {(1, "a"): 0.25, (1, "b"): 0.25, (4, "c"): 0.5}
    for draw, share in expected.items():
        assert abs(counts[draw] / n - share) < 0.015, draw


def _one_pair_bank(left: np.ndarray, right: np.ndarray) -> HrirBank:
    return HrirBank(
        entries={0.0: (Waveform(left, SR), Waveform(right, SR))}, sample_rate=SR
    )


def _render_lengths(taps: int):
    """Input lengths around every boundary of the overlap-save renderer."""
    step = _fft_size(taps) - taps + 1
    group = RENDER_GROUP_BLOCKS * step
    lengths = {1, taps - 1, taps, step - 1, step, step + 1, 64000, 3 * group + 5}
    for edge in (group, 2 * group):
        # an input, or a full convolution, that ends at a group boundary
        for n in (edge, edge - taps + 1):
            lengths.update((n - 1, n, n + 1))
    return sorted(n for n in lengths if n >= 1)


@pytest.mark.parametrize("taps", [1, 7, 256, 300])
def test_render_matches_direct_convolution(taps):
    rng = np.random.default_rng(taps)
    h_left, h_right = rng.standard_normal((2, taps))
    bank = _one_pair_bank(h_left, h_right)
    for n in _render_lengths(taps):
        wave = Waveform(rng.standard_normal(n), SR)
        support = n + taps - 1
        for n_out in (max(n - 3, 1), support, support + 11):
            out = render_binaural_source(wave, bank, 0.0, n_out / SR, gain=0.7)
            for got, h in ((out.left.samples, h_left), (out.right.samples, h_right)):
                want = oracle_render(wave.samples, h, 0.7, n_out)
                assert len(got) == n_out
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err <= 1e-13, (n, n_out, err)
                assert not np.any(got[support:]), (n, n_out)


def test_render_of_silence_is_exact_zeros():
    rng = np.random.default_rng(9)
    bank = _one_pair_bank(*rng.standard_normal((2, 256)))
    wave = Waveform(np.zeros(30000), SR)
    out = render_binaural_source(wave, bank, 0.0, 31000 / SR)
    assert not np.any(out.left.samples) and not np.any(out.right.samples)


def test_render_memory_is_the_outputs_plus_a_group():
    bank = spherical_bank()
    wave = Waveform(np.random.default_rng(8).standard_normal(120 * SR) * 0.1, SR)
    tracemalloc.start()
    try:
        out = render_binaural_source(wave, bank, 40.0, 120.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = out.left.samples.nbytes + out.right.samples.nbytes
    assert peak <= outputs + 4 * 2**20, (peak, outputs)


def _scene_pool():
    """Sources shorter than, as long as, and longer than a 2 s scene."""
    rng = np.random.default_rng(22)
    lengths = {"short": 300, "mid": 20000, "exact": 2 * SR, "long": 50000}
    return {k: Waveform(rng.standard_normal(n) * 0.1, SR) for k, n in lengths.items()}


def _scene_specs(bank):
    """K = 1 to 6 drawn sources with gains other than 1, one source placed
    twice, and a scene whose sources all land in one region."""
    rng = np.random.default_rng(23)
    ids = sorted(_scene_pool())
    specs = []
    for k in range(1, 7):
        sources = tuple(
            SceneSource(
                ids[int(rng.integers(len(ids)))],
                float(rng.choice(bank.azimuths)),
                float(rng.choice([1.0, 0.5, 1.7, 0.3])),
            )
            for _ in range(k)
        )
        specs.append(SceneSpec(sources=sources, duration=2.0))
    twice = (SceneSource("long", 0.0, 0.8), SceneSource("long", 0.0, 1.3))
    specs.append(SceneSpec(sources=twice + (SceneSource("short", 90.0),), duration=2.0))
    one_region = (SceneSource("mid", 90.0), SceneSource("exact", 90.0, 2.5))
    specs.append(SceneSpec(sources=one_region, duration=2.0))
    return specs


@pytest.mark.parametrize("bank_kind", ["spherical", "mixed_taps"])
def test_synth_scene_equals_render_then_sum_bit_for_bit(bank_kind):
    bank = spherical_bank() if bank_kind == "spherical" else mixed_tap_bank()
    layout = default_layout_r3()
    pool = _scene_pool()
    shared_memo = {}
    specs = _scene_specs(bank)
    for spec in specs:
        want = oracle_synth_scene(spec, bank, layout, pool)
        for memo in (None, {}, shared_memo):
            got = synth_scene(spec, bank, layout, pool, memo)
            assert got.active == want.active
            pairs = zip((*got.region_signals, got.mixture), (*want.region_signals, want.mixture))
            for g, w in pairs:
                assert np.array_equal(g.left.samples, w.left.samples)
                assert np.array_equal(g.right.samples, w.right.samples)
    assert want.active == (False, False, True)  # the last scene's empty regions
    # one memo entry per pool source and tap count placed, at the scene length
    taps = {az: len(left) for az, (left, _) in bank.entries.items()}
    placed = {
        (src.source_id, taps[bank.nearest_azimuth(src.azimuth)], 2 * SR)
        for spec in specs
        for src in spec.sources
    }
    assert set(shared_memo) == placed


def test_synth_scene_memory_is_its_outputs_plus_a_group():
    bank = spherical_bank()
    rng = np.random.default_rng(24)
    pool = {k: Waveform(rng.standard_normal(30 * SR) * 0.1, SR) for k in "ab"}
    sources = (SceneSource("a", 60.0), SceneSource("b", 270.0), SceneSource("a", 0.0, 0.5))
    spec = SceneSpec(sources=sources, duration=30.0)
    tracemalloc.start()
    try:
        out = synth_scene(spec, bank, default_layout_r3(), pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the three regions and the mixture, two channels each
    outputs = sum(2 * sig.left.samples.nbytes for sig in (*out.region_signals, out.mixture))
    assert peak <= outputs + 2 * 2**20, (peak, outputs)


def test_render_rejects_a_source_at_another_rate():
    wave = Waveform(np.zeros(800), 8000)
    with pytest.raises(ValueError, match="rate 8000 != bank rate 16000"):
        render_binaural_source(wave, spherical_bank(), 0.0, 0.1)
