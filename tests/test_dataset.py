"""Dirty-source harvesting and training-tuple synthesis tests."""

import dataclasses
import json
from functools import partial

import numpy as np
import pytest

from regionsep import (
    BinauralSignal,
    Discarded,
    Passthrough,
    Separated,
    Waveform,
    SeparationConfig,
    build_training_tuples,
    default_layout_r3,
    read_manifest,
    region_of_itd,
    spherical_itd,
)
from regionsep.dataset import (
    PROVENANCE_CLEAN,
    DirtyBuildStats,
    PROVENANCE_SEPARATED,
    PROVENANCE_SINGLE,
    draw_mixture_params,
    draw_tuples,
    outcome_records,
    read_stored,
    store_records,
    sum_tuple,
)
from regionsep.manifest import ManifestEntry, write_manifest
from regionsep.signals import make_source_pool
from helpers import DTM, SR, harvest, spherical_bank

DTAU_MIN = 6e-4


@pytest.fixture(scope="module")
def pool():
    return make_source_pool(seed=77, count=4, duration=2.0, sample_rate=SR)


@pytest.fixture(scope="module")
def harvested(pool):
    return harvest(pool, SeparationConfig(), n=12, seed=9)


def test_draw_mixture_params_constraints(pool):
    rng = np.random.default_rng(0)
    ids = sorted(pool)
    azimuths = spherical_bank().azimuths
    for _ in range(50):
        id1, az1, id2, az2 = draw_mixture_params(rng, ids, azimuths, DTAU_MIN, DTM)
        assert id1 != id2
        gap = abs(spherical_itd(az1, DTM) - spherical_itd(az2, DTM))
        assert gap >= DTAU_MIN
    with pytest.raises(ValueError, match="at least 2"):
        draw_mixture_params(rng, ["only"], azimuths, DTAU_MIN, DTM)
    with pytest.raises(ValueError, match="no two azimuths"):
        draw_mixture_params(rng, ids, np.array([0.0]), DTAU_MIN, DTM)
    with pytest.raises(ValueError, match="no two azimuths"):
        draw_mixture_params(rng, ids, np.array([]), DTAU_MIN, DTM)


def test_draw_mixture_params_finds_a_rare_pair_at_every_seed(pool):
    # at 1.77e-3 s only 18 of the 5184 ordered pairs of the 5-degree bank
    # are far enough apart in ITD, about one draw in 288; the draw must
    # find one at every seed, not give up after a fixed number of tries
    ids = sorted(pool)
    azimuths = spherical_bank().azimuths
    for seed in range(40):
        rng = np.random.default_rng(seed)
        _, az1, _, az2 = draw_mixture_params(rng, ids, azimuths, 1.77e-3, DTM)
        assert abs(spherical_itd(az1, DTM) - spherical_itd(az2, DTM)) >= 1.77e-3


def _constant_signal(value):
    wave = Waveform(np.full(8, value), SR)
    return BinauralSignal(wave, wave)


def test_outcome_records_per_outcome():
    assert outcome_records(Discarded("peaks_too_close"), "mix00001", DTM) == []

    single = _constant_signal(0.1)
    (rec,) = outcome_records(Passthrough(single, 1e-5), "mix00002", DTM)
    assert rec.signal is single and rec.itd == 1e-5 and rec.region == 1
    assert rec.provenance == PROVENANCE_SINGLE and rec.origin_scene == "mix00002"
    assert rec.clean_signal is None

    # source 1 leads on the right (region 3), source 2 on the left (region 2)
    first, second = _constant_signal(0.2), _constant_signal(0.3)
    masks = (np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool))
    outcome = Separated(first, -8e-4, second, 8e-4, masks, 5.0)
    records = outcome_records(outcome, "mix00003", DTM)
    assert records[0].signal is first and records[1].signal is second
    assert [(r.itd, r.region) for r in records] == [(-8e-4, 3), (8e-4, 2)]
    for rec in records:
        assert rec.provenance == PROVENANCE_SEPARATED
        assert rec.origin_scene == "mix00003" and rec.clean_signal is None


def test_harvest_mixture_stats_and_labels(harvested):
    records, stats = harvested
    assert stats.n_mixtures == 12
    assert (
        stats.n_passthrough + stats.n_separated + stats.n_discarded
        == stats.n_mixtures
    )
    assert sum(stats.discard_reasons.values()) == stats.n_discarded
    assert stats.acceptance_rate == pytest.approx(
        (stats.n_passthrough + stats.n_separated) / 12
    )
    assert stats.n_separated > 0  # opposite-group pairs must separate
    for rec in records:
        assert rec.region == region_of_itd(rec.itd, DTM)
        assert rec.provenance in (PROVENANCE_SINGLE, PROVENANCE_SEPARATED)
        if rec.provenance == PROVENANCE_SEPARATED:
            assert rec.clean_signal is not None
    record = stats.to_record()
    assert record["n_mixtures"] == 12


def test_harvest_mixture_deterministic(pool, harvested):
    records, stats = harvested
    again, stats2 = harvest(pool, SeparationConfig(), n=12, seed=9)
    assert stats2.to_record() == stats.to_record()
    assert len(again) == len(records)
    for a, b in zip(records, again):
        assert a.itd == b.itd
        assert np.array_equal(a.signal.left.samples, b.signal.left.samples)


def test_dirty_build_stats_add():
    stats = DirtyBuildStats()
    stats.add([], "peaks_too_close")
    stats.add([], "peaks_too_close")
    stats.add(["single"], None)
    stats.add(["one", "two"], None)
    assert stats.to_record() == {
        "n_mixtures": 4,
        "n_passthrough": 1,
        "n_separated": 1,
        "n_discarded": 2,
        "discard_reasons": {"peaks_too_close": 2},
        "acceptance_rate": 0.5,
    }


def test_training_tuples_identity_and_activity(harvested):
    records, _ = harvested
    layout = default_layout_r3()
    tuples = build_training_tuples(records, layout, (2, 4), 0.5, m=20, seed=3)
    assert len(tuples) == 20
    for tup in tuples:
        assert len(tup.references) == 3
        mix_l = sum(ref.left.samples for ref in tup.references)
        mix_r = sum(ref.right.samples for ref in tup.references)
        assert np.array_equal(tup.mixture.left.samples, mix_l)
        assert np.array_equal(tup.mixture.right.samples, mix_r)
        for ref, flag in zip(tup.references, tup.active):
            has_energy = bool(np.any(ref.left.samples) or np.any(ref.right.samples))
            assert has_energy == flag
        assert 2 <= len(tup.provenances) <= 4


def test_training_tuples_clean_ratio_extremes(harvested):
    records, _ = harvested
    layout = default_layout_r3()
    dirty = build_training_tuples(records, layout, (2, 3), 0.0, m=10, seed=4)
    for tup in dirty:
        assert PROVENANCE_CLEAN not in tup.provenances
    clean = build_training_tuples(records, layout, (2, 3), 1.0, m=10, seed=4)
    for tup in clean:
        # every separated draw is swapped for its clean original
        assert PROVENANCE_SEPARATED not in tup.provenances


def test_training_tuples_determinism(harvested):
    records, _ = harvested
    layout = default_layout_r3()
    a = build_training_tuples(records, layout, (2, 4), 0.5, m=5, seed=8)
    b = build_training_tuples(records, layout, (2, 4), 0.5, m=5, seed=8)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.mixture.left.samples, tb.mixture.left.samples)
        assert ta.provenances == tb.provenances


def test_training_tuples_validation(harvested):
    records, _ = harvested
    layout = default_layout_r3()
    with pytest.raises(ValueError, match="empty"):
        build_training_tuples([], layout, (2, 3), 0.5, m=1, seed=0)
    with pytest.raises(ValueError, match="clean_ratio"):
        build_training_tuples(records, layout, (2, 3), 1.5, m=1, seed=0)
    with pytest.raises(ValueError, match="k_range"):
        build_training_tuples(records, layout, (0, 3), 0.5, m=1, seed=0)
    outside = [dataclasses.replace(records[0], region=4)]
    with pytest.raises(ValueError, match="region 4 is not in the layout"):
        build_training_tuples(outside, layout, (2, 3), 0.5, m=1, seed=0)


def test_training_tuples_need_clean_originals_only_above_ratio_0(harvested):
    records, _ = harvested
    layout = default_layout_r3()
    bare = [dataclasses.replace(rec, clean_signal=None) for rec in records]
    assert any(rec.provenance == PROVENANCE_SEPARATED for rec in bare)
    with pytest.raises(ValueError, match="no clean original"):
        build_training_tuples(bare, layout, (2, 3), 0.5, m=1, seed=0)
    # at ratio 0 the clean originals are never read, and the draws are the same
    dirty = build_training_tuples(records, layout, (2, 4), 0.0, m=10, seed=4)
    same = build_training_tuples(bare, layout, (2, 4), 0.0, m=10, seed=4)
    for a, b in zip(dirty, same):
        assert a.provenances == b.provenances
        assert np.array_equal(a.mixture.left.samples, b.mixture.left.samples)
        assert np.array_equal(a.mixture.right.samples, b.mixture.right.samples)


def _channels(tup):
    signals = (tup.mixture, *tup.references)
    return [ch.samples for sig in signals for ch in (sig.left, sig.right)]


@pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
def test_tuples_drawn_from_stored_labels_equal_the_tuples_in_memory(
    tmp_path, harvested, ratio
):
    records, _ = harvested
    layout = default_layout_r3()
    stored = store_records(records, tmp_path)
    signal_of = partial(read_stored, tmp_path)
    from_store = [
        sum_tuple(drawn, layout.num_regions, signal_of)
        for drawn in draw_tuples(stored, layout, (2, 4), ratio, m=12, seed=6)
    ]
    in_memory = build_training_tuples(records, layout, (2, 4), ratio, m=12, seed=6)
    assert len(from_store) == len(in_memory) == 12
    for a, b in zip(from_store, in_memory):
        assert a.provenances == b.provenances and a.active == b.active
        for x, y in zip(_channels(a), _channels(b)):
            assert np.array_equal(x, y)


def test_read_stored_of_a_cut_store_file_raises_naming_it(tmp_path, harvested):
    records, _ = harvested
    bare = dataclasses.replace(records[0], clean_signal=None)
    (rec,) = store_records([bare], tmp_path)
    signal = read_stored(tmp_path, rec, False)
    assert np.array_equal(signal.left.samples, records[0].signal.left.samples)
    assert np.array_equal(signal.right.samples, records[0].signal.right.samples)
    (path,) = tmp_path.iterdir()
    with open(path, "r+b") as f:
        f.truncate(path.stat().st_size - 8)
    with pytest.raises(OSError, match=path.name):
        read_stored(tmp_path, rec, False)


def test_manifest_round_trip(tmp_path):
    entries = [
        ManifestEntry("a.wav", 1e-4, 1, "passthrough", "mix00001"),
        ManifestEntry("", None, None, "discarded:peaks_too_close", "mix00002"),
        ManifestEntry("b.wav", -2e-4, 3, "separated", "mix00003"),
    ]
    path = tmp_path / "manifest.jsonl"
    write_manifest(entries, path)
    assert read_manifest(path) == entries


def test_read_manifest_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "manifest.jsonl"
    line = json.loads(ManifestEntry("a.wav", 1e-4, 1, "passthrough", "mix1").to_json())
    path.write_text(json.dumps({**line, "extra": 1}) + "\n")
    with pytest.raises(TypeError, match="extra"):
        read_manifest(path)
    del line["region"]
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(TypeError, match="region"):
        read_manifest(path)
