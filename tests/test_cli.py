"""Command-line interface tests (in-process invocations)."""

import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path
from collections import Counter

import numpy as np
import pytest

import regionsep.cli as cli
import regionsep.parallel as parallel
from regionsep import (
    BinauralSignal,
    EmSettings,
    SeparationConfig,
    Waveform,
    build_dirty_sources,
    make_source_pool,
    make_spherical_bank,
    outcome_records,
    read_manifest,
    read_wav,
    save_hrir_bank,
    separate,
    write_wav,
)
from regionsep.cli import main
from regionsep.features import aliasing_bin
from helpers import DTM, SR, mixed_tap_bank, spherical_bank
from helpers import single_source_scene, tree_digest, two_source_scene


def _synth(out, seed=3, num=3, jobs=1, extra=()):
    return main(
        [
            "synth",
            "--out",
            str(out),
            "--seed",
            str(seed),
            "--num-scenes",
            str(num),
            "--duration",
            "1.0",
            "--k-min",
            "2",
            "--k-max",
            "3",
            "--jobs",
            str(jobs),
            *extra,
        ]
    )


def test_synth_outputs_and_determinism(tmp_path):
    assert _synth(tmp_path / "a") == 0
    assert _synth(tmp_path / "b") == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    scene = tmp_path / "a" / "scene_0000"
    assert (scene / "scene.json").exists()
    assert (scene / "mixture.wav").exists()
    assert sorted(p.name for p in scene.glob("region_*.wav")) == [
        "region_1.wav",
        "region_2.wav",
        "region_3.wav",
    ]
    spec = json.loads((scene / "scene.json").read_text())
    assert 2 <= len(spec["sources"]) <= 3


def test_synth_tree_with_a_mixed_tap_bank_is_the_same_at_any_jobs(tmp_path):
    bank = tmp_path / "mixed.hrir"
    save_hrir_bank(mixed_tap_bank(), bank)
    digests = []
    for jobs in (1, 2):
        out = tmp_path / f"j{jobs}"
        extra = ("--hrir-bank", str(bank), "--k-max", "5", "--pool-size", "3")
        assert _synth(out, num=6, jobs=jobs, extra=extra) == 0
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]


def test_consecutive_synth_commands_write_what_fresh_processes_write(tmp_path):
    # both pools hold sources of the same names, so anything one command
    # kept of its pool would show in the other's scenes
    rng = np.random.default_rng(31)
    pools = []
    for name in ("pool_a", "pool_b"):
        pool = tmp_path / name
        pool.mkdir()
        for stem, n in (("x", 9000), ("y", 20000), ("z", 16000)):
            write_wav(Waveform(rng.uniform(-0.3, 0.3, n), SR), pool / f"{stem}.wav")
        pools.append(pool)
    runs = [(5, pools[0]), (6, pools[1])]
    for k, (seed, pool) in enumerate(runs):
        assert _synth(tmp_path / f"in{k}", seed=seed, num=4, extra=("--pool", str(pool))) == 0
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for k, (seed, pool) in enumerate(runs):
        argv = [
            "synth", "--out", str(tmp_path / f"fresh{k}"), "--seed", str(seed),
            "--num-scenes", "4", "--duration", "1.0", "--k-min", "2", "--k-max", "3",
            "--pool", str(pool),
        ]
        done = subprocess.run(
            [sys.executable, "-m", "regionsep.cli", *argv],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert tree_digest(tmp_path / f"in{k}") == tree_digest(tmp_path / f"fresh{k}")


def test_invalid_config_exit_2(tmp_path, capsys):
    assert _synth(tmp_path / "x", extra=("--alpha", "0.5")) == 2
    assert "alpha" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"no_such_key": 1}')
    assert _synth(tmp_path / "y", extra=("--config", str(bad))) == 2


def test_missing_input_exit_3(tmp_path, capsys):
    code = main(
        ["separate", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "out")]
    )
    assert code == 3
    assert "I/O error" in capsys.readouterr().err


def test_separate_passthrough_checksum(tmp_path):
    signal, _ = single_source_scene(50.0, seed=21, duration=2.0)
    wav = tmp_path / "single.wav"
    write_wav(signal, wav)
    out = tmp_path / "out"
    assert main(["separate", str(wav), "--out", str(out)]) == 0
    assert (out / "passthrough.wav").read_bytes() == wav.read_bytes()
    (entry,) = read_manifest(out / "manifest.jsonl")
    assert entry.outcome == "passthrough"
    assert entry.region == 3  # source on the right


def test_separate_two_sources(tmp_path):
    mixture, *_ = two_source_scene(315.0, 45.0, seed=22)
    wav = tmp_path / "pair.wav"
    write_wav(mixture, wav)
    out = tmp_path / "out"
    assert main(["separate", str(wav), "--out", str(out), "--diagnostics"]) == 0
    entries = read_manifest(out / "manifest.jsonl")
    assert [e.outcome for e in entries] == ["separated", "separated"]
    assert sorted(e.region for e in entries) == [2, 3]
    assert (out / "source1.wav").exists() and (out / "source2.wav").exists()
    mask = np.loadtxt(out / "mask1.txt")
    assert mask.ndim == 2 and set(np.unique(mask)) <= {0.0, 1.0}
    assert float((out / "alpha.txt").read_text()) > 1.0


def test_separate_discard_exit_0(tmp_path):
    mixture, *_ = two_source_scene(15.0, 25.0, seed=23)
    wav = tmp_path / "close.wav"
    write_wav(mixture, wav)
    out = tmp_path / "out"
    assert main(["separate", str(wav), "--out", str(out)]) == 0
    (entry,) = read_manifest(out / "manifest.jsonl")
    assert entry.outcome == "discarded:peaks_too_close"
    assert entry.path == ""
    assert not list(out.glob("*.wav"))


def test_eval_self_estimates_clamp(tmp_path):
    refs = tmp_path / "refs"
    assert _synth(refs, seed=5, num=2) == 0
    report = tmp_path / "report.jsonl"
    code = main(
        [
            "eval",
            "--estimates",
            str(refs),
            "--references",
            str(refs),
            "--out",
            str(report),
        ]
    )
    assert code == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert len(lines) == 2
    for record in lines:
        assert record["clamped"] is True
        assert record["mode"] in ("s_snr", "2_snri", "3_snri")


def test_eval_of_other_estimates_is_not_clamped(tmp_path):
    refs, ests = tmp_path / "refs", tmp_path / "ests"
    assert _synth(refs, seed=0, num=2) == 0
    assert _synth(ests, seed=3, num=2) == 0
    report = tmp_path / "report.jsonl"
    argv = ["eval", "--estimates", str(ests), "--references", str(refs)]
    assert main(argv + ["--out", str(report)]) == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert len(lines) == 2
    assert all(record["clamped"] is False for record in lines)


def test_synth_and_separate_log_clipped_samples(tmp_path, monkeypatch, caplog):
    pool = tmp_path / "pool"
    pool.mkdir()
    sources = make_source_pool(seed=5, count=4, duration=2.0, sample_rate=16000)
    for name, wave in sources.items():
        loud = wave.samples * (0.99 / np.max(np.abs(wave.samples)))
        write_wav(Waveform(loud, 16000), pool / f"{name}.wav")
    counts = []

    def counting_write_wav(signal, path):
        counts.append(write_wav(signal, path))
        return counts[-1]

    monkeypatch.setattr(cli, "write_wav", counting_write_wav)
    caplog.set_level("INFO", logger="regionsep")
    scenes = tmp_path / "scenes"
    assert _synth(scenes, extra=("--pool", str(pool))) == 0
    synth_clipped = sum(counts)
    assert synth_clipped > 0
    counts.clear()
    mixture = scenes / "scene_0000" / "mixture.wav"
    assert main(["separate", str(mixture), "--out", str(tmp_path / "sep")]) == 0
    lines = [r.getMessage() for r in caplog.records]
    lines = [line for line in lines if "samples clipped" in line]
    assert len(lines) == 2
    assert lines[0].endswith(f"; {synth_clipped} samples clipped")
    assert lines[1].endswith(f"; {sum(counts)} samples clipped")


def test_dataset_command(tmp_path):
    out = tmp_path / "db"
    code = main(
        [
            "dataset",
            "--out",
            str(out),
            "--seed",
            "11",
            "--num",
            "8",
            "--duration",
            "2.0",
            "--pool-size",
            "4",
            "--tuples",
            "2",
            "--k-min",
            "2",
            "--k-max",
            "3",
        ]
    )
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["n_mixtures"] == 8
    assert (
        stats["n_passthrough"] + stats["n_separated"] + stats["n_discarded"] == 8
    )
    entries = read_manifest(out / "manifest.jsonl")
    kept = [e for e in entries if e.path]
    assert len(kept) == stats["n_passthrough"] + 2 * stats["n_separated"]
    for e in kept:
        assert (out / e.path).exists()
    if stats["n_passthrough"] + stats["n_separated"] > 0:
        tdir = out / "tuple_0000"
        assert (tdir / "mixture.wav").exists()
        meta = json.loads((tdir / "meta.json").read_text())
        assert len(meta["active"]) == 3


def test_mono_input_rejected(tmp_path, capsys):
    wav = tmp_path / "mono.wav"
    write_wav(Waveform(np.zeros(8000), 16000), wav)
    assert main(["separate", str(wav), "--out", str(tmp_path / "o")]) == 2
    assert "stereo" in capsys.readouterr().err


def test_separate_truncated_input_exit_3(tmp_path, capsys):
    mixture, *_ = two_source_scene(315.0, 45.0, seed=22, duration=1.0)
    wav = tmp_path / "cut.wav"
    write_wav(mixture, wav)
    wav.write_bytes(wav.read_bytes()[:-1001])
    assert main(["separate", str(wav), "--out", str(tmp_path / "o")]) == 3
    assert "truncated 'data' chunk" in capsys.readouterr().err


def test_dataset_counts_clipped_samples(tmp_path, monkeypatch):
    # near-full-scale sources: their mixtures and tuples exceed [-1, 1]
    pool = tmp_path / "pool"
    pool.mkdir()
    sources = make_source_pool(seed=5, count=4, duration=2.0, sample_rate=16000)
    for name, wave in sources.items():
        loud = wave.samples * (0.99 / np.max(np.abs(wave.samples)))
        write_wav(Waveform(loud, 16000), pool / f"{name}.wav")
    counts = []

    def counting_write_wav(signal, path):
        counts.append(write_wav(signal, path))
        return counts[-1]

    monkeypatch.setattr(cli, "write_wav", counting_write_wav)
    out = tmp_path / "db"
    argv = ["dataset", "--out", str(out), "--seed", "11", "--num", "6"]
    argv += ["--pool", str(pool), "--tuples", "3", "--k-min", "2", "--k-max", "3"]
    assert main(argv) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert sum(counts) > 0
    assert stats["clipped_samples"] == sum(counts)


def test_cli_defaults_equal_separation_config():
    args = cli.build_parser().parse_args(["separate", "in.wav", "--out", "o"])
    assert cli._separation_config(cli._load_params(args)) == SeparationConfig()
    assert cli.DEFAULT_DELTA_TAU_MAX == SeparationConfig().delta_tau_max


def test_delta_tau_max_sets_the_aliasing_bin(tmp_path, capsys):
    argv = ["separate", "in.wav", "--out", "o", "--delta-tau-max", "1.2e-3"]
    cfg = cli._separation_config(cli._load_params(cli.build_parser().parse_args(argv)))
    assert cfg.delta_tau_max == 1.2e-3
    assert aliasing_bin(cfg.f_aliasing, cfg.stft) == 27  # 416.67 Hz; 36 by default
    # the aliasing frequency is no longer a config key of its own
    with pytest.raises(SystemExit) as exc:
        main(["separate", "in.wav", "--out", "o", "--f-aliasing", "416.67"])
    assert exc.value.code == 2
    stale = tmp_path / "stale.json"
    stale.write_text('{"f_aliasing": 416.67}')
    assert _synth(tmp_path / "s", extra=("--config", str(stale))) == 2
    assert "unknown config keys: ['f_aliasing']" in capsys.readouterr().err


def test_jobs_below_one_exit_2(tmp_path, capsys):
    for jobs in ("0", "-2"):
        assert _synth(tmp_path / f"s{jobs}", jobs=jobs) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        argv = ["dataset", "--out", str(tmp_path / f"d{jobs}"), "--jobs", jobs]
        assert main(argv) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_dataset_command_matches_build_dirty_sources(tmp_path):
    seed = 11
    out = tmp_path / "db"
    argv = ["dataset", "--out", str(out), "--seed", str(seed), "--num", "8"]
    argv += ["--duration", "2.0", "--pool-size", "4", "--jobs", "2"]
    assert main(argv) == 0
    pool = make_source_pool(
        seed=seed ^ 0x5EED, count=4, duration=2.0, sample_rate=16000
    )
    cfg = SeparationConfig(em=EmSettings(seed=seed), seed=seed)
    records, stats = build_dirty_sources(pool, spherical_bank(), cfg, n=8, seed=seed)
    assert records and stats.n_discarded > 0

    written = json.loads((out / "stats.json").read_text())
    assert {key: written[key] for key in stats.to_record()} == stats.to_record()
    entries = read_manifest(out / "manifest.jsonl")
    discards = Counter(e.outcome.split(":", 1)[1] for e in entries if not e.path)
    assert discards == stats.discard_reasons
    kept = [e for e in entries if e.path]
    assert [(e.itd, e.region, e.source_id) for e in kept] == [
        (r.itd, r.region, r.origin_scene) for r in records
    ]
    for entry, rec in zip(kept, records):
        write_wav(rec.signal, tmp_path / "record.wav")
        assert (out / entry.path).read_bytes() == (tmp_path / "record.wav").read_bytes()


def test_pool_tasks_pickle_small(tmp_path, monkeypatch):
    # what the pool path would send per task, collected without a pool
    sizes = []

    def recording_pool(fn, shared, tasks, n_workers):
        for task in tasks:
            sizes.append(len(pickle.dumps((parallel._call_installed, task))))
            yield fn(shared, task)

    monkeypatch.setattr(parallel, "_pooled", recording_pool)
    argv = ["dataset", "--out", str(tmp_path / "db"), "--num", "4", "--jobs", "2"]
    assert main(argv + ["--duration", "1.0", "--pool-size", "4"]) == 0
    assert _synth(tmp_path / "scenes", num=3, jobs=2) == 0
    assert len(sizes) == 4 + 3
    assert max(sizes) < 1024


def test_separate_manifest_equals_outcome_records(tmp_path):
    single, _ = single_source_scene(50.0, seed=21, duration=2.0)
    pair, *_ = two_source_scene(315.0, 45.0, seed=22)
    cases = (
        ("single", single, ["passthrough.wav"], "passthrough"),
        ("pair", pair, ["source1.wav", "source2.wav"], "separated"),
    )
    for name, signal, paths, outcome in cases:
        wav = tmp_path / f"{name}.wav"
        write_wav(signal, wav)
        out = tmp_path / name
        assert main(["separate", str(wav), "--out", str(out)]) == 0
        result = separate(read_wav(wav), SeparationConfig())
        records = outcome_records(result, name, DTM)
        entries = read_manifest(out / "manifest.jsonl")
        assert [e.path for e in entries] == paths
        assert {e.outcome for e in entries} == {outcome}
        assert [(e.itd, e.region, e.source_id) for e in entries] == [
            (r.itd, r.region, r.origin_scene) for r in records
        ]
        for entry, rec in zip(entries, records):
            write_wav(rec.signal, tmp_path / "record.wav")
            expected = (tmp_path / "record.wav").read_bytes()
            assert (out / entry.path).read_bytes() == expected


def test_bad_counts_and_small_pools_exit_2(tmp_path, capsys):
    one = tmp_path / "one_source"
    one.mkdir()
    write_wav(Waveform(np.zeros(16000), 16000), one / "a.wav")
    cases = [
        (["dataset", "--pool-size", "1"], "1 sources, need at least 2"),
        (["dataset", "--pool", str(one)], "1 sources, need at least 2"),
        (["synth", "--pool-size", "0"], "0 sources, need at least 1"),
        (["dataset", "--num", "-1"], "--num must be at least 0"),
        (["synth", "--num-scenes", "-1"], "--num-scenes must be at least 0"),
        (["dataset", "--tuples", "-1"], "--tuples must be at least 0"),
        (["synth", "--k-min", "0"], "need 1 <= --k-min <= --k-max"),
        (["dataset", "--k-min", "0"], "need 1 <= --k-min <= --k-max"),
        (["synth", "--k-min", "4", "--k-max", "3"], "got 4 and 3"),
        (["dataset", "--k-min", "4", "--k-max", "3"], "got 4 and 3"),
    ]
    for k, (argv, message) in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert message in capsys.readouterr().err
        assert not out.exists()
    # zero mixtures or scenes is still a valid run
    assert main(["dataset", "--num", "0", "--out", str(tmp_path / "d0")]) == 0
    assert main(["synth", "--num-scenes", "0", "--out", str(tmp_path / "s0")]) == 0


def test_sample_rate_mismatch_exit_2_before_writing(tmp_path, capsys):
    bank8k = tmp_path / "bank8k.bin"
    save_hrir_bank(make_spherical_bank([0.0, 90.0, 270.0], DTM, 8000), bank8k)
    pool8k = tmp_path / "pool8k"
    pool8k.mkdir()
    for name in ("a", "b"):
        write_wav(Waveform(np.zeros(8000), 8000), pool8k / f"{name}.wav")
    cases = [
        (["--hrir-bank", str(bank8k)], "rate 8000 != --sample-rate 16000"),
        (["--pool", str(pool8k)], "rate 8000 != --sample-rate 16000"),
    ]
    for k, (extra, message) in enumerate(cases):
        for command in ("synth", "dataset"):
            out = tmp_path / f"{command}{k}"
            assert main([command, *extra, "--out", str(out)]) == 2, (command, extra)
            assert message in capsys.readouterr().err
            assert not out.exists()


def test_separate_rejects_unusable_input_before_writing(tmp_path, capsys):
    def stereo(n, rate):
        return BinauralSignal(Waveform(np.zeros(n), rate), Waveform(np.zeros(n), rate))

    min_len = SeparationConfig().min_input_samples  # 4 STFT frames: 2560 samples
    cases = [
        ("short", stereo(min_len - 1, 16000), f"{min_len - 1} samples, need at least"),
        ("cd", stereo(44100, 44100), "rate 44100 != --sample-rate 16000"),
    ]
    for name, signal, message in cases:
        wav = tmp_path / f"{name}.wav"
        write_wav(signal, wav)
        out = tmp_path / f"{name}_out"
        assert main(["separate", str(wav), "--out", str(out)]) == 2, name
        assert message in capsys.readouterr().err
        assert not out.exists()


def _eval_with_region_2(tmp_path, repeats: int = 1, rate: int = 16000) -> int:
    """`eval` of one synth scene against its own regions, but with the
    region_2.wav estimate's samples tiled ``repeats`` times at ``rate``."""
    refs = tmp_path / "refs"
    assert _synth(refs, seed=5, num=1) == 0
    est = tmp_path / "est" / "scene_0000"
    est.mkdir(parents=True)
    for path in (refs / "scene_0000").glob("region_*.wav"):
        (est / path.name).write_bytes(path.read_bytes())
    ref = read_wav(refs / "scene_0000" / "region_2.wav")
    left, right = (
        Waveform(np.tile(ch.samples, repeats), rate) for ch in (ref.left, ref.right)
    )
    write_wav(BinauralSignal(left, right), est / "region_2.wav")
    argv = ["eval", "--estimates", str(tmp_path / "est"), "--references", str(refs)]
    return main(argv + ["--out", str(tmp_path / "report.jsonl")])


def test_eval_estimate_length_mismatch_exit_3(tmp_path, capsys):
    assert _eval_with_region_2(tmp_path, repeats=2) == 3
    err = capsys.readouterr().err
    assert "I/O error" in err and "region_2.wav has 32000 samples" in err


def _eval_malformed_scene(tmp_path, capsys, damage) -> str:
    """`eval` of one synth scene against itself after ``damage(scene_dir)``;
    requires exit 3 and returns stderr."""
    refs = tmp_path / "refs"
    assert _synth(refs, seed=5, num=1) == 0
    damage(refs / "scene_0000")
    argv = ["eval", "--estimates", str(refs), "--references", str(refs)]
    assert main(argv + ["--out", str(tmp_path / "report.jsonl")]) == 3
    err = capsys.readouterr().err
    assert "I/O error" in err and "internal error" not in err
    return err


def test_eval_mixture_of_another_length_or_rate_exit_3(tmp_path, capsys):
    def shorten(scene):
        mix = read_wav(scene / "mixture.wav")
        write_wav(
            BinauralSignal(
                Waveform(mix.left.samples[:-100], SR),
                Waveform(mix.right.samples[:-100], SR),
            ),
            scene / "mixture.wav",
        )

    err = _eval_malformed_scene(tmp_path / "short", capsys, shorten)
    assert "mixture.wav has 15900 samples" in err and "region_1.wav 16000" in err

    def relabel(scene):
        mix = read_wav(scene / "mixture.wav")
        left, right = (Waveform(ch.samples, 8000) for ch in (mix.left, mix.right))
        write_wav(BinauralSignal(left, right), scene / "mixture.wav")

    err = _eval_malformed_scene(tmp_path / "rate", capsys, relabel)
    assert "mixture.wav has 16000 samples at 8000 Hz" in err


def test_eval_scene_without_regions_exit_3(tmp_path, capsys):
    def drop_regions(scene):
        for path in scene.glob("region_*.wav"):
            path.unlink()

    err = _eval_malformed_scene(tmp_path, capsys, drop_regions)
    assert "scene_0000 holds no region_N.wav reference" in err


def test_eval_scene_of_silent_regions_exit_3(tmp_path, capsys):
    def silence(scene):
        for path in [scene / "mixture.wav", *scene.glob("region_*.wav")]:
            zeros = Waveform(np.zeros(len(read_wav(path))), SR)
            write_wav(BinauralSignal(zeros, zeros), path)

    err = _eval_malformed_scene(tmp_path, capsys, silence)
    assert "every region_N.wav reference in" in err and "is silent" in err


def test_config_flags_follow_defaults(tmp_path):
    # one flag per config key, typed like its default; --clean-ratio is dataset's
    for command, keys in (
        (["dataset"], list(cli._DEFAULTS)),
        (["synth"], [k for k in cli._DEFAULTS if k != "clean_ratio"]),
        (["separate", "in.wav"], [k for k in cli._DEFAULTS if k != "clean_ratio"]),
    ):
        argv = command + ["--out", "o"]
        for key in keys:
            argv += ["--" + key.replace("_", "-"), str(cli._DEFAULTS[key])]
        args = cli.build_parser().parse_args(argv)
        for key in keys:
            assert getattr(args, key) == cli._DEFAULTS[key]
            assert type(getattr(args, key)) is type(cli._DEFAULTS[key])
    # eval reads no config: a config flag is a usage error (exit 2)
    report = ["eval", "--estimates", "e", "--references", "r", "--out", "x"]
    for flag in (["--config", str(tmp_path / "none.json")], ["--alpha", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(report + flag)
        assert exc.value.code == 2


@pytest.mark.parametrize("cols", [1, 2, 513])
def test_mask_text_equals_savetxt(tmp_path, cols):
    mask = np.random.default_rng(cols).random((37, cols)) < 0.5
    mask[0] = True  # an all-ones row next to random ones
    np.savetxt(tmp_path / "want.txt", mask.astype(np.int8), fmt="%d")
    cli.write_mask_text(mask, tmp_path / "got.txt")
    assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


def test_bad_duration_and_clean_ratio_exit_2_before_writing(tmp_path, capsys):
    short_pool = tmp_path / "short_pool"
    short_pool.mkdir()
    for name, length in (("a", 2559), ("b", 2560)):
        write_wav(Waveform(np.full(length, 0.1), 16000), short_pool / f"{name}.wav")
    text_duration = tmp_path / "text_duration.json"
    text_duration.write_text('{"duration": "four"}')
    null_ratio = tmp_path / "null_ratio.json"
    null_ratio.write_text('{"clean_ratio": null}')
    fewer = "gives fewer than"
    cases = [
        (["synth", "--config", str(text_duration)], "config key duration"),
        (["dataset", "--config", str(null_ratio)], "config key clean_ratio"),
        (["dataset", "--clean-ratio", "2", "--tuples", "1"], "got 2.0"),
        (["dataset", "--clean-ratio", "nan"], "--clean-ratio must be in [0, 1]"),
        # 0.1 s is 1600 samples; separate() needs 1024 + 3 * 512 = 2560
        (["dataset", "--duration", "0.1"], f"{fewer} 2560 samples"),
        (["dataset", "--duration", "-1"], f"{fewer} 2560 samples"),
        (["dataset", "--pool", str(short_pool)], "2560 samples (4 STFT frames): ['a']"),
        (["synth", "--duration", "-1"], f"{fewer} 1 samples"),
        (["synth", "--duration", "0"], f"{fewer} 1 samples"),
        (["synth", "--duration", "nan"], f"{fewer} 1 samples"),
    ]
    for k, (argv, message) in enumerate(cases):
        out = tmp_path / f"out{k}"
        small = ["--num", "2"] if argv[0] == "dataset" else ["--num-scenes", "1"]
        assert main(argv + small + ["--out", str(out)]) == 2, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv
    # the shortest accepted durations
    shortest = [
        ["dataset", "--duration", "0.16", "--num", "1"],
        ["synth", "--duration", "0.0001", "--num-scenes", "1"],
    ]
    for k, argv in enumerate(shortest):
        assert main(argv + ["--out", str(tmp_path / f"ok{k}")]) == 0, argv


def test_eval_estimate_sample_rate_mismatch_exit_3(tmp_path, capsys):
    # the same samples labeled 8 kHz would score as a perfect estimate
    assert _eval_with_region_2(tmp_path, rate=8000) == 3
    err = capsys.readouterr().err
    assert "I/O error" in err and "region_2.wav is at 8000 Hz" in err


def test_config_file_values_reach_the_command_under_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"duration": 0.5, "seed": 4}))
    common = ["--num-scenes", "1", "--k-min", "2", "--k-max", "2"]

    def synth(name, *extra):
        out = tmp_path / name
        assert main(["synth", "--out", str(out), *common, *extra]) == 0
        spec = json.loads((out / "scene_0000" / "scene.json").read_text())
        return spec["duration"], tree_digest(out)

    # a file value overrides a default ...
    from_file = synth("file", "--config", str(config))
    assert from_file == synth("flags", "--duration", "0.5", "--seed", "4")
    assert from_file[0] == 0.5
    # ... and a flag overrides the file
    flag_over_file = synth("both", "--config", str(config), "--duration", "0.25")
    assert flag_over_file == synth("flags2", "--duration", "0.25", "--seed", "4")
    assert flag_over_file[0] == 0.25


def test_negative_seed_exit_2_before_writing(tmp_path, capsys):
    mixture, *_ = two_source_scene(315.0, 45.0, seed=22, duration=1.0)
    wav = tmp_path / "mix.wav"
    write_wav(mixture, wav)
    for command in (["synth"], ["dataset"], ["separate", str(wav)]):
        out = tmp_path / command[0]
        assert main([*command, "--seed", "-1", "--out", str(out)]) == 2, command
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err
        assert not out.exists()


def test_config_file_without_a_json_object_exit_2(tmp_path, capsys):
    for k, text in enumerate(["5", '"abc"', "[1]"]):
        config = tmp_path / f"config{k}.json"
        config.write_text(text)
        out = tmp_path / f"out{k}"
        assert _synth(out, extra=("--config", str(config))) == 2, text
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert not out.exists()


def _dataset(out, jobs, tuples, extra=()):
    argv = ["dataset", "--out", str(out), "--seed", "7", "--num", "12"]
    return main(argv + ["--tuples", str(tuples), "--jobs", str(jobs), *extra])


@pytest.mark.parametrize(
    "tuples, clean_ratio",
    [(7, None), (1, None), (0, None), (7, "0"), (7, "1")],
    ids=["7", "1", "0", "7-clean0", "7-clean1"],
)
def test_dataset_tree_is_the_same_at_any_jobs(tmp_path, tuples, clean_ratio):
    extra = () if clean_ratio is None else ("--clean-ratio", clean_ratio)
    digests = set()
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        assert _dataset(out, jobs, tuples, extra) == 0
        assert len(list(out.glob("tuple_*"))) == tuples
        assert not list(out.glob(".samples-*"))
        digests.add(tree_digest(out))
    assert len(digests) == 1


def test_dataset_parent_writes_no_wav_with_a_pool(tmp_path, monkeypatch):
    parent = os.getpid()

    def worker_only_write_wav(signal, path):
        if os.getpid() == parent:
            raise AssertionError(f"the parent wrote {path}")
        return write_wav(signal, path)

    assert _dataset(tmp_path / "serial", 1, 3) == 0
    monkeypatch.setattr(cli, "write_wav", worker_only_write_wav)
    assert _dataset(tmp_path / "pooled", 2, 3) == 0
    assert tree_digest(tmp_path / "pooled") == tree_digest(tmp_path / "serial")
    assert len(list((tmp_path / "pooled").glob("tuple_*"))) == 3


def test_dataset_write_error_in_a_worker_exit_3(tmp_path, capsys):
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        out.mkdir()
        (out / "tuple_0000").write_text("in the way")
        assert _dataset(out, jobs, 3) == 3, jobs
        assert "I/O error" in capsys.readouterr().err
        assert not list(out.glob(".samples-*")), jobs


def test_harvest_results_pickle_small(tmp_path, monkeypatch):
    # what the harvest pool would send back per mixture, collected without a pool
    sizes = []

    def recording_pool(fn, shared, tasks, n_workers):
        for task in tasks:
            result = fn(shared, task)
            sizes.append(len(pickle.dumps(result)))
            yield result

    monkeypatch.setattr(parallel, "_pooled", recording_pool)
    out = tmp_path / "db"
    assert _dataset(out, 2, 0) == 0
    assert json.loads((out / "stats.json").read_text())["n_separated"] > 0
    assert len(sizes) == 12
    assert max(sizes) < 4096


def _small_dataset(out, num, jobs=1, tuples=4):
    argv = ["dataset", "--out", str(out), "--seed", "7", "--num", str(num)]
    argv += ["--tuples", str(tuples), "--jobs", str(jobs)]
    assert main(argv + ["--duration", "2.0", "--pool-size", "4"]) == 0
    stats = json.loads((out / "stats.json").read_text())
    return stats["n_passthrough"] + stats["n_separated"]


def test_dataset_memory_does_not_grow_with_num(tmp_path):
    # the harvested samples stay in the store, out of the traced heap
    peaks, kept = [], []
    for num in (8, 24):
        tracemalloc.start()
        try:
            kept.append(_small_dataset(tmp_path / f"num{num}", num))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert kept[1] >= kept[0] + 4
    assert peaks[1] - peaks[0] <= 2 * 2**20


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="Linux only")
def test_dataset_open_fds_do_not_depend_on_num(tmp_path, monkeypatch):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    during = {}
    tuple_and_write = cli._tuple_and_write

    def counting_tuple_and_write(shared, t):
        plan, out = shared
        during.setdefault(out.name, open_fds())
        assert len(list(out.glob(".samples-*/*.f64"))) == 1
        return tuple_and_write(shared, t)

    monkeypatch.setattr(cli, "_tuple_and_write", counting_tuple_and_write)
    before = open_fds()
    for num in (4, 16):
        assert _small_dataset(tmp_path / f"num{num}", num) > 0
        assert open_fds() == before, num
    # one map of the one store file while the tuples are drawn
    assert during == {"num4": before + 1, "num16": before + 1}


@pytest.mark.parametrize("key", ["sigma_th", "delta_tau_min", "alpha", "energy_floor_db"])
def test_non_finite_config_value_exit_2_before_writing(tmp_path, capsys, key):
    flag = "--" + key.replace("_", "-")
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            SeparationConfig(**{key: float(value)})
        out = tmp_path / value
        argv = ["dataset", "--num", "6", "--seed", "1", f"{flag}={value}"]
        assert main(argv + ["--out", str(out)]) == 2, value
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()
