"""Command-line interface tests (in-process invocations)."""

import argparse
import json
import multiprocessing
import os
import pickle
import struct
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
    make_source_pool,
    make_spherical_bank,
    read_manifest,
    read_wav,
    save_hrir_bank,
    separate,
    write_wav,
)
from regionsep.audio import max_wav_frames, max_wav_rate
from regionsep.cli import main
from regionsep.dataset import harvest_mixture, outcome_records, store_records
from regionsep.features import aliasing_bin
from regionsep.hrir import BANK_MAGIC, BANK_VERSION
from helpers import DTM, SR, harvest, mixed_tap_bank, wav_bytes
from helpers import (
    count_process_starts,
    single_source_scene,
    tree_digest,
    two_source_scene,
)


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
    mixture, *_ = two_source_scene(315.0, 45.0, seed=22, duration=1.0)
    wav = tmp_path / "mix.wav"
    write_wav(mixture, wav)
    dataset, separate = ["dataset", "--num", "1"], ["separate", str(wav)]
    # a hop above half the frame leaves samples under one window's tail,
    # so these sizes are refused before any input is read
    cases = [
        (dataset, ["--alpha", "0.5"], "alpha"),
        (separate, ["--alpha", "0.5"], "alpha"),
        (separate, ["--fft-size=1024", "--hop=1024"], "fft_size 1024 with hop 1024"),
        (dataset, ["--fft-size=2048", "--hop=2048"], "fft_size 2048 with hop 2048"),
        (separate, ["--fft-size=4096", "--hop=4096"], "fft_size 4096 with hop 4096"),
    ]
    for i, (command, flags, message) in enumerate(cases):
        out = tmp_path / f"out{i}"
        assert main([*command, *flags, "--out", str(out)]) == 2, flags
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, err
        assert not out.exists()

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


def test_dataset_command_matches_harvest_mixture(tmp_path):
    seed = 11
    out = tmp_path / "db"
    argv = ["dataset", "--out", str(out), "--seed", str(seed), "--num", "8"]
    argv += ["--duration", "2.0", "--pool-size", "4", "--jobs", "2"]
    assert main(argv) == 0
    pool = make_source_pool(
        seed=seed ^ 0x5EED, count=4, duration=2.0, sample_rate=16000
    )
    cfg = SeparationConfig(em=EmSettings(seed=seed), seed=seed)
    records, stats = harvest(pool, cfg, n=8, seed=seed)
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

    def recording_map(pool, fn, tasks):
        results = []
        for task in tasks:
            sizes.append(len(pickle.dumps((parallel._call_installed, fn, task))))
            results.append(fn(pool._shared, task))
        return results

    monkeypatch.setattr(parallel.TaskPool, "map", recording_map)
    argv = ["dataset", "--out", str(tmp_path / "db"), "--num", "4", "--jobs", "2"]
    assert main(argv + ["--duration", "1.0", "--pool-size", "4"]) == 0
    assert _synth(tmp_path / "scenes", num=3, jobs=2) == 0
    assert len(sizes) == 4 + 3
    assert max(sizes) < 1024
    # a tuple task carries its drawn records' labels and spans, not samples
    sizes.clear()
    argv = ["dataset", "--out", str(tmp_path / "tuples"), "--seed", "7", "--num", "1"]
    assert main(argv + ["--tuples", "3", "--jobs", "2"]) == 0
    assert len(sizes) == 1 + 3
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
        (["synth", "--pool-size", "-3"], "--pool-size must be at least 0, got -3"),
        (["dataset", "--pool-size", "-3"], "--pool-size must be at least 0, got -3"),
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


def _bank_bytes(rate: int, entries) -> bytes:
    """An HRIR bank file of ``(azimuth, taps)`` entries, the same taps in both ears."""
    parts = [BANK_MAGIC, struct.pack("<III", BANK_VERSION, rate, len(entries))]
    for azimuth, taps in entries:
        taps = np.asarray(taps, dtype="<f8").tobytes()
        parts += [struct.pack("<dI", azimuth, len(taps) // 8), taps, taps]
    return b"".join(parts)


def test_malformed_file_content_exit_3_naming_the_file(tmp_path, capsys):
    # content that parses but cannot make a signal or a bank is an I/O error
    stereo = np.zeros((4000, 2), dtype="<f4")
    nan, inf = stereo.copy(), stereo.copy()
    nan[100, 1] = np.nan
    inf[200, 0] = -np.inf
    (tmp_path / "pool").mkdir()
    files = {
        "nan.wav": wav_bytes(3, 2, SR, 32, nan.tobytes()),
        "inf.wav": wav_bytes(3, 2, SR, 32, inf.tobytes()),
        "rate0.wav": wav_bytes(1, 2, 0, 16, bytes(16000)),
        "pool/a.wav": wav_bytes(3, 1, SR, 32, nan[:, 1].tobytes()),
        "pool/b.wav": wav_bytes(3, 1, SR, 32, stereo[:, 0].tobytes()),
        "nan_tap.hrir": _bank_bytes(SR, [(0.0, [1.0, np.nan])]),
        "az400.hrir": _bank_bytes(SR, [(400.0, [1.0, 0.5])]),
        "taps0.hrir": _bank_bytes(SR, [(0.0, [1.0]), (90.0, [])]),
        "rate0.hrir": _bank_bytes(0, [(0.0, [1.0, 0.5])]),
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    cases = [
        (["separate", "nan.wav"], "nan.wav", "NaN or Inf"),
        (["separate", "inf.wav"], "inf.wav", "NaN or Inf"),
        (["separate", "rate0.wav"], "rate0.wav", "sample_rate must be positive"),
        (["dataset", "--pool", "pool"], "pool/a.wav", "NaN or Inf"),
        (["synth", "--hrir-bank", "nan_tap.hrir"], "nan_tap.hrir", "NaN or Inf"),
        (["synth", "--hrir-bank", "az400.hrir"], "az400.hrir", "outside [0, 360)"),
        (["synth", "--hrir-bank", "taps0.hrir"], "taps0.hrir", "empty impulse"),
        (["synth", "--hrir-bank", "rate0.hrir"], "rate0.hrir", "sample_rate must be"),
    ]
    for k, (argv, name, reason) in enumerate(cases):
        argv = [str(tmp_path / a) if a in files or a == "pool" else a for a in argv]
        out = tmp_path / f"out{k}"
        assert main(argv + ["--out", str(out)]) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("I/O error") and str(tmp_path / name) in err, err
        assert reason in err, err
        assert not out.exists(), argv


def test_malformed_file_structure_exit_3_naming_the_file(tmp_path, capsys):
    # WAV chunk layouts and bank headers that the parsers reject
    pcm = wav_bytes(1, 2, SR, 16, bytes(16000))
    bank = _bank_bytes(SR, [(0.0, [1.0]), (90.0, [1.0])])  # 28 bytes an entry
    version = len(BANK_MAGIC)
    files = {
        "no_fmt.wav": pcm.replace(b"fmt ", b"LIST", 1),
        # a 14-byte fmt chunk: the bits-per-sample field is cut off
        "short_fmt.wav": pcm[:16] + struct.pack("<I", 14) + pcm[20:34] + pcm[36:],
        "pcm24.wav": wav_bytes(1, 2, SR, 24, bytes(6 * 4000)),
        "v2.hrir": bank[:version]
        + struct.pack("<I", BANK_VERSION + 1)
        + bank[version + 4 :],
        "empty.hrir": _bank_bytes(SR, []),
        # cut 5 bytes into the second entry's 12-byte header
        "cut.hrir": bank[: len(bank) - 28 + 5],
        # the file ends after its last entry
        "trailing.hrir": bank + bytes(4),
        "count1.hrir": _bank_bytes(SR, [(0.0, [1.0])]) + bank[-28:],
    }
    cases = [
        ("separate", "no_fmt.wav", "missing fmt or data chunk"),
        ("separate", "short_fmt.wav", "fmt chunk too short"),
        ("separate", "pcm24.wav", "unsupported encoding: format tag 1, 24-bit"),
        ("synth", "v2.hrir", f"unsupported bank version {BANK_VERSION + 1}"),
        ("synth", "empty.hrir", "HRIR bank must contain at least one entry"),
        ("synth", "cut.hrir", "truncated HRIR bank"),
        ("synth", "trailing.hrir", "4 bytes after entry 2 of 2"),
        ("synth", "count1.hrir", "28 bytes after entry 1 of 1"),
    ]
    for k, (command, name, reason) in enumerate(cases):
        path = tmp_path / name
        path.write_bytes(files[name])
        flag = [str(path)] if command == "separate" else ["--hrir-bank", str(path)]
        out = tmp_path / f"out{k}"
        assert main([command, *flag, "--out", str(out)]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith("I/O error") and str(path) in err, err
        assert err.rstrip().endswith(reason), err
        assert not out.exists(), name


def test_separate_mono_input_exit_2_naming_the_file(tmp_path, capsys):
    wav = tmp_path / "mono.wav"
    write_wav(Waveform(np.zeros(8000), SR), wav)
    out = tmp_path / "out"
    assert main(["separate", str(wav), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {wav} is mono")
    assert not out.exists()


def test_unexpected_exception_exit_4(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("a broken invariant")

    monkeypatch.setattr(cli, "synth_scene", broken)
    assert _synth(tmp_path / "out", num=1) == 4
    assert capsys.readouterr().err == "internal error: a broken invariant\n"


def test_unreadable_config_file_exit_2_before_writing(tmp_path, capsys):
    not_json = tmp_path / "not.json"
    not_json.write_text("{delta_tau_max: 1e-3}")
    for k, config in enumerate([tmp_path / "missing.json", not_json]):
        out = tmp_path / f"out{k}"
        assert _synth(out, extra=("--config", str(config))) == 2, config
        assert "config error: cannot read config file" in capsys.readouterr().err
        assert not out.exists()


def test_stereo_pool_source_exit_2_before_writing(tmp_path, capsys):
    pool = tmp_path / "pool"
    pool.mkdir()
    zeros = Waveform(np.zeros(8000), SR)
    write_wav(zeros, pool / "a.wav")
    write_wav(BinauralSignal(zeros, zeros), pool / "b.wav")
    for command in ("synth", "dataset"):
        out = tmp_path / command
        assert main([command, "--pool", str(pool), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: pool sources must be mono: {pool / 'b.wav'}" in err
        assert not out.exists()


def test_eval_mono_estimate_exit_3(tmp_path, capsys):
    refs = tmp_path / "refs"
    assert _synth(refs, seed=5, num=1) == 0
    est = tmp_path / "est" / "scene_0000"
    est.mkdir(parents=True)
    for path in (refs / "scene_0000").glob("region_*.wav"):
        (est / path.name).write_bytes(path.read_bytes())
    write_wav(read_wav(est / "region_2.wav").left, est / "region_2.wav")
    report = tmp_path / "report.jsonl"
    argv = ["eval", "--estimates", str(tmp_path / "est"), "--references", str(refs)]
    assert main(argv + ["--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert err == f"I/O error: {est / 'region_2.wav'} is not stereo\n"
    assert not report.exists()


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


@pytest.mark.parametrize("given", ["empty", "scene"])
def test_eval_references_without_a_scene_directory_exit_3(tmp_path, capsys, given):
    # a scene directory itself holds only WAV files, no scene directory
    refs = tmp_path / "refs"
    if given == "empty":
        refs.mkdir()
    else:
        assert _synth(tmp_path / "scenes", seed=5, num=1) == 0
        refs = tmp_path / "scenes" / "scene_0000"
    report = tmp_path / "report.jsonl"
    argv = ["eval", "--estimates", str(refs), "--references", str(refs)]
    assert main(argv + ["--out", str(report)]) == 3
    err = capsys.readouterr().err
    assert f"{refs} holds no scene directory" in err
    assert not report.exists()


def test_eval_scene_of_silent_regions_exit_3(tmp_path, capsys):
    def silence(scene):
        for path in [scene / "mixture.wav", *scene.glob("region_*.wav")]:
            zeros = Waveform(np.zeros(len(read_wav(path))), SR)
            write_wav(BinauralSignal(zeros, zeros), path)

    err = _eval_malformed_scene(tmp_path, capsys, silence)
    assert "every region_N.wav reference in" in err and "is silent" in err


def test_eval_scores_regions_in_id_order_past_nine(tmp_path):
    # region_10 and region_11 sort before region_2 as strings
    scene = tmp_path / "refs" / "scene_0000"
    scene.mkdir(parents=True)
    single, _ = single_source_scene(50.0, seed=4, duration=1.0)
    zeros = Waveform(np.zeros(len(single)), SR)
    silent = BinauralSignal(zeros, zeros)
    write_wav(single, scene / "mixture.wav")
    for n in range(1, 12):
        write_wav(single if n == 2 else silent, scene / f"region_{n}.wav")
    report = tmp_path / "report.jsonl"
    argv = ["eval", "--estimates", str(tmp_path / "refs"), "--references"]
    assert main(argv + [str(tmp_path / "refs"), "--out", str(report)]) == 0
    (record,) = [json.loads(line) for line in report.read_text().splitlines()]
    assert record["active"] == [n == 2 for n in range(1, 12)]
    assert [v is not None for v in record["per_region_db"]] == record["active"]
    assert record["mode"] == "s_snr"


def test_eval_region_ids_with_a_gap_exit_3(tmp_path, capsys):
    def renumber(scene):
        (scene / "region_2.wav").rename(scene / "region_9.wav")

    err = _eval_malformed_scene(tmp_path, capsys, renumber)
    assert "scene_0000 holds no region_2.wav reference" in err
    assert not (tmp_path / "report.jsonl").exists()


def test_eval_region_name_without_a_positive_id_exit_3(tmp_path, capsys):
    for name in ("region_0.wav", "region_x.wav", "region_02.wav", "region_.wav"):

        def add_bad_region(scene):
            write_wav(read_wav(scene / "region_1.wav"), scene / name)

        err = _eval_malformed_scene(tmp_path / name, capsys, add_bad_region)
        assert name in err and "positive integer" in err, name


# the config keys each command reads, and so its only config flags
COMMAND_KEYS = {
    "synth": {"delta_tau_max", "sample_rate", "seed", "duration"},
    "separate": set(cli._DEFAULTS) - {"clean_ratio", "duration"},
    "dataset": set(cli._DEFAULTS),
    "eval": set(),
}


def _subparsers() -> dict:
    """Each command's parser by name."""
    parser = cli.build_parser()
    actions = parser._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_flags(parser) -> dict:
    """A command parser's config flags: ``{key: its argparse action}``."""
    return {a.dest: a for a in parser._actions if a.dest in cli._DEFAULTS}


def test_config_flags_follow_defaults(tmp_path):
    # each command has one flag per config key it reads, typed like its default
    parsers = _subparsers()
    assert set(parsers) == set(COMMAND_KEYS)
    for command, keys in COMMAND_KEYS.items():
        flags = _config_flags(parsers[command])
        assert set(flags) == keys, command
        for key in keys:
            assert flags[key].type is type(cli._DEFAULTS[key]), (command, key)
    for command in (["dataset"], ["synth"], ["separate", "in.wav"]):
        keys = COMMAND_KEYS[command[0]]
        argv = command + ["--out", "o"]
        for key in keys:
            argv += ["--" + key.replace("_", "-"), str(cli._DEFAULTS[key])]
        args = cli.build_parser().parse_args(argv)
        for key in keys:
            assert getattr(args, key) == cli._DEFAULTS[key]
            assert type(getattr(args, key)) is type(cli._DEFAULTS[key])
        # a key the command does not read keeps its default
        assert cli._load_params(args) == cli._DEFAULTS
    # eval reads no config: a config flag is a usage error (exit 2)
    report = ["eval", "--estimates", "e", "--references", "r", "--out", "x"]
    for flag in (["--config", str(tmp_path / "none.json")], ["--alpha", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(report + flag)
        assert exc.value.code == 2


def test_a_key_the_command_does_not_read_exit_2_before_writing(tmp_path, capsys):
    mixture, *_ = two_source_scene(315.0, 45.0, seed=22, duration=1.0)
    wav = tmp_path / "mix.wav"
    write_wav(mixture, wav)
    commands = {
        "synth": ["synth", "--num-scenes", "1"],
        "separate": ["separate", str(wav)],
        "dataset": ["dataset", "--num", "1"],
    }
    for name, command in commands.items():
        for key in sorted(set(cli._DEFAULTS) - COMMAND_KEYS[name]):
            value = str(cli._DEFAULTS[key])
            out = tmp_path / f"{name}-{key}"
            # its flag is a usage error ...
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main([*command, flag, value, "--out", str(out)])
            assert exc.value.code == 2, (name, key)
            assert "unrecognized arguments" in capsys.readouterr().err
            # ... and its config file key a config error
            config = tmp_path / f"{name}-{key}.json"
            config.write_text(json.dumps({key: cli._DEFAULTS[key]}))
            assert main([*command, "--config", str(config), "--out", str(out)]) == 2
            assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
            assert not out.exists(), (name, key)


def _readme_key_table() -> dict:
    """README's table of config keys under "CLI usage": ``{command: {key: flag}}``."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().split("## CLI usage", 1)[1].splitlines()

    def cells(line):
        return [cell.strip().strip("`") for cell in line.strip("|").split("|")]

    commands = cells(next(line for line in lines if line.startswith("| key |")))[3:]
    table = {command: {} for command in commands}
    for row in (line for line in lines if line.startswith("| `")):
        key, flag, default, *marks = cells(row)
        assert float(default) == cli._DEFAULTS[key], key
        for command, mark in zip(commands, marks):
            if mark:
                table[command][key] = flag
    return table


def test_readme_key_table_matches_the_parsers():
    # a config flag added or removed without a docs change fails here
    table = _readme_key_table()
    parsers = _subparsers()
    assert set(table) == set(parsers) - {"eval"}
    assert not _config_flags(parsers["eval"])
    for command, keys in table.items():
        flags = _config_flags(parsers[command])
        assert keys == {key: a.option_strings[0] for key, a in flags.items()}, command


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
    # int() would truncate a fraction and read a boolean as 0 or 1, int() and
    # float() would parse a string, and float() overflows on a huge integer
    huge = "1" + "0" * 400
    not_of_type = [
        ("synth", '{"seed": "3"}', 'seed: "3" is not of type int'),
        ("dataset", '{"sample_rate": "16_000"}', 'sample_rate: "16_000" is not of type int'),
        ("synth", '{"duration": " 0.5 "}', 'duration: " 0.5 " is not of type float'),
        ("synth", f'{{"duration": {huge}}}', f"duration: {huge} is not of type float"),
        ("synth", '{"seed": 3.9}', "seed: 3.9 is not of type int"),
        ("dataset", '{"hop": 256.7}', "hop: 256.7 is not of type int"),
        ("synth", '{"seed": true}', "seed: true is not of type int"),
        ("dataset", '{"fft_size": false}', "fft_size: false is not of type int"),
        ("synth", '{"seed": Infinity}', "seed: Infinity is not of type int"),
        ("synth", '{"duration": true}', "duration: true is not of type float"),
    ]
    for k, (command, text, message) in enumerate(not_of_type):
        config = tmp_path / f"config{k}.json"
        config.write_text(text)
        cases.append(([command, "--config", str(config)], message))
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


def test_duration_beyond_a_wav_file_exit_2_before_writing(tmp_path, capsys, monkeypatch):
    def no_pool(**kwargs):
        raise AssertionError("the pool is built before the duration is checked")

    monkeypatch.setattr(cli, "make_source_pool", no_pool)
    for command, count in (("synth", "--num-scenes"), ("dataset", "--num")):
        out = tmp_path / command
        argv = [command, count, "0", "--duration", "1e9", "--out", str(out)]
        assert main(argv) == 2, argv
        assert "frames a stereo WAV file holds" in capsys.readouterr().err
        assert not out.exists()
    # the edge: the last duration a stereo file holds, and one frame more
    cfg = SeparationConfig()
    frames = max_wav_frames(2)
    for n in (frames, frames + 1):
        duration = n / SR
        assert round(duration * SR) == n
        if n == frames:
            assert cli._checked_duration({"duration": duration}, cfg, 1) == duration
        else:
            with pytest.raises(cli.ConfigError, match=f"the {frames} frames"):
                cli._checked_duration({"duration": duration}, cfg, 1)


@pytest.mark.parametrize("command", ["synth", "dataset", "separate"])
def test_sample_rate_beyond_a_wav_header_exit_2_before_writing(tmp_path, capsys, command):
    # a stereo PCM-16 header's 32-bit byte rate field holds 4 bytes per frame
    rate = max_wav_rate(2) + 1
    argv = {
        "synth": ["synth", "--num-scenes", "1", "--duration", "1e-8"],
        "dataset": ["dataset", "--num", "1", "--duration", "1e-5"],
        "separate": ["separate", str(tmp_path / "mix.wav")],
    }[command]
    mixture, *_ = two_source_scene(315.0, 45.0, seed=22, duration=1.0)
    write_wav(mixture, tmp_path / "mix.wav")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sample_rate": rate}))
    for k, source in enumerate((["--sample-rate", str(rate)], ["--config", str(config)])):
        out = tmp_path / f"out{k}"
        assert main([*argv, *source, "--out", str(out)]) == 2, source
        err = capsys.readouterr().err
        assert f"--sample-rate {rate} is above the {max_wav_rate(2)} Hz" in err, err
        assert not out.exists()
    if command == "synth":
        # the highest rate a stereo file holds is accepted
        out = tmp_path / "edge"
        assert main([*argv, "--sample-rate", str(rate - 1), "--out", str(out)]) == 0
        assert read_wav(out / "scene_0000" / "mixture.wav").sample_rate == rate - 1


def test_sparse_hrir_bank_is_a_dataset_config_error(tmp_path, capsys):
    # one azimuth, or 0 and 180 deg, whose spherical ITDs are both 0: no
    # pair is delta_tau_min apart
    for k, azimuths in enumerate(([90.0], [0.0, 180.0])):
        bank = tmp_path / f"bank{k}.bin"
        save_hrir_bank(make_spherical_bank(azimuths, DTM, SR), bank)
        out = tmp_path / f"out{k}"
        argv = ["dataset", "--num", "2", "--hrir-bank", str(bank), "--out", str(out)]
        assert main(argv) == 2, azimuths
        err = capsys.readouterr().err
        assert err.startswith("config error") and "no two azimuths" in err, err
        assert not out.exists()


def test_dataset_with_rare_qualifying_pairs_exit_0(tmp_path):
    # 18 of the built-in bank's 5184 ordered pairs are 1.77e-3 s apart in
    # ITD: the bank passes the ITD-gap check, so every mixture finds a pair
    out = tmp_path / "out"
    argv = ["dataset", "--num", "12", "--delta-tau-min", "1.77e-3", "--out", str(out)]
    assert main(argv) == 0
    assert len(read_manifest(out / "manifest.jsonl")) >= 12


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


def test_pool_that_is_not_a_directory_exit_3_before_writing(tmp_path, capsys):
    a_file = tmp_path / "a.wav"
    write_wav(Waveform(np.zeros(16000), 16000), a_file)
    for pool in (tmp_path / "no" / "such" / "dir", a_file):
        for command in (["synth", "--num-scenes", "1"], ["dataset", "--num", "1"]):
            out = tmp_path / f"{command[0]}-{pool.name}"
            assert main([*command, "--pool", str(pool), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert f"I/O error: --pool {pool} is not a directory" in err, command
            assert not out.exists()


def test_dataset_that_harvests_no_record_warns_of_its_tuples(tmp_path, caplog):
    caplog.set_level("WARNING", logger="regionsep")
    # mixture 0 of seed 0 is discarded (components_too_wide)
    for num in ("1", "0"):
        out = tmp_path / f"num{num}"
        argv = ["dataset", "--num", num, "--tuples", "3", "--seed", "0"]
        assert main(argv + ["--out", str(out)]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_discarded"] == stats["n_mixtures"] == int(num)
        assert not list(out.glob("tuple_*"))
        warned = [r for r in caplog.records if r.name == "regionsep"]
        assert [r.levelname for r in warned] == ["WARNING"]
        assert warned[0].getMessage() == (
            f"no record harvested from {num} mixtures: "
            "wrote none of the 3 tuples requested"
        )
        caplog.clear()
    # without tuples requested there is nothing to warn of
    assert main(["dataset", "--num", "1", "--out", str(tmp_path / "t0")]) == 0
    assert not [r for r in caplog.records if r.name == "regionsep"]


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


@pytest.mark.parametrize("clean_ratio", ["0.5", "0"])
def test_one_mixture_dataset_tree_is_the_same_at_any_jobs(tmp_path, clean_ratio):
    # one harvest task, then four tuple tasks on the same workers
    digests = set()
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        argv = ["dataset", "--out", str(out), "--seed", "7", "--num", "1"]
        argv += ["--tuples", "4", "--clean-ratio", clean_ratio]
        assert main(argv + ["--jobs", str(jobs)]) == 0
        assert len(list(out.glob("mix00000_*.wav"))) == 2
        assert len(list(out.glob("tuple_*"))) == 4
        digests.add(tree_digest(out))
    assert len(digests) == 1


def test_dataset_forks_its_workers_once_for_both_stages(tmp_path, monkeypatch):
    starts = count_process_starts(monkeypatch)
    out = tmp_path / "ds"
    argv = ["dataset", "--num", "4", "--tuples", "3", "--jobs", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(list(out.glob("tuple_*"))) == 3
    # the harvest's two workers also write the tuples
    assert len(starts) == 2
    assert multiprocessing.active_children() == []
    assert not list(out.glob(".samples-*"))


def test_dataset_parent_writes_no_wav_with_a_pool(tmp_path, monkeypatch):
    parent = os.getpid()

    def worker_only_write_wav(signal, path):
        if os.getpid() == parent:
            raise AssertionError(f"the parent wrote {path}")
        return write_wav(signal, path)

    assert _dataset(tmp_path / "serial", 1, 3) == 0
    assert _synth(tmp_path / "scenes-serial", num=4) == 0
    monkeypatch.setattr(cli, "write_wav", worker_only_write_wav)
    assert _dataset(tmp_path / "pooled", 2, 3) == 0
    assert tree_digest(tmp_path / "pooled") == tree_digest(tmp_path / "serial")
    assert len(list((tmp_path / "pooled").glob("tuple_*"))) == 3
    assert _synth(tmp_path / "scenes-pooled", num=4, jobs=2) == 0
    pooled, serial = tmp_path / "scenes-pooled", tmp_path / "scenes-serial"
    assert tree_digest(pooled) == tree_digest(serial)
    assert len(list(pooled.glob("scene_*"))) == 4


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

    def recording_map(pool, fn, tasks):
        results = [fn(pool._shared, task) for task in tasks]
        sizes.extend(len(pickle.dumps(result)) for result in results)
        return results

    monkeypatch.setattr(parallel.TaskPool, "map", recording_map)
    out = tmp_path / "db"
    assert _dataset(out, 2, 0) == 0
    assert json.loads((out / "stats.json").read_text())["n_separated"] > 0
    assert len(sizes) == 12
    assert max(sizes) < 4096


def test_dataset_without_tuples_makes_no_sample_store(tmp_path, monkeypatch):
    stores_seen, stored = Counter(), Counter()

    def looking_harvest_mixture(*args):
        stores_seen.update(p.parent.name for p in tmp_path.glob("*/.samples-*"))
        return harvest_mixture(*args)

    def counting_store_records(records, store):
        stored[store.parent.name] += 1
        return store_records(records, store)

    monkeypatch.setattr(cli, "harvest_mixture", looking_harvest_mixture)
    monkeypatch.setattr(cli, "store_records", counting_store_records)
    for tuples in (0, 1):
        assert _dataset(tmp_path / f"tuples{tuples}", 1, tuples) == 0
    # only the run with a tuple stores its mixtures' samples
    assert stored == {"tuples1": 12}
    assert stores_seen == {"tuples1": 12}


def test_a_ratio_0_sample_store_holds_only_the_dirty_signals(tmp_path, monkeypatch):
    written = {}

    def sizing_store_records(records, store):
        stored = store_records(records, store)
        clean = [r.clean_signal for r in records if r.clean_signal is not None]
        sizes = written.setdefault(store.parent.name, Counter())
        sizes["dirty"] += sum(2 * 8 * len(r.signal) for r in records)
        sizes["clean"] += sum(2 * 8 * len(sig) for sig in clean)
        sizes["file"] = sum(path.stat().st_size for path in store.iterdir())
        return stored

    monkeypatch.setattr(cli, "store_records", sizing_store_records)
    for ratio in ("0", "0.5"):
        assert _dataset(tmp_path / ratio, 1, 6, ("--clean-ratio", ratio)) == 0
    ratio0, ratio05 = written["0"], written["0.5"]
    assert ratio0["dirty"] > 0 and ratio0["clean"] == 0
    assert ratio0["file"] == ratio0["dirty"]
    # the tuples of a positive ratio read the clean originals
    assert ratio05["dirty"] == ratio0["dirty"] and ratio05["clean"] > 0
    assert ratio05["file"] == ratio05["dirty"] + ratio05["clean"]


def _assert_first_dirs(small, large, pattern, n):
    """``small``'s ``pattern`` directories are the first ``n`` of ``large``'s."""
    names = sorted(path.name for path in small.glob(pattern))
    more = sorted(path.name for path in large.glob(pattern))
    assert len(names) == n < len(more) and more[:n] == names
    for name in names:
        assert tree_digest(small / name) == tree_digest(large / name), name


def test_a_harvest_budget_is_a_num_prefix(tmp_path):
    # a smaller --num harvests the first mixtures of a larger one, and so
    # does a smaller --tuples draw the first tuples and a smaller
    # --num-scenes render the first scenes: task i's seed is the same
    for jobs in (1, 2):
        runs = {}
        for num, tuples in ((4, 0), (8, 2), (8, 4)):
            out = runs[num, tuples] = tmp_path / f"num{num}-tuples{tuples}-jobs{jobs}"
            argv = ["dataset", "--out", str(out), "--seed", "7", "--num", str(num)]
            assert main(argv + ["--tuples", str(tuples), "--jobs", str(jobs)]) == 0
        _assert_first_dirs(runs[8, 2], runs[8, 4], "tuple_*", 2)
        scenes = {num: tmp_path / f"scenes{num}-jobs{jobs}" for num in (4, 8)}
        for num, out in scenes.items():
            assert _synth(out, seed=7, num=num, jobs=jobs) == 0
        _assert_first_dirs(scenes[4], scenes[8], "scene_*", 4)
        small, large = runs[4, 0], runs[8, 4]
        lines = (small / "manifest.jsonl").read_text().splitlines()
        more = (large / "manifest.jsonl").read_text().splitlines()
        assert len(more) > len(lines) > 0
        assert more[: len(lines)] == lines
        wavs = sorted(path.name for path in small.glob("mix*.wav"))
        assert wavs and len(list(large.glob("mix*.wav"))) > len(wavs)
        for name in wavs:
            assert (small / name).read_bytes() == (large / name).read_bytes(), name


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
        during.setdefault(shared.out.name, open_fds())
        assert len(list(shared.out.glob(".samples-*/*.f64"))) == 1
        return tuple_and_write(shared, t)

    monkeypatch.setattr(cli, "_tuple_and_write", counting_tuple_and_write)
    before = open_fds()
    for num in (4, 16):
        assert _small_dataset(tmp_path / f"num{num}", num) > 0
        assert open_fds() == before, num
    # each tuple task reads its spans and closes the store file again
    assert during == {"num4": before, "num16": before}


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


def _allocator_lines(caplog) -> list:
    return [
        (r.levelname, r.getMessage())
        for r in caplog.records
        if r.name == "regionsep" and r.getMessage().startswith("allocator")
    ]


def test_each_command_logs_one_allocator_line_and_writes_the_same_tree_without_glibc(
    tmp_path, monkeypatch, caplog
):
    caplog.set_level("INFO", logger="regionsep")
    assert _synth(tmp_path / "policy", num=2) == 0

    def not_glibc(name):
        raise ValueError(f"unrecognized configuration name: {name}")

    monkeypatch.setattr(os, "confstr", not_glibc)
    assert _synth(tmp_path / "defaults", num=2) == 0
    assert tree_digest(tmp_path / "defaults") == tree_digest(tmp_path / "policy")
    (level1, line1), (level2, line2) = _allocator_lines(caplog)
    assert level1 == level2 == "INFO"
    named = "M_MMAP_THRESHOLD=33554432" in line1 and "M_TRIM_THRESHOLD=33554432" in line1
    assert named or line1.startswith("allocator left alone")
    assert line2.startswith("allocator left alone")


def test_a_mallopt_that_refuses_is_logged_not_raised(tmp_path, monkeypatch, caplog):
    caplog.set_level("INFO", logger="regionsep")
    calls = []

    def refusing_mallopt(param, value):
        calls.append((param, value))
        return 0

    libc = argparse.Namespace(mallopt=refusing_mallopt)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    assert _synth(tmp_path / "out", num=1) == 0
    assert calls == [(-3, 1 << 25), (-1, 1 << 25)]
    assert _allocator_lines(caplog) == [
        (
            "INFO",
            "allocator: M_MMAP_THRESHOLD=33554432 refused by mallopt, "
            "M_TRIM_THRESHOLD=33554432 refused by mallopt (glibc 2.36)",
        )
    ]


# Run in a fresh interpreter: forked workers inherit their parent's whole
# allocator state, and in the test process the frees of earlier tests may
# already have raised glibc's dynamic thresholds, hiding the faults.
_REFILL_SCRIPT = """
import resource, sys
import numpy as np
from regionsep import cli, parallel

def second_fill_faults(shared, task):
    first = np.ones(1 << 19)  # 4 MiB
    del first
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second = np.ones(1 << 19)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

argv = ["synth", "--num-scenes", "1", "--duration", "0.5", "--out", sys.argv[1]]
assert cli.main(argv) == 0
with parallel.TaskPool(None, 2, 2) as pool:
    print(*pool.map(second_fill_faults, range(2)))
"""


def _glibc_and_fork() -> bool:
    try:
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, OSError, ValueError):
        return False
    return glibc and multiprocessing.get_context().get_start_method() == "fork"


@pytest.mark.skipif(
    not _glibc_and_fork(),
    reason="the policy is set on glibc only, and reaches pool workers through fork",
)
def test_pool_workers_of_a_command_refill_a_freed_array_without_faults(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _REFILL_SCRIPT, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    faults = [int(n) for n in done.stdout.split()]
    # without the policy each fills about half its 1024 pages afresh
    assert len(faults) == 2 and max(faults) < 100, faults
