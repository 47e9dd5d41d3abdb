"""The benchmark's workloads: input generation, operations, output checks, replays.

Only public names of ``regionsep`` are used. Each workload class builds
its inputs from the run seed (``make_inputs``), runs one operation
(``run``, the only timed call) and checks what the operation produced
(``check``). In a traced run, ``check`` also replays the operation's work
stage by stage under spans and requires the replay to reproduce it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import struct
import time
import warnings
from pathlib import Path

import numpy as np

import regionsep as rs
from regionsep import cli
from regionsep.dataset import (
    PROVENANCE_SEPARATED,
    PROVENANCE_SINGLE,
    draw_mixture_params,
)
from regionsep.itd_model import (
    REASON_COMPONENTS_TOO_WIDE,
    REASON_PEAKS_TOO_CLOSE,
    REASON_TOO_FEW,
    REASON_WIDE_SINGLE_BAD_GMM,
    Discard,
    SinglePeak,
)
from regionsep.separation import REASON_NO_DOMINANT_FRAMES

SR = 16000
DTM = cli.DEFAULT_DELTA_TAU_MAX
CFG = rs.SeparationConfig()  # what `regionsep separate` runs with default flags

# Values of regionsep.cli that the serial replays of `dataset` and `synth`
# must mirror: the built-in bank's azimuth grid, the default source length
# and clean ratio, and the seed derivations of the source pool and tuples.
BANK_AZIMUTHS = np.arange(0.0, 360.0, 5.0)
SOURCE_SECONDS = 4.0
CLEAN_RATIO = 0.5
POOL_SEED_XOR = 0x5EED
TUPLE_SEED_XOR = 0x70B1E5

DISCARD_REASONS = (
    REASON_TOO_FEW,
    REASON_WIDE_SINGLE_BAD_GMM,
    REASON_COMPONENTS_TOO_WIDE,
    REASON_PEAKS_TOO_CLOSE,
    REASON_NO_DOMINANT_FRAMES,
)

REPLAY = "replay: "  # prefix of errors that mark the trace invalid

# Sizes per workload. "full" is what the benchmark measures; "tiny" is for
# the self-test. A measuring loop runs at least 11 ops, so that ten lie
# beyond the tail's rank; separate-long loops end after a whole pass over
# its recordings.
SIZES = {
    "full": {
        "separate-long": {"lengths_s": (30.0, 75.0, 120.0), "min_ops": 11},
        "harvest": {"num": 12, "tuples": 6, "seeds": 16, "min_ops": 11},
        "synth": {"scenes": 8, "seeds": 16, "min_ops": 11},
    },
    "tiny": {
        "separate-long": {"lengths_s": (1.0, 1.5, 2.0), "min_ops": 11},
        "harvest": {"num": 4, "tuples": 2, "seeds": 2, "min_ops": 11},
        "synth": {"scenes": 2, "seeds": 2, "min_ops": 11},
    },
}


# ---------------------------------------------------------------- checks


def check_wav(path, frames=None, channels=2):
    """Errors in a PCM WAV file's structure: its sizes must agree with its length.

    ``read_wav`` accepts a truncated data chunk, so the benchmark checks
    the header against the file itself. Only the chunk headers are read.
    """
    path = Path(path)
    try:
        f = open(path, "rb")
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    with f:
        length = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            return [f"{path.name}: not a RIFF/WAVE file"]
        errors = []
        (riff_size,) = struct.unpack_from("<I", head, 4)
        if riff_size + 8 != length:
            errors.append(f"{path.name}: RIFF size {riff_size + 8} != file size {length}")
        fmt = data_size = None
        pos = 12
        while pos + 8 <= length:
            f.seek(pos)
            cid, size = struct.unpack("<4sI", f.read(8))
            if pos + 8 + size > length:
                errors.append(f"{path.name}: chunk {cid!r} truncated")
                break
            if cid == b"fmt " and size >= 16:
                fmt = struct.unpack("<HHIIHH", f.read(16))
            elif cid == b"data":
                data_size = size
            pos += 8 + size + (size & 1)
    if fmt is None or data_size is None:
        return errors + [f"{path.name}: missing fmt or data chunk"]
    n_channels, bits = fmt[1], fmt[5]
    if n_channels != channels:
        errors.append(f"{path.name}: {n_channels} channels, expected {channels}")
    frame_bytes = max(1, n_channels * bits // 8)
    if data_size % frame_bytes:
        errors.append(f"{path.name}: data size {data_size} is not whole frames")
    if frames is not None and data_size // frame_bytes != frames:
        errors.append(f"{path.name}: {data_size // frame_bytes} frames, expected {frames}")
    return errors


def file_sha256(path):
    """SHA-256 of a file, read in blocks."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").digest()


def mask_errors(masks, excluded):
    """Errors unless the masks are disjoint and cover exactly the non-excluded bins.

    The DC column belongs to neither mask by the separator's contract (its
    ITD is undefined), so coverage is required on every other column.
    """
    m1, m2 = masks
    errors = []
    overlap = int(np.count_nonzero(m1 & m2))
    if overlap:
        errors.append(f"masks overlap in {overlap} bins")
    expected = ~excluded
    expected[:, 0] = False
    union = m1 | m2
    missing = int(np.count_nonzero(expected & ~union))
    extra = int(np.count_nonzero(union & ~expected))
    if missing or extra:
        errors.append(
            f"masks leave {missing} non-excluded bins uncovered and cover {extra} excluded bins"
        )
    return errors


def tree_digest(root):
    """SHA-256 over the relative paths and contents of a tree; also files and bytes."""
    root = Path(root)
    h = hashlib.sha256()
    files = nbytes = 0
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(file_sha256(p))
            files += 1
            nbytes += p.stat().st_size
    return h.hexdigest(), files, nbytes


def _rss_kb():
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
        return pages * resource.getpagesize() / 1024.0
    except (OSError, ValueError, IndexError):
        return float("nan")


def cpu_split():
    """CPU seconds of this process, and of its children that have been waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _maxrss_kb():
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ------------------------------------------------- traced calls into layers


def outcome_kind(outcome):
    if isinstance(outcome, rs.Passthrough):
        return "passthrough"
    if isinstance(outcome, rs.Separated):
        return "separated"
    return "discarded"


def outcome_outputs(outcome):
    if isinstance(outcome, rs.Separated):
        return [("source1.wav", outcome.source1), ("source2.wav", outcome.source2)]
    if isinstance(outcome, rs.Passthrough):
        return [("passthrough.wav", outcome.signal)]
    return []


def separate_traced(tr, mixture, cfg):
    rss_before, hwm_before = (_rss_kb(), _maxrss_kb()) if tr.enabled else (0.0, 0.0)
    with tr.span("separation") as c:
        outcome = rs.separate(mixture, cfg)
    c["outcome_" + outcome_kind(outcome)] = 1
    if isinstance(outcome, rs.Discarded):
        c["discard_" + outcome.reason] = 1
    if tr.enabled:
        hwm_after = _maxrss_kb()
        if hwm_after > hwm_before:
            c["rss_growth_mb_max"] = (hwm_after - rss_before) / 1024.0
    return outcome


def write_traced(tr, signal, path):
    channels = 2 if isinstance(signal, rs.BinauralSignal) else 1
    with tr.span("audio.write") as c:
        clipped = rs.write_wav(signal, path)
    c["bytes"] = 44 + len(signal) * channels * 2
    c["clipped"] = clipped
    return clipped


def render_traced(tr, wave, bank, azimuth, duration, gain=1.0):
    with tr.span("scenes.render") as c:
        out = rs.render_binaural_source(wave, bank, azimuth, duration, gain)
    taps = len(next(iter(bank.entries.values()))[0])
    c["macs"] = len(wave) * taps * 2
    return out


def region_traced(tr, itd):
    """region_of_itd with its clamp warnings counted instead of printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tr.span("scenes.region_of_itd") as c:
            region = rs.region_of_itd(itd, DTM)
    c["clamps"] = sum("exceeds delta_tau_max" in str(w.message) for w in caught)
    return region


def replay_separate(tr, mixture, cfg, outcome):
    """Re-run separate()'s stages one by one and require the same result, bit for bit.

    Returns (errors, feature grid). Stage spans are children of one
    ``separation.replay`` span, whose self time is separate()'s glue.
    """
    bad = []
    with tr.span("separation.replay"):
        with tr.span("stft.forward") as c:
            spec_l = rs.stft(mixture.left, cfg.stft)
        c["frames"] = spec_l.num_frames
        with tr.span("stft.forward") as c:
            spec_r = rs.stft(mixture.right, cfg.stft)
        c["frames"] = spec_r.num_frames
        with tr.span("features") as c:
            grid = rs.compute_features(spec_l, spec_r, cfg.f_aliasing, cfg.energy_floor_db)
            samples = grid.itd_samples()
        c.update(
            bins=grid.itd.size,
            itd_samples=samples.size,
            excluded=int(np.count_nonzero(grid.excluded)),
        )
        # separate() runs EM with the configuration's top-level seed
        em = dataclasses.replace(cfg.em, seed=cfg.seed)
        with tr.span("itd_model") as c:
            verdict = rs.classify_itds(samples, cfg.sigma_th, cfg.delta_tau_min, em)
        kind = "discard" if isinstance(verdict, Discard) else (
            "single" if isinstance(verdict, SinglePeak) else "two"
        )
        c["verdict_" + kind] = 1

        if kind == "discard":
            expected = "discarded"
        elif kind == "single":
            expected = "passthrough"
        else:
            with tr.span("separation.masks") as c:
                m1, m2 = rs.low_frequency_masks(grid, (verdict.low, verdict.high))
                e1 = (grid.energy * m1).sum(axis=1)
                e2 = (grid.energy * m2).sum(axis=1)
                dom = rs.dominance_sets(e1, e2, cfg.alpha)
                if dom is not None:
                    frames1, frames2, alpha = dom
                    h1, h2 = rs.aliased_frequency_masks(grid, frames1, frames2)
                    masks = (m1 | h1, m2 | h2)
            expected = "separated" if dom is not None else "discarded"

        got = outcome_kind(outcome)
        if got != expected:
            return [f"{REPLAY}outcome {got}, stages give {expected}"], grid
        if got == "discarded":
            reason = verdict.reason if kind == "discard" else REASON_NO_DOMINANT_FRAMES
            if outcome.reason != reason:
                bad.append(f"{REPLAY}discard reason {outcome.reason}, stages give {reason}")
        elif got == "passthrough":
            if outcome.itd != verdict.component.mean:
                bad.append(f"{REPLAY}passthrough ITD differs")
        else:
            c["alpha_decay_steps"] = round(math.log(alpha / cfg.alpha) / math.log(0.9))
            if (outcome.itd1, outcome.itd2) != (verdict.low.mean, verdict.high.mean):
                bad.append(f"{REPLAY}separated ITDs differ")
            if outcome.final_alpha != alpha:
                bad.append(f"{REPLAY}final alpha differs")
            for k, (mask, est) in enumerate(zip(masks, (outcome.source1, outcome.source2))):
                if not np.array_equal(mask, outcome.masks[k]):
                    bad.append(f"{REPLAY}mask {k + 1} differs")
                for spec, channel in ((spec_l, est.left), (spec_r, est.right)):
                    with tr.span("stft.inverse") as c:
                        y = rs.istft(spec.masked(mask))
                    c["frames"] = spec.num_frames
                    if not np.array_equal(y.samples, channel.samples):
                        bad.append(f"{REPLAY}source {k + 1} samples differ")
    return bad, grid


def check_separation(tr, mixture, cfg, outcome):
    """Replay check plus, for a Separated outcome, the mask algebra check."""
    errors, grid = replay_separate(tr, mixture, cfg, outcome)
    if isinstance(outcome, rs.Separated):
        errors += mask_errors(outcome.masks, grid.excluded)
    return errors


# ------------------------------------------------------------- workloads


class SeparateLong:
    """`regionsep separate`'s library path on long two-source recordings."""

    name = "separate-long"
    whole_passes = True

    @staticmethod
    def make_inputs(seed, work, size):
        rng = np.random.default_rng(seed)
        bank = rs.make_spherical_bank(BANK_AZIMUTHS, DTM, SR)
        groups = {"g0": 0, "g1": 1}
        ops = []
        for k, length in enumerate(size["lengths_s"]):
            # the two band groups are W-disjoint by construction
            id1, az1, id2, az2 = draw_mixture_params(
                rng, sorted(groups), bank.azimuths, CFG.delta_tau_min, DTM
            )
            rendered = [
                rs.render_binaural_source(
                    rs.band_noise_source(rng, length, SR, band_group=groups[i]), bank, az, length
                )
                for i, az in ((id1, az1), (id2, az2))
            ]
            mixture = rs.BinauralSignal(
                rs.Waveform(rendered[0].left.samples + rendered[1].left.samples, SR),
                rs.Waveform(rendered[0].right.samples + rendered[1].right.samples, SR),
            )
            path = work / f"rec{k}.wav"
            refs = work / f"rec{k}_refs.npy"
            rs.write_wav(mixture, path)
            np.save(
                refs,
                np.array([[r.left.samples, r.right.samples] for r in rendered], dtype=np.float32),
            )
            ops.append(
                {
                    "key": f"rec{k}",
                    "path": str(path),
                    "refs": str(refs),
                    "ref_itds": [rs.spherical_itd(az1, DTM), rs.spherical_itd(az2, DTM)],
                    "bytes": path.stat().st_size,
                    "audio_s": len(mixture) / SR,
                }
            )
        return ops

    def out_dir(self, op, work):
        out = work / "out" / op["key"]
        out.mkdir(parents=True, exist_ok=True)
        return out

    def run(self, op, tr, out):
        with tr.span("audio.read", bytes=op["bytes"]):
            signal = rs.read_wav(op["path"])
        outcome = separate_traced(tr, signal, CFG)
        clipped = sum(write_traced(tr, s, out / name) for name, s in outcome_outputs(outcome))
        return {"signal": signal, "outcome": outcome, "clipped": clipped}

    def check(self, op, res, tr, out, full):
        signal, outcome = res["signal"], res["outcome"]
        errors = []
        names = [name for name, _ in outcome_outputs(outcome)]
        for name in names:
            errors += check_wav(out / name, frames=len(signal))
        h = hashlib.sha256()
        for name in names:
            h.update(name.encode() + b"\0" + file_sha256(out / name))
        if not full:
            return errors, h.hexdigest(), None
        errors += check_separation(tr, signal, CFG, outcome)
        info = {"outcome": outcome_kind(outcome), "clipped": res["clipped"]}
        if isinstance(outcome, rs.Discarded):
            info["reason"] = outcome.reason
        if isinstance(outcome, rs.Separated):
            with tr.span("metrics"):
                info["snri_db"] = self._snri(op, signal, outcome)
        return errors, h.hexdigest(), info

    @staticmethod
    def _snri(op, signal, outcome):
        """SNRi per output and channel against the reference nearest its ITD."""
        refs = np.load(op["refs"]).astype(np.float64)
        values = []
        for est, itd in ((outcome.source1, outcome.itd1), (outcome.source2, outcome.itd2)):
            k = int(np.argmin([abs(itd - t) for t in op["ref_itds"]]))
            for ch, (e, m) in enumerate(((est.left, signal.left), (est.right, signal.right))):
                values.append(float(rs.snri(refs[k, ch], e.samples, m.samples)))
        return values

    def cleanup(self, op, out):
        pass


class _CliWorkload:
    """An operation is one `regionsep` command run through cli.main."""

    whole_passes = False

    def out_dir(self, op, work):
        return work / "out" / "op"

    def run(self, op, tr, out):
        # warnings raised in this process are counted, not printed; pool
        # workers inherit the recording filter and drop theirs
        own_0, kids_0 = cpu_split()
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tr.span("cli") as c:
                rc = cli.main(op["argv"] + ["--out", str(out)])
        wall = time.perf_counter() - t0
        own_1, kids_1 = cpu_split()
        c.update(
            parent_cpu_s=own_1 - own_0,
            worker_cpu_s=kids_1 - kids_0,
            wall_x_jobs=wall * int(op["argv"][op["argv"].index("--jobs") + 1]),
        )
        return {"rc": rc, "warnings": [str(w.message) for w in caught], "cli_counts": c}

    def check(self, op, res, tr, out, full):
        if res["rc"] != 0:
            return [f"exit code {res['rc']}"], None, None
        digest, files, nbytes = tree_digest(out)
        res["cli_counts"].update(files=files, bytes=nbytes)
        if not full:
            return [], digest, None
        errors, info = self.check_tree(op, out, tr)
        info.update(files=files, bytes=nbytes, warnings=len(res["warnings"]))
        if tr.enabled:
            errors += self.replay(op, out, tr, info)
        return errors, digest, info

    def cleanup(self, op, out):
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def parse(op, out):
        return cli.build_parser().parse_args(op["argv"] + ["--out", str(out)])

    @staticmethod
    def pool(args, tr):
        """The synthetic source pool the command builds for itself."""
        with tr.span("signals.pool") as c:
            pool = rs.make_source_pool(
                seed=args.seed ^ POOL_SEED_XOR, count=args.pool_size,
                duration=SOURCE_SECONDS, sample_rate=SR,
            )
        c["sources"] = len(pool)
        return pool

    @staticmethod
    def compare_files(tr, files, out, replay_dir):
        """Write the replay's signals and require the CLI's files to match byte for byte."""
        errors = []
        for name, signal in files.items():
            path = replay_dir / name
            path.parent.mkdir(parents=True, exist_ok=True)
            write_traced(tr, signal, path)
            try:
                same = path.read_bytes() == (out / name).read_bytes()
            except OSError:
                same = False
            if not same:
                errors.append(f"{REPLAY}{name} differs from the command's output")
        shutil.rmtree(replay_dir, ignore_errors=True)
        return errors


class Harvest(_CliWorkload):
    """`regionsep dataset --jobs 2`: harvest many short mixtures, then tuples."""

    name = "harvest"

    @staticmethod
    def make_inputs(seed, work, size):
        ops = []
        for s in _distinct_seeds(seed, size["seeds"]):
            ops.append(
                {
                    "key": f"seed{s}",
                    "argv": [
                        "dataset", "--num", str(size["num"]), "--tuples", str(size["tuples"]),
                        "--jobs", "2", "--seed", str(s),
                    ],
                    "audio_s": size["num"] * SOURCE_SECONDS,
                }
            )
        return ops

    def check_tree(self, op, out, tr):
        args = self.parse(op, out)
        errors = []
        stats = json.loads((out / "stats.json").read_text())
        n_ok = stats["n_passthrough"] + stats["n_separated"]
        if stats["n_mixtures"] != args.num or n_ok + stats["n_discarded"] != args.num:
            errors.append(f"stats.json outcome counts do not add up to {args.num} mixtures")
        if sum(stats["discard_reasons"].values()) != stats["n_discarded"]:
            errors.append("stats.json discard reasons do not add up")
        with tr.span("manifest") as c:
            entries = rs.read_manifest(out / "manifest.jsonl")
        c["entries"] = len(entries)
        wavs = [e.path for e in entries if e.path]
        if len(entries) - len(wavs) != stats["n_discarded"]:
            errors.append("manifest discard entries disagree with stats.json")
        if len(wavs) != stats["n_passthrough"] + 2 * stats["n_separated"]:
            errors.append("manifest WAV entries disagree with stats.json")
        frames = int(round(SOURCE_SECONDS * SR))
        for name in wavs:
            errors += check_wav(out / name, frames=frames)
        tuple_dirs = sorted(out.glob("tuple_*"))
        if len(tuple_dirs) != (args.tuples if wavs else 0):
            errors.append(f"{len(tuple_dirs)} tuple directories, expected {args.tuples}")
        for tdir in tuple_dirs:
            for name in ["mixture.wav"] + [f"region_{r}.wav" for r in (1, 2, 3)]:
                errors += [f"{tdir.name}/{e}" for e in check_wav(tdir / name, frames=frames)]
        info = {
            "mixtures": stats["n_mixtures"],
            "accepted": n_ok,
            "passthrough": stats["n_passthrough"],
            "separated": stats["n_separated"],
            "discard_reasons": stats["discard_reasons"],
            "manifest_entries": len(entries),
        }
        return errors, info

    def replay(self, op, out, tr, info):
        """Serially redo the command's seeded work and require the same outcomes and files."""
        args = self.parse(op, out)
        seed = args.seed
        cfg = rs.SeparationConfig(em=rs.EmSettings(seed=seed), seed=seed)
        pool = self.pool(args, tr)
        with tr.span("hrir.bank_build"):
            bank = rs.make_spherical_bank(BANK_AZIMUTHS, delta_tau_max=DTM, sample_rate=SR)
        pool_ids = sorted(pool)
        errors = []
        records, files = [], {}
        kinds = {"passthrough": 0, "separated": 0, "discarded": 0}
        reasons = {}
        with tr.span("dataset") as dc:
            for i, child in enumerate(np.random.SeedSequence(seed).spawn(args.num)):
                rng = np.random.default_rng(child)
                id1, az1, id2, az2 = draw_mixture_params(
                    rng, pool_ids, bank.azimuths, cfg.delta_tau_min, DTM
                )
                duration = max(pool[id1].duration, pool[id2].duration)
                s1 = render_traced(tr, pool[id1], bank, az1, duration)
                s2 = render_traced(tr, pool[id2], bank, az2, duration)
                mixture = rs.BinauralSignal(
                    rs.Waveform(s1.left.samples + s2.left.samples, SR),
                    rs.Waveform(s1.right.samples + s2.right.samples, SR),
                )
                outcome = separate_traced(tr, mixture, cfg)
                errors += check_separation(tr, mixture, cfg, outcome)
                kinds[outcome_kind(outcome)] += 1
                scene_id = f"mix{i:05d}"
                if isinstance(outcome, rs.Discarded):
                    reasons[outcome.reason] = reasons.get(outcome.reason, 0) + 1
                    continue
                if isinstance(outcome, rs.Passthrough):
                    new = [
                        rs.SourceRecord(
                            signal=outcome.signal, itd=outcome.itd,
                            region=region_traced(tr, outcome.itd),
                            provenance=PROVENANCE_SINGLE, origin_scene=scene_id,
                        )
                    ]
                else:
                    true_itds = (rs.spherical_itd(az1, DTM), rs.spherical_itd(az2, DTM))
                    new = []
                    for est, itd in ((outcome.source1, outcome.itd1), (outcome.source2, outcome.itd2)):
                        nearest = int(np.argmin([abs(itd - t) for t in true_itds]))
                        new.append(
                            rs.SourceRecord(
                                signal=est, itd=itd, region=region_traced(tr, itd),
                                provenance=PROVENANCE_SEPARATED, origin_scene=scene_id,
                                clean_signal=(s1, s2)[nearest],
                            )
                        )
                for j, rec in enumerate(new):
                    files[f"{scene_id}_{j}.wav"] = rec.signal
                records += new
        dc["mixtures"] = args.num
        dc["harvested_audio_s"] = sum(r.signal.left.duration for r in records)
        if args.tuples > 0 and records:
            with tr.span("dataset.tuples") as c:
                tuples = rs.build_training_tuples(
                    records, rs.default_layout_r3(), (args.k_min, args.k_max),
                    CLEAN_RATIO, args.tuples, seed=seed ^ TUPLE_SEED_XOR,
                )
            c["count"] = len(tuples)
            for t, tup in enumerate(tuples):
                files[f"tuple_{t:04d}/mixture.wav"] = tup.mixture
                for r, ref in enumerate(tup.references, start=1):
                    files[f"tuple_{t:04d}/region_{r}.wav"] = ref

        if kinds["passthrough"] != info["passthrough"] or kinds["separated"] != info["separated"]:
            errors.append(f"{REPLAY}outcome counts {kinds} differ from stats.json")
        if reasons != info["discard_reasons"]:
            errors.append(f"{REPLAY}discard reasons {reasons} differ from stats.json")
        return errors + self.compare_files(tr, files, out, out.parent / "replay")


class Synth(_CliWorkload):
    """`regionsep synth --jobs 1` with a bank file: render and write scenes."""

    name = "synth"

    @staticmethod
    def make_inputs(seed, work, size):
        bank_path = work / "bank.hrir"
        rs.save_hrir_bank(rs.make_spherical_bank(BANK_AZIMUTHS, DTM, SR), bank_path)
        ops = []
        for s in _distinct_seeds(seed, size["seeds"]):
            ops.append(
                {
                    "key": f"seed{s}",
                    "argv": [
                        "synth", "--num-scenes", str(size["scenes"]), "--k-min", "2",
                        "--k-max", "5", "--jobs", "1", "--hrir-bank", str(bank_path),
                        "--seed", str(s),
                    ],
                    "audio_s": size["scenes"] * SOURCE_SECONDS,
                }
            )
        return ops

    def check_tree(self, op, out, tr):
        args = self.parse(op, out)
        regions = rs.default_layout_r3().num_regions
        bound = (regions + 1) / 2.0
        frames = int(round(SOURCE_SECONDS * SR))
        errors = []
        scenes = sorted(p for p in out.iterdir() if p.is_dir())
        if len(scenes) != args.num_scenes:
            errors.append(f"{len(scenes)} scene directories, expected {args.num_scenes}")
        worst = 0.0
        for sdir in scenes:
            names = ["mixture.wav"] + [f"region_{r}.wav" for r in range(1, regions + 1)]
            errs = [f"{sdir.name}/{e}" for n in names for e in check_wav(sdir / n, frames=frames)]
            try:
                rs.SceneSpec.from_json((sdir / "scene.json").read_text())
            except (OSError, ValueError, KeyError) as exc:
                errs.append(f"{sdir.name}/scene.json: {exc}")
            if errs:
                errors += errs
                continue
            mix = rs.read_wav(sdir / "mixture.wav")
            res_l, res_r = mix.left.samples.copy(), mix.right.samples.copy()
            for n in names[1:]:
                reg = rs.read_wav(sdir / n)
                res_l -= reg.left.samples
                res_r -= reg.right.samples
            lsb = float(max(np.abs(res_l).max(), np.abs(res_r).max()) * 32768.0)
            worst = max(worst, lsb)
            if lsb > bound:
                errors.append(f"{sdir.name}: mixture minus regions is {lsb} LSB > {bound}")
        return errors, {"scenes": len(scenes), "residual_lsb": worst}

    def replay(self, op, out, tr, info):
        """Serially redo the command's scenes and require the same files, byte for byte."""
        args = self.parse(op, out)
        pool = self.pool(args, tr)
        with tr.span("hrir.load", bytes=Path(args.hrir_bank).stat().st_size):
            bank = rs.load_hrir_bank(args.hrir_bank)
        layout = rs.default_layout_r3()
        errors, files = [], {}
        for index, child in enumerate(np.random.SeedSequence(args.seed).spawn(args.num_scenes)):
            scene_seed = int(child.generate_state(1)[0])
            with tr.span("scenes.random_scene"):
                spec = rs.random_scene(
                    (args.k_min, args.k_max), layout, bank, sorted(pool),
                    seed=scene_seed, duration=SOURCE_SECONDS,
                )
            for src in spec.sources:
                render_traced(tr, pool[src.source_id], bank, src.azimuth, spec.duration, src.gain)
            with tr.span("scenes.synth_scene"):
                mixture_set = rs.synth_scene(spec, bank, layout, pool)
            sdir = f"scene_{index:04d}"
            try:
                same_spec = (out / sdir / "scene.json").read_text() == spec.to_json() + "\n"
            except OSError:
                same_spec = False
            if not same_spec:
                errors.append(f"{REPLAY}{sdir}/scene.json differs")
            files[f"{sdir}/mixture.wav"] = mixture_set.mixture
            for r, sig in enumerate(mixture_set.region_signals, start=1):
                files[f"{sdir}/region_{r}.wav"] = sig
        return errors + self.compare_files(tr, files, out, out.parent / "replay")


def _distinct_seeds(seed, n):
    rng = np.random.default_rng(seed)
    seeds = []
    while len(seeds) < n:
        s = int(rng.integers(1, 2**31 - 1))
        if s not in seeds:
            seeds.append(s)
    return seeds


WORKLOADS = {w.name: w for w in (SeparateLong, Harvest, Synth)}


class Session:
    """One workload process: runs operations and checks every output.

    Every output gets the file checks: WAV structure, and a digest that
    must equal that of every other op on the same input, in this process
    and in the others of the run. An op run with ``full`` also gets the
    checks that recompute or score the program's work in this process
    (stage replay, mask algebra, SNRi, bookkeeping); the measuring process
    never runs them, so its ``ru_maxrss`` is the program's alone.
    """

    def __init__(self, spec, work):
        self.workload = WORKLOADS[spec["workload"]]()
        self.ops = spec["ops"]
        self.work = Path(work)
        self.digests = {}
        self.infos = {}
        self.errors = []
        self.attempted = 0
        self.op_cpu_s = 0.0

    def execute(self, index, tr, full=False):
        """Run op ``index`` (cycling over the inputs) and check its output.

        Returns the op's wall seconds, the op, and the clock reading at
        which the op ended (before its checks ran). The op's CPU seconds,
        its children's included, are left in ``op_cpu_s``.
        """
        op = self.ops[index % len(self.ops)]
        key = op["key"]
        out = self.workload.out_dir(op, self.work)
        tr.op = self.attempted
        errors = []
        res = None
        cpu_0 = sum(cpu_split())
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                res = self.workload.run(op, tr, out)
        except Exception as exc:  # noqa: BLE001 - an op that raises counts as failed
            errors.append(f"raised {type(exc).__name__}: {exc}")
        t_end = time.perf_counter()
        self.op_cpu_s = sum(cpu_split()) - cpu_0
        self.attempted += 1
        if res is not None:
            try:
                errs, digest, info = self.workload.check(op, res, tr, out, full)
                errors += errs
                if digest is not None:
                    first = self.digests.setdefault(key, digest)
                    if digest != first:
                        errors.append(f"output digest {digest[:12]} != first {first[:12]}")
                if info is not None and not errs:
                    self.infos.setdefault(key, info)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failure
                errors.append(f"check raised {type(exc).__name__}: {exc}")
        self.workload.cleanup(op, out)
        if errors:
            self.errors.append({"op": self.attempted - 1, "key": key, "errors": errors})
        return t_end - t0, op, t_end
