"""Command-line pipeline: scene synthesis, separation, evaluation, datasets.

Every command is a pure function of its inputs, config, and seed; reruns
produce checksum-identical output trees. ``synth``'s scenes, ``dataset``'s
mixtures and its training tuples are each one ``parallel.seeded_tasks``
list, mapped over one ``parallel.TaskPool`` per command: --jobs worker
processes (at least 1), forked once, that serve both of ``dataset``'s
stages. The inputs every task shares (source pool, HRIR bank, configs,
output paths) go to each worker once; a task carries its index and seed
child, writes its own item (a scene directory, a mixture's WAVs, a tuple
directory) and returns its counts and manifest lines. Once every task of
a stage has finished, this process writes only ``manifest.jsonl`` and
``stats.json``, in seed order. Item ``i`` is the same at any count, so a
harvest budget is a smaller ``--num``. When tuples follow, the harvest
tasks also put their samples in a store (``dataset.store_records``; the
clean originals only at a ``--clean-ratio`` above 0) and return each
record's location and labels. This process draws every tuple's sources
from those labels (``dataset.draw_tuples``), and each tuple task
carries its drawn records, whose store spans its worker reads
(``dataset.read_stored``), sums and writes. This module owns only the
store's directory, a private one under ``--out`` that is removed when the
command ends, after the pool's workers are joined; at ``--tuples 0``
there is none.

On glibc, ``main`` first pins the allocator's mmap and trim thresholds at
32 MiB for this process and the pool workers it forks, so the arrays each
mixture or scene frees stay mapped for the next instead of going back to
the kernel and faulting in again; library callers keep glibc's defaults.

Exit codes: 0 success (including discards), 2 config error, 3 I/O error,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import logging
import math
import os
import re
import sys
import tempfile
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .audio import (
    AudioFormatError,
    BinauralSignal,
    max_wav_frames,
    max_wav_rate,
    read_wav,
    write_wav,
)
from .dataset import (
    PROVENANCE_SINGLE,
    DirtyBuildStats,
    check_pair_gap,
    draw_tuples,
    harvest_mixture,
    outcome_records,
    read_stored,
    store_records,
    sum_tuple,
)
from .hrir import HrirBank, load_hrir_bank
from .manifest import ManifestEntry, write_manifest
from .metrics import evaluate_regions
from .parallel import TaskPool, seeded_tasks
from .scenes import (
    RegionLayout,
    RegionMixtureSet,
    default_layout_r3,
    make_spherical_bank,
    random_scene,
    synth_scene,
)
from .separation import Discarded, Separated, SeparationConfig, separate
from .signals import make_source_pool
from .stft import StftConfig

log = logging.getLogger("regionsep")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

DEFAULT_DELTA_TAU_MAX = SeparationConfig().delta_tau_max  # seconds


class ConfigError(ValueError):
    pass


# config keys that set a field of SeparationConfig, and of its StftConfig;
# delta_tau_max also sets the aliasing frequency (SeparationConfig.f_aliasing)
_SEP_KEYS = ("delta_tau_max", "sigma_th", "delta_tau_min", "alpha", "energy_floor_db")
_STFT_KEYS = ("fft_size", "hop", "sample_rate")

# every config key with its default: the library configs' own, then the CLI's
_DEFAULTS = {
    **{key: getattr(SeparationConfig(), key) for key in _SEP_KEYS},
    **{key: getattr(SeparationConfig().stft, key) for key in _STFT_KEYS},
    "seed": 0,
    "clean_ratio": 0.5,
    "duration": 4.0,
}
# the config keys each command reads: its flags, and the keys its --config
# file may hold; a key it does not read keeps its default. eval reads none.
_COMMAND_KEYS = {
    "synth": ("delta_tau_max", "sample_rate", "seed", "duration"),
    "separate": _SEP_KEYS + _STFT_KEYS + ("seed",),
    "dataset": tuple(_DEFAULTS),
}


def _load_params(args) -> dict:
    """File values under CLI flags under built-in defaults, each typed like
    its default (the flags are typed so by argparse). Only the keys that
    ``args.command`` reads may come from the file or a flag."""
    keys = _COMMAND_KEYS[args.command]
    params = dict(_DEFAULTS)
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise ConfigError(
                f"unknown config keys: {sorted(unknown)}; "
                f"{args.command} reads {', '.join(keys)}"
            )
        for key, value in file_values.items():
            kind = type(_DEFAULTS[key])
            # only a JSON number the key's type holds: the conversion would
            # parse "3", read true as 1 and truncate 3.9 to 3
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            try:
                typed = kind(value) if number else None
            except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
                typed = None
            if typed is None or (kind is int and typed != value):
                got = f"{json.dumps(value)} is not of type {kind.__name__}"
                raise ConfigError(f"config key {key}: {got}")
            params[key] = typed
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            params[key] = flag
    if params["seed"] < 0:
        raise ConfigError(f"--seed must be at least 0, got {params['seed']}")
    if params["sample_rate"] > max_wav_rate(2):
        raise ConfigError(
            f"--sample-rate {params['sample_rate']} is above the "
            f"{max_wav_rate(2)} Hz a stereo WAV file holds"
        )
    return params


def _separation_config(params: dict) -> SeparationConfig:
    try:
        return SeparationConfig(
            stft=StftConfig(**{key: params[key] for key in _STFT_KEYS}),
            **{key: params[key] for key in _SEP_KEYS},
            seed=params["seed"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_pool_args(args, *counts: str) -> int:
    """Reject a bad --jobs, k range, negative --pool-size or negative count
    of synth/dataset; return jobs.

    ``counts`` are the dests of the command's count flags.
    """
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if not 1 <= args.k_min <= args.k_max:
        raise ConfigError(
            f"need 1 <= --k-min <= --k-max, got {args.k_min} and {args.k_max}"
        )
    for dest in ("pool_size",) + counts:
        if getattr(args, dest) < 0:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} must be at least 0, got {getattr(args, dest)}")
    return args.jobs


def _load_pool(args, params: dict, cfg: SeparationConfig, min_sources: int) -> dict:
    """WAV directory if given, else a seeded synthetic band-noise pool."""
    if args.pool:
        if not Path(args.pool).is_dir():
            raise NotADirectoryError(f"--pool {args.pool} is not a directory")
        pool = {}
        for wav in sorted(Path(args.pool).glob("*.wav")):
            signal = read_wav(wav)
            if isinstance(signal, BinauralSignal):
                raise ConfigError(f"pool sources must be mono: {wav}")
            _check_rate(f"pool source {wav}", signal.sample_rate, cfg)
            pool[wav.stem] = signal
    else:
        pool = make_source_pool(
            seed=params["seed"] ^ 0x5EED,
            count=args.pool_size,
            duration=params["duration"],
            sample_rate=cfg.stft.sample_rate,
        )
    if len(pool) < min_sources:
        raise ConfigError(
            f"source pool too small: {len(pool)} sources, need at least {min_sources}"
        )
    return pool


def _checked_duration(params: dict, cfg: SeparationConfig, min_samples: int) -> float:
    """The --duration in seconds, if it gives at least ``min_samples`` samples
    and no more than a stereo WAV file holds."""
    duration = params["duration"]
    rate = cfg.stft.sample_rate
    if not (math.isfinite(duration) and round(duration * rate) >= min_samples):
        raise ConfigError(
            f"--duration {duration} gives fewer than {min_samples} samples at {rate} Hz"
        )
    if round(duration * rate) > max_wav_frames(2):
        raise ConfigError(
            f"--duration {duration} gives more samples at {rate} Hz than the "
            f"{max_wav_frames(2)} frames a stereo WAV file holds"
        )
    return duration


def _check_rate(what: str, rate: int, cfg: SeparationConfig) -> None:
    if rate != cfg.stft.sample_rate:
        raise ConfigError(f"{what} rate {rate} != --sample-rate {cfg.stft.sample_rate}")


def _load_bank(args, cfg: SeparationConfig):
    if args.hrir_bank:
        bank = load_hrir_bank(args.hrir_bank)
        _check_rate(f"HRIR bank {args.hrir_bank}", bank.sample_rate, cfg)
        return bank
    azimuths = np.arange(0.0, 360.0, 5.0)
    return make_spherical_bank(
        azimuths, delta_tau_max=cfg.delta_tau_max, sample_rate=cfg.stft.sample_rate
    )


def _write_regions(out_dir: Path, mixture, regions, json_name, json_text) -> int:
    """Write mixture.wav, region_N.wav and one JSON file (a scene's or a
    tuple's); return the samples clipped."""
    out_dir.mkdir(parents=True, exist_ok=True)
    clipped = write_wav(mixture, out_dir / "mixture.wav")
    for i, sig in enumerate(regions, start=1):
        clipped += write_wav(sig, out_dir / f"region_{i}.wav")
    (out_dir / json_name).write_text(json_text + "\n")
    return clipped


def _synth_and_write(shared, task) -> int:
    """Render random scene ``index`` and write its ``scene_NNNN`` directory;
    return the samples clipped."""
    layout, k_range, duration, pool, bank, memo, out = shared
    index, seed_seq = task
    scene_seed = int(seed_seq.generate_state(1)[0])
    spec = random_scene(
        k_range, layout, bank, sorted(pool), seed=scene_seed, duration=duration
    )
    scene = synth_scene(spec, bank, layout, pool, memo)
    sdir = out / f"scene_{index:04d}"
    regions = scene.region_signals
    return _write_regions(sdir, scene.mixture, regions, "scene.json", spec.to_json())


def cmd_synth(args) -> int:
    jobs = _check_pool_args(args, "num_scenes")
    params = _load_params(args)
    cfg = _separation_config(params)
    duration = _checked_duration(params, cfg, min_samples=1)
    pool = _load_pool(args, params, cfg, min_sources=1)
    bank = _load_bank(args, cfg)
    out = Path(args.out)

    k_range = (args.k_min, args.k_max)
    # the block-spectra memo of this command; each pool worker gets its own
    # empty copy and fills it as its scenes need
    memo = {}
    shared = (default_layout_r3(), k_range, duration, pool, bank, memo, out)
    tasks = seeded_tasks(args.num_scenes, params["seed"])
    with TaskPool(shared, jobs, len(tasks)) as workers:
        clipped = sum(workers.map(_synth_and_write, tasks))
    log.info(
        "wrote %d scenes to %s; %d samples clipped", args.num_scenes, out, clipped
    )
    return EXIT_OK


def cmd_separate(args) -> int:
    params = _load_params(args)
    cfg = _separation_config(params)
    signal = read_wav(args.input)
    if not isinstance(signal, BinauralSignal):
        raise ConfigError(f"{args.input} is mono: separate requires a stereo file")
    _check_rate(f"input {args.input}", signal.sample_rate, cfg)
    if len(signal) < cfg.min_input_samples:
        raise ConfigError(
            f"input {args.input} too short: {len(signal)} samples, need at "
            f"least {cfg.min_input_samples} (4 STFT frames)"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    source_id = Path(args.input).stem

    outcome = separate(signal, cfg)
    records = outcome_records(outcome, source_id, cfg.delta_tau_max)
    reason = outcome.reason if isinstance(outcome, Discarded) else None
    names = ["passthrough.wav"] if len(records) == 1 else ["source1.wav", "source2.wav"]
    entries, clipped = _write_outcome(records, reason, source_id, names, out)
    log.info("wrote %d files to %s; %d samples clipped", len(records), out, clipped)
    if isinstance(outcome, Separated) and args.diagnostics:
        write_mask_text(outcome.masks[0], out / "mask1.txt")
        write_mask_text(outcome.masks[1], out / "mask2.txt")
        (out / "alpha.txt").write_text(f"{outcome.final_alpha!r}\n")
    write_manifest(entries, out / "manifest.jsonl")
    return EXIT_OK


def write_mask_text(mask: np.ndarray, path) -> None:
    """Write a 2-D boolean mask as ``np.savetxt(path, mask, fmt="%d")``
    would: one line per frame, bins as 0/1 separated by single spaces.

    The text is built as one uint8 array of digits, spaces and newlines.
    """
    rows, cols = mask.shape
    text = np.full((rows, 2 * cols), ord(" "), dtype=np.uint8)
    text[:, 0::2] = mask
    text[:, 0::2] += ord("0")
    text[:, -1] = ord("\n")
    Path(path).write_bytes(text.tobytes())


def _write_outcome(records, discard_reason, origin: str, names, out: Path):
    """Write one stage-1 outcome of ``origin`` to ``out``: each record's WAV
    under its name in ``names``. Return its manifest entries, the records'
    or the discard's, and the samples clipped."""
    if discard_reason is not None:
        return [ManifestEntry("", None, None, f"discarded:{discard_reason}", origin)], 0
    entries, clipped = [], 0
    for name, rec in zip(names, records):
        clipped += write_wav(rec.signal, out / name)
        kind = "passthrough" if rec.provenance == PROVENANCE_SINGLE else "separated"
        entries.append(ManifestEntry(name, rec.itd, rec.region, kind, origin))
    return entries, clipped


def _read_binaural(path: Path) -> BinauralSignal:
    signal = read_wav(path)
    if not isinstance(signal, BinauralSignal):
        raise AudioFormatError(f"{path} is not stereo")
    return signal


def _region_id(path: Path) -> int:
    """The N of a ``region_N.wav`` reference, a positive integer."""
    n = path.stem[len("region_") :]
    if not re.fullmatch(r"[1-9][0-9]*", n):
        raise AudioFormatError(
            f"{path}: not a region_N.wav reference with N a positive integer"
        )
    return int(n)


def cmd_eval(args) -> int:
    refs_root = Path(args.references)
    est_root = Path(args.estimates)
    scene_dirs = sorted(p for p in refs_root.iterdir() if p.is_dir())
    if not scene_dirs:
        raise AudioFormatError(f"{refs_root} holds no scene directory")
    lines = []
    for scene_dir in scene_dirs:
        mixture_path = scene_dir / "mixture.wav"
        mixture = _read_binaural(mixture_path)
        region_paths = sorted(scene_dir.glob("region_*.wav"), key=_region_id)
        if not region_paths:
            raise AudioFormatError(f"{scene_dir} holds no region_N.wav reference")
        for n, path in enumerate(region_paths, 1):
            if _region_id(path) != n:
                raise AudioFormatError(
                    f"{scene_dir} holds no region_{n}.wav reference: "
                    "region ids must run from 1 without gaps"
                )
        refs = []
        estimates = []
        active = []
        for path in region_paths:
            sig = _read_binaural(path)
            if len(sig) != len(mixture) or sig.sample_rate != mixture.sample_rate:
                raise AudioFormatError(
                    f"{mixture_path} has {len(mixture)} samples at "
                    f"{mixture.sample_rate} Hz, its reference {path.name} "
                    f"{len(sig)} at {sig.sample_rate} Hz"
                )
            refs.append(sig)
            active.append(bool(np.any(sig.left.samples) or np.any(sig.right.samples)))
            est_path = est_root / scene_dir.name / path.name
            estimate = _read_binaural(est_path)
            if len(estimate) != len(sig):
                raise AudioFormatError(
                    f"{est_path} has {len(estimate)} samples, "
                    f"its reference {len(sig)}"
                )
            if estimate.sample_rate != sig.sample_rate:
                raise AudioFormatError(
                    f"{est_path} is at {estimate.sample_rate} Hz, "
                    f"its reference at {sig.sample_rate} Hz"
                )
            estimates.append(estimate)
        if not any(active):
            raise AudioFormatError(
                f"every region_N.wav reference in {scene_dir} is silent"
            )
        mixture_set = RegionMixtureSet(
            region_signals=tuple(refs), mixture=mixture, active=tuple(active)
        )
        report = evaluate_regions(mixture_set, estimates)
        record = {"scene": scene_dir.name, **report.to_record()}
        lines.append(json.dumps(record, sort_keys=True))
    Path(args.out).write_text("".join(line + "\n" for line in lines))
    log.info("evaluated %d scenes", len(lines))
    return EXIT_OK


class _DatasetShared(NamedTuple):
    """The inputs every task of one ``dataset`` command shares."""

    pool: dict
    bank: HrirBank
    cfg: SeparationConfig
    layout: RegionLayout
    out: Path
    store: Optional[Path]  # the sample store; None at --tuples 0
    keep_clean: bool  # store the clean originals, which some tuple may read


def _harvest_and_write(shared: _DatasetShared, task):
    """Harvest one mixture and write its records' WAVs, and their samples to
    the sample store when there is one: the clean originals too, unless the
    tuples read none of them.

    Returns ``(manifest entries, discard_reason, stored records, samples
    clipped)``: a discard's entry, or the records'; without a store there
    are no stored records.
    """
    pool, bank, cfg, _, out, store, keep_clean = shared
    index, seed_seq = task
    mix_id = f"mix{index:05d}"
    records, discard_reason = harvest_mixture(pool, bank, cfg, mix_id, seed_seq)
    names = [f"{mix_id}_{j}.wav" for j in range(len(records))]
    entries, clipped = _write_outcome(records, discard_reason, mix_id, names, out)
    if not keep_clean:
        records = [dataclasses.replace(rec, clean_signal=None) for rec in records]
    stored = [] if store is None else store_records(records, store)
    return entries, discard_reason, stored, clipped


def _tuple_and_write(shared: _DatasetShared, task) -> int:
    """Read and sum the drawn sources of training tuple ``t`` and write its
    ``tuple_NNNN`` directory; return the samples clipped."""
    t, drawn = task
    signal_of = partial(read_stored, shared.store)
    tup = sum_tuple(drawn, shared.layout.num_regions, signal_of)
    meta = {"active": list(tup.active), "provenances": list(tup.provenances)}
    meta_text = json.dumps(meta, sort_keys=True)
    tdir = shared.out / f"tuple_{t:04d}"
    return _write_regions(tdir, tup.mixture, tup.references, "meta.json", meta_text)


def cmd_dataset(args) -> int:
    jobs = _check_pool_args(args, "num", "tuples")
    params = _load_params(args)
    cfg = _separation_config(params)
    clean_ratio = params["clean_ratio"]
    if not 0.0 <= clean_ratio <= 1.0:
        raise ConfigError(f"--clean-ratio must be in [0, 1], got {clean_ratio}")
    _checked_duration(params, cfg, cfg.min_input_samples)
    pool = _load_pool(args, params, cfg, min_sources=2)
    short = sorted(w for w in pool if len(pool[w]) < cfg.min_input_samples)
    if short:
        raise ConfigError(
            f"pool sources shorter than {cfg.min_input_samples} samples "
            f"(4 STFT frames): {short}"
        )
    bank = _load_bank(args, cfg)
    try:
        check_pair_gap(bank.azimuths, cfg.delta_tau_min, cfg.delta_tau_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # each task writes its own WAVs and samples, in a pool worker when
    # jobs > 1; this process keeps the manifest, the records' labels and
    # the counts. Only the tuples read the sample store, so without them
    # there is none.
    seed = params["seed"]
    stats = DirtyBuildStats()
    clipped = 0  # samples clipped to full scale in every WAV written, tuples too
    store_dir = (
        tempfile.TemporaryDirectory(dir=out, prefix=".samples-")
        if args.tuples > 0
        else nullcontext()
    )
    layout = default_layout_r3()
    with store_dir as store:
        store = None if store is None else Path(store)
        # at a clean ratio of 0 no tuple reads a clean original
        keep_clean = clean_ratio > 0
        shared = _DatasetShared(pool, bank, cfg, layout, out, store, keep_clean)
        # the workers are joined when this block exits, before the store
        # is removed
        with TaskPool(shared, jobs, max(args.num, args.tuples)) as workers:
            results = workers.map(_harvest_and_write, seeded_tasks(args.num, seed))
            entries, stored = [], []
            for new_entries, discard_reason, new_stored, new_clipped in results:
                stats.add(new_entries, discard_reason)
                clipped += new_clipped
                entries.extend(new_entries)
                stored.extend(new_stored)
            write_manifest(entries, out / "manifest.jsonl")
            if stored:
                k_range = (args.k_min, args.k_max)
                tuple_seed = seed ^ 0x70B1E5
                drawn = draw_tuples(
                    stored, layout, k_range, clean_ratio, args.tuples, tuple_seed
                )
                clipped += sum(workers.map(_tuple_and_write, enumerate(drawn)))
            elif args.tuples > 0:
                log.warning(
                    "no record harvested from %d mixtures: wrote none of the "
                    "%d tuples requested",
                    args.num,
                    args.tuples,
                )

    record = {**stats.to_record(), "clipped_samples": clipped}
    (out / "stats.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser, command: str):
    """--config plus one flag per config key the command reads:
    --delta-tau-max for delta_tau_max."""
    parser.add_argument("--config", help="JSON config file")
    for key in _COMMAND_KEYS[command]:
        parser.add_argument("--" + key.replace("_", "-"), type=type(_DEFAULTS[key]))


def _add_pool_flags(parser: argparse.ArgumentParser):
    """Flags of the commands that render pool sources: synth and dataset."""
    parser.add_argument("--k-min", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=5)
    parser.add_argument("--pool", help="directory of mono WAV sources")
    parser.add_argument("--pool-size", type=int, default=8)
    parser.add_argument("--hrir-bank", help="HRIR bank file")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at least 1"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regionsep", description="Region-based binaural voice separation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="render random binaural scenes")
    _add_config_flags(p_synth, "synth")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--num-scenes", type=int, default=10)
    _add_pool_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_sep = sub.add_parser("separate", help="run selective spatial separation")
    _add_config_flags(p_sep, "separate")
    p_sep.add_argument("input", help="stereo WAV file")
    p_sep.add_argument("--out", required=True)
    p_sep.add_argument("--diagnostics", action="store_true")
    p_sep.set_defaults(func=cmd_separate)

    p_eval = sub.add_parser("eval", help="score estimates against references")
    p_eval.add_argument("--estimates", required=True)
    p_eval.add_argument("--references", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_data = sub.add_parser("dataset", help="build dirty sources and tuples")
    _add_config_flags(p_data, "dataset")
    p_data.add_argument("--out", required=True)
    p_data.add_argument("--num", type=int, default=20)
    p_data.add_argument("--tuples", type=int, default=0)
    _add_pool_flags(p_data)
    p_data.set_defaults(func=cmd_dataset)

    return parser


# glibc's mallopt parameters (malloc.h), and the one value both get: the
# largest mmap threshold that glibc accepts on 64-bit
_MALLOPT_PARAMS = (("M_MMAP_THRESHOLD", -3), ("M_TRIM_THRESHOLD", -1))
_MALLOC_THRESHOLD = 32 * 1024 * 1024


def _pin_allocator() -> None:
    """Set glibc's mmap and trim thresholds for this process and the pool
    workers it forks; log at INFO what took effect, or that nothing did."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
        mallopt = ctypes.CDLL(None).mallopt if libc.startswith("glibc") else None
    except (AttributeError, OSError, ValueError) as exc:
        libc, mallopt = str(exc), None
    if mallopt is None:
        log.info("allocator left alone: no glibc mallopt (%s)", libc or "not glibc")
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    outcomes = [
        f"{name}={_MALLOC_THRESHOLD} "
        + ("set" if mallopt(param, _MALLOC_THRESHOLD) == 1 else "refused by mallopt")
        for name, param in _MALLOPT_PARAMS
    ]
    log.info("allocator: %s (%s)", ", ".join(outcomes), libc)


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("REGION_SEP_LOG", "WARNING").upper())
    _pin_allocator()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, AudioFormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # noqa: BLE001 - surface as invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
