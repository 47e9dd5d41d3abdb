"""Command-line pipeline: scene synthesis, separation, evaluation, datasets.

Every command is a pure function of its inputs, config, and seed; reruns
produce checksum-identical output trees. All randomness is split from one
top-level seed, and --jobs (at least 1) only parallelizes across
independent scenes, mixtures or training tuples. The inputs every job
shares (source pool, HRIR bank, configs) go to each worker process once; a
job carries only its index and seed. ``synth`` writes each scene in this
process, in seed order, as it arrives. ``dataset``'s harvest workers write
their own mixtures' WAVs and put the harvested samples in a private sample
store under ``--out``, returning only each record's labels and location;
this process writes the manifest in seed order, maps the store once per
file, and the tuple workers it forks read the records they draw from those
maps. The store is removed when the command ends.

Exit codes: 0 success (including discards), 2 config error, 3 I/O error,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
from contextlib import closing
from pathlib import Path

import numpy as np

from .audio import AudioFormatError, BinauralSignal, read_wav, write_wav
from .dataset import (
    PROVENANCE_SINGLE,
    DirtyBuildStats,
    SourceRecord,
    StoredRecord,
    draw_training_tuple,
    harvest_mixture,
    harvest_tasks,
    load_records,
    outcome_records,
    plan_training_tuples,
    store_records,
)
from .hrir import load_hrir_bank
from .manifest import ManifestEntry, write_manifest
from .metrics import evaluate_regions
from .parallel import ordered_map
from .scenes import (
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
# keys with a flag on every command but eval; only dataset takes --clean-ratio
_FLAG_KEYS = tuple(key for key in _DEFAULTS if key != "clean_ratio")


def _load_params(args) -> dict:
    """File values under CLI flags under built-in defaults, each typed like
    its default (the flags are typed so by argparse)."""
    params = dict(_DEFAULTS)
    if getattr(args, "config", None):
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            try:
                params[key] = type(_DEFAULTS[key])(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            params[key] = flag
    if params["seed"] < 0:
        raise ConfigError(f"--seed must be at least 0, got {params['seed']}")
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
    """Reject a bad --jobs, k range or negative count of synth/dataset; return jobs.

    ``counts`` are the dests of the command's count flags.
    """
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if not 1 <= args.k_min <= args.k_max:
        raise ConfigError(
            f"need 1 <= --k-min <= --k-max, got {args.k_min} and {args.k_max}"
        )
    for dest in counts:
        if getattr(args, dest) < 0:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} must be at least 0, got {getattr(args, dest)}")
    return args.jobs


def _load_pool(args, params: dict, cfg: SeparationConfig, min_sources: int) -> dict:
    """WAV directory if given, else a seeded synthetic band-noise pool."""
    if getattr(args, "pool", None):
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
    """The --duration in seconds, if it gives at least ``min_samples`` samples."""
    duration = params["duration"]
    rate = cfg.stft.sample_rate
    if not (math.isfinite(duration) and round(duration * rate) >= min_samples):
        raise ConfigError(
            f"--duration {duration} gives fewer than {min_samples} samples at {rate} Hz"
        )
    return duration


def _check_rate(what: str, rate: int, cfg: SeparationConfig) -> None:
    if rate != cfg.stft.sample_rate:
        raise ConfigError(f"{what} rate {rate} != --sample-rate {cfg.stft.sample_rate}")


def _load_bank(args, cfg: SeparationConfig):
    if getattr(args, "hrir_bank", None):
        bank = load_hrir_bank(args.hrir_bank)
        _check_rate(f"HRIR bank {args.hrir_bank}", bank.sample_rate, cfg)
        return bank
    azimuths = np.arange(0.0, 360.0, 5.0)
    return make_spherical_bank(
        azimuths, delta_tau_max=cfg.delta_tau_max, sample_rate=cfg.stft.sample_rate
    )


def _write_regions(out_dir: Path, mixture, regions) -> int:
    """Write mixture.wav and region_N.wav; return the samples clipped."""
    out_dir.mkdir(parents=True, exist_ok=True)
    clipped = write_wav(mixture, out_dir / "mixture.wav")
    for i, sig in enumerate(regions, start=1):
        clipped += write_wav(sig, out_dir / f"region_{i}.wav")
    return clipped


def _synth_one(shared, task):
    """Render one random scene. Returns (index, spec, mixture set)."""
    layout, k_range, duration, pool, bank, memo = shared
    index, seed_seq = task
    scene_seed = int(seed_seq.generate_state(1)[0])
    spec = random_scene(
        k_range, layout, bank, sorted(pool), seed=scene_seed, duration=duration
    )
    return index, spec, synth_scene(spec, bank, layout, pool, memo)


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
    shared = (default_layout_r3(), k_range, duration, pool, bank, memo)
    root = np.random.SeedSequence(params["seed"])
    tasks = enumerate(root.spawn(args.num_scenes))
    clipped = 0
    with closing(ordered_map(_synth_one, shared, tasks, jobs)) as results:
        for index, spec, mixture_set in results:
            sdir = out / f"scene_{index:04d}"
            clipped += _write_regions(
                sdir, mixture_set.mixture, mixture_set.region_signals
            )
            (sdir / "scene.json").write_text(spec.to_json() + "\n")
    log.info(
        "wrote %d scenes to %s; %d samples clipped", args.num_scenes, out, clipped
    )
    return EXIT_OK


def cmd_separate(args) -> int:
    params = _load_params(args)
    cfg = _separation_config(params)
    signal = read_wav(args.input)
    if not isinstance(signal, BinauralSignal):
        raise ConfigError("separate requires a stereo input file")
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
    names = ["passthrough.wav"] if len(records) == 1 else ["source1.wav", "source2.wav"]
    entries = []
    clipped = 0
    for name, rec in zip(names, records):
        clipped += write_wav(rec.signal, out / name)
        entries.append(_record_entry(name, rec))
    log.info("wrote %d files to %s; %d samples clipped", len(records), out, clipped)
    if isinstance(outcome, Discarded):
        entries.append(_discard_entry(outcome.reason, source_id))
    elif isinstance(outcome, Separated) and args.diagnostics:
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


def _record_entry(name: str, rec: SourceRecord | StoredRecord) -> ManifestEntry:
    """The manifest line of a record written as ``name``."""
    outcome = "passthrough" if rec.provenance == PROVENANCE_SINGLE else "separated"
    return ManifestEntry(name, rec.itd, rec.region, outcome, rec.origin_scene)


def _discard_entry(reason: str, source_id: str) -> ManifestEntry:
    return ManifestEntry("", None, None, f"discarded:{reason}", source_id)


def _read_binaural(path: Path) -> BinauralSignal:
    signal = read_wav(path)
    if not isinstance(signal, BinauralSignal):
        raise AudioFormatError(f"{path} is not stereo")
    return signal


def cmd_eval(args) -> int:
    refs_root = Path(args.references)
    est_root = Path(args.estimates)
    lines = []
    for scene_dir in sorted(p for p in refs_root.iterdir() if p.is_dir()):
        mixture_path = scene_dir / "mixture.wav"
        mixture = _read_binaural(mixture_path)
        region_paths = sorted(scene_dir.glob("region_*.wav"))
        if not region_paths:
            raise AudioFormatError(f"{scene_dir} holds no region_N.wav reference")
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


def _harvest_name(index: int, j: int) -> str:
    return f"mix{index:05d}_{j}.wav"


def _harvest_and_write(shared, task):
    """Harvest one mixture, write its records' WAVs and append their samples
    to this process's file of the sample store.

    Returns ``(index, stored records, discard_reason, samples clipped)``.
    """
    pool, bank, cfg, out, store = shared
    index, records, discard_reason = harvest_mixture(pool, bank, cfg, *task)
    clipped = 0
    for j, rec in enumerate(records):
        clipped += write_wav(rec.signal, out / _harvest_name(index, j))
    stored = store_records(records, store / f"{os.getpid()}.f64")
    return index, stored, discard_reason, clipped


def _tuple_and_write(shared, t: int) -> int:
    """Draw training tuple ``t`` and write its directory; return the samples clipped."""
    plan, out = shared
    tup = draw_training_tuple(plan, t)
    tdir = out / f"tuple_{t:04d}"
    clipped = _write_regions(tdir, tup.mixture, tup.references)
    meta = {"active": list(tup.active), "provenances": list(tup.provenances)}
    (tdir / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    return clipped


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # each task writes its own WAVs and samples, in a pool worker when
    # jobs > 1; this process keeps the manifest, the records' labels and
    # the counts
    seed = params["seed"]
    stats = DirtyBuildStats()
    clipped = 0  # samples clipped to full scale in every WAV written, tuples too
    with tempfile.TemporaryDirectory(dir=out, prefix=".samples-") as store:
        store = Path(store)
        tasks = harvest_tasks(args.num, seed)
        shared = (pool, bank, cfg, out, store)
        results = ordered_map(_harvest_and_write, shared, tasks, jobs)
        stored = []
        with closing(results), open(out / "manifest.jsonl", "w") as manifest:
            for index, new_stored, discard_reason, new_clipped in results:
                stats.add(new_stored, discard_reason)
                clipped += new_clipped
                entries = []
                if discard_reason is not None:
                    entries.append(_discard_entry(discard_reason, f"mix{index:05d}"))
                for j, rec in enumerate(new_stored):
                    entries.append(_record_entry(_harvest_name(index, j), rec))
                manifest.writelines(e.to_json() + "\n" for e in entries)
                stored.extend(new_stored)
        if args.tuples > 0 and stored:
            clipped += _write_tuples(args, out, clean_ratio, seed, stored, store)

    record = {**stats.to_record(), "clipped_samples": clipped}
    (out / "stats.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    return EXIT_OK


def _write_tuples(
    args, out: Path, clean_ratio: float, seed: int, stored: list, store: Path
) -> int:
    """Draw and write the training tuples from the stored records, mapped
    here once per store file; return the samples clipped. The maps close
    when this returns, before the store is removed."""
    plan = plan_training_tuples(
        load_records(stored, store),
        default_layout_r3(),
        (args.k_min, args.k_max),
        clean_ratio,
        args.tuples,
        seed=seed ^ 0x70B1E5,
    )
    # the harvest pool is shut down, so no executor thread runs at this fork,
    # and the forked workers inherit the maps
    results = ordered_map(_tuple_and_write, (plan, out), range(args.tuples), args.jobs)
    with closing(results):
        return sum(results)


def _add_config_flags(parser: argparse.ArgumentParser, keys=_FLAG_KEYS):
    """--config plus one flag per config key: --delta-tau-max for delta_tau_max."""
    parser.add_argument("--config", help="JSON config file")
    for key in keys:
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
    _add_config_flags(p_synth)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--num-scenes", type=int, default=10)
    _add_pool_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_sep = sub.add_parser("separate", help="run selective spatial separation")
    _add_config_flags(p_sep)
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
    _add_config_flags(p_data, keys=_DEFAULTS)
    p_data.add_argument("--out", required=True)
    p_data.add_argument("--num", type=int, default=20)
    p_data.add_argument("--tuples", type=int, default=0)
    _add_pool_flags(p_data)
    p_data.set_defaults(func=cmd_dataset)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("REGION_SEP_LOG", "WARNING").upper())
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
