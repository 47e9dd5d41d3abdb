#!/usr/bin/env python3
"""Benchmark for regionsep: one workload per run, closed loop, every output checked.

    python3 perfbench/run.py --workload separate-long --seed 20220711 --seconds 25 --trace 0

Workloads: separate-long, harvest, synth, or all three in turn with
``--workload all`` (see perfbench/README.md). With
``--trace 0`` the run reports the end-to-end metrics, with timings at
reference speed (README, "Reference speed"); with ``--trace 1``
it reports the per-layer metrics of a traced pass. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The full record, with the
environment and (when traced) every span, is written under
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 20220711
# Gain claims are confirmed on this seed too; nothing is tuned on it.
HELDOUT_SEED = 4203

# One BLAS thread per process, so `harvest` (--jobs 2) runs at most nproc
# busy threads on a 2-core machine.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

WORKLOAD_NAMES = ("separate-long", "harvest", "synth")

SETUP_RUNS = 5  # setup_s is the median over this many fresh processes
# Timings are reported at reference speed: as if the reference kernel
# (reference.py) took this long. On the 2-vCPU reference machine it takes
# 40-67 ms, as the host's speed drifts.
REF_NOMINAL_S = 0.040
# The whole run of a workload, inputs and every process included, must end
# within this margin plus --seconds.
DEADLINE_MARGIN_S = 140.0

# Spans whose absence (zero calls) is reported as "not exercised".
LAYER_SPANS = (
    "stft.forward", "stft.inverse", "features", "itd_model", "separation",
    "separation.masks", "scenes.render", "scenes.synth_scene", "audio.read",
    "audio.write", "hrir.load", "hrir.bank_build", "signals.pool", "dataset",
    "dataset.tuples", "metrics", "manifest", "cli",
)


def metric_units(trace):
    """Name -> unit of the metrics a run reports, from the checked-in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def per_layer(summary, infos, extra):
    """Per-layer metrics of a traced pass, by name."""
    from workloads import DISCARD_REASONS

    def g(span, key="calls"):
        return summary.get(span, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("stft.forward", "stft.inverse"):
        m[f"{layer}.calls"] = g(layer)
        m[f"{layer}.frames"] = g(layer, "frames")
        m[f"{layer}.busy_s"] = g(layer, "busy_s")
    m.update({
        "features.calls": g("features"),
        "features.bins": g("features", "bins"),
        "features.busy_s": g("features", "busy_s"),
        "features.itd_samples": g("features", "itd_samples"),
        "features.excluded_frac": ratio(g("features", "excluded"), g("features", "bins")),
        "itd_model.calls": g("itd_model"),
        "itd_model.busy_s": g("itd_model", "busy_s"),
        "itd_model.verdict.single": g("itd_model", "verdict_single"),
        "itd_model.verdict.two": g("itd_model", "verdict_two"),
        "itd_model.verdict.discard": g("itd_model", "verdict_discard"),
        "separation.calls": g("separation"),
        "separation.busy_s": g("separation", "busy_s"),
        "separation.self_s": g("separation.replay", "self_s"),
        "separation.masks.busy_s": g("separation.masks", "busy_s"),
        "separation.outcome.passthrough": g("separation", "outcome_passthrough"),
        "separation.outcome.separated": g("separation", "outcome_separated"),
        "separation.outcome.discarded": g("separation", "outcome_discarded"),
    })
    for reason in DISCARD_REASONS:
        m[f"separation.discard.{reason}"] = g("separation", f"discard_{reason}")
    m.update({
        "separation.alpha_decay_steps": g("separation.masks", "alpha_decay_steps"),
        "separation.peak_rss_growth_mb": g("separation", "rss_growth_mb_max"),
        "scenes.render.calls": g("scenes.render"),
        "scenes.render.busy_s": g("scenes.render", "busy_s"),
        "scenes.render.macs": g("scenes.render", "macs"),
        "scenes.synth_scene.calls": g("scenes.synth_scene"),
        "scenes.synth_scene.busy_s": g("scenes.synth_scene", "busy_s"),
        "scenes.itd_clamps": g("scenes.region_of_itd", "clamps"),
        "audio.read.calls": g("audio.read"),
        "audio.read.bytes": g("audio.read", "bytes"),
        "audio.read.busy_s": g("audio.read", "busy_s"),
        "audio.write.calls": g("audio.write"),
        "audio.write.bytes": g("audio.write", "bytes"),
        "audio.write.busy_s": g("audio.write", "busy_s"),
        "audio.write.clipped_samples": g("audio.write", "clipped"),
        "audio.sum_residual_lsb": max((i.get("residual_lsb", 0.0) for i in infos.values()), default=0.0),
        "hrir.load.calls": g("hrir.load"),
        "hrir.load.bytes": g("hrir.load", "bytes"),
        "hrir.load.busy_s": g("hrir.load", "busy_s"),
        "hrir.bank_build.busy_s": g("hrir.bank_build", "busy_s"),
        "signals.pool.sources": g("signals.pool", "sources"),
        "signals.pool.busy_s": g("signals.pool", "busy_s"),
        "dataset.mixtures": g("dataset", "mixtures"),
        "dataset.harvested_audio_s": g("dataset", "harvested_audio_s"),
        "dataset.tuples.count": g("dataset.tuples", "count"),
        "dataset.tuples.busy_s": g("dataset.tuples", "busy_s"),
        "metrics.busy_s": g("metrics", "busy_s"),
        "manifest.entries": g("manifest", "entries"),
        "cli.calls": g("cli"),
        "cli.wall_s": g("cli", "busy_s"),
        "cli.parent_cpu_s": g("cli", "parent_cpu_s"),
        "cli.worker_cpu_s": g("cli", "worker_cpu_s"),
        "cli.cpu_utilisation": ratio(
            g("cli", "parent_cpu_s") + g("cli", "worker_cpu_s"), g("cli", "wall_x_jobs")
        ),
        "cli.files_written": g("cli", "files"),
        "cli.bytes_written": g("cli", "bytes"),
    })
    m.update(extra)
    return m


# ------------------------------------------------------------ environment


def _git_commit():
    """HEAD of the checkout's git repository, read without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy

    src = hashlib.sha256()
    for p in sorted((SRC / "regionsep").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the record is informative only
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            caches.append(f"L{level}{kind[0].lower()} {size}")
        except OSError:
            pass
    return {
        "commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_model": cpu,
        "caches": caches,
    }


# -------------------------------------------------------------- processes


def run_client(mode, spec_path, seconds, work, deadline):
    """Start one workload process, wait for it, return its result."""
    result_path = work / f"result-{mode}-{time.perf_counter_ns()}.json"
    sys.stdout.flush()
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "client.py"), str(spec_path), mode,
         repr(t_spawn), repr(seconds), str(result_path)],
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} process did not finish before the deadline")
    finally:
        # the process group also holds any worker the command left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        raise RuntimeError(f"{mode} process exited with code {rc}")
    return json.loads(result_path.read_text())


# ------------------------------------------------------------ aggregation


def reference_scale(ref_s):
    """Per-op factor that turns seconds on the host into seconds at reference speed.

    ``ref_s`` holds the reference kernel's time before the first op and
    after each op, so op i lies between ``ref_s[i]`` and ``ref_s[i + 1]``;
    its factor is REF_NOMINAL_S over their mean.
    """
    return [2.0 * REF_NOMINAL_S / (a + b) for a, b in zip(ref_s, ref_s[1:])]


def timing(result):
    """Throughput, CPU and op-time statistics over a run's timed operations.

    Rates are medians over operations, so that a few operations slowed by
    the machine do not move them. Times are at reference speed where the
    run timed the reference kernel (the measuring process), and as
    measured otherwise; ``raw`` holds the same statistics as measured. The
    tail ranks op times scaled to the median input length, so that on
    inputs of several lengths it sees slow operations of every length,
    not just the longest input's; where every input has the same length
    (harvest, synth) the times are unchanged.
    """
    times, audio, cpu = result["op_times"], result["op_audio"], result["op_cpu_s"]
    n = len(times)
    refs = result["op_ref_s"]
    scale = reference_scale(refs) if refs else [1.0] * n

    def stats(times, cpu):
        length = statistics.median(audio)
        scaled = sorted(t * length / a for t, a in zip(times, audio))
        # the highest rank that still has at least ten operations beyond it
        rank = max(1, n - 10)
        return {
            "audio_s_per_s": statistics.median(a / t for a, t in zip(audio, times)),
            "cpu_s_per_audio_s": statistics.median(c / a for c, a in zip(cpu, audio)),
            "op_ms_p50": statistics.median(times) * 1000.0,
            "op_ms_tail": scaled[rank - 1] * 1000.0,
            "tail_percentile": 100.0 * rank / n,
            "ops": n,
        }

    tm = stats([t * f for t, f in zip(times, scale)], [c * f for c, f in zip(cpu, scale)])
    tm["raw"] = stats(times, cpu)
    tm["ref_ms_p50"] = statistics.median(refs) * 1000.0 if refs else None
    return tm


def quality(workload, infos):
    """snri_db and accept_rate over the distinct inputs; None where undefined."""
    snri = [v for info in infos.values() for v in info.get("snri_db", [])]
    if workload == "separate-long":
        accepted = sum(info["outcome"] != "discarded" for info in infos.values())
        accept = accepted / len(infos) if infos else None
    elif workload == "harvest":
        mixtures = sum(info["mixtures"] for info in infos.values())
        accept = sum(info["accepted"] for info in infos.values()) / mixtures if mixtures else None
    else:
        accept = None
    return {"snri_db": statistics.fmean(snri) if snri else None, "accept_rate": accept}


def merge(runs):
    """Errors, attempted count and infos of all processes; digests must agree across them."""
    errors, infos, digests = [], {}, {}
    for r in runs:
        errors += r["errors"]
        for key, info in r["infos"].items():
            infos.setdefault(key, info)
        for key, digest in r["digests"].items():
            if digests.setdefault(key, digest) != digest:
                errors.append({"key": key, "errors": ["output digest differs between processes"]})
    attempted = sum(r["attempted"] for r in runs)
    return errors, attempted, infos


def discard_counts(infos):
    counts = {}
    for info in infos.values():
        reasons = info.get("discard_reasons") or ({info["reason"]: 1} if "reason" in info else {})
        for reason, n in reasons.items():
            counts[reason] = counts.get(reason, 0) + n
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; confirm gains "
                        f"also on the held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the timed loop; the run ends within "
                        f"{DEADLINE_MARGIN_S:g} s more per workload, or fails")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # on SIGTERM, unwind through the cleanup that stops the workload process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "regionsep" / "__init__.py").is_file():
        print(f"perfbench: no regionsep sources at {SRC}", file=sys.stderr)
        return 2
    try:
        units = metric_units(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read the metric table of BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import regionsep: {exc}", file=sys.stderr)
        return 2

    records = []
    for name in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        work = STATE / f"work-{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            deadline = time.perf_counter() + DEADLINE_MARGIN_S + args.seconds
            record = measure(args, name, workloads, work, units, deadline)
        except Exception as exc:  # noqa: BLE001 - any failure of the run itself: no result
            print(f"perfbench: {name} run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        results = STATE / "results"
        results.mkdir(parents=True, exist_ok=True)
        out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        report(record, out)
        records.append(record)

    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


def measure(args, workload, workloads, work, units, deadline):
    size = workloads.SIZES[args.size][workload]
    t0 = time.perf_counter()
    ops = workloads.WORKLOADS[workload].make_inputs(args.seed, work, size)
    inputgen_s = time.perf_counter() - t0
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({
        "workload": workload,
        "src": str(SRC),
        "work": str(work),
        "ops": ops,
        "min_ops": size["min_ops"],
        "max_loop_s": args.seconds + 60.0,
    }))

    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "environment": environment(),
              "inputgen_s": inputgen_s}
    if args.trace:
        traced = run_client("trace", spec_path, args.seconds / 2.0, work, deadline)
        runs = [traced]
    else:
        # the full checks run in a process of their own, so that they add
        # nothing to the measuring process's peak RSS
        modes = ["check"] + ["setup"] * (SETUP_RUNS - 2) + ["measure"]
        runs = [run_client(mode, spec_path, args.seconds, work, deadline) for mode in modes]
    errors, attempted, infos = merge(runs)
    qual = quality(workload, infos)
    error_rate = len(errors) / attempted
    record.update(errors=errors, quality=qual, discards=discard_counts(infos),
                  infos=infos, error_rate=error_rate)

    measured = runs[-1]
    tm = timing(measured)
    if args.trace:
        from tracing import summarize

        spans = traced["spans"]
        summary = summarize(spans)
        trace_valid = not any(
            e.startswith(workloads.REPLAY) for entry in errors for e in entry["errors"]
        )
        extra = {
            "trace.overhead_frac": traced["overhead_frac"],
            "bench.inputgen_s": inputgen_s,
            "snri_db": qual["snri_db"] or 0.0,
            "accept_rate": qual["accept_rate"] or 0.0,
            "error_rate": error_rate,
        }
        metrics = per_layer(summary, infos, extra)
        absent = [
            f"{span}: not exercised by {workload}" for span in LAYER_SPANS if span not in summary
        ]
        absent += [f"{k}: undefined for {workload}" for k, v in qual.items() if v is None]
        if workload != "synth":
            absent.append("audio.sum_residual_lsb: only synth writes region files")
        record.update(trace_valid=trace_valid, absent=absent, summary=summary, spans=spans)
    else:
        trace_valid = True
        # set-up is scaled by the run's reference speed, taken over every
        # timing of the kernel in the run: one set-up is too short to pair
        # with timings of its own
        run_ref_s = statistics.median(
            [t for r in runs for t in r["setup_ref_s"]] + measured["op_ref_s"]
        )
        setup = [r["setup_s"] * REF_NOMINAL_S / run_ref_s for r in runs]
        metrics = {
            "setup_s": statistics.median(setup),
            "audio_s_per_s": tm["audio_s_per_s"],
            "op_ms_p50": tm["op_ms_p50"],
            "op_ms_tail": tm["op_ms_tail"],
            "cpu_s_per_audio_s": tm["cpu_s_per_audio_s"],
            "peak_rss_mb": measured["maxrss_kb"] / 1024.0,
        }
        record.update(setup_runs_s=setup, setup_raw_s=[r["setup_s"] for r in runs],
                      setup_ref_s=[r["setup_ref_s"] for r in runs], run_ref_s=run_ref_s,
                      op_times=measured["op_times"], op_keys=measured["op_keys"],
                      op_ref_s=measured["op_ref_s"])
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"not listed {sorted(set(metrics) - set(units))}"
        )
    record["timing"] = tm
    record["result"] = {
        "correct": not errors and trace_valid,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    return record


def report(record, path):
    env = record["environment"]
    res = record["result"]
    tm = record["timing"]
    print(f"regionsep perfbench: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']} size={record['size']}")
    print(f"  env: commit={env['commit']} src={env['src_sha256'][:12]} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"cpu={env['cpu_model']!r} caches={', '.join(env['caches'])}")
    print(f"  inputs generated in {record['inputgen_s']:.3f} s (bench.inputgen_s, not timed)")
    for name, m in res["metrics"].items():
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{tm['tail_percentile']:.1f} of {tm['ops']} ops)"
        if name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in record["setup_runs_s"]) + ")"
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}{note}")
    if not record["trace"]:
        raw = tm["raw"]
        print(f"  as measured on this host (reference kernel p50 {tm['ref_ms_p50']:.2f} ms, "
              f"nominal {REF_NOMINAL_S * 1000:g} ms): setup_s "
              f"{statistics.median(record['setup_raw_s']):.4g}, "
              + ", ".join(f"{k} {raw[k]:.6g}" for k in
                          ("audio_s_per_s", "op_ms_p50", "op_ms_tail", "cpu_s_per_audio_s")))
        qual = record["quality"]
        print(f"  {'error_rate':<40} {record['error_rate']:>16.6g} frac"
              f"  ({res['failed']} of {res['attempted']} ops failed)")
        for name, unit in (("snri_db", "dB"), ("accept_rate", "frac")):
            value = qual[name]
            shown = f"{value:>16.6g}" if value is not None else f"{'n/a':>16}"
            print(f"  {name:<40} {shown} {unit}")
        if record["discards"]:
            print(f"  discards: {record['discards']}")
    else:
        print(f"  trace valid: {record['trace_valid']}; {len(record['spans'])} spans")
        for line in record["absent"]:
            print(f"  absent: {line}")
    for entry in record["errors"][:10]:
        print(f"  FAILED {entry.get('key')}: {'; '.join(entry['errors'])[:300]}")
    print(f"  full record: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
