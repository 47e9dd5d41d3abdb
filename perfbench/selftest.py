#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about a minute on 2 cores).

    python3 perfbench/selftest.py

Checks that every workload reports every metric of BENCHMARK.json with
its unit in both modes, that both replay checks pass in the traced runs,
and that a deliberately overlapping mask pair and a truncated output file
each count as a failed operation. Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("separate-long", "harvest", "synth")


def run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench" / "results" / f"{workload}-seed5-trace{trace}.json"
    return result, json.loads(record_path.read_text())


def check_metrics(bench):
    failures = []
    for workload in WORKLOADS:
        for trace, table in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, record = run_benchmark(workload, trace)
            where = f"{workload} trace={trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: outputs failed checks: {record['errors'][:3]}")
            expected = {m["name"]: m["unit"] for m in table}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                failures.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}")
            if trace:
                if not record["trace_valid"]:
                    failures.append(f"{where}: replay check failed")
            else:
                for key in ("tail_percentile", "ops"):
                    if key not in record["timing"]:
                        failures.append(f"{where}: op_ms_tail lacks its {key}")
                if record["error_rate"] != 0:
                    failures.append(f"{where}: error_rate {record['error_rate']}")
            print(f"  {where}: {len(got)} metrics, correct={result['correct']}")
    return failures


def check_injected_faults():
    """An overlapping mask pair and a truncated output file each fail their op."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import NULL

    class OverlappingMasks(workloads.SeparateLong):
        def run(self, op, tr, out):
            res = super().run(op, tr, out)
            outcome = res["outcome"]
            mask1, mask2 = outcome.masks
            mask2 = mask2.copy()
            mask2[mask1.nonzero()[0][0], mask1.nonzero()[1][0]] = True
            res["outcome"] = dataclasses.replace(outcome, masks=(mask1, mask2))
            return res

    class TruncatedOutput(workloads.Synth):
        def run(self, op, tr, out):
            res = super().run(op, tr, out)
            wav = sorted(out.rglob("*.wav"))[0]
            wav.write_bytes(wav.read_bytes()[:-100])
            return res

    failures = []
    work = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    try:
        for fake, expect in ((OverlappingMasks, "masks overlap"), (TruncatedOutput, "file size")):
            base = fake.__mro__[1]
            wdir = work / base.name
            wdir.mkdir(parents=True)
            size = workloads.SIZES["tiny"][base.name]
            spec = {"workload": base.name, "ops": base.make_inputs(5, wdir, size)}
            session = workloads.Session(spec, wdir)
            session.execute(0, NULL)
            clean = len(session.errors)
            session.workload = fake()
            session.execute(0, NULL, full=True)
            messages = [e for entry in session.errors for e in entry["errors"]]
            if clean or len(session.errors) != 1 or not any(expect in m for m in messages):
                failures.append(f"{fake.__name__}: errors {session.errors}")
            print(f"  {fake.__name__}: counted as {len(session.errors) - clean} failed op")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return failures


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = check_metrics(bench) + check_injected_faults()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
