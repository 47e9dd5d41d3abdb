"""One workload process of the benchmark; run.py starts it, with its own arguments.

    client.py SPEC MODE T_SPAWN SECONDS RESULT

MODE is ``setup`` (import regionsep and run one warm-up operation),
``check`` (then one operation per input with the full checks),
``measure`` (then the timed closed loop for SECONDS, with file checks
only, so that the process's peak RSS is the program's) or ``trace`` (then
one traced pass over every input with the full checks and replays, and a
closed loop of alternating untraced and traced operations for SECONDS,
which gives the tracing overhead). T_SPAWN is the parent's
``time.perf_counter()`` just before it started this process, on the same
monotonic clock, so setup time counts from process start. In every mode
but ``trace``, the reference kernel is timed after set-up, and in
``measure`` also before the first operation and after each one. The
result is written as JSON to RESULT.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


class Reference:
    """The reference kernel (reference.py), run on request in a process of its own.

    ``seconds()`` runs it once while this process waits, so the two never
    compete for a core, and returns its wall time. The process is a
    child, so ``close()`` must come after this process's own rusage has
    been read, or its peak RSS would count as a worker's.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("reference.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self.proc.wait()}")
        return float(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def closed_loop(session, seconds, min_ops, max_seconds, tracers, reference=None):
    """Run operations back to back for ``seconds``; op i uses ``tracers[i % len(tracers)]``.

    The loop stops at the end of a whole cycle over the inputs (for
    workloads with ``whole_passes``) and over the tracers, so every input
    and every tracer gets the same number of operations. Returns the
    rows, and with a ``reference`` the kernel's times: one before the
    first op and one after each op, taken outside the ops' times.
    """
    period = len(tracers) * (len(session.ops) if session.workload.whole_passes else 1)
    rows = []
    refs = [reference.seconds()] if reference is not None else []
    t_0 = time.perf_counter()
    i = 0
    while True:
        seconds_op, op, _ = session.execute(i, tracers[i % len(tracers)])
        rows.append((seconds_op, op["audio_s"], session.op_cpu_s, op["key"]))
        if reference is not None:
            refs.append(reference.seconds())
        i += 1
        elapsed = time.perf_counter() - t_0
        if elapsed > max_seconds:
            break
        if elapsed >= seconds and i >= min_ops and i % period == 0:
            break
    return rows, refs


def main(argv):
    spec_path, mode, t_spawn, seconds, result_path = argv
    t_spawn, seconds = float(t_spawn), float(seconds)
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import workloads
    from tracing import NULL, Tracer

    session = workloads.Session(spec, spec["work"])
    _, _, warm_end = session.execute(0, NULL)
    result = {"mode": mode, "setup_s": warm_end - t_spawn}
    reference = Reference() if mode != "trace" else None
    try:
        rows, refs = [], []
        if reference is not None:
            # the host's speed around set-up, taken right after it
            result["setup_ref_s"] = [reference.seconds() for _ in range(3)]
        if mode == "check":
            for i in range(len(session.ops)):
                session.execute(i, NULL, full=True)
        elif mode == "measure":
            rows, refs = closed_loop(
                session, seconds, spec["min_ops"], spec["max_loop_s"], [NULL], reference
            )
        elif mode == "trace":
            # the traced pass: every input once, every output fully checked and replayed
            tracer = Tracer()
            for i in range(len(session.ops)):
                seconds_op, op, _ = session.execute(i, tracer, full=True)
                rows.append((seconds_op, op["audio_s"], session.op_cpu_s, op["key"]))
            result["spans"] = tracer.spans
            # tracing overhead: untraced and traced ops alternate, so that the
            # machine's drift affects both sides alike; these spans are dropped
            loop, _ = closed_loop(session, seconds, 0, spec["max_loop_s"], [NULL, Tracer()])
            rate = [[row[1] / row[0] for row in loop[side::2]] for side in (0, 1)]
            result["overhead_frac"] = 1.0 - statistics.median(rate[1]) / statistics.median(rate[0])

        # read before the reference process is reaped, so that it is no child here
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        if reference is not None:
            reference.close()
    result.update(
        op_times=[r[0] for r in rows],
        op_audio=[r[1] for r in rows],
        op_cpu_s=[r[2] for r in rows],
        op_keys=[r[3] for r in rows],
        op_ref_s=refs,
        maxrss_kb=max(own.ru_maxrss, kids.ru_maxrss),
        attempted=session.attempted,
        errors=session.errors,
        infos=session.infos,
        digests=session.digests,
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
