"""Seeded tasks and a seed-ordered map over them, serially or in a process
pool, and a small thread fan-out for work that releases the interpreter lock.

Task ``i`` of ``seeded_tasks(n, seed)`` is ``(i, child i of
SeedSequence(seed))``, the same at any ``n`` and worker count. The inputs
every task shares reach each pool worker once, through the executor's
initializer. A task writes its own output item and returns only small
results (counts, manifest lines); ``ordered_map`` returns them as one list,
in task order, once every task has finished. The calling process writes
only the summaries (``manifest.jsonl``, ``stats.json``).

``ordered_map`` shuts its pool down, and ``thread_map`` joins its threads,
within the call, so no worker or executor thread is alive when a later
``ordered_map`` forks its pool workers (a fork while threads run can
deadlock the child).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

_installed = None  # (fn, shared), set by the initializer in pool workers only


def seeded_tasks(n: int, seed: int) -> list:
    """``(index, seed_seq)`` of each of ``n`` tasks: child ``index`` of
    ``SeedSequence(seed)``, the package's one split of a seed."""
    return list(enumerate(np.random.SeedSequence(seed).spawn(n)))


def worker_count(jobs: int, n_tasks: int) -> int:
    """Workers to start: ``jobs``, but never more than there are tasks."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, n_tasks)


def ordered_map(fn, shared, tasks, jobs: int = 1) -> list:
    """``[fn(shared, task) for task in tasks]``, in task order.

    With one worker the calls run in this process. With more, they run in
    a process pool that is shut down before this returns; a task that
    raises cancels the tasks no worker has started.
    """
    tasks = list(tasks)
    n_workers = worker_count(jobs, len(tasks))
    if n_workers <= 1:
        return [fn(shared, task) for task in tasks]
    return _pooled(fn, shared, tasks, n_workers)


def _pooled(fn, shared, tasks, n_workers) -> list:
    # a task that raises makes map's iterator cancel the unstarted ones
    with ProcessPoolExecutor(
        n_workers, initializer=_install, initargs=(fn, shared)
    ) as executor:
        return list(executor.map(_call_installed, tasks))


def _install(fn, shared):
    global _installed
    _installed = (fn, shared)


def _call_installed(task):
    fn, shared = _installed
    return fn(shared, task)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def thread_map(fn, items, threaded: bool) -> list:
    """``[fn(item) for item in items]``, on up to ``min(items, usable CPUs)`` threads.

    Runs serially when ``threaded`` is false, and inside an ``ordered_map``
    pool worker, whose sibling workers already use the cores. Callers pass
    ``threaded`` false for small work: ``separate()`` on a recording that
    fits in one frame block spends a few milliseconds per transform, and
    ``regionsep dataset --jobs 1`` on 4 s mixtures ran slower on threads
    than serially on a two-CPU machine. ``fn`` should spend its time in
    NumPy calls that release the interpreter lock, and fill whole-recording
    arrays the calling thread allocated rather than allocate them: memory
    freed by a worker thread stays in that thread's allocator arena and
    inflates the process's resident size. Temporaries of a few MB per
    block cost little: ``istft_many``'s whole-block inversions, about 4 MB
    per thread, raise the peak RSS of ``separate()`` on 30-120 s
    recordings by about 6 MB on two CPUs.
    """
    items = list(items)
    n_threads = min(len(items), usable_cpus())
    if not threaded or n_threads <= 1 or _installed is not None:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(n_threads) as executor:
        return list(executor.map(fn, items))
