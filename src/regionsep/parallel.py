"""Seeded tasks and a pool of worker processes that runs seed-ordered maps
over them, and a small thread fan-out for work that releases the
interpreter lock.

Task ``i`` of ``seeded_tasks(n, seed)`` is ``(i, child i of
SeedSequence(seed))``, the same at any ``n`` and worker count. One
``TaskPool`` serves every stage of a command: its workers are forked once,
at its first pooled map, and the inputs every task of every stage shares
reach each worker then, through the executor's initializer. What a later
stage needs that exists only after the fork travels in its tasks. A task
writes its own output item and returns only small results (counts,
manifest lines); ``TaskPool.map`` returns them as one list, in task order,
once every task has finished. The calling process writes only the
summaries (``manifest.jsonl``, ``stats.json``).

The pool is shut down and joined when its ``with`` block exits, and
``thread_map`` joins its threads within the call, so no worker or executor
thread is alive when a later pool forks its workers (a fork while threads
run can deadlock the child).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from itertools import repeat

import numpy as np

_installed = None  # (shared,), set by the initializer in pool workers only


def seeded_tasks(n: int, seed: int) -> list:
    """``(index, seed_seq)`` of each of ``n`` tasks: child ``index`` of
    ``SeedSequence(seed)``, the package's one split of a seed."""
    return list(enumerate(np.random.SeedSequence(seed).spawn(n)))


def worker_count(jobs: int, n_tasks: int) -> int:
    """Workers to start: ``jobs``, but never more than there are tasks."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, n_tasks)


class TaskPool:
    """Worker processes for every stage of one command, inside a ``with``
    block: ``pool.map(fn, tasks)`` is ``[fn(shared, task) for task in
    tasks]``, in task order.

    ``most_tasks`` is the task count of the command's largest stage. With
    one worker (``worker_count(jobs, most_tasks)``) every map runs in this
    process. With more, the workers are forked at the first map and serve
    every later one; ``fn`` goes with each task, so it must be a
    module-level function. A task that raises cancels the tasks of its map
    that no worker has started. The block's exit shuts the workers down
    and joins them.
    """

    def __init__(self, shared, jobs: int, most_tasks: int):
        self._shared = shared
        self._n_workers = worker_count(jobs, most_tasks)
        self._executor = None

    def __enter__(self) -> "TaskPool":
        if self._n_workers > 1:
            self._executor = ProcessPoolExecutor(
                self._n_workers, initializer=_install, initargs=(self._shared,)
            )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def map(self, fn, tasks) -> list:
        if self._executor is None:
            return [fn(self._shared, task) for task in tasks]
        # a task that raises makes map's iterator cancel the unstarted ones
        return list(self._executor.map(_call_installed, repeat(fn), tasks))


def _install(shared):
    global _installed
    _installed = (shared,)


def _call_installed(fn, task):
    (shared,) = _installed
    return fn(shared, task)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def thread_map(fn, items, threaded: bool) -> list:
    """``[fn(item) for item in items]``, on up to ``min(items, usable CPUs)`` threads.

    Runs serially when ``threaded`` is false, and inside a ``TaskPool``
    worker, whose sibling workers already use the cores. Callers pass
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
