"""Seed-ordered map over independent tasks, serially or in a process pool.

The inputs every task shares (source pool, HRIR bank, configs) reach each
pool worker once, through the executor's initializer, so a task carries
only its own small arguments, typically ``(index, SeedSequence)``. Results
are yielded in task order as they arrive, so the caller can write output
while the workers keep computing.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

_installed = None  # (fn, shared), set by the initializer in pool workers only


def worker_count(jobs: int, n_tasks: int) -> int:
    """Workers to start: ``jobs``, but never more than there are tasks."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    return min(jobs, n_tasks)


def ordered_map(fn, shared, tasks, jobs: int = 1):
    """Iterator over ``fn(shared, task)`` for every task, in task order.

    With one worker the calls run lazily in this process. Closing the
    iterator early cancels the tasks that no worker has started.
    """
    tasks = list(tasks)
    n_workers = worker_count(jobs, len(tasks))
    if n_workers <= 1:
        return (fn(shared, task) for task in tasks)
    return _pooled(fn, shared, tasks, n_workers)


def _pooled(fn, shared, tasks, n_workers):
    executor = ProcessPoolExecutor(
        n_workers, initializer=_install, initargs=(fn, shared)
    )
    try:
        yield from executor.map(_call_installed, tasks)
    finally:
        executor.shutdown(cancel_futures=True)


def _install(fn, shared):
    global _installed
    _installed = (fn, shared)


def _call_installed(task):
    fn, shared = _installed
    return fn(shared, task)
