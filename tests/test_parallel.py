"""Seed-ordered map tests: worker cap, serial path, pool path; thread fan-out."""

import multiprocessing
import os
import threading
import time

import pytest

import regionsep.parallel as parallel
from regionsep.parallel import ordered_map, thread_map, worker_count


def _tag(shared, task):
    return shared, task, os.getpid()


def test_worker_count_caps_at_task_count():
    assert worker_count(8, 3) == 3
    assert worker_count(2, 12) == 2
    assert worker_count(1, 5) == 1
    assert worker_count(4, 0) == 0
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            worker_count(jobs, 5)


def test_ordered_map_rejects_bad_jobs_eagerly():
    with pytest.raises(ValueError, match="at least 1"):
        ordered_map(_tag, None, [1, 2], jobs=0)


def test_one_task_runs_in_process_whatever_jobs():
    # the cap leaves one worker for one task, so no pool is started
    (result,) = ordered_map(_tag, "shared", [7], jobs=64)
    assert result == ("shared", 7, os.getpid())
    assert list(ordered_map(_tag, "shared", [], jobs=64)) == []
    assert parallel._installed is None


def test_serial_path_keeps_task_order_and_leaves_no_state():
    calls = []

    def fn(shared, task):
        calls.append(task)
        return shared + task

    assert ordered_map(fn, 10, [1, 2, 3], jobs=1) == [11, 12, 13]
    assert calls == [1, 2, 3]
    assert parallel._installed is None


def test_pool_path_keeps_task_order_and_installs_state_in_workers_only():
    results = list(ordered_map(_tag, "shared", range(6), jobs=2))
    assert [task for _, task, _ in results] == list(range(6))
    assert all(shared == "shared" for shared, _, _ in results)
    assert os.getpid() not in {pid for _, _, pid in results}
    assert parallel._installed is None


def test_pool_path_returns_a_list_with_its_pool_shut_down():
    results = ordered_map(_tag, "shared", range(4), jobs=2)
    assert isinstance(results, list) and len(results) == 4
    assert multiprocessing.active_children() == []


def _mark_and_fail_first(started_dir, task):
    (started_dir / str(task)).touch()
    if task == 0:
        raise RuntimeError("task 0 failed")
    time.sleep(0.05)
    return task


def test_a_failing_task_cancels_the_unstarted_ones_and_shuts_the_pool_down(tmp_path):
    with pytest.raises(RuntimeError, match="task 0 failed"):
        ordered_map(_mark_and_fail_first, tmp_path, range(200), jobs=2)
    assert multiprocessing.active_children() == []
    # without the cancel, every task would have started and finished
    assert len(list(tmp_path.iterdir())) < 50
def _thread_of(item):
    return item, threading.get_ident()


def test_thread_map_keeps_order_and_runs_on_threads_only_when_asked(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    main = threading.get_ident()
    threaded = thread_map(_thread_of, range(5), threaded=True)
    assert [item for item, _ in threaded] == list(range(5))
    assert main not in {ident for _, ident in threaded}
    serial = thread_map(_thread_of, range(5), threaded=False)
    assert serial == [(item, main) for item in range(5)]
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    assert thread_map(_thread_of, range(5), threaded=True) == serial


def _fan_out_in_worker(shared, task):
    idents = {ident for _, ident in thread_map(_thread_of, range(4), threaded=True)}
    return idents == {threading.get_ident()}


def test_thread_map_runs_serially_in_pool_workers(monkeypatch):
    # pool workers are forked from this process and inherit the patch
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    assert list(ordered_map(_fan_out_in_worker, None, range(4), jobs=2)) == [True] * 4
