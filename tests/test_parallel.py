"""Task pool tests: worker cap, serial path, pool path, several maps on one
pool's workers; thread fan-out."""

import multiprocessing
import os
import threading
import time

import pytest

import regionsep.parallel as parallel
from regionsep.parallel import TaskPool, thread_map, worker_count

from helpers import count_process_starts


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
        TaskPool(None, 0, 2)


def test_one_task_runs_in_process_whatever_jobs():
    # the cap leaves one worker for one task, so no pool is started
    with TaskPool("shared", 64, 1) as pool:
        (result,) = pool.map(_tag, [7])
        assert result == ("shared", 7, os.getpid())
        assert list(pool.map(_tag, [])) == []
    assert parallel._installed is None


def test_serial_path_keeps_task_order_and_leaves_no_state():
    calls = []

    def fn(shared, task):
        calls.append(task)
        return shared + task

    with TaskPool(10, 1, 3) as pool:
        assert pool.map(fn, [1, 2, 3]) == [11, 12, 13]
    assert calls == [1, 2, 3]
    assert parallel._installed is None


def test_pool_path_keeps_task_order_and_installs_state_in_workers_only():
    with TaskPool("shared", 2, 6) as pool:
        results = list(pool.map(_tag, range(6)))
    assert [task for _, task, _ in results] == list(range(6))
    assert all(shared == "shared" for shared, _, _ in results)
    assert os.getpid() not in {pid for _, _, pid in results}
    assert parallel._installed is None


def test_pool_path_returns_a_list_with_its_pool_shut_down():
    with TaskPool("shared", 2, 4) as pool:
        results = pool.map(_tag, range(4))
    assert isinstance(results, list) and len(results) == 4
    assert multiprocessing.active_children() == []


def _double(shared, task):
    return 2 * task, os.getpid()


def test_maps_of_one_pool_run_on_the_workers_it_forked_once(monkeypatch):
    starts = count_process_starts(monkeypatch)
    with TaskPool("shared", 2, 5) as pool:
        first = pool.map(_tag, range(3))
        second = pool.map(_double, range(5))
        assert len(multiprocessing.active_children()) == 2
    assert [task for _, task, _ in first] == [0, 1, 2]
    assert [value for value, _ in second] == [0, 2, 4, 6, 8]
    pids = {pid for _, _, pid in first} | {pid for _, pid in second}
    assert len(pids) <= 2 and os.getpid() not in pids
    assert len(starts) == 2
    assert multiprocessing.active_children() == []


def _mark_and_fail_first(started_dir, task):
    (started_dir / str(task)).touch()
    if task == 0:
        raise RuntimeError("task 0 failed")
    time.sleep(0.05)
    return task


def test_a_failing_task_cancels_the_unstarted_ones_and_shuts_the_pool_down(tmp_path):
    with pytest.raises(RuntimeError, match="task 0 failed"):
        with TaskPool(tmp_path, 2, 200) as pool:
            pool.map(_mark_and_fail_first, range(200))
    assert multiprocessing.active_children() == []
    # without the cancel, every task would have started and finished
    assert len(list(tmp_path.iterdir())) < 50


def test_a_failing_task_of_a_second_map_cancels_that_maps_unstarted_tasks(tmp_path):
    with pytest.raises(RuntimeError, match="task 0 failed"):
        with TaskPool(tmp_path, 2, 200) as pool:
            assert [t for _, t, _ in pool.map(_tag, range(4))] == [0, 1, 2, 3]
            pool.map(_mark_and_fail_first, range(200))
    assert multiprocessing.active_children() == []
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
    # pool workers are forked from this process and inherit the patch;
    # None as the shared inputs still marks a worker
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    with TaskPool(None, 2, 4) as pool:
        assert list(pool.map(_fan_out_in_worker, range(4))) == [True] * 4
