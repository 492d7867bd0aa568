"""run_indexed: results and the package's log records in item order with
any number of CPUs, no nested forks, the serial loop's error whatever the
shares, and a worker's error raised here with its traceback logged."""

import logging
import multiprocessing
import os
import time
from functools import partial

import pytest

from signform import forkrun
from signform.forkrun import run_indexed


def with_cpus(monkeypatch, n):
    monkeypatch.setattr(forkrun, "_usable_cpus", lambda: n)


def square_and_pid(x):
    return x * x, os.getpid()


def nested_pids(x):
    return [pid for _, pid in run_indexed(square_and_pid, [x, x + 1])]


def fails_in_worker(x):
    if x == 1:
        raise KeyError(f"item {x}")
    return x


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_in_item_order(monkeypatch, cpus):
    with_cpus(monkeypatch, cpus)
    got = run_indexed(square_and_pid, list(range(7)))
    assert [value for value, _ in got] == [x * x for x in range(7)]
    # Equal costs deal the items out in order: this process runs items 0,
    # k, 2k, ..., and each of the k - 1 workers one other residue.
    pids = [pid for _, pid in got]
    assert set(pids[::cpus]) == {os.getpid()}
    assert len(set(pids)) == cpus
    assert all(pids[i] == pids[i % cpus] for i in range(7))
    assert multiprocessing.active_children() == []


def test_nested_run_stays_in_its_process(monkeypatch):
    with_cpus(monkeypatch, 2)
    parent_task, worker_task = run_indexed(nested_pids, [0, 1])
    assert parent_task == [os.getpid()] * 2
    assert worker_task[0] == worker_task[1] != os.getpid()
    # Once the runner is done, a new one forks again.
    assert run_indexed(square_and_pid, [0, 1])[1][1] != os.getpid()


def test_worker_error_logged_with_traceback(monkeypatch, caplog):
    with_cpus(monkeypatch, 2)
    with caplog.at_level(logging.WARNING, logger=forkrun.__name__):
        with pytest.raises(KeyError, match="item 1"):
            run_indexed(fails_in_worker, [0, 1])
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "Traceback" in record.getMessage()
    assert "fails_in_worker" in record.getMessage()
    assert not forkrun._forking
    assert multiprocessing.active_children() == []


def fails_at_two_items(low, high, x):
    # The lower item fails last, so the higher one's error is known first.
    if x == low:
        time.sleep(0.2)
        raise KeyError(f"item {x}")
    if x == high:
        raise ValueError(f"item {x}")
    return x


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("low,high", [(1, 2), (2, 3)])
def test_lowest_failing_item_raises(monkeypatch, cpus, low, high):
    # Items 0-5 in equal shares: with 2 CPUs (1, 2) fail in the worker and
    # in this process, (2, 3) the other way round; with 3 CPUs (1, 2) fail
    # in two workers, and (2, 3) in a worker and in this process.
    with_cpus(monkeypatch, cpus)
    with pytest.raises(KeyError, match=f"item {low}"):
        run_indexed(partial(fails_at_two_items, low, high), list(range(6)))
    assert multiprocessing.active_children() == []


def test_each_share_runs_in_index_order(monkeypatch):
    # Costs 5, 1, 4, 2, 3 deal items 0, 3 and 1 to this process.
    with_cpus(monkeypatch, 2)
    seen = []
    got = run_indexed(lambda x: seen.append(x) or x, list(range(5)),
                      [5, 1, 4, 2, 3].__getitem__)
    assert got == list(range(5))
    assert seen == [0, 1, 3]


def logs_each_item(x):
    log = logging.getLogger("signform.tests")
    if x == 1:
        log.warning("item %d", x, exc_info=ValueError("held traceback"))
    else:
        log.info("item %d", x)
    if x == 4:
        raise KeyError(f"item {x}")
    return x


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_log_records_handled_in_item_order(monkeypatch, caplog, cpus):
    # Records reach this process's handlers in item order, up to the first
    # failing item's, as from the serial loop.
    with_cpus(monkeypatch, cpus)
    caplog.set_level(logging.INFO, logger="signform.tests")
    assert run_indexed(logs_each_item, list(range(4))) == list(range(4))
    assert [r.getMessage() for r in caplog.records] == [
        f"item {x}" for x in range(4)]
    assert "ValueError: held traceback" in caplog.text
    caplog.clear()
    with pytest.raises(KeyError, match="item 4"):
        run_indexed(logs_each_item, list(range(7)))
    assert [r.getMessage() for r in caplog.records
            if r.name == "signform.tests"] == [f"item {x}" for x in range(5)]
    assert forkrun._package.propagate


def pid_and_cpus(x):
    return os.getpid(), sorted(os.sched_getaffinity(0))


def test_each_process_runs_on_its_own_cpu(monkeypatch):
    # The shares run pinned, this process to the first usable CPU and the
    # worker to the next; afterwards this process may use them all again.
    with_cpus(monkeypatch, 2)
    cpus = sorted(os.sched_getaffinity(0))
    here, worker = run_indexed(pid_and_cpus, [0, 1])
    assert here == (os.getpid(), cpus[:1])
    assert worker[1] == [cpus[1 % len(cpus)]]
    assert sorted(os.sched_getaffinity(0)) == cpus
