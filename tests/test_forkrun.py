"""run_indexed: results in item order with any number of CPUs, no nested
forks, and a worker's error raised here with its traceback logged."""

import logging
import multiprocessing
import os

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
