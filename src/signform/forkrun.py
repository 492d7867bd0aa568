"""Independent tasks run on this process and forked workers.

`run_indexed(fn, items, cost)` returns `[fn(item) for item in items]`. With
k > 1 usable CPUs it splits the items into k shares: this process runs one
and one forked worker process runs each of the others, sending its results
back through a pipe, so the results are the same with any number of CPUs.
Fork, not spawn: a forked worker starts in about 10 ms, two spawned ones in
0.36-0.41 s. multiprocessing is imported only when a worker is forked.
"""

from __future__ import annotations

import logging
import os
import traceback

logger = logging.getLogger(__name__)

# True while this process runs a share of forked work, and so in its
# workers too: a nested run_indexed then runs here, in order, which keeps
# the processes to one per CPU.
_forking = False


def _usable_cpus() -> int:
    """How many processes may run tasks at once: the CPUs this process may
    run on, or 1 while it runs another thread. A forked child gets only a
    copy of another thread's locks, and a BLAS thread pool (present unless
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is 1) already uses the other
    CPUs: forked pools would compete for them."""
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 1
        return len(os.sched_getaffinity(0))
    except (OSError, AttributeError):  # no /proc or no sched_getaffinity
        return 1


def _fork_context():
    """The fork start method, or None where the platform has none or this
    process is daemonic (and so may start none)."""
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


def _shares(costs, n: int) -> list[list[int]]:
    """Indices split into n shares: largest cost first, each to the share
    with the least cost so far (ties to the earlier index and share)."""
    shares = [[] for _ in range(n)]
    loads = [0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        s = loads.index(min(loads))
        shares[s].append(i)
        loads[s] += costs[i]
    return shares


def _run_share(fn, items, share, conn) -> None:
    """A forked worker's share: send (None, its results), or the error that
    stopped it with its formatted traceback, back to the parent."""
    try:
        conn.send((None, [fn(items[i]) for i in share]))
    except Exception as exc:
        conn.send((exc, traceback.format_exc()))
    finally:
        conn.close()


def run_indexed(fn, items, cost=None) -> list:
    """[fn(item) for item in items], in item order.

    With k > 1 usable CPUs and fork, the items go to min(k, len(items))
    shares, split largest-first by cost(item) (equal costs when None, which
    deals the items out in order); this process runs the first share and
    one forked worker each of the others. fn must therefore depend only on
    its item: a worker's side effects, other than the files it writes, never
    reach this process. A worker's error is logged here with its traceback
    as a warning and raised with its type and message. With one CPU or one
    item, and inside another run_indexed's share, the items run here in
    order and no process starts.
    """
    global _forking
    n = 1 if _forking else min(_usable_cpus(), len(items))
    ctx = _fork_context() if n > 1 else None
    if ctx is None:
        return [fn(item) for item in items]
    shares = _shares([1 if cost is None else cost(item) for item in items], n)
    workers = []
    _forking = True
    try:
        for share in shares[1:]:
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_share,
                               args=(fn, items, share, writer))
            proc.start()
            workers.append((share, proc, reader))
            writer.close()
        results = {i: fn(items[i]) for i in shares[0]}
        for share, proc, reader in workers:
            try:
                error, got = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a forked worker exited with code {proc.exitcode} "
                    f"before sending its results") from None
            if error is not None:
                logger.warning("a forked worker failed:\n%s", got)
                raise error
            results.update(zip(share, got))
    except BaseException:
        for _, proc, _ in workers:
            proc.terminate()
        raise
    finally:
        _forking = False
        for _, proc, reader in workers:
            proc.join()
            reader.close()
    return [results[i] for i in range(len(items))]
