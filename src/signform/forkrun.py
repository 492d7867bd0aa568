"""Independent tasks run on this process and forked workers.

`run_indexed(fn, items, cost)` returns `[fn(item) for item in items]`. With
k > 1 usable CPUs it splits the items into k shares: this process runs one
and one forked worker process runs each of the others, sending its results
back through a pipe, so the results are the same with any number of CPUs.
Each share runs its items in index order. The package's log records are
held back per item and handled here in item order, and an error is the one
the serial loop would raise, that of the lowest-index failing item, so the
log is the same with any number of CPUs too.
Fork, not spawn: a forked worker starts in about 10 ms, two spawned ones in
0.36-0.41 s. multiprocessing is imported only when a worker is forked.
Each process is pinned to its own CPU while the shares run: on a 2-vCPU
VM the kernel left a forked worker on its parent's CPU, with the other CPU
idle, for the whole of a sub-second share, so the fork gained nothing.
Importing signform pins BLAS to one thread, over any caller's setting: two
threads changed archive bytes and bought 5-25% of wall time for 60-70% more
CPU. A caller that loaded numpy first keeps its pool and runs serially.
"""

from __future__ import annotations

import contextlib
import logging
import os
import traceback

logger = logging.getLogger(__name__)
# The logger of the whole package, whose records a share holds back.
_package = logging.getLogger(__name__.rpartition(".")[0])

# True while this process runs a share of forked work, and so in its
# workers too: a nested run_indexed then runs here, in order, which keeps
# the processes to one per CPU.
_forking = False


def _usable_cpus() -> int:
    """How many processes may run tasks at once: the CPUs this process may
    run on, or 1 while it runs another thread, whose locks a forked child
    would copy, such as the BLAS pool of a caller that loaded numpy first."""
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


class _Hold(logging.Handler):
    """Keeps every record that reaches it, as text, so that it pickles."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        try:
            record.msg, record.args = record.getMessage(), None
        except Exception:
            self.handleError(record)
            return
        if record.exc_info:
            record.exc_text = logging.Formatter().formatException(
                record.exc_info)
            record.exc_info = None
        self.records.append(record)


def _run_held(fn, items, share) -> tuple:
    """Run share's items in index order, holding back the package's log
    records; returns (their results, the records of each item run, the
    index of the item that stopped the share and its error, or None, None).
    """
    hold = _Hold()
    saved = _package.handlers, _package.propagate
    _package.handlers, _package.propagate = [hold], False
    results, records = [], []
    try:
        for i in share:
            hold.records = []
            records.append(hold.records)
            try:
                results.append(fn(items[i]))
            except Exception as exc:
                return results, records, i, exc
        return results, records, None, None
    finally:
        _package.handlers, _package.propagate = saved


def _pin(cpus) -> None:
    """Run this single-threaded process on the given CPUs; a set the system
    refuses is ignored, since pinning only spreads the shares."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _run_share(fn, items, share, conn, cpu) -> None:
    """A forked worker's share, on the given CPU: send _run_held's outcome,
    and the formatted traceback of its error, back to the parent."""
    _pin({cpu})
    try:
        outcome = _run_held(fn, items, share)
        error = outcome[3]
        conn.send((*outcome, None if error is None
                   else "".join(traceback.format_exception(error))))
    finally:
        conn.close()


def run_indexed(fn, items, cost=None) -> list:
    """[fn(item) for item in items], in item order.

    With k > 1 usable CPUs and fork, the items go to min(k, len(items))
    shares, split largest-first by cost(item) (equal costs when None, which
    deals the items out in order); this process runs the first share and
    one forked worker each of the others, every share in index order and
    each process on its own CPU until the shares are done. fn must
    therefore depend only on its item: a worker's side effects, other than
    the files it writes and the package's log records, never reach this
    process. Those records are handled here once every share is done,
    in item order, up to the lowest-index failing item, whose error is then
    raised with its type and message, as the serial loop would raise it;
    one from a worker is first logged here with its traceback as a warning.
    A worker that holds no item below a known failure is stopped; the
    others are awaited. With one CPU or one item, and inside another
    run_indexed's share, the items run here in order and no process starts.
    """
    global _forking
    n = 1 if _forking else min(_usable_cpus(), len(items))
    ctx = _fork_context() if n > 1 else None
    if ctx is None:
        return [fn(item) for item in items]
    shares = [sorted(share) for share in _shares(
        [1 if cost is None else cost(item) for item in items], n)]
    workers = []
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    _pin({cpus[0]})
    _forking = True
    try:
        for k, share in enumerate(shares[1:], 1):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_run_share, args=(
                fn, items, share, writer, cpus[k % len(cpus)]))
            proc.start()
            workers.append((share, proc, reader))
            writer.close()
        got, held, failed, error = _run_held(fn, items, shares[0])
        results = dict(zip(shares[0], got))
        records = dict(zip(shares[0], held))
        errors = {} if error is None else {failed: (error, None)}
        for share, proc, reader in workers:
            if errors and share[0] > min(errors):
                proc.terminate()
                continue
            try:
                got, held, failed, error, trace = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a forked worker exited with code {proc.exitcode} "
                    f"before sending its results") from None
            results.update(zip(share, got))
            records.update(zip(share, held))
            if error is not None:
                errors[failed] = error, trace
        stop = min(errors, default=len(items) - 1)
        for i in range(stop + 1):
            for record in records.get(i, ()):
                logging.getLogger(record.name).handle(record)
        if errors:
            error, trace = errors[stop]
            if trace is not None:
                logger.warning("a forked worker failed:\n%s", trace)
            raise error
    except BaseException:
        for _, proc, _ in workers:
            proc.terminate()
        raise
    finally:
        _pin(mask)
        _forking = False
        for _, proc, reader in workers:
            proc.join()
            reader.close()
    return [results[i] for i in range(len(items))]
