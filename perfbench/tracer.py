"""Span tracing around the public functions of signform's layer modules.

The program is not edited: ``install()`` wraps every public function of each
layer module and rebinds every reference to it in the loaded ``signform``
modules, so calls made through ``from .x import f`` names are traced too.
Each call records one span (id, parent, layer.function, start, end, counts)
in memory; the buffer is written to ``spans-<pid>.jsonl`` in the trace
directory when the process ends. Worker processes pick the tracer up from
``tracehook/sitecustomize.py`` under any start method: spawned and
forkserver workers install it at interpreter start, forked workers inherit
it and start an empty buffer.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"

# Layer name -> modules whose public functions are wrapped. synthbench only
# generates inputs before timing; cli, validate and seeding are not timed.
LAYERS = {
    "lexicon": ("signform.lexicon",),
    "semspace": ("signform.semspace",),
    "phonolm": ("signform.phonolm.model", "signform.phonolm.training",
                "signform.phonolm.archive"),
    "infotheory": ("signform.infotheory",),
    "stats": ("signform.stats",),
    "phonesthemes": ("signform.phonesthemes",),
    "hyperopt": ("signform.hyperopt",),
    "reports": ("signform.reports",),
    "pipeline": ("signform.pipeline",),
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_loss_and_grads(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    inputs = _arg(args, kwargs, 2, "inputs")
    mask = _arg(args, kwargs, 4, "mask")
    bsz, t_len = inputs.shape
    # Computed, not measured: GEMM FLOPs of the LSTM layers and the output
    # projection, forward (2 per multiply-add) plus backward (twice that).
    flops = 0
    for wx, wh in zip(params.wx, params.wh):
        gates, in_dim = wx.shape
        flops += 6 * bsz * t_len * gates * (in_dim + wh.shape[1])
    n_out, top = params.w_out.shape
    flops += 6 * bsz * t_len * n_out * top
    return {"tokens": float(mask.sum()), "cells": bsz * t_len,
            "flops": flops}


def _count_train(args, kwargs, result):
    return {"epochs": len(result.val_curve)}


def _count_permutation(args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "deltas"))
    n_perm = _arg(args, kwargs, 1, "n_perm", 100_000)
    return {"flips": n * n_perm}


def _count_phonestheme_test(args, kwargs, result):
    return {"samples": _arg(args, kwargs, 2, "n_samples", 100_000)}


def _count_search(args, kwargs, result):
    return {"trials": len(result.trials)}


COUNTERS = {
    "phonolm.loss_and_grads": _count_loss_and_grads,
    "phonolm.train_on_indices": _count_train,
    "stats.permutation_test": _count_permutation,
    "phonesthemes.phonestheme_test": _count_phonestheme_test,
    "hyperopt.run_search": _count_search,
}


class _Buffer:
    """This process's spans and the open-span stack of each thread."""

    def __init__(self):
        self.pid = os.getpid()
        self.run_id = os.environ.get(RUN_ID_ENV, "")
        self.spans = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.main_stack = []

    def stack(self):
        st = getattr(self.local, "stack", None)
        if st is None:
            st = (self.main_stack
                  if threading.current_thread() is threading.main_thread()
                  else [])
            self.local.stack = st
        return st


_buf = _Buffer()


def _parent(stack):
    # A pool thread's outermost call belongs to the main thread's open span
    # (run_batch waiting on its workers).
    if stack:
        return stack[-1]
    return _buf.main_stack[-1] if _buf.main_stack else None


def _wrap(fn, name):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = _buf.stack()
        parent = _parent(stack)
        sid = f"{_buf.pid}:{next(_buf.ids)}"
        stack.append(sid)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = counter(args, kwargs, result) if (ok and counter) \
                else None
            _buf.spans.append((sid, parent, name, start, end, ok, counts))

    return traced


def install() -> None:
    """Wrap every layer module's public functions and trace them."""
    originals = {}
    for layer, modnames in LAYERS.items():
        for modname in modnames:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                originals[id(obj)] = _wrap(obj, f"{layer}.{attr}")
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("signform") or mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = originals.get(id(obj))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    _register_exit_hooks()


def flush() -> None:
    """Append this process's spans to its file in the trace directory."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir or not _buf.spans:
        return
    spans, _buf.spans = _buf.spans, []
    path = os.path.join(trace_dir, f"spans-{_buf.pid}.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        for sid, parent, name, start, end, ok, counts in spans:
            fh.write(json.dumps({
                "id": sid, "parent": parent, "name": name, "start": start,
                "end": end, "ok": ok, "counts": counts, "pid": _buf.pid,
                "run": _buf.run_id}) + "\n")


def _after_fork_in_child():
    global _buf
    stack = _buf.stack()
    _buf = _Buffer()
    # Spans opened before the fork stay the parents of the child's spans.
    _buf.main_stack = list(stack)


def _register_exit_hooks():
    atexit.register(flush)
    os.register_at_fork(after_in_child=_after_fork_in_child)
    # multiprocessing's forked workers leave through os._exit, which skips
    # atexit; its finalizers still run, once registered after the fork.
    import multiprocessing.util as mp_util
    mp_util.register_after_fork(
        flush, lambda _: mp_util.Finalize(None, flush, exitpriority=100))


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans
