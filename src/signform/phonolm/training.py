"""Maximum-likelihood training of the phone LSTM with early stopping.

Mini-batch descent on bits per token with the Adam update rule; the
validation micro-average in bits per phone drives early stopping and picks
the returned parameters. Every random choice (init, shuffling, dropout)
derives from the run seed, so two runs with the same inputs produce
bitwise-identical parameters.

A fit encodes and pads its lexicon once; each batch and each epoch's
validation scoring gathers rows of those matrices. init_params draws the
initial parameters in float64 blocks straight into a DTYPE buffer, which
the fit then trains and scores in. Parameters, gradients and Adam's
moments are flat buffers of that dtype, so a step's scaling, clipping and
update are a few whole-buffer calls, with no per-step allocation the size
of the parameters. The best epoch's parameters are copied lazily: only when
a later epoch is about to step them, into one snapshot buffer, so a fit
whose last epoch is its best copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..checks import check_fields
from ..errors import DimensionMismatchError, TrainingDivergedError
from ..lexicon import Lexicon
from ..seeding import derive_rng
from .model import (
    LMConfig,
    LMParameters,
    _pad,
    _take,
    encode_signs,
    evaluate,
    init_params,
    loss_and_grads,
)

# The dtype a fit trains and scores in. Micikevicius et al. 2018, "Mixed
# precision training", train LSTM language models in float16 arithmetic over
# float32 master weights and lose no accuracy.
DTYPE = np.float32

# Elements per Adam chunk: its two scratch buffers take 128 KiB each in
# float32.
_CHUNK = 1 << 15

# Elements _clip squares at a time: its scratch takes 256 KiB in float32.
_SQ_BLOCK = 1 << 16


@dataclass(frozen=True)
class OptSettings:
    """Optimizer and schedule knobs, decoupled from the architecture."""

    lr: float = 1e-2
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = 5.0
    min_delta: float = 1e-6

    def __post_init__(self):
        check_fields(self)
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if not (self.lr > 0 and self.eps > 0):
            raise ValueError("lr and eps must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ValueError("clip_norm must be None or > 0")


@dataclass
class TrainResult:
    params: LMParameters
    train_curve: list[float] = field(default_factory=list)
    val_curve: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = float("inf")


class _Adam:
    """Adam on one flat parameter buffer, in place, chunk by chunk.

    The moments and the scratch take the parameters' dtype. Each chunk's
    temporaries go through two scratch buffers of _CHUNK elements, so a
    step allocates nothing the size of the parameters. Per
    element it computes, in this order, m = b1 m + (1 - b1) g,
    v = b2 v + ((1 - b2) g) g and p -= lr (m / bc1) / (sqrt(v / bc2) + eps).
    """

    def __init__(self, opt: OptSettings, size: int, dtype):
        self.opt = opt
        self.m = np.zeros(size, dtype=dtype)
        self.v = np.zeros(size, dtype=dtype)
        self.t = 0
        self._a = np.empty(min(size, _CHUNK), dtype=dtype)
        self._b = np.empty_like(self._a)

    def step(self, params: np.ndarray, grads: np.ndarray):
        o = self.opt
        self.t += 1
        bc1 = 1.0 - o.beta1 ** self.t
        bc2 = 1.0 - o.beta2 ** self.t
        for lo in range(0, params.size, _CHUNK):
            hi = min(lo + _CHUNK, params.size)
            g, m, vv = grads[lo:hi], self.m[lo:hi], self.v[lo:hi]
            a, b = self._a[:hi - lo], self._b[:hi - lo]
            m *= o.beta1
            np.multiply(1 - o.beta1, g, out=a)
            m += a
            vv *= o.beta2
            np.multiply(1 - o.beta2, g, out=a)
            a *= g
            vv += a
            np.divide(m, bc1, out=a)
            a *= o.lr
            np.divide(vv, bc2, out=b)
            np.sqrt(b, out=b)
            b += o.eps
            a /= b
            params[lo:hi] -= a


def _sum_sq(a: np.ndarray, scratch: np.ndarray):
    """np.sum(a * a) of a 1-D array, bit for bit, in a's dtype, squaring at
    most scratch.size elements at a time into scratch.

    numpy sums a contiguous float array pairwise: above 128 elements it
    splits n at n2 = n // 2 rounded down to a multiple of 8 and adds the
    two halves' sums. Recursing along the same splits down to pieces that
    fit scratch gives the same additions in the same order. scratch must
    hold at least 128 elements or all of a.
    """
    n = a.size
    if n <= scratch.size:
        sq = scratch[:n]
        np.multiply(a, a, out=sq)
        return sq.sum()
    n2 = n // 2
    n2 -= n2 % 8
    return _sum_sq(a[:n2], scratch) + _sum_sq(a[n2:], scratch)


def _clip(grads: dict[str, np.ndarray], flat: np.ndarray, max_norm: float):
    """Scale flat, whose views grads are, to norm at most max_norm.

    The squared norm sums one array at a time, in grads' order, each as
    np.sum(g * g) would but without a temporary the size of g, and the
    scale factor is rounded to flat's dtype before it multiplies.
    """
    scratch = np.empty(min(flat.size, _SQ_BLOCK), dtype=flat.dtype)
    total = 0.0
    for g in grads.values():
        total += float(_sum_sq(g.reshape(-1), scratch))
    norm = np.sqrt(total)
    if norm > max_norm:
        flat *= flat.dtype.type(max_norm / norm)
    return norm


def train_on_indices(lex: Lexicon, train_idx, val_idx, cfg: LMConfig,
                     opt: OptSettings, seed: int,
                     v: np.ndarray | None = None) -> TrainResult:
    """Fit the model on train_idx, early-stopping on val_idx bits/phone.

    v is an (n_signs, pca_d) matrix of compressed meaning vectors aligned
    with lex.signs, required exactly when the config conditions on meaning.
    Raises TrainingDivergedError with the offending epoch, batch, and loss
    if the objective stops being finite.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ValueError("train and validation folds must be non-empty")
    if cfg.uses_meaning:
        if v is None or len(v) != len(lex.signs):
            raise DimensionMismatchError("need one meaning vector per sign")
        v = np.asarray(v, dtype=DTYPE)
    elif v is not None:
        raise DimensionMismatchError("config does not condition on meaning")

    inventory = lex.inventory
    padded = _pad(encode_signs(lex.signs, inventory), inventory.eos_index)
    cidx_all = None
    params = init_params(cfg, len(inventory), DTYPE,
                         classes=lex.classes if cfg.uses_class else None,
                         rng=derive_rng(seed, "init"))
    if cfg.uses_class:
        cidx_all = np.array([params.class_index(s.pos) for s in lex.signs],
                            dtype=np.int64)

    val_signs = [lex.signs[i] for i in val_idx]
    val_v = v[val_idx] if cfg.uses_meaning else None
    val_padded = tuple(a[val_idx] for a in padded)

    adam = _Adam(opt, params.flat.size, DTYPE)
    grad_buf = np.empty_like(params.flat)
    result = TrainResult(params=params)
    # live_is_best: params holds the best epoch so far, not yet snapshotted.
    live_is_best, snapshot = False, None
    bad_epochs = 0
    for epoch in range(opt.max_epochs):
        if live_is_best:
            if snapshot is None:
                snapshot = params.flat.copy()
            else:
                np.copyto(snapshot, params.flat)
            live_is_best = False
        rng = derive_rng(seed, "epoch", epoch)
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_bits = 0.0
        epoch_tokens = 0.0
        for bno, lo in enumerate(range(0, order.size, opt.batch_size)):
            batch = order[lo:lo + opt.batch_size]
            inputs, targets, lengths = _take(padded, batch)
            # lengths goes positionally: perfbench's tracer counts tokens
            # from loss_and_grads' fifth positional argument.
            bits, tokens, grads = loss_and_grads(
                params, cfg, inputs, targets, lengths,
                v=v[batch] if cfg.uses_meaning else None,
                cidx=cidx_all[batch] if cidx_all is not None else None,
                drop_rng=rng if cfg.dropout > 0 else None, out=grad_buf)
            if not np.isfinite(bits):
                raise TrainingDivergedError(
                    f"non-finite loss {bits} at epoch {epoch}, batch {bno}",
                    epoch=epoch, batch=bno, loss=bits)
            epoch_bits += bits
            epoch_tokens += tokens
            grad_buf /= tokens
            if opt.clip_norm is not None:
                _clip(grads, grad_buf, opt.clip_norm)
            adam.step(params.flat, grad_buf)

        val = evaluate(params, cfg, val_signs, inventory, v=val_v,
                       padded=val_padded)
        val_bpp = sum(val.total_bits.tolist()) / int(val.token_count.sum())
        if not np.isfinite(val_bpp):
            raise TrainingDivergedError(
                f"non-finite validation loss {val_bpp} at epoch {epoch}",
                epoch=epoch, batch=-1, loss=val_bpp)
        result.train_curve.append(epoch_bits / epoch_tokens)
        result.val_curve.append(val_bpp)
        if val_bpp < result.best_val - opt.min_delta:
            result.best_val = val_bpp
            result.best_epoch = epoch
            live_is_best = True
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > opt.patience:
                break
    if not live_is_best:
        result.params = params.with_flat(snapshot)
    return result

