"""Maximum-likelihood training of the phone LSTM with early stopping.

Mini-batch descent on bits per token with the Adam update rule; the
validation micro-average in bits per phone drives early stopping and picks
the returned parameters. Every random choice (init, shuffling, dropout)
derives from the run seed, so two runs with the same inputs produce
bitwise-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionMismatchError, TrainingDivergedError
from ..lexicon import Lexicon
from ..seeding import derive_rng
from .model import (
    LMConfig,
    LMParameters,
    encode_signs,
    evaluate,
    init_params,
    loss_and_grads,
    pack_batch,
)


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


@dataclass
class TrainResult:
    params: LMParameters
    train_curve: list[float] = field(default_factory=list)
    val_curve: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val: float = float("inf")


class _Adam:
    def __init__(self, opt: OptSettings):
        self.opt = opt
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: LMParameters, grads: dict[str, np.ndarray]):
        o = self.opt
        self.t += 1
        bc1 = 1.0 - o.beta1 ** self.t
        bc2 = 1.0 - o.beta2 ** self.t
        for name, arr in params.named_arrays():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m = self.m[name]
            vv = self.v[name]
            m *= o.beta1
            m += (1 - o.beta1) * g
            vv *= o.beta2
            vv += (1 - o.beta2) * g * g
            arr -= o.lr * (m / bc1) / (np.sqrt(vv / bc2) + o.eps)


def _clip(grads: dict[str, np.ndarray], max_norm: float):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
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
        v = np.asarray(v, dtype=np.float64)
    elif v is not None:
        raise DimensionMismatchError("config does not condition on meaning")

    inventory = lex.inventory
    encoded = encode_signs(lex.signs, inventory)
    cidx_all = None
    params = init_params(cfg, len(inventory),
                         classes=lex.classes if cfg.uses_class else None,
                         rng=derive_rng(seed, "init"))
    if cfg.uses_class:
        cidx_all = np.array([params.class_index(s.pos) for s in lex.signs],
                            dtype=np.int64)

    val_signs = [lex.signs[i] for i in val_idx]
    val_v = v[val_idx] if cfg.uses_meaning else None

    adam = _Adam(opt)
    result = TrainResult(params=params.copy())
    bad_epochs = 0
    for epoch in range(opt.max_epochs):
        rng = derive_rng(seed, "epoch", epoch)
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_bits = 0.0
        epoch_tokens = 0.0
        for bno, lo in enumerate(range(0, order.size, opt.batch_size)):
            batch = order[lo:lo + opt.batch_size]
            inputs, targets, mask = pack_batch([encoded[i] for i in batch],
                                               inventory.eos_index)
            bits, tokens, grads = loss_and_grads(
                params, cfg, inputs, targets, mask,
                v=v[batch] if cfg.uses_meaning else None,
                cidx=cidx_all[batch] if cidx_all is not None else None,
                drop_rng=rng if cfg.dropout > 0 else None)
            if not np.isfinite(bits):
                raise TrainingDivergedError(
                    f"non-finite loss {bits} at epoch {epoch}, batch {bno}",
                    epoch=epoch, batch=bno, loss=bits)
            epoch_bits += bits
            epoch_tokens += tokens
            for g in grads.values():
                g /= tokens
            if opt.clip_norm is not None:
                _clip(grads, opt.clip_norm)
            adam.step(params, grads)

        val = evaluate(params, cfg, val_signs, inventory, v=val_v)
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
            result.params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > opt.patience:
                break
    return result

