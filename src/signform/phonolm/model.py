"""Phone-level LSTM language model with optional meaning/class conditioning.

Pure numpy. Words are scored phone by phone: the input at step t is the
embedding of the previous phone (the end marker doubles as the start-of-word
input), the output is a softmax over the inventory, and the end marker is
predicted as the final token. Conditioning enters as the initial recurrent
state of the first layer.

The LSTM runs on a packed, time-major layout, as PyTorch's PackedSequence:
a batch's rows are sorted by length (stable, longest first) and every
per-cell array is (n_cells, .), with step t holding the rows still inside
their word as one contiguous block. Padding cells are never computed. Per
layer, the input projection is one GEMM over all cells and each step adds
only the recurrent GEMM over its active rows; the four gates go through one
tanh; the backward pass builds each weight gradient from one GEMM over all
cells.

The parameter tensors are views into one flat buffer, laid out by
param_shapes alone, and so are the gradients loss_and_grads returns, so the
optimizer can update them with a few whole-buffer calls. Signs are padded
once into (inputs, targets, lengths) matrices (_pad); a batch is a row
gather and a cut to its longest row (_take), the same for training and
evaluation. Those per-row lengths are the only description of a batch:
the kernel packs its cells from them.

Every array the kernel makes takes the parameter buffer's dtype: a training
fit runs it in float32, and a float64 buffer from init_params runs the same
code in float64. Code lengths are summed and returned in float64 either way.

Everything here is deterministic given the parameter values; all sampling
(init, dropout) flows through generators passed in by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..checks import check_fields
from ..errors import (
    DimensionMismatchError,
    OddHiddenSplitError,
    SignSetMismatchError,
    UnknownClassError,
    UnknownPhoneError,
)
from ..lexicon import PhoneInventory

LN2 = float(np.log(2.0))

CONDITION_MODES = ("nothing", "meaning", "class", "meaning_and_class")

# Values init_params draws at a time: its float64 scratch takes 256 KiB.
_INIT_BLOCK = 1 << 15

# Rows evaluate scores at a time; its code lengths do not depend on it.
EVAL_BATCH = 256


@dataclass(frozen=True)
class LMConfig:
    """Architecture and conditioning choices for one language model."""

    layers: int = 1
    hidden_size: int = 32
    phone_embed_size: int = 16
    dropout: float = 0.0
    pca_d: int = 8
    condition_on: str = "nothing"

    def __post_init__(self):
        check_fields(self)
        if self.layers < 1 or self.hidden_size < 1 or self.phone_embed_size < 1:
            raise ValueError("layer and size fields must be >= 1")
        if self.pca_d < 1:
            raise ValueError("pca_d must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if self.condition_on not in CONDITION_MODES:
            raise ValueError(f"condition_on must be one of {CONDITION_MODES}")

    @property
    def uses_meaning(self) -> bool:
        return self.condition_on in ("meaning", "meaning_and_class")

    @property
    def uses_class(self) -> bool:
        return self.condition_on in ("class", "meaning_and_class")

    def half_size(self) -> int:
        if self.hidden_size % 2 != 0:
            raise OddHiddenSplitError(
                f"hidden_size {self.hidden_size} cannot split into halves")
        return self.hidden_size // 2

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "layers", "hidden_size", "phone_embed_size", "dropout", "pca_d",
            "condition_on")}

    @classmethod
    def from_dict(cls, d: dict) -> "LMConfig":
        return cls(**d)


def param_shapes(cfg: LMConfig, n_phones: int,
                 n_classes: int) -> dict[str, tuple[int, ...]]:
    """Every parameter tensor's shape by name, in the flat buffer's order.

    The one statement of the layout: init_params allocates it, archives
    are checked against it, and LMParameters cuts its buffer by it.
    n_classes matters only to class conditioning, which needs at least one.
    """
    h, e = cfg.hidden_size, cfg.phone_embed_size
    shapes = {"embed": (n_phones, e)}
    for l in range(cfg.layers):
        shapes[f"wx{l}"] = (4 * h, e if l == 0 else h)
        shapes[f"wh{l}"] = (4 * h, h)
        shapes[f"b{l}"] = (4 * h,)
    shapes["w_out"], shapes["b_out"] = (n_phones, h), (n_phones,)
    if cfg.uses_meaning:
        out = cfg.half_size() if cfg.uses_class else h
        shapes["w_v"], shapes["b_v"] = (out, cfg.pca_d), (out,)
    if cfg.uses_class:
        if n_classes < 1:
            raise UnknownClassError("class conditioning needs class labels")
        out = cfg.half_size() if cfg.uses_meaning else h
        shapes["class_embed"] = (n_classes, out)
    return shapes


@dataclass(eq=False)
class LMParameters:
    """All trainable tensors. Gate order in the fused arrays is i, f, g, o.

    flat is one float32 or float64 buffer laid out by shapes, as
    param_shapes gives it; every tensor attribute is a view into it, so a
    write to flat is a write to the tensors.
    """

    flat: np.ndarray
    shapes: dict[str, tuple[int, ...]]
    classes: tuple[str, ...] | None = None
    embed: np.ndarray = field(init=False, repr=False)
    wx: list[np.ndarray] = field(init=False, repr=False)
    wh: list[np.ndarray] = field(init=False, repr=False)
    b: list[np.ndarray] = field(init=False, repr=False)
    w_out: np.ndarray = field(init=False, repr=False)
    b_out: np.ndarray = field(init=False, repr=False)
    w_v: np.ndarray | None = field(init=False, repr=False)
    b_v: np.ndarray | None = field(init=False, repr=False)
    class_embed: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        views = self.views(self.flat)
        layers = range(sum(name.startswith("wx") for name in views))
        self.wx, self.wh, self.b = ([views[f"{stack}{l}"] for l in layers]
                                    for stack in ("wx", "wh", "b"))
        for name in ("embed", "w_out", "b_out", "w_v", "b_v", "class_embed"):
            setattr(self, name, views.get(name))

    @classmethod
    def zeros(cls, shapes: dict[str, tuple[int, ...]],
              classes: tuple[str, ...] | None, dtype) -> "LMParameters":
        """Parameters of this layout with every tensor zero."""
        return cls(np.zeros(sum(math.prod(s) for s in shapes.values()),
                            dtype=dtype), shapes, classes)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Arrays of shapes, one after another in flat."""
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        if flat.shape != (sum(sizes),):
            raise ValueError(f"buffer of shape {flat.shape} for a layout of "
                             f"{sum(sizes)} values")
        out, lo = {}, 0
        for (name, shape), size in zip(self.shapes.items(), sizes):
            out[name] = flat[lo:lo + size].reshape(shape)
            lo += size
        return out

    def named_arrays(self):
        """(name, tensor) pairs in buffer order."""
        return self.views(self.flat).items()

    def with_flat(self, flat: np.ndarray) -> "LMParameters":
        """Parameters of this layout and class table whose buffer is flat."""
        return replace(self, flat=flat)

    def copy(self) -> "LMParameters":
        return self.with_flat(self.flat.copy())

    def class_index(self, label: str) -> int:
        if self.classes is None:
            raise UnknownClassError("model has no class table")
        try:
            return self.classes.index(label)
        except ValueError:
            raise UnknownClassError(f"unknown class label {label!r}") from None


def init_params(cfg: LMConfig, n_phones: int, dtype,
                classes: tuple[str, ...] | None = None,
                rng: np.random.Generator | None = None) -> LMParameters:
    """Initialize parameters uniform in +-1/sqrt(fan-in), forget bias +1.

    The buffer of dtype is laid out by param_shapes and zeroed, and each
    tensor is drawn in the order wx0, wh0, ..., w_v, class_embed, embed,
    w_out. The draws are made in float64, _INIT_BLOCK values at a time, and
    each block is cast once into the buffer, so every dtype gets the
    float64 draw rounded once.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    params = LMParameters.zeros(
        param_shapes(cfg, n_phones, len(classes or ())),
        tuple(classes) if classes is not None else None, dtype)
    views = dict(params.named_arrays())
    scratch = np.empty(min(params.flat.size, _INIT_BLOCK))

    def uniform(name):
        # rng.uniform(-bound, bound, shape), computed as it computes it:
        # low + (high - low) * u. Every drawn tensor's fan-in is its
        # second axis. Blocked draws read the stream as one draw would.
        view = views[name]
        bound = 1.0 / np.sqrt(view.shape[1])
        out = view.reshape(-1)
        for lo in range(0, out.size, _INIT_BLOCK):
            block = scratch[:min(_INIT_BLOCK, out.size - lo)]
            rng.random(out=block)
            block *= bound - (-bound)
            block += -bound
            out[lo:lo + block.size] = block

    h = cfg.hidden_size
    for l in range(cfg.layers):
        uniform(f"wx{l}")
        uniform(f"wh{l}")
        views[f"b{l}"][h:2 * h] = 1.0
    for name in ("w_v", "class_embed", "embed", "w_out"):
        if name in views:
            uniform(name)
    return params


def _h0_batch(cfg: LMConfig, params: LMParameters,
              v: np.ndarray | None, cidx: np.ndarray | None,
              batch: int) -> np.ndarray:
    """Initial-state vectors (batch, hidden) from conditioning inputs."""
    h = cfg.hidden_size
    if cfg.condition_on == "nothing":
        if v is not None or cidx is not None:
            raise DimensionMismatchError("unconditional model got inputs")
        return np.zeros((batch, h), dtype=params.flat.dtype)
    if cfg.uses_meaning:
        if v is None:
            raise DimensionMismatchError("meaning conditioning needs vectors")
        v = np.asarray(v, dtype=params.flat.dtype)
        if v.shape != (batch, cfg.pca_d):
            raise DimensionMismatchError(
                f"meaning batch shape {v.shape} != ({batch}, {cfg.pca_d})")
    elif v is not None:
        raise DimensionMismatchError("model does not condition on meaning")
    if cfg.uses_class:
        if cidx is None:
            raise UnknownClassError("class conditioning needs class indices")
        cidx = np.asarray(cidx, dtype=np.int64)
        if np.any(cidx < 0) or np.any(cidx >= params.class_embed.shape[0]):
            raise UnknownClassError("class index out of range")
    elif cidx is not None:
        raise UnknownClassError("model does not condition on class")

    if cfg.condition_on == "meaning":
        return v @ params.w_v.T + params.b_v
    if cfg.condition_on == "class":
        return params.class_embed[cidx]
    cfg.half_size()
    return np.concatenate([params.class_embed[cidx],
                           v @ params.w_v.T + params.b_v], axis=1)


def _h0_backward(cfg: LMConfig, params: LMParameters, grads: dict,
                 dh0: np.ndarray, v: np.ndarray | None,
                 cidx: np.ndarray | None):
    if cfg.condition_on == "nothing":
        return
    if cfg.condition_on == "meaning":
        grads["w_v"] += dh0.T @ v
        grads["b_v"] += dh0.sum(axis=0)
        return
    if cfg.condition_on == "class":
        np.add.at(grads["class_embed"], cidx, dh0)
        return
    half = cfg.half_size()
    np.add.at(grads["class_embed"], cidx, dh0[:, :half])
    grads["w_v"] += dh0[:, half:].T @ v
    grads["b_v"] += dh0[:, half:].sum(axis=0)


def _dropout_scale(rng, shape, p, dtype):
    """Each cell's inverted-dropout factor: 0 with probability p, else
    1 / (1 - p)."""
    return np.divide(rng.random(shape) >= p, 1.0 - p, dtype=dtype)


@dataclass(frozen=True)
class _Packing:
    """Packed, time-major cell layout of one batch.

    Rows are sorted by length, longest first (stable); step t holds the
    sizes[t] rows still inside their word as cells offsets[t]:offsets[t+1],
    always a prefix of step t-1's rows. cells maps each packed cell to its
    flat index row * T + t in the (batch, T) arrays, and prev maps each cell
    of steps t >= 1 to the cell before it in the same row.
    """

    order: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray
    cells: np.ndarray
    prev: np.ndarray

    def gather(self, arr: np.ndarray) -> np.ndarray:
        """Packed cells of a (batch, T, ...) array."""
        return arr.reshape((-1,) + arr.shape[2:])[self.cells]


def _pack(lengths: np.ndarray, t_len: int) -> _Packing:
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    # live[t, j]: the j-th longest row is inside its word at step t. Each
    # step's live rows are a prefix, so nonzero's (t, j) pairs, in step
    # order, are the packed cells.
    live = lengths[order] > np.arange(lengths.max(initial=0))[:, None]
    sizes = np.count_nonzero(live, axis=1)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    t, j = np.nonzero(live)
    cells = order[j] * t_len + t
    n0 = int(sizes[0]) if sizes.size else 0
    prev = offsets[t[n0:] - 1] + j[n0:]
    return _Packing(order, sizes, offsets, cells, prev)


def _lstm_forward(params: LMParameters, cfg: LMConfig, inputs: np.ndarray,
                  pk: _Packing, v: np.ndarray | None,
                  cidx: np.ndarray | None,
                  drop_rng: np.random.Generator | None):
    """Top-layer outputs (n_cells, hidden) of the packed cells, plus cache.

    Dropout masks are drawn in the (batch, T, .) shape and row order, so the
    generator's stream and each cell's mask do not depend on the packing.
    """
    bsz, t_len = inputs.shape
    h = cfg.hidden_size
    p_drop = cfg.dropout if drop_rng is not None else 0.0
    dtype = params.flat.dtype

    if v is not None:
        v = np.asarray(v, dtype=dtype)
    if cidx is not None:
        cidx = np.asarray(cidx, dtype=np.int64)
    n0 = int(pk.sizes[0]) if pk.sizes.size else 0
    h0 = _h0_batch(cfg, params, v, cidx, bsz)[pk.order[:n0]]
    zeros = np.zeros((n0, h), dtype=dtype)

    tokens = inputs.ravel()[pk.cells]
    x = params.embed[tokens]
    embed_drop = None
    if p_drop > 0:
        embed_drop = pk.gather(_dropout_scale(
            drop_rng, (bsz, t_len, x.shape[1]), p_drop, dtype))
        x = x * embed_drop
    cache = {"tokens": tokens, "v": v, "cidx": cidx, "layers": [],
             "h0": h0, "embed_drop": embed_drop}

    # tanh(z * scale) * scale + (1 - scale) is sigmoid(z) = 0.5 * (1 +
    # tanh(z / 2)) on the i, f, o columns and tanh(z) on g: one tanh call
    # for all four gates.
    scale = np.full(4 * h, 0.5, dtype=dtype)
    scale[2 * h:3 * h] = 1.0
    shift = 1.0 - scale
    n_cells = pk.cells.size
    for l in range(cfg.layers):
        # The conditioning vector is layer 0's initial hidden and cell
        # state; the layers above start from zeros, and so does layer 0 of
        # an unconditioned model, whose step 0 then skips the recurrent
        # GEMM of a zero state.
        init = h0 if l == 0 else zeros
        zero_init = l > 0 or cfg.condition_on == "nothing"
        wh_t = params.wh[l].T
        acts = x @ params.wx[l].T
        acts += params.b[l]
        cs = np.empty((n_cells, h), dtype=dtype)
        tcs = np.empty((n_cells, h), dtype=dtype)
        hs = np.empty((n_cells, h), dtype=dtype)
        h_prev, c_prev = init, init
        for lo, hi in zip(pk.offsets[:-1], pk.offsets[1:]):
            m = hi - lo
            a = acts[lo:hi]
            if lo > 0 or not zero_init:
                a += h_prev[:m] @ wh_t
            a *= scale
            np.tanh(a, out=a)
            a *= scale
            a += shift
            c_t = cs[lo:hi]
            np.multiply(a[:, h:2 * h], c_prev[:m], out=c_t)
            c_t += a[:, :h] * a[:, 2 * h:3 * h]
            np.tanh(c_t, out=tcs[lo:hi])
            np.multiply(a[:, 3 * h:], tcs[lo:hi], out=hs[lo:hi])
            h_prev, c_prev = hs[lo:hi], c_t
        layer_cache = {"x": x, "acts": acts, "c": cs, "tc": tcs, "h": hs,
                       "init_c": init, "drop": None}
        out = hs
        if p_drop > 0 and l < cfg.layers - 1:
            drop = pk.gather(
                _dropout_scale(drop_rng, (bsz, t_len, h), p_drop, dtype))
            layer_cache["drop"] = drop
            out = out * drop
        cache["layers"].append(layer_cache)
        x = out
    return x, cache


def _lstm_backward(params: LMParameters, cfg: LMConfig, pk: _Packing,
                   cache: dict, dtop: np.ndarray, grads: dict,
                   bsz: int) -> None:
    """Write the LSTM weight gradients into grads; add the embedding and
    conditioning ones to theirs, which the caller has zeroed.

    dtop, the gradient of the packed top-layer outputs, is overwritten, and
    so is each layer's cache of gate activations: step by step, the
    backward pass writes the gates' pre-activation gradients over them.
    """
    h = cfg.hidden_size
    dtype = params.flat.dtype
    n0 = cache["h0"].shape[0]
    conditioned = cfg.condition_on != "nothing"
    dx = dtop
    for l in range(cfg.layers - 1, -1, -1):
        lc = cache["layers"][l]
        if lc["drop"] is not None:
            dx = dx * lc["drop"]
        acts, cs, tcs = lc["acts"], lc["c"], lc["tc"]
        wh = params.wh[l]
        # Step 0's recurrent gradient is read only as a conditioned layer
        # 0's initial-state gradient.
        cond_layer = l == 0 and conditioned
        dh_rec = dc_rec = np.zeros((0, h), dtype=dtype)
        for t in range(pk.sizes.size - 1, -1, -1):
            lo, hi = pk.offsets[t], pk.offsets[t + 1]
            a = acts[lo:hi]
            i_t, f_t = a[:, :h], a[:, h:2 * h]
            g_t, o_t = a[:, 2 * h:3 * h], a[:, 3 * h:]
            tc_t = tcs[lo:hi]
            c_prev = (cs[pk.offsets[t - 1]:pk.offsets[t - 1] + hi - lo]
                      if t > 0 else lc["init_c"])
            k = dh_rec.shape[0]

            dh = dx[lo:hi]
            dh[:k] += dh_rec
            dc = dh * o_t * (1.0 - tc_t ** 2)
            dc[:k] += dc_rec
            dc_rec = dc * f_t
            o_t *= dh * tc_t * (1.0 - o_t)
            f_t *= dc * c_prev * (1.0 - f_t)
            di = dc * g_t * i_t * (1.0 - i_t)
            g_t[...] = dc * i_t * (1.0 - g_t ** 2)
            i_t[...] = di
            if t > 0 or cond_layer:
                dh_rec = a @ wh
        np.matmul(acts.T, lc["x"], out=grads[f"wx{l}"])
        np.matmul(acts[n0:].T, lc["h"][pk.prev], out=grads[f"wh{l}"])
        np.sum(acts, axis=0, out=grads[f"b{l}"])
        # An unconditioned model's h0 is zero, and so is this term.
        if cond_layer:
            grads["wh0"] += acts[:n0].T @ cache["h0"]
            dh0_cond = dh_rec + dc_rec
        dx = acts @ params.wx[l]

    if cache["embed_drop"] is not None:
        dx = dx * cache["embed_drop"]
    np.add.at(grads["embed"], cache["tokens"], dx)

    if conditioned:
        dh0 = np.zeros((bsz, h), dtype=dtype)
        dh0[pk.order[:n0]] = dh0_cond
        _h0_backward(cfg, params, grads, dh0, cache["v"], cache["cidx"])


def _logits(params: LMParameters, top: np.ndarray) -> np.ndarray:
    return top @ params.w_out.T + params.b_out


def log_softmax2(logits: np.ndarray) -> np.ndarray:
    """Row-wise log base-2 softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return (z - lse) / LN2


def loss_and_grads(params: LMParameters, cfg: LMConfig, inputs: np.ndarray,
                   targets: np.ndarray, lengths: np.ndarray,
                   v: np.ndarray | None = None,
                   cidx: np.ndarray | None = None,
                   drop_rng: np.random.Generator | None = None,
                   out: np.ndarray | None = None):
    """Total code length in bits of targets, plus gradients of it.

    inputs and targets are (batch, T); row j counts its first lengths[j]
    cells, an integer in 0..T, and the cells after them are padding and
    never computed. Returns (total_bits, total_tokens, grads) where grads
    maps parameter names (as in named_arrays) to views (params.views) into
    one flat gradient buffer: out when given (a training fit reuses one),
    else a new one. Every element of out is overwritten, so what it held
    before does not matter.
    """
    bsz, t_len = inputs.shape
    lengths = np.asarray(lengths)
    if (lengths.shape != (bsz,)
            or not np.issubdtype(lengths.dtype, np.integer)
            or np.any(lengths < 0) or np.any(lengths > t_len)):
        raise ValueError(f"lengths must be {bsz} integers in 0..{t_len}, "
                         f"got {lengths!r}")
    # A new buffer is allocated before the forward cache, so the cache's
    # blocks, freed on return, do not leave holes below it.
    if out is None:
        out = np.empty_like(params.flat)
    grads = params.views(out)
    # The weight gradients are written whole; these are accumulated.
    for name in ("embed", "class_embed", "w_v", "b_v"):
        if name in grads:
            grads[name].fill(0.0)
    pk = _pack(lengths, t_len)
    top, cache = _lstm_forward(params, cfg, inputs, pk, v, cidx, drop_rng)
    logp2 = log_softmax2(_logits(params, top))
    rows = np.arange(pk.cells.size), targets.ravel()[pk.cells]
    total_bits = float(-logp2[rows].astype(np.float64).sum())
    total_tokens = float(lengths.sum())

    dlogits = np.exp(logp2 * LN2)
    dlogits[rows] -= 1.0
    dlogits *= dlogits.dtype.type(1.0 / LN2)

    np.matmul(dlogits.T, top, out=grads["w_out"])
    np.sum(dlogits, axis=0, out=grads["b_out"])
    _lstm_backward(params, cfg, pk, cache, dlogits @ params.w_out, grads,
                   inputs.shape[0])
    return total_bits, total_tokens, grads


@dataclass(frozen=True, eq=False)
class LossTable:
    """Code lengths of a list of signs under one model, held as columns.

    Row i is the sign keys[i]: its bits over phones + end marker are
    bits[offsets[i]:offsets[i + 1]], token_count[i] of them, summing to
    total_bits[i]. Every row holds at least one position, and keys are
    unique.
    """

    keys: tuple
    bits: np.ndarray
    offsets: np.ndarray
    token_count: np.ndarray = field(init=False)
    total_bits: np.ndarray = field(init=False)

    def __post_init__(self):
        keys = tuple(self.keys)
        bits = np.asarray(self.bits, dtype=np.float64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if (bits.ndim != 1 or offsets.ndim != 1 or offsets.size == 0
                or offsets[0] != 0 or offsets[-1] != bits.size):
            raise ValueError("offsets must run from 0 to len(bits)")
        counts = np.diff(offsets)
        if np.any(counts < 1):
            raise ValueError("offsets must rise by at least 1 per row")
        if len(keys) != counts.size:
            raise ValueError(f"{len(keys)} keys for {counts.size} rows")
        if len(set(keys)) != len(keys):
            raise SignSetMismatchError("duplicate sign in loss table")
        # Each total must round as its own row's slice sum does. Summing
        # the rows of one length as a (rows, n) matrix over axis 1 does;
        # np.add.reduceat over the flat bits rounds some totals differently.
        # (np.unique would import numpy.ma, a megabyte, on first use.)
        totals = np.empty(counts.size)
        for n in np.flatnonzero(np.bincount(counts)).tolist():
            rows = np.flatnonzero(counts == n)
            totals[rows] = bits[offsets[rows, None] + np.arange(n)].sum(axis=1)
        for name, value in (("keys", keys), ("bits", bits),
                            ("offsets", offsets), ("token_count", counts),
                            ("total_bits", totals)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_rows(cls, keys, rows) -> "LossTable":
        """The table of one bit vector per sign, in the order of keys."""
        rows = [np.asarray(r, dtype=np.float64) for r in rows]
        offsets = np.cumsum([0] + [r.size for r in rows])
        return cls(keys=keys, bits=np.concatenate([np.zeros(0)] + rows),
                   offsets=offsets)

    def require_same_signs(self, other: "LossTable") -> None:
        """Raise SignSetMismatchError unless other holds the same signs, in
        the same order, with the same token counts."""
        if other.keys != self.keys:
            raise SignSetMismatchError(
                "the two loss tables do not hold the same signs in order")
        differ = np.flatnonzero(other.token_count != self.token_count)
        if differ.size:
            raise SignSetMismatchError(
                f"token count differs for {self.keys[differ[0]]!r}")


def encode_signs(signs, inventory: PhoneInventory) -> list[np.ndarray]:
    encoded = []
    for s in signs:
        try:
            encoded.append(inventory.encode(s.form))
        except KeyError as exc:
            raise UnknownPhoneError(
                f"sign {s.lemma!r} has phone outside inventory: {exc}"
            ) from exc
    return encoded


def _pad(encoded: list[np.ndarray], eos: int):
    """(inputs, targets, lengths) matrices of encoded forms.

    Row j's inputs are EOS + phones (the end marker doubles as
    start-of-word) and its targets phones + EOS: lengths[j] = phones + 1
    cells of each; the cells after them hold EOS.
    """
    phones = np.array([len(e) for e in encoded], dtype=np.int64)
    lengths = phones + 1
    inputs = np.full((phones.size, int(lengths.max(initial=0))), eos,
                     dtype=np.int64)
    targets = inputs.copy()
    row = np.repeat(np.arange(phones.size), phones)
    col = np.arange(row.size) - np.repeat(np.cumsum(phones) - phones, phones)
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *encoded])
    targets[row, col] = flat
    inputs[row, col + 1] = flat
    return inputs, targets, lengths


def _take(padded, rows):
    """The rows of _pad's matrices, cut to the longest of them."""
    inputs, targets, lengths = padded
    lengths = lengths[rows]
    t_len = int(lengths.max(initial=0))
    return inputs[rows, :t_len], targets[rows, :t_len], lengths


def evaluate(params: LMParameters, cfg: LMConfig, signs,
             inventory: PhoneInventory, v: np.ndarray | None = None,
             padded=None) -> LossTable:
    """Per-word code lengths in evaluation mode (no dropout).

    v is an (n, pca_d) array aligned with signs when the model conditions
    on meaning; class indices are looked up from each sign's POS label.
    The table's rows are the signs in the order given. padded, when given,
    is the signs' (inputs, targets, lengths) as _pad makes them, so a
    training fit scores its validation signs without encoding them again.
    """
    signs = list(signs)
    if cfg.uses_meaning:
        if v is None or len(v) != len(signs):
            raise DimensionMismatchError("need one meaning vector per sign")
        v = np.asarray(v, dtype=params.flat.dtype)
    elif v is not None:
        raise DimensionMismatchError("model does not condition on meaning")
    cidx_all = None
    if cfg.uses_class:
        cidx_all = np.array([params.class_index(s.pos) for s in signs],
                            dtype=np.int64)

    if padded is None:
        padded = _pad(encode_signs(signs, inventory), inventory.eos_index)
    lengths = padded[2]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    bits = np.empty(offsets[-1])
    by_length = np.argsort(-lengths, kind="stable")
    for lo in range(0, len(signs), EVAL_BATCH):
        rows = by_length[lo:lo + EVAL_BATCH]
        inputs, targets, row_lengths = _take(padded, rows)
        pk = _pack(row_lengths, inputs.shape[1])
        # Keep only the top layer's outputs and free them with logp2, so
        # one batch's arrays are alive at a time.
        top = _lstm_forward(
            params, cfg, inputs, pk, None if v is None else v[rows],
            None if cidx_all is None else cidx_all[rows], None)[0]
        logp2 = log_softmax2(_logits(params, top))
        row, t = np.divmod(pk.cells, inputs.shape[1])
        bits[offsets[rows[row]] + t] = -logp2[np.arange(pk.cells.size),
                                              targets.ravel()[pk.cells]]
        del top, logp2
    return LossTable(keys=tuple(s.key for s in signs), bits=bits,
                     offsets=offsets)
