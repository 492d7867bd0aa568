"""Shared helpers: loss tables built from the exact synthetic oracle, the
per-word pointwise MI that the vectorised table is checked against, the
phonestheme null counted one candidate at a time, the padded per-step LSTM
that the packed kernel is checked against, the per-tensor initialiser that
the in-place one is checked against, the per-array training loop that the
flat-buffer one is checked against, and the traced allocation peak the
memory bounds read. The LSTM and the training loop compute in the
parameters' dtype, as the package's do."""

import tracemalloc

import numpy as np
from scipy.special import expit

from signform.errors import SignSetMismatchError
from signform.phonolm import (
    LMParameters,
    LossTable,
    TrainResult,
    encode_signs,
    evaluate,
    log_softmax2,
    loss_and_grads,
)
from signform.phonolm.model import (
    LN2,
    _dropout_scale,
    _h0_backward,
    _h0_batch,
    _pad,
)
from signform.phonesthemes import _permutation_sums
from signform.seeding import derive_rng
from signform.synthbench import oracle_word_bits


def traced_peak(fn, *args):
    """(peak bytes, result) of fn(*args) under tracemalloc.

    fn runs once untraced first, so that imports, caches and lazily built
    tables are not counted; the peak is of the second call alone.
    """
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def oracle_loss_tables(spec, lex, labels, conditional="cluster"):
    """(uncond, cond) loss tables under the true model pair.

    conditional="cluster" scores each word under its generating cluster's
    chain; "mixture" scores both sides identically (a null model pair).
    """
    ubits, cbits = [], []
    for sign, c in zip(lex.signs, labels):
        phones = spec.encode_form(sign.form)
        bu = oracle_word_bits(spec, phones)
        ubits.append(bu)
        cbits.append(oracle_word_bits(spec, phones, cluster=int(c))
                     if conditional == "cluster" else bu)
    keys = [s.key for s in lex.signs]
    return LossTable.from_rows(keys, ubits), LossTable.from_rows(keys, cbits)


def row_bits(table):
    """Each row's per-position bits, in row order."""
    return np.split(table.bits, table.offsets[1:-1])


def pointwise_affix_mi(uncond_bits, cond_bits, k):
    """One word's pointwise MI over its first k predicted positions.

    The mean of the first k per-position savings, uncond minus cond bits.
    k may extend to |form|+1, where the value equals the word's whole
    per-phone delta including the end marker.
    """
    ub = np.asarray(uncond_bits, dtype=np.float64)
    cb = np.asarray(cond_bits, dtype=np.float64)
    if ub.shape != cb.shape:
        raise SignSetMismatchError("bit vectors differ in length")
    if not (1 <= k <= ub.shape[0]):
        raise ValueError(f"k={k} out of range for {ub.shape[0]} positions")
    return float((ub[:k] - cb[:k]).mean())


def reference_test_k(tables, candidates, k, n_samples, seed):
    """phonesthemes._test_k's (p, observed) pairs, counted one candidate
    at a time in every block of the k's permutation stream: the loop that
    its one compare per row and block must match exactly."""
    eligible = ~np.isnan(tables[0])
    pops = np.stack([t[eligible] for t in tables])
    constant = pops.min(axis=1) == pops.max(axis=1)
    out, sampled = [], []
    widths = [0] * len(tables)
    for i, (row, cand) in enumerate(candidates):
        observed = float(tables[row][cand.word_indices].mean())
        out.append((1.0, observed))
        if cand.count < pops.shape[1] and not constant[row]:
            sampled.append((i, row, cand.count, observed))
            widths[row] = max(widths[row], cand.count)
    if sampled:
        counts = np.zeros(len(candidates), dtype=np.int64)
        rng = derive_rng(seed, "phonesthemes", k)
        for row, sums in _permutation_sums(pops, widths, n_samples, rng):
            for i, r, n, observed in sampled:
                if r == row:
                    counts[i] += np.count_nonzero(sums[:, n - 1] / n
                                                  >= observed)
        for i, _, _, observed in sampled:
            out[i] = ((int(counts[i]) + 1) / (n_samples + 1), observed)
    return out


# The plain LSTM the packed kernel must match: batch-major (B, T, h) arrays,
# one step at a time over every cell, padding included, with scipy's expit
# for the gates and three weight-gradient GEMMs per step, in the parameters'
# dtype.

def _reference_forward(params, cfg, inputs, v=None, cidx=None,
                      drop_rng=None):
    """The padded, batch-major, per-step LSTM: every (batch, T) cell."""
    bsz, t_len = inputs.shape
    h = cfg.hidden_size
    p_drop = cfg.dropout if drop_rng is not None else 0.0
    dtype = params.flat.dtype

    if v is not None:
        v = np.asarray(v, dtype=dtype)
    if cidx is not None:
        cidx = np.asarray(cidx, dtype=np.int64)
    # The conditioning vector is layer 0's initial hidden and cell state.
    init_h = np.zeros((cfg.layers, bsz, h), dtype=dtype)
    init_h[0] = _h0_batch(cfg, params, v, cidx, bsz)
    init_c = init_h.copy()

    x = params.embed[inputs]
    embed_drop = None
    if p_drop > 0:
        embed_drop = _dropout_scale(drop_rng, x.shape, p_drop, dtype)
        x = x * embed_drop
    cache = {"inputs": inputs, "v": v, "cidx": cidx, "layers": [],
             "init_h": init_h, "init_c": init_c, "embed_drop": embed_drop}

    for l in range(cfg.layers):
        wx, wh, b = params.wx[l], params.wh[l], params.b[l]
        i_g, f_g, g_g, o_g, cs, tcs, hs = (
            np.empty((bsz, t_len, h), dtype=dtype) for _ in range(7))
        h_t = init_h[l]
        c_t = init_c[l]
        for t in range(t_len):
            a = x[:, t] @ wx.T + h_t @ wh.T + b
            i_t = expit(a[:, :h])
            f_t = expit(a[:, h:2 * h])
            g_t = np.tanh(a[:, 2 * h:3 * h])
            o_t = expit(a[:, 3 * h:])
            c_t = f_t * c_t + i_t * g_t
            tc_t = np.tanh(c_t)
            h_t = o_t * tc_t
            i_g[:, t], f_g[:, t], g_g[:, t], o_g[:, t] = i_t, f_t, g_t, o_t
            cs[:, t], tcs[:, t], hs[:, t] = c_t, tc_t, h_t
        layer_cache = {"x": x, "i": i_g, "f": f_g, "g": g_g, "o": o_g,
                       "c": cs, "tc": tcs, "h": hs, "drop": None}
        out = hs
        if p_drop > 0 and l < cfg.layers - 1:
            m = _dropout_scale(drop_rng, out.shape, p_drop, dtype)
            layer_cache["drop"] = m
            out = out * m
        cache["layers"].append(layer_cache)
        x = out

    logits = x @ params.w_out.T + params.b_out
    cache["top"] = x
    return logits, cache


def reference_init(cfg, n_phones, classes=None, rng=None, dtype=np.float64):
    """init_params as one rng.uniform array per tensor, drawn in the order
    wx0, wh0, ..., w_v, class_embed, embed, w_out and concatenated in the
    order embed, wx0, wh0, b0, ..., w_out, b_out, w_v, b_v, class_embed,
    for valid inputs; then cast to dtype."""
    if rng is None:
        rng = np.random.default_rng(0)
    h, e = cfg.hidden_size, cfg.phone_embed_size

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    layers = {}
    for l in range(cfg.layers):
        in_dim = e if l == 0 else h
        layers[f"wx{l}"] = uniform((4 * h, in_dim), in_dim)
        layers[f"wh{l}"] = uniform((4 * h, h), h)
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0
        layers[f"b{l}"] = bias

    cond = {}
    if cfg.uses_meaning:
        out = cfg.half_size() if cfg.uses_class else h
        cond["w_v"] = uniform((out, cfg.pca_d), cfg.pca_d)
        cond["b_v"] = np.zeros(out)
    if cfg.uses_class:
        out = cfg.half_size() if cfg.uses_meaning else h
        cond["class_embed"] = uniform((len(classes), out), out)

    embed = uniform((n_phones, e), e)
    tensors = {"embed": embed, **layers,
               "w_out": uniform((n_phones, h), h),
               "b_out": np.zeros(n_phones), **cond}
    return LMParameters(
        np.concatenate([arr.ravel() for arr in tensors.values()]).astype(
            dtype),
        {name: arr.shape for name, arr in tensors.items()},
        classes=tuple(classes) if classes is not None else None,
    )


def reference_loss_and_grads(params, cfg, inputs, targets, lengths, v=None,
                             cidx=None, drop_rng=None):
    """(total_bits, total_tokens, grads) from the padded per-step loop,
    each row's first lengths[j] cells weighted 1 and the rest 0."""
    logits, cache = _reference_forward(params, cfg, inputs, v=v, cidx=cidx,
                                       drop_rng=drop_rng)
    logp2 = log_softmax2(logits)
    bsz, t_len, n_out = logits.shape
    mask = (np.arange(t_len) < np.asarray(lengths)[:, None]).astype(
        np.float64)
    rows = np.arange(bsz)[:, None], np.arange(t_len)[None, :], targets
    total_bits = float(-(logp2[rows] * mask).sum())
    total_tokens = float(mask.sum())

    dlogits = np.exp(logp2 * LN2)
    dlogits[rows] -= 1.0
    dlogits *= (mask / LN2).astype(dlogits.dtype)[:, :, None]

    grads = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
    top = cache["top"]
    grads["w_out"] += np.einsum("btv,bth->vh", dlogits, top)
    grads["b_out"] += dlogits.sum(axis=(0, 1))
    dx = dlogits @ params.w_out

    h = cfg.hidden_size
    for l in range(cfg.layers - 1, -1, -1):
        lc = cache["layers"][l]
        if lc["drop"] is not None:
            dx = dx * lc["drop"]
        wx, wh = params.wx[l], params.wh[l]
        d_in = np.zeros_like(lc["x"])
        dh_rec = np.zeros((bsz, h), dtype=params.flat.dtype)
        dc_rec = np.zeros_like(dh_rec)
        for t in range(t_len - 1, -1, -1):
            i_t, f_t = lc["i"][:, t], lc["f"][:, t]
            g_t, o_t = lc["g"][:, t], lc["o"][:, t]
            tc_t = lc["tc"][:, t]
            c_prev = lc["c"][:, t - 1] if t > 0 else cache["init_c"][l]
            h_prev = lc["h"][:, t - 1] if t > 0 else cache["init_h"][l]

            dh = dx[:, t] + dh_rec
            do = dh * tc_t
            dc = dc_rec + dh * o_t * (1.0 - tc_t ** 2)
            di = dc * g_t
            dg = dc * i_t
            df = dc * c_prev
            dc_rec = dc * f_t
            da = np.concatenate([di * i_t * (1 - i_t),
                                 df * f_t * (1 - f_t),
                                 dg * (1 - g_t ** 2),
                                 do * o_t * (1 - o_t)], axis=1)
            grads[f"wx{l}"] += da.T @ lc["x"][:, t]
            grads[f"wh{l}"] += da.T @ h_prev
            grads[f"b{l}"] += da.sum(axis=0)
            d_in[:, t] = da @ wx
            dh_rec = da @ wh
        if l == 0:
            dh0_cond = dh_rec + dc_rec
        dx = d_in

    if cache["embed_drop"] is not None:
        dx = dx * cache["embed_drop"]
    np.add.at(grads["embed"], cache["inputs"], dx)

    _h0_backward(cfg, params, grads, dh0_cond, cache["v"], cache["cidx"])
    return total_bits, total_tokens, grads


# The training loop the flat-buffer one must match bit for bit: a padded
# batch per step from _pad, gradients scaled and clipped array by
# array, an Adam update per array, and validation scoring that encodes its
# signs every epoch.

def _reference_clip(grads, max_norm):
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= g.dtype.type(scale)


class _ReferenceAdam:
    def __init__(self, opt):
        self.opt = opt
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads):
        o = self.opt
        self.t += 1
        bc1 = 1.0 - o.beta1 ** self.t
        bc2 = 1.0 - o.beta2 ** self.t
        for name, arr in params.named_arrays():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m, vv = self.m[name], self.v[name]
            m *= o.beta1
            m += (1 - o.beta1) * g
            vv *= o.beta2
            vv += (1 - o.beta2) * g * g
            arr -= o.lr * (m / bc1) / (np.sqrt(vv / bc2) + o.eps)


def reference_train(lex, train_idx, val_idx, cfg, opt, seed, dtype,
                    v=None):
    """train_on_indices as the per-array loop in dtype, for valid inputs."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    inventory = lex.inventory
    encoded = encode_signs(lex.signs, inventory)
    params = reference_init(cfg, len(inventory),
                            classes=lex.classes if cfg.uses_class else None,
                            rng=derive_rng(seed, "init"), dtype=dtype)
    cidx_all = None
    if cfg.uses_class:
        cidx_all = np.array([params.class_index(s.pos) for s in lex.signs],
                            dtype=np.int64)
    val_signs = [lex.signs[i] for i in val_idx]
    val_v = v[val_idx] if cfg.uses_meaning else None

    adam = _ReferenceAdam(opt)
    result = TrainResult(params=params.copy())
    bad_epochs = 0
    for epoch in range(opt.max_epochs):
        rng = derive_rng(seed, "epoch", epoch)
        order = train_idx[rng.permutation(train_idx.size)]
        epoch_bits = epoch_tokens = 0.0
        for lo in range(0, order.size, opt.batch_size):
            batch = order[lo:lo + opt.batch_size]
            inputs, targets, lengths = _pad([encoded[i] for i in batch],
                                            inventory.eos_index)
            bits, tokens, grads = loss_and_grads(
                params, cfg, inputs, targets, lengths,
                v=v[batch] if cfg.uses_meaning else None,
                cidx=cidx_all[batch] if cidx_all is not None else None,
                drop_rng=rng if cfg.dropout > 0 else None)
            epoch_bits += bits
            epoch_tokens += tokens
            for g in grads.values():
                g /= tokens
            if opt.clip_norm is not None:
                _reference_clip(grads, opt.clip_norm)
            adam.step(params, grads)

        val = evaluate(params, cfg, val_signs, inventory, v=val_v)
        val_bpp = sum(val.total_bits.tolist()) / int(val.token_count.sum())
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


def reference_pack(lengths, t_len):
    """(order, sizes, offsets, cells, prev) from the per-step loop."""
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    sizes = np.count_nonzero(
        lengths[:, None] > np.arange(lengths.max(initial=0)), axis=0)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    none = np.zeros(0, dtype=np.int64)
    cells = np.concatenate(
        [none] + [order[:n] * t_len + t for t, n in enumerate(sizes)])
    prev = np.concatenate(
        [none] + [np.arange(offsets[t - 1], offsets[t - 1] + n)
                  for t, n in enumerate(sizes) if t > 0])
    return order, sizes, offsets, cells, prev
