import json
import warnings

import numpy as np
import pytest
from oracle_utils import (
    _reference_forward,
    reference_init,
    reference_loss_and_grads,
    reference_pack,
    reference_train,
    row_bits,
    traced_peak,
)

from signform.errors import (
    ArchiveFormatError,
    DimensionMismatchError,
    OddHiddenSplitError,
    SignSetMismatchError,
    TrainingDivergedError,
    UnknownClassError,
    UnknownPhoneError,
)
from signform.infotheory import entropy_estimate
from signform.lexicon import Lexicon, Phone, PhoneInventory, Sign, split_folds
from signform.phonolm import (
    DTYPE,
    LMConfig,
    LMParameters,
    LossTable,
    OptSettings,
    encode_signs,
    evaluate,
    init_params,
    load_model,
    log_softmax2,
    loss_and_grads,
    param_shapes,
    save_model,
    train_on_indices,
)
from signform.phonolm import model
from signform.phonolm.archive import FORMAT_VERSION
from signform.phonolm.model import (
    _INIT_BLOCK,
    CONDITION_MODES,
    _h0_batch,
    _logits,
    _lstm_forward,
    _pack,
    _pad,
)
from signform.phonolm.training import (
    _CHUNK,
    _SQ_BLOCK,
    _Adam,
    _clip,
    _sum_sq,
)
from signform.seeding import derive_rng
from signform.synthbench import generate, planted_prefix_spec


ALPHABET = ("a", "k", "m", "s", "t")


def make_lexicon(words, dim=3, pos=None, seed=0):
    rng = np.random.default_rng(seed)
    signs = []
    for j, w in enumerate(words):
        signs.append(Sign(lemma=f"{w}{j}", form=tuple(Phone(ch) for ch in w),
                          meaning=rng.normal(size=dim),
                          pos=pos[j] if pos else "N"))
    inventory = PhoneInventory.from_phones(Phone(p) for p in ALPHABET)
    classes = tuple(sorted(set(s.pos for s in signs)))
    return Lexicon(language="toy", inventory=inventory, signs=signs,
                   classes=classes)


def batch_loss(params, cfg, inputs, targets, lengths, v=None, cidx=None):
    """Bits of each row's first lengths[j] targets, from the padded loop."""
    logits, _ = _reference_forward(params, cfg, inputs, v=v, cidx=cidx)
    logp2 = log_softmax2(logits)
    rows = (np.arange(inputs.shape[0])[:, None],
            np.arange(inputs.shape[1])[None, :], targets)
    mask = np.arange(inputs.shape[1]) < lengths[:, None]
    return float(-logp2[rows][mask].sum())


def max_grad_rel_err(cfg, n_classes=3, seed=1, step=1e-4):
    """Analytic vs central-difference gradients over every parameter entry."""
    rng = np.random.default_rng(seed)
    lex = make_lexicon(["kat", "sam", "ta"],
                       dim=cfg.pca_d,
                       pos=["N", "V", "N"])
    params = init_params(cfg, len(lex.inventory), np.float64,
                         classes=lex.classes if cfg.uses_class else None,
                         rng=rng)
    encoded = encode_signs(lex.signs, lex.inventory)
    inputs, targets, lengths = _pad(encoded, lex.inventory.eos_index)
    v = rng.normal(size=(3, cfg.pca_d)) if cfg.uses_meaning else None
    cidx = (np.array([params.class_index(s.pos) for s in lex.signs])
            if cfg.uses_class else None)

    _, _, grads = loss_and_grads(params, cfg, inputs, targets, lengths,
                                 v=v, cidx=cidx)
    worst = 0.0
    for name, arr in params.named_arrays():
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = batch_loss(params, cfg, inputs, targets, lengths, v, cidx)
            flat[k] = orig - step
            dn = batch_loss(params, cfg, inputs, targets, lengths, v, cidx)
            flat[k] = orig
            num = (up - dn) / (2 * step)
            err = abs(gflat[k] - num) / max(abs(gflat[k]), abs(num), 1e-3)
            worst = max(worst, err)
    return worst


class TestGradients:
    def test_unconditional_two_layers(self):
        cfg = LMConfig(layers=2, hidden_size=8, phone_embed_size=4,
                       pca_d=3, condition_on="nothing")
        assert max_grad_rel_err(cfg) <= 1e-4

    def test_meaning_conditioning(self):
        cfg = LMConfig(layers=1, hidden_size=8, phone_embed_size=4,
                       pca_d=3, condition_on="meaning")
        assert max_grad_rel_err(cfg) <= 1e-4

    def test_class_conditioning(self):
        cfg = LMConfig(layers=1, hidden_size=8, phone_embed_size=4,
                       pca_d=3, condition_on="class")
        assert max_grad_rel_err(cfg) <= 1e-4

    def test_meaning_and_class_conditioning(self):
        cfg = LMConfig(layers=2, hidden_size=8, phone_embed_size=4,
                       pca_d=3, condition_on="meaning_and_class")
        assert max_grad_rel_err(cfg) <= 1e-4

    def test_meaning_conditioning_three_layers(self):
        """Only layer 0 starts from the conditioning vector; its gradient
        reaches the projection through the layers above it."""
        cfg = LMConfig(layers=3, hidden_size=6, phone_embed_size=4,
                       pca_d=3, condition_on="meaning")
        assert max_grad_rel_err(cfg) <= 1e-4


def assert_matches_reference(params, cfg, inputs, targets, lengths, v, cidx,
                             seed=None, tol=1e-10, ref_params=None):
    """Packed kernel against the padded per-step reference, same dropout.

    The reference runs on ref_params, by default params themselves; bits and
    every gradient must agree to tol relative to the reference's largest."""
    def drop_rng():
        return None if seed is None else np.random.default_rng(seed)

    bits, tokens, grads = loss_and_grads(params, cfg, inputs, targets,
                                         lengths, v=v, cidx=cidx,
                                         drop_rng=drop_rng())
    ref_bits, ref_tokens, ref_grads = reference_loss_and_grads(
        params if ref_params is None else ref_params, cfg, inputs, targets,
        lengths, v=v, cidx=cidx, drop_rng=drop_rng())
    assert tokens == ref_tokens
    assert abs(bits - ref_bits) <= tol * abs(ref_bits)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name].dtype == params.flat.dtype, name
        err = np.max(np.abs(grads[name] - ref))
        assert err <= tol * np.max(np.abs(ref)), name


KERNEL_CASES = [
    (layers, cond, dropout)
    for layers in (1, 2, 3)
    for cond in CONDITION_MODES
    for dropout in (0.0, 0.3)
]

# Phones per word in each test batch. The kernel sorts rows by length
# (stable, longest first) and shrinks its active rows step by step, so
# order, ties and a batch that never shrinks each take their own path.
BATCH_SHAPES = {
    "ragged": None,  # 0..6 phones, one word each, shuffled
    "ascending": [0, 1, 2, 3, 4, 5, 6],
    "equal": [4, 4, 4, 4, 4],
    "ties": [3, 1, 3, 0, 5, 3, 1, 5],
    "single": [5],
    "end_only": [0, 0, 0],
}


class TestPackedKernel:
    """The packed, time-major kernel computes what the padded loop did."""

    def ragged_batch(self, cfg, word_lengths=None, t_len=7, n_phones=6,
                     seed=0):
        """Words of the given phone counts; by default every length
        0..t_len-1 in shuffled order, so the sequences (phones + end
        marker) have lengths 1..t_len."""
        rng = np.random.default_rng(seed)
        if word_lengths is None:
            word_lengths = rng.permutation(t_len)
        encoded = [rng.integers(0, n_phones - 1, size=n)
                   for n in word_lengths]
        inputs, targets, lengths = _pad(encoded, n_phones - 1)
        classes = ("N", "V", "A") if cfg.uses_class else None
        params = init_params(cfg, n_phones, np.float64, classes=classes,
                             rng=rng)
        bsz = len(encoded)
        v = rng.normal(size=(bsz, cfg.pca_d)) if cfg.uses_meaning else None
        cidx = rng.integers(0, 3, size=bsz) if cfg.uses_class else None
        return params, inputs, targets, lengths, v, cidx

    @pytest.mark.parametrize("layers,cond,dropout", KERNEL_CASES)
    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_matches_padded_reference(self, shape, layers, cond, dropout):
        cfg = LMConfig(layers=layers, hidden_size=6, phone_embed_size=4,
                       pca_d=3, condition_on=cond, dropout=dropout)
        params, inputs, targets, lengths, v, cidx = self.ragged_batch(
            cfg, BATCH_SHAPES[shape])
        assert_matches_reference(params, cfg, inputs, targets, lengths, v,
                                 cidx, seed=5 if dropout else None)

    @pytest.mark.parametrize("layers,cond,dropout", KERNEL_CASES)
    def test_float32_matches_padded_reference_and_float64(self, layers, cond,
                                                          dropout):
        """In float32 the kernel computes what the padded loop computes in
        float32, and what both compute in float64 from the same values, to
        a float32 tolerance."""
        cfg = LMConfig(layers=layers, hidden_size=6, phone_embed_size=4,
                       pca_d=3, condition_on=cond, dropout=dropout)
        params, inputs, targets, lengths, v, cidx = self.ragged_batch(cfg)
        single = params.with_flat(params.flat.astype(np.float32))
        same_values = single.with_flat(single.flat.astype(np.float64))
        seed = 5 if dropout else None
        for ref_params in (single, same_values):
            assert_matches_reference(single, cfg, inputs, targets, lengths,
                                     v, cidx, seed=seed, tol=1e-5,
                                     ref_params=ref_params)

    @pytest.mark.parametrize("layers,cond,dropout", KERNEL_CASES)
    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    def test_out_is_overwritten(self, shape, layers, cond, dropout):
        """A gradient buffer full of NaN gives the bytes a new one gives,
        and no gradient is -0.0, the one value where writing a gradient
        differs from adding it to a zeroed buffer."""
        cfg = LMConfig(layers=layers, hidden_size=6, phone_embed_size=4,
                       pca_d=3, condition_on=cond, dropout=dropout)
        params, inputs, targets, lengths, v, cidx = self.ragged_batch(
            cfg, BATCH_SHAPES[shape])

        def grads(out):
            drop_rng = np.random.default_rng(5) if dropout else None
            return loss_and_grads(params, cfg, inputs, targets, lengths,
                                  v=v, cidx=cidx, drop_rng=drop_rng,
                                  out=out)[2]

        fresh = grads(None)
        buf = np.full(params.flat.size, np.nan)
        got = grads(buf)
        assert not np.isnan(buf).any()
        assert not np.any((buf == 0.0) & np.signbit(buf))
        for name, g in got.items():
            assert g.tobytes() == fresh[name].tobytes(), name

    def test_lengths_set_each_rows_cells(self):
        """A row of length 0 counts no cell, and rows cut short of their
        word, and of T, count only their first lengths[j] cells."""
        cfg = LMConfig(layers=2, hidden_size=6, phone_embed_size=4, pca_d=3,
                       condition_on="meaning")
        params, inputs, targets, lengths, v, cidx = self.ragged_batch(cfg)
        lengths = np.minimum(lengths, inputs.shape[1] - 2)
        lengths[np.argmax(lengths)] = 0
        assert lengths.min() == 0 and lengths.max() < inputs.shape[1]
        assert_matches_reference(params, cfg, inputs, targets, lengths, v,
                                 cidx)

    @pytest.mark.parametrize("bad", ["negative", "past_t", "too_few",
                                     "too_many", "float"])
    def test_rejects_lengths_off_the_grid(self, bad):
        """A length past T would read the next row's cells."""
        cfg = LMConfig(hidden_size=6, phone_embed_size=4)
        params, inputs, targets, lengths, _, _ = self.ragged_batch(cfg)
        t_len = inputs.shape[1]
        lengths = {
            "negative": np.concatenate([[-1], lengths[1:]]),
            "past_t": np.concatenate([[t_len + 1], lengths[1:]]),
            "too_few": lengths[1:],
            "too_many": np.concatenate([lengths, [1]]),
            "float": lengths.astype(np.float64)}[bad]
        with pytest.raises(ValueError, match="lengths must be"):
            loss_and_grads(params, cfg, inputs, targets, lengths)


class TestPacking:
    @pytest.mark.parametrize("lengths", [
        [], [0], [0, 0, 0], [3], [2, 2, 2], [1, 4, 0, 4, 2, 1, 0, 5],
        *[np.random.default_rng(seed).integers(0, 7, size=n)
          for seed, n in enumerate((5, 9, 16, 33))]])
    def test_pack_matches_step_loop(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        t_len = int(lengths.max(initial=0)) + 2
        pk = _pack(lengths, t_len)
        got = (pk.order, pk.sizes, pk.offsets, pk.cells, pk.prev)
        for name, arr, ref in zip(("order", "sizes", "offsets", "cells",
                                   "prev"), got, reference_pack(lengths,
                                                                t_len)):
            assert arr.dtype == ref.dtype, name
            assert arr.tolist() == ref.tolist(), name

    def test_pad_matches_row_loop(self):
        rng = np.random.default_rng(14)
        encoded = [rng.integers(0, 5, size=n) for n in (3, 0, 5, 5, 1, 2)]
        inputs, targets, lengths = _pad(encoded, 5)
        t_len = max(len(e) for e in encoded) + 1
        want_in = np.full((len(encoded), t_len), 5, dtype=np.int64)
        want_tg = want_in.copy()
        want_len = np.zeros(len(encoded), dtype=np.int64)
        for j, e in enumerate(encoded):
            want_in[j, 1:len(e) + 1] = e
            want_tg[j, :len(e)] = e
            want_len[j] = len(e) + 1
        for got, want in ((inputs, want_in), (targets, want_tg),
                          (lengths, want_len)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


class TestPositionBits:
    def zero_model(self, cfg, lex):
        params = init_params(cfg, len(lex.inventory), np.float64,
                             rng=np.random.default_rng(0))
        for _, arr in params.named_arrays():
            arr[...] = 0.0
        return params

    def test_zero_params_uniform(self):
        lex = make_lexicon(["kat"])
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = self.zero_model(cfg, lex)
        losses = evaluate(params, cfg, lex.signs, lex.inventory)
        expected = np.log2(len(lex.inventory))
        np.testing.assert_allclose(losses.bits, expected, atol=1e-12)

    def test_distributions_normalize(self):
        lex = make_lexicon(["kat", "ms"])
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, layers=2)
        params = init_params(cfg, len(lex.inventory), np.float64,
                             rng=np.random.default_rng(3))
        encoded = encode_signs(lex.signs, lex.inventory)
        inputs, _, _ = _pad(encoded, lex.inventory.eos_index)
        bsz, t_len = inputs.shape
        top, _ = _lstm_forward(params, cfg, inputs,
                               _pack(np.full(bsz, t_len), t_len), None, None,
                               None)
        probs = np.exp(log_softmax2(_logits(params, top)) * np.log(2))
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_causality_under_suffix_change(self):
        lex = make_lexicon(["kat", "kats", "katm"])
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, len(lex.inventory), np.float64,
                             rng=np.random.default_rng(4))
        base, longer1, longer2 = row_bits(
            evaluate(params, cfg, lex.signs, lex.inventory))
        np.testing.assert_allclose(base[:3], longer1[:3], atol=1e-12)
        np.testing.assert_allclose(longer1[:3], longer2[:3], atol=1e-12)

    def test_unknown_phone(self):
        lex = make_lexicon(["kat"])
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, len(lex.inventory), np.float64,
                             rng=np.random.default_rng(5))
        alien = Sign(lemma="x", form=(Phone("z"),), meaning=np.zeros(3),
                     pos="N")
        with pytest.raises(UnknownPhoneError):
            evaluate(params, cfg, [lex.signs[0], alien], lex.inventory)


class TestConditionInit:
    def setup_method(self):
        self.lex = make_lexicon(["kat", "sam"], pos=["N", "V"])

    def params_for(self, cfg):
        return init_params(cfg, len(self.lex.inventory), np.float64,
                           classes=self.lex.classes if cfg.uses_class else None,
                           rng=np.random.default_rng(6))

    def condition_init(self, cfg, params, v=None, c=None):
        """The initial state of a batch of one word."""
        vv = None if v is None else np.asarray(v, dtype=np.float64)[None]
        cidx = None if c is None else np.array([params.class_index(c)])
        return _h0_batch(cfg, params, vv, cidx, 1)[0]

    def test_nothing_gives_zero(self):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        h0 = self.condition_init(cfg, self.params_for(cfg))
        np.testing.assert_array_equal(h0, np.zeros(8))

    def test_meaning_at_zero_gives_bias(self):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3,
                       condition_on="meaning")
        params = self.params_for(cfg)
        params.b_v[...] = np.arange(8.0)
        h0 = self.condition_init(cfg, params, v=np.zeros(3))
        np.testing.assert_allclose(h0, np.arange(8.0))

    def test_class_lookup(self):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4,
                       condition_on="class")
        params = self.params_for(cfg)
        h0 = self.condition_init(cfg, params, c="V")
        np.testing.assert_array_equal(
            h0, params.class_embed[params.classes.index("V")])

    def test_concat_halves(self):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3,
                       condition_on="meaning_and_class")
        params = self.params_for(cfg)
        v = np.array([1.0, -2.0, 0.5])
        h0 = self.condition_init(cfg, params, v=v, c="N")
        np.testing.assert_array_equal(
            h0[:4], params.class_embed[params.classes.index("N")])
        np.testing.assert_allclose(h0[4:], params.w_v @ v + params.b_v)

    def test_odd_hidden_split(self):
        cfg = LMConfig(hidden_size=7, phone_embed_size=4, pca_d=3,
                       condition_on="meaning_and_class")
        with pytest.raises(OddHiddenSplitError):
            init_params(cfg, 6, np.float64, classes=("N", "V"),
                        rng=np.random.default_rng(0))

    def test_unknown_class(self):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4,
                       condition_on="class")
        params = self.params_for(cfg)
        with pytest.raises(UnknownClassError):
            self.condition_init(cfg, params, c="ADV")
        with pytest.raises(UnknownClassError):
            _h0_batch(cfg, params, None, np.array([len(params.classes)]), 1)
        with pytest.raises(UnknownClassError):
            _h0_batch(cfg, params, None, None, 1)

    def test_meaning_dim_mismatch(self):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3,
                       condition_on="meaning")
        params = self.params_for(cfg)
        with pytest.raises(DimensionMismatchError):
            self.condition_init(cfg, params, v=np.zeros(5))


class TestEvaluate:
    def test_uniform_sixteen_symbol_inventory(self):
        phones = tuple(chr(ord("a") + i) for i in range(15))
        inventory = PhoneInventory.from_phones(Phone(p) for p in phones)
        assert len(inventory) == 16
        sign = Sign(lemma="abc", form=tuple(Phone(p) for p in "abc"),
                    meaning=np.zeros(3), pos="N")
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, 16, np.float64, rng=np.random.default_rng(0))
        for _, arr in params.named_arrays():
            arr[...] = 0.0
        losses = evaluate(params, cfg, [sign], inventory)
        assert losses.token_count.tolist() == [4]
        assert losses.total_bits[0] == pytest.approx(16.0, abs=1e-9)

    def test_matches_forward_with_conditioning(self):
        lex = make_lexicon(["kat", "sam", "ta", "maks"], pos=list("NVNV"))
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3,
                       condition_on="meaning_and_class", layers=2)
        params = init_params(cfg, len(lex.inventory), np.float64,
                             classes=lex.classes, rng=np.random.default_rng(7))
        v = np.random.default_rng(8).normal(size=(4, 3))
        losses = evaluate(params, cfg, lex.signs, lex.inventory, v=v)
        assert losses.keys == tuple(s.key for s in lex.signs)
        for j, (s, bits) in enumerate(zip(lex.signs, row_bits(losses))):
            inputs, targets, _ = _pad(
                encode_signs([s], lex.inventory), lex.inventory.eos_index)
            logits, _ = _reference_forward(
                params, cfg, inputs, v=v[j:j + 1],
                cidx=np.array([params.class_index(s.pos)]))
            lp = log_softmax2(logits)[0, np.arange(targets.shape[1]),
                                      targets[0]]
            np.testing.assert_allclose(bits, -lp, atol=1e-9)

    def test_micro_average(self):
        lex = make_lexicon(["kat", "s"])
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, len(lex.inventory), np.float64,
                             rng=np.random.default_rng(9))
        losses = evaluate(params, cfg, lex.signs, lex.inventory)
        assert losses.token_count.tolist() == [4, 2]
        manual = losses.total_bits.sum() / (4 + 2)
        assert entropy_estimate(losses).bits_per_phone == pytest.approx(
            manual)

    def test_batch_boundaries_do_not_matter(self, monkeypatch):
        lex = make_lexicon(["kat", "sam", "ta", "maks", "mm", "s", "takma",
                            "a", "sk"], pos=list("NVNVNVNVN"))
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3, layers=2,
                       condition_on="meaning_and_class")
        params = init_params(cfg, len(lex.inventory), np.float64,
                             classes=lex.classes,
                             rng=np.random.default_rng(10))
        v = np.random.default_rng(11).normal(size=(len(lex.signs), 3))
        base = evaluate(params, cfg, lex.signs, lex.inventory, v=v)
        perm = np.random.default_rng(12).permutation(len(lex.signs))
        runs = []
        for size in (1, 3, 256):
            monkeypatch.setattr(model, "EVAL_BATCH", size)
            runs.append((np.arange(len(lex.signs)), evaluate(
                params, cfg, lex.signs, lex.inventory, v=v)))
        runs.append((perm, evaluate(params, cfg,
                                    [lex.signs[j] for j in perm],
                                    lex.inventory, v=v[perm])))
        base_bits = row_bits(base)
        for rows, losses in runs:
            assert losses.keys == tuple(base.keys[j] for j in rows)
            for j, bits in zip(rows, row_bits(losses)):
                np.testing.assert_allclose(bits, base_bits[j],
                                           rtol=0, atol=1e-12)

    def test_one_batch_alive_at_a_time(self):
        # Scoring twice the words in twice the 256-word batches must not
        # hold the previous batch's arrays while the next one runs.
        lex, _ = generate(planted_prefix_spec(), 512, seed=3)
        cfg = LMConfig(hidden_size=32)
        params = init_params(cfg, len(lex.inventory), DTYPE,
                             rng=np.random.default_rng(0))
        half, _ = traced_peak(evaluate, params, cfg, lex.signs[:256],
                              lex.inventory)
        full, _ = traced_peak(evaluate, params, cfg, lex.signs,
                              lex.inventory)
        assert full < 1.5 * half


class TestLossTable:
    def test_columns_from_rows(self):
        t = LossTable.from_rows(["a", "b", "c"], [[1.0, 2.0, 0.5], [3.0],
                                                  [0.25, 0.25]])
        assert t.keys == ("a", "b", "c")
        assert t.offsets.tolist() == [0, 3, 4, 6]
        assert t.token_count.tolist() == [3, 1, 2]
        assert t.total_bits.tolist() == [3.5, 3.0, 0.5]
        assert t.bits.tolist() == [1.0, 2.0, 0.5, 3.0, 0.25, 0.25]

    def test_totals_are_each_rows_own_sum(self):
        rng = np.random.default_rng(13)
        rows = [rng.uniform(0.0, 9.0, size=n) for n in range(1, 30)]
        t = LossTable.from_rows(range(len(rows)), rows)
        assert t.total_bits.tolist() == [float(r.sum()) for r in rows]

    def test_totals_match_each_rows_slice_sum_on_ragged_rows(self):
        rng = np.random.default_rng(23)
        counts = rng.permutation(np.repeat(np.arange(1, 301), 3))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        bits = rng.uniform(0.0, 9.0, size=offsets[-1])
        t = LossTable(keys=tuple(range(counts.size)), bits=bits,
                      offsets=offsets)
        assert t.total_bits.tolist() == [
            float(bits[lo:hi].sum())
            for lo, hi in zip(offsets[:-1], offsets[1:])]

    @pytest.mark.parametrize("offsets", [[1, 2, 4], [0, 3, 1, 4],
                                         [0, 2, 2, 4], [0, 1, 3],
                                         [0, 2, 5], []])
    def test_bad_offsets_rejected(self, offsets):
        n_rows = max(len(offsets) - 1, 0)
        with pytest.raises(ValueError):
            LossTable(keys=tuple(range(n_rows)), bits=np.ones(4),
                      offsets=offsets)

    def test_key_count_must_match_rows(self):
        with pytest.raises(ValueError):
            LossTable(keys=("a", "b", "c"), bits=np.ones(4),
                      offsets=[0, 1, 4])
        with pytest.raises(ValueError):
            LossTable.from_rows(["a"], [[1.0], [2.0]])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SignSetMismatchError):
            LossTable.from_rows(["a", "b", "a"], [[1.0], [2.0], [3.0]])

    def test_require_same_signs(self):
        t = LossTable.from_rows(["a", "b"], [[1.0, 2.0], [3.0]])
        t.require_same_signs(LossTable.from_rows(["a", "b"],
                                                 [[0.5, 0.5], [9.0]]))
        for keys, rows in ((["b", "a"], [[3.0], [1.0, 2.0]]),
                           (["a"], [[1.0, 2.0]]),
                           (["a", "c"], [[1.0, 2.0], [3.0]]),
                           (["a", "b"], [[1.0], [3.0]])):
            with pytest.raises(SignSetMismatchError):
                t.require_same_signs(LossTable.from_rows(keys, rows))

    def test_empty_table(self):
        t = LossTable.from_rows([], [])
        assert t.keys == ()
        assert t.offsets.tolist() == [0]
        assert t.token_count.size == 0 and t.total_bits.size == 0


def small_corpus_lexicon(n=60, seed=0):
    rng = np.random.default_rng(seed)
    words = []
    for _ in range(n):
        k = rng.integers(1, 5)
        words.append("".join(ALPHABET[i]
                             for i in rng.integers(0, len(ALPHABET), size=k)))
    return make_lexicon(words, seed=seed)


class TestTraining:
    def test_memorizes_single_word(self):
        lex = make_lexicon(["takma"] * 40)
        cfg = LMConfig(hidden_size=16, phone_embed_size=8)
        opt = OptSettings(lr=2e-2, batch_size=16, max_epochs=200, patience=50)
        res = train_on_indices(lex, np.arange(32), np.arange(32, 40),
                               cfg, opt, seed=0)
        assert res.train_curve[-1] < 0.01

    def test_initial_loss_near_uniform_for_tiny_init(self):
        lex = small_corpus_lexicon()
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, len(lex.inventory), np.float64,
                             rng=np.random.default_rng(1))
        for _, arr in params.named_arrays():
            arr *= 1e-4
        losses = evaluate(params, cfg, lex.signs, lex.inventory)
        assert entropy_estimate(losses).bits_per_phone == pytest.approx(
            np.log2(len(lex.inventory)), abs=0.01)

    def test_deterministic_given_seed(self):
        lex = small_corpus_lexicon()
        folds = split_folds(lex, k=5, seed=2)
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, dropout=0.2)
        opt = OptSettings(max_epochs=3, patience=10)
        train_idx, val_idx, _ = folds.roles(0)
        a = train_on_indices(lex, train_idx, val_idx, cfg, opt, seed=11)
        b = train_on_indices(lex, train_idx, val_idx, cfg, opt, seed=11)
        c = train_on_indices(lex, train_idx, val_idx, cfg, opt, seed=12)
        for (n1, x), (_, y) in zip(a.params.named_arrays(),
                                   b.params.named_arrays()):
            assert x.tobytes() == y.tobytes(), n1
        assert any(x.tobytes() != y.tobytes()
                   for (_, x), (_, y) in zip(a.params.named_arrays(),
                                             c.params.named_arrays()))
        assert a.val_curve == b.val_curve

    def test_best_epoch_params_returned(self):
        lex = small_corpus_lexicon(n=80, seed=3)
        folds = split_folds(lex, k=4, seed=3)
        cfg = LMConfig(hidden_size=12, phone_embed_size=6)
        opt = OptSettings(max_epochs=25, patience=6)
        train_idx, val_idx, _ = folds.roles(0)
        res = train_on_indices(lex, train_idx, val_idx, cfg, opt, seed=5)
        assert res.best_val == pytest.approx(min(res.val_curve), abs=1e-12)
        val_signs = [lex.signs[i] for i in val_idx]
        again = entropy_estimate(
            evaluate(res.params, cfg, val_signs, lex.inventory)).bits_per_phone
        assert again == pytest.approx(res.best_val, abs=1e-9)

    def test_empty_folds_rejected(self):
        lex = small_corpus_lexicon()
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        with pytest.raises(ValueError):
            train_on_indices(lex, np.array([], dtype=int), np.arange(5),
                             cfg, OptSettings(), seed=0)

    def test_divergence_reported(self, monkeypatch):
        lex = small_corpus_lexicon()
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)

        def explode(*args, **kwargs):
            return float("nan"), 10.0, {}

        import signform.phonolm.training as tr
        monkeypatch.setattr(tr, "loss_and_grads", explode)
        with pytest.raises(TrainingDivergedError) as exc:
            train_on_indices(lex, np.arange(40), np.arange(40, 60), cfg,
                             OptSettings(max_epochs=2), seed=0)
        assert exc.value.epoch == 0
        assert exc.value.batch == 0

    def test_divergence_raises_without_numpy_warnings(self):
        # lr 1e300 overflows the Adam step's cast to float32, and the NaN
        # parameters then poison the next forward pass.
        lex = small_corpus_lexicon()
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        opt = OptSettings(lr=1e300, clip_norm=None, max_epochs=3,
                          batch_size=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError):
                train_on_indices(lex, np.arange(40), np.arange(40, 60), cfg,
                                 opt, seed=0)

    def test_lengths_reach_loss_and_grads_positionally(self, monkeypatch):
        """Every batch's lengths arrive as loss_and_grads' fifth positional
        argument and sum to the tokens it returns: perfbench's tracer
        counts a batch's tokens that way."""
        import signform.phonolm.training as tr
        calls = []

        def spy(*args, **kwargs):
            result = loss_and_grads(*args, **kwargs)
            calls.append((args, kwargs, result[1]))
            return result

        monkeypatch.setattr(tr, "loss_and_grads", spy)
        lex = small_corpus_lexicon()
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        train_on_indices(lex, np.arange(40), np.arange(40, 60), cfg,
                         OptSettings(max_epochs=2, batch_size=16), seed=0)
        assert len(calls) == 2 * 3
        for args, kwargs, tokens in calls:
            assert len(args) >= 5 and "lengths" not in kwargs
            assert args[4].shape == (args[2].shape[0],)
            assert float(args[4].sum()) == tokens
        assert sum(tokens for _, _, tokens in calls) == 2 * sum(
            len(s.form) + 1 for s in lex.signs[:40])

    def test_meaning_conditioning_requires_vectors(self):
        lex = small_corpus_lexicon()
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3,
                       condition_on="meaning")
        with pytest.raises(DimensionMismatchError):
            train_on_indices(lex, np.arange(40), np.arange(40, 60), cfg,
                             OptSettings(max_epochs=1), seed=0)


def oracle_lexicon():
    lex = small_corpus_lexicon(n=60, seed=4)
    pos = ["N", "V", "A"]
    return Lexicon(language="toy", inventory=lex.inventory,
                   signs=[Sign(lemma=s.lemma, form=s.form, meaning=s.meaning,
                               pos=pos[j % 3])
                          for j, s in enumerate(lex.signs)],
                   classes=tuple(sorted(pos)))


# (LMConfig, OptSettings) keywords. 45 training signs: batch_size 15 fills
# every batch, 16 and 7 leave a ragged last one.
ORACLE_CASES = {
    "one_layer_nothing": ({"layers": 1}, {"batch_size": 15}),
    "two_layers_meaning_and_class_dropout": (
        {"layers": 2, "condition_on": "meaning_and_class", "dropout": 0.3},
        {"batch_size": 16}),
    "no_clip": ({"condition_on": "meaning"},
                {"batch_size": 15, "clip_norm": None, "lr": 5e-2}),
    "ragged_last_batch": ({"condition_on": "class"}, {"batch_size": 7}),
    "clip_every_step": ({"layers": 2}, {"batch_size": 16,
                                        "clip_norm": 0.05}),
}


# Cases whose best epoch comes before the last epoch run (both at epoch 2
# or later), so the fit snapshots the best parameters, refills the
# snapshot and returns it. In the others the last epoch is the best, and
# the fit returns its live parameters without copying them.
SNAPSHOT_CASES = {"two_layers_meaning_and_class_dropout", "no_clip"}


class TestTrainingOracle:
    """The flat-buffer loop gives what the per-array loop gives in the
    training dtype, bit for bit."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_per_array_loop(self, case):
        lm, opt = ORACLE_CASES[case]
        lex = oracle_lexicon()
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3, **lm)
        opt = OptSettings(max_epochs=6, patience=2, **opt)
        v = np.random.default_rng(15).normal(size=(len(lex.signs), 3))
        args = (lex, np.arange(45), np.arange(45, 60), cfg, opt, 21)
        kw = {"v": v if cfg.uses_meaning else None}
        got = train_on_indices(*args, **kw)
        ref = reference_train(*args, dtype=DTYPE, **kw)
        assert got.params.flat.dtype == DTYPE
        assert got.train_curve == ref.train_curve
        assert got.val_curve == ref.val_curve
        assert (got.best_epoch, got.best_val) == (ref.best_epoch,
                                                   ref.best_val)
        last = len(got.val_curve) - 1
        if case in SNAPSHOT_CASES:
            assert 2 <= got.best_epoch < last
        else:
            assert got.best_epoch == last
        for (name, x), (ref_name, y) in zip(got.params.named_arrays(),
                                            ref.params.named_arrays()):
            assert name == ref_name
            assert x.tobytes() == y.tobytes(), name


class TestFlatBuffers:
    def test_named_arrays_are_views_of_flat(self):
        cfg = LMConfig(layers=2, hidden_size=8, phone_embed_size=4, pca_d=3,
                       condition_on="meaning_and_class")
        params = init_params(cfg, 6, np.float64, classes=("N", "V"),
                             rng=np.random.default_rng(16))
        sizes = [arr.size for _, arr in params.named_arrays()]
        assert params.flat.size == sum(sizes)
        params.flat[:] = np.arange(params.flat.size)
        lo = 0
        for (_, arr), n in zip(params.named_arrays(), sizes):
            assert arr.ravel().tolist() == list(range(lo, lo + n))
            lo += n
        copy = params.copy()
        copy.flat[:] = 0.0
        assert params.flat[1] == 1.0 and copy.w_out.sum() == 0.0

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("cond", CONDITION_MODES)
    def test_init_matches_per_tensor_draws(self, layers, cond):
        cfg = LMConfig(layers=layers, hidden_size=6, phone_embed_size=4,
                       pca_d=3, condition_on=cond)
        classes = ("N", "V", "A") if cfg.uses_class else None
        rng, ref_rng = np.random.default_rng(20), np.random.default_rng(20)
        params = init_params(cfg, 7, np.float64, classes=classes, rng=rng)
        ref = reference_init(cfg, 7, classes=classes, rng=ref_rng)
        assert params.flat.tobytes() == ref.flat.tobytes()
        assert [(n, a.shape) for n, a in params.named_arrays()] == [
            (n, a.shape) for n, a in ref.named_arrays()]
        assert params.classes == ref.classes
        assert rng.random() == ref_rng.random()

    def test_float32_init_is_the_float64_draw_cast_once(self):
        # The recurrent tensors span two draw blocks, the rest one each.
        cfg = LMConfig(layers=2, hidden_size=96, phone_embed_size=4,
                       pca_d=3, condition_on="meaning_and_class")
        assert 4 * 96 * 96 > _INIT_BLOCK
        rng, ref_rng = np.random.default_rng(21), np.random.default_rng(21)
        params = init_params(cfg, 7, np.float32, classes=("N", "V"),
                             rng=rng)
        ref = reference_init(cfg, 7, classes=("N", "V"), rng=ref_rng,
                             dtype=np.float32)
        assert params.flat.dtype == np.float32
        assert params.flat.tobytes() == ref.flat.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("cond", CONDITION_MODES)
    def test_every_layout_is_param_shapes(self, tmp_path, layers, cond):
        cfg = LMConfig(layers=layers, hidden_size=6, phone_embed_size=4,
                       pca_d=3, condition_on=cond)
        classes = ("N", "V", "A") if cfg.uses_class else None
        shapes = param_shapes(cfg, 6, len(classes or ()))
        params = init_params(cfg, 6, np.float64, classes=classes,
                             rng=np.random.default_rng(22))
        assert [(n, a.shape) for n, a in params.named_arrays()] == list(
            shapes.items())
        inventory = PhoneInventory.from_phones(Phone(p) for p in ALPHABET)
        path = tmp_path / "model.archive"
        save_model(path, cfg, inventory, params)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        assert meta["param_names"] == list(shapes)
        inputs, targets, lengths = _pad(
            [np.array([1, 2, 3]), np.array([4])], 5)
        v = np.ones((2, 3)) if cfg.uses_meaning else None
        cidx = np.array([0, 2]) if cfg.uses_class else None
        _, _, grads = loss_and_grads(params, cfg, inputs, targets, lengths,
                                     v=v, cidx=cidx)
        assert [(n, g.shape) for n, g in grads.items()] == list(
            shapes.items())

    def test_gradients_land_in_the_given_buffer(self):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, 6, np.float64, rng=np.random.default_rng(17))
        inputs, targets, lengths = _pad(
            [np.array([1, 2, 3]), np.array([4])], 5)
        _, _, fresh = loss_and_grads(params, cfg, inputs, targets, lengths)
        buf = np.full(params.flat.size, 7.0)
        _, _, grads = loss_and_grads(params, cfg, inputs, targets, lengths,
                                     out=buf)
        assert grads.keys() == fresh.keys()
        for name, g in grads.items():
            assert np.shares_memory(g, buf)
            assert g.tobytes() == fresh[name].tobytes(), name

    def test_fit_holds_one_copy_of_the_parameters(self):
        """A fit holds four parameter-sized buffers of the training dtype
        (parameters, gradient and Adam's two moments) plus one batch's
        activations and backward temporaries. The initial draw goes
        through a small float64 block, never a float64 buffer. A fit that
        also kept an initial and a best-epoch copy peaked at 6.4
        buffers."""
        lex = small_corpus_lexicon(n=64, seed=0)
        cfg = LMConfig(layers=2, hidden_size=256, phone_embed_size=16)
        opt = OptSettings(max_epochs=1, batch_size=64)
        nbytes = init_params(cfg, len(lex.inventory), DTYPE).flat.nbytes
        peak, res = traced_peak(train_on_indices, lex, np.arange(48),
                                np.arange(48, 64), cfg, opt, 0)
        assert res.params.flat.dtype == DTYPE
        assert res.params.flat.nbytes == nbytes
        assert peak < 5.5 * nbytes


def reference_adam_steps(opt, p, g_steps):
    """The Adam update as whole-array expressions."""
    m, vv = np.zeros_like(p), np.zeros_like(p)
    for t, g in enumerate(g_steps, start=1):
        bc1, bc2 = 1.0 - opt.beta1 ** t, 1.0 - opt.beta2 ** t
        m *= opt.beta1
        m += (1 - opt.beta1) * g
        vv *= opt.beta2
        vv += (1 - opt.beta2) * g * g
        p -= opt.lr * (m / bc1) / (np.sqrt(vv / bc2) + opt.eps)
    return p


class _NoPromotion(np.ndarray):
    """A float32 array whose ufuncs refuse to run a float64 loop.

    Every ufunc result that has an operand of this type is of this type
    too, so the guard follows every value derived from the parameters. A
    loop that would promote a float32 operand of this type to float64
    raises TypeError. A float64 operand of this type comes only from an
    explicit astype, as the float64 code-length sums make, and its loops
    run.
    """

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        guarded = [x for x in inputs + out if isinstance(x, _NoPromotion)]
        if any(x.dtype == np.float32 for x in guarded):
            dtypes = tuple(type(x) if type(x) in (int, float) else
                           np.asarray(x).dtype for x in inputs)
            if method == "reduce":
                loop = ufunc.resolve_dtypes((None,) + dtypes + (None,),
                                            reduction=True)
            elif method == "at":
                loop = ufunc.resolve_dtypes(
                    (dtypes[0],) + dtypes[2:] + (None,) * ufunc.nout)
            else:
                loop = ufunc.resolve_dtypes(dtypes + (None,) * ufunc.nout)
            if kwargs.get("dtype") is not None:
                loop += (np.dtype(kwargs["dtype"]),)
            if np.dtype(np.float64) in loop:
                raise TypeError(f"{ufunc.__name__}.{method} runs a float64 "
                                "loop on float32 parameter values")
        plain = [x.view(np.ndarray) if isinstance(x, _NoPromotion) else x
                 for x in inputs]
        if out:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, _NoPromotion) else x
                for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out:
            return out[0] if len(out) == 1 else out
        if isinstance(result, np.ndarray):
            return result.view(_NoPromotion)
        return result


class TestDtypeDiscipline:
    """The float32 kernel, clipping and Adam never widen a float32 value
    to float64: only the code-length sums run in float64, from an
    explicit cast."""

    def guarded(self, cfg):
        lex = make_lexicon(["kat", "mast", "ta", "askt", "m", "sakam"],
                           pos=["N", "V", "N", "A", "V", "N"])
        params = init_params(cfg, len(lex.inventory), np.float64,
                             classes=lex.classes,
                             rng=np.random.default_rng(30))
        params = params.with_flat(
            params.flat.astype(np.float32).view(_NoPromotion))
        v = np.random.default_rng(31).normal(size=(len(lex.signs),
                                                   cfg.pca_d))
        cidx = np.array([params.class_index(s.pos) for s in lex.signs])
        return lex, params, v, cidx

    def test_guard_refuses_a_promotion(self):
        flat = np.ones(4, dtype=np.float32).view(_NoPromotion)
        flat *= np.float32(0.5)
        assert float(np.sum(flat.astype(np.float64))) == 2.0
        with pytest.raises(TypeError, match="float64 loop"):
            flat *= np.float64(0.5)
        with pytest.raises(TypeError, match="float64 loop"):
            np.add.at(flat, [0, 1], np.ones(2))
        with pytest.raises(TypeError, match="float64 loop"):
            np.add.reduce(flat, dtype=np.float64)

    @pytest.mark.parametrize("layers,dropout", [(1, 0.0), (2, 0.3)])
    def test_float32_step_and_scoring_stay_float32(self, layers, dropout):
        cfg = LMConfig(layers=layers, hidden_size=8, phone_embed_size=4,
                       pca_d=3, dropout=dropout,
                       condition_on="meaning_and_class")
        lex, params, v, cidx = self.guarded(cfg)
        inputs, targets, lengths = _pad(encode_signs(lex.signs,
                                                     lex.inventory),
                                        lex.inventory.eos_index)
        bits, tokens, grads = loss_and_grads(
            params, cfg, inputs, targets, lengths, v=v, cidx=cidx,
            drop_rng=np.random.default_rng(32) if dropout else None)
        assert np.isfinite(bits) and tokens == lengths.sum()
        assert all(isinstance(g, _NoPromotion) and g.dtype == np.float32
                   for g in grads.values())
        table = evaluate(params, cfg, lex.signs, lex.inventory, v=v)
        assert np.all(np.isfinite(table.bits))

        buf = np.empty_like(params.flat)
        loss_and_grads(params, cfg, inputs, targets, lengths, v=v,
                       cidx=cidx, out=buf)
        buf /= tokens
        assert _clip(params.views(buf), buf, 1e-3) > 1e-3
        adam = _Adam(OptSettings(), params.flat.size, np.float32)
        for name in ("m", "v", "_a", "_b"):
            setattr(adam, name, getattr(adam, name).view(_NoPromotion))
        adam.step(params.flat, buf)
        assert params.flat.dtype == np.float32


class TestAdam:
    def test_chunked_step_matches_whole_array_expressions(self):
        rng = np.random.default_rng(18)
        n = 2 * _CHUNK + 123
        opt = OptSettings(lr=3e-3)
        p = rng.normal(size=n).astype(DTYPE)
        g_steps = [rng.normal(size=n).astype(DTYPE) for _ in range(3)]
        adam = _Adam(opt, n, DTYPE)
        got = p.copy()
        for g in g_steps:
            adam.step(got, g)
        assert got.tobytes() == reference_adam_steps(
            opt, p.copy(), g_steps).tobytes()

    def test_step_allocates_nothing_parameter_sized(self):
        n = 1_200_000
        rng = np.random.default_rng(19)
        p, g = (rng.normal(size=n).astype(DTYPE) for _ in range(2))
        adam = _Adam(OptSettings(), n, DTYPE)
        peak, _ = traced_peak(adam.step, p, g)
        assert peak < 1 << 20


class TestClip:
    @pytest.mark.parametrize("shape", [
        (0,), (1,), (7,), (8,), (129,), (_SQ_BLOCK - 1,), (_SQ_BLOCK,),
        (_SQ_BLOCK + 1,), (3 * _SQ_BLOCK + 5,), (1820, 455), (2048, 512)])
    def test_sum_sq_is_numpys_pairwise_sum(self, shape):
        # _sum_sq mirrors numpy's pairwise summation; a numpy that summed
        # differently would fail here before it changed any clipped model.
        # Values over eight decades make the rounding depend on the order
        # of the additions; a 128-element scratch takes every split numpy
        # makes.
        rng = np.random.default_rng(21)
        g = (rng.normal(size=shape)
             * 10.0 ** rng.uniform(-4, 4, size=shape)).astype(DTYPE)
        want = DTYPE(np.sum(g * g)).tobytes()
        for block in (_SQ_BLOCK, 128):
            scratch = np.empty(min(g.size, block), dtype=DTYPE)
            got = _sum_sq(g.reshape(-1), scratch)
            assert got.dtype == DTYPE
            assert got.tobytes() == want

    def test_clip_allocates_no_gradient_sized_square(self):
        cfg = LMConfig(layers=2, hidden_size=455, phone_embed_size=16,
                       pca_d=8, condition_on="meaning")
        params = init_params(cfg, 5, DTYPE, rng=np.random.default_rng(22))
        grads = params.views(params.flat)
        largest = max(g.nbytes for g in grads.values())
        assert largest == 1820 * 455 * 4
        peak, norm = traced_peak(_clip, grads, params.flat, 1e9)
        assert norm < 1e9
        assert peak < largest / 4


class TestOptSettings:
    @pytest.mark.parametrize("bad", [
        {"batch_size": 0}, {"max_epochs": 0}, {"patience": -1},
        {"lr": 0.0}, {"lr": -1e-3}, {"eps": 0.0}, {"beta1": 1.0},
        {"beta1": -0.1}, {"beta2": 1.0}, {"clip_norm": 0.0},
        {"clip_norm": -5.0}, {"min_delta": float("inf")},
        {"min_delta": float("nan")}, {"lr": float("inf")},
        {"eps": float("inf")}, {"clip_norm": float("inf")},
        {"beta1": float("-inf")}, {"beta2": float("nan")}])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            OptSettings(**bad)

    def test_accepts_edges(self):
        OptSettings(batch_size=1, max_epochs=1, patience=0, beta1=0.0,
                    beta2=0.0, clip_norm=None)

    @pytest.mark.parametrize("value", [8.5, 2.0, "8", True])
    @pytest.mark.parametrize("name", ["batch_size", "max_epochs", "patience"])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got "):
            OptSettings(**{name: value})


class TestArchive:
    def roundtrip(self, tmp_path, cfg, classes=None, with_pca=False,
                  dtype=np.float64):
        params = init_params(cfg, 6, np.float64, classes=classes,
                             rng=np.random.default_rng(3))
        params = params.with_flat(params.flat.astype(dtype))
        inventory = PhoneInventory.from_phones(Phone(p) for p in ALPHABET)
        pca = None
        if with_pca:
            from signform.semspace import pca_fit
            pca = pca_fit(np.random.default_rng(0).normal(size=(20, 5)), 3)
        path = tmp_path / "model.archive"
        save_model(path, cfg, inventory, params, pca=pca,
                   extra={"note": "test"})
        arc = load_model(path)
        assert arc.cfg == cfg
        assert arc.inventory.phones == inventory.phones
        assert arc.extra == {"note": "test"}
        assert arc.params.flat.dtype == dtype
        assert arc.params.flat.tobytes() == params.flat.tobytes()
        for (n1, x), (n2, y) in zip(params.named_arrays(),
                                    arc.params.named_arrays()):
            assert n1 == n2
            np.testing.assert_array_equal(x, y)
        if with_pca:
            np.testing.assert_array_equal(arc.pca.components, pca.components)
        return arc

    def test_roundtrip_plain(self, tmp_path):
        """float64 tensors, as archives were written before fits trained in
        float32, load as float64."""
        self.roundtrip(tmp_path, LMConfig(hidden_size=8, phone_embed_size=4,
                                          layers=2))

    def test_roundtrip_float32(self, tmp_path):
        self.roundtrip(tmp_path, LMConfig(hidden_size=8, phone_embed_size=4,
                                          layers=2), dtype=np.float32)

    def test_fit_scores_after_reload_as_it_did_before(self, tmp_path):
        lex = small_corpus_lexicon(n=40, seed=6)
        cfg = LMConfig(hidden_size=8, phone_embed_size=4, layers=2)
        res = train_on_indices(lex, np.arange(30), np.arange(30, 40), cfg,
                               OptSettings(max_epochs=2), seed=1)
        path = tmp_path / "model.archive"
        save_model(path, cfg, lex.inventory, res.params)
        params = load_model(path).params
        assert params.flat.dtype == res.params.flat.dtype == DTYPE
        assert params.flat.tobytes() == res.params.flat.tobytes()
        fresh, again = (evaluate(p, cfg, lex.signs, lex.inventory)
                        for p in (res.params, params))
        assert again.bits.tobytes() == fresh.bits.tobytes()

    def test_roundtrip_conditioned_with_pca(self, tmp_path):
        arc = self.roundtrip(
            tmp_path,
            LMConfig(hidden_size=8, phone_embed_size=4, pca_d=3,
                     condition_on="meaning_and_class"),
            classes=("N", "V"), with_pca=True)
        assert arc.params.classes == ("N", "V")

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.archive"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(ArchiveFormatError):
            load_model(path)

    @pytest.mark.parametrize("keep", [0.0, 0.5])
    def test_rejects_truncated(self, tmp_path, keep):
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, 6, np.float64, rng=np.random.default_rng(0))
        inventory = PhoneInventory.from_phones(Phone(p) for p in ALPHABET)
        path = tmp_path / "model.archive"
        save_model(path, cfg, inventory, params)
        assert [p.name for p in tmp_path.iterdir()] == ["model.archive"]
        data = path.read_bytes()
        path.write_bytes(data[:int(keep * len(data))])
        with pytest.raises(ArchiveFormatError):
            load_model(path)

    def saved_with_meta(self, tmp_path, edit):
        """A plain model's archive, its header changed in place by edit."""
        return self.saved_with(tmp_path, lambda meta, data: edit(meta))

    def saved_with(self, tmp_path, edit):
        """A plain model's archive, its header and arrays changed in place
        by edit(meta, data)."""
        cfg = LMConfig(hidden_size=8, phone_embed_size=4)
        params = init_params(cfg, 6, np.float64, rng=np.random.default_rng(0))
        inventory = PhoneInventory.from_phones(Phone(p) for p in ALPHABET)
        path = tmp_path / "model.archive"
        save_model(path, cfg, inventory, params)
        data = dict(np.load(path, allow_pickle=False))
        meta = json.loads(bytes(data["meta"]).decode())
        edit(meta, data)
        data["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                     dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        return path, cfg

    def test_rejects_wrong_version(self, tmp_path):
        path, _ = self.saved_with_meta(
            tmp_path, lambda meta: meta.update(version=FORMAT_VERSION + 1))
        with pytest.raises(ArchiveFormatError):
            load_model(path)

    def test_loads_retired_knobs_at_kept_values(self, tmp_path):
        path, cfg = self.saved_with_meta(
            tmp_path, lambda meta: meta["config"].update(
                condition_state="both", condition_layers="first"))
        assert load_model(path).cfg == cfg

    @pytest.mark.parametrize("key,value", [("condition_state", "hidden"),
                                           ("condition_state", "cell"),
                                           ("condition_layers", "all")])
    def test_rejects_retired_knobs_at_other_values(self, tmp_path, key,
                                                   value):
        path, _ = self.saved_with_meta(
            tmp_path, lambda meta: meta["config"].update({key: value}))
        with pytest.raises(ArchiveFormatError, match=key):
            load_model(path)

    def test_rejects_a_tensor_of_the_wrong_shape(self, tmp_path):
        def cut(meta, data):
            data["param.w_out"] = data["param.w_out"][:, :5]
            data["param.b_out"] = data["param.b_out"][:3]

        path, _ = self.saved_with(tmp_path, cut)
        with pytest.raises(ArchiveFormatError,
                           match=r"tensor w_out has shape \(6, 5\)"):
            load_model(path)

    def test_rejects_param_names_off_the_layout(self, tmp_path):
        def swap(meta):
            names = meta["param_names"]
            names[1], names[2] = names[2], names[1]

        path, _ = self.saved_with_meta(tmp_path, swap)
        with pytest.raises(ArchiveFormatError,
                           match=r"\['embed', 'wh0', 'wx0'"):
            load_model(path)

    def test_rejects_a_tensor_the_config_does_not_have(self, tmp_path):
        def add(meta, data):
            meta["param_names"].append("w_v")
            data["param.w_v"] = np.zeros((8, 3))

        path, _ = self.saved_with(tmp_path, add)
        with pytest.raises(ArchiveFormatError, match="'b_out', 'w_v'\\]"):
            load_model(path)

    def test_rejects_a_class_model_without_classes(self, tmp_path):
        path, _ = self.saved_with_meta(
            tmp_path, lambda meta: meta["config"].update(condition_on="class"))
        with pytest.raises(ArchiveFormatError, match="class labels"):
            load_model(path)

    @pytest.mark.parametrize("config", [
        {"hiden_size": 8, "phone_embed_size": 4},
        {"hidden_size": "8", "phone_embed_size": 4},
        {"hidden_size": 8, "phone_embed_size": 4, "dropout": 1.5}])
    def test_rejects_a_config_lmconfig_cannot_take(self, tmp_path, config):
        path, _ = self.saved_with_meta(
            tmp_path, lambda meta: meta.update(config=config))
        with pytest.raises(ArchiveFormatError, match="bad config"):
            load_model(path)

    @pytest.mark.parametrize("hidden_size", [8.0, "8"])
    def test_rejects_a_non_integer_size(self, tmp_path, hidden_size):
        path, _ = self.saved_with_meta(
            tmp_path,
            lambda meta: meta["config"].update(hidden_size=hidden_size))
        with pytest.raises(ArchiveFormatError,
                           match="hidden_size must be an integer"):
            load_model(path)

    @pytest.mark.parametrize("name,dtype,match", [
        ("wh0", np.float32, "tensor wh0 has dtype float32, tensor embed "
                            "float64"),
        ("embed", np.int64, "tensor embed has dtype int64, not float32"),
        ("b_out", np.float16, "tensor b_out has dtype float16, not float32")])
    def test_rejects_tensor_dtypes(self, tmp_path, name, dtype, match):
        def cast(meta, data):
            data[f"param.{name}"] = data[f"param.{name}"].astype(dtype)

        path, _ = self.saved_with(tmp_path, cast)
        with pytest.raises(ArchiveFormatError, match=match):
            load_model(path)
