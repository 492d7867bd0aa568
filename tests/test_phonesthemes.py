import itertools

import numpy as np
import pytest

from signform import phonesthemes
from signform.errors import SignSetMismatchError
from signform.lexicon import Lexicon, Phone, PhoneInventory, Sign
from signform.phonesthemes import (
    AffixCandidate,
    MiningSettings,
    _permutation_sums,
    _test_k,
    enumerate_candidates,
    mine,
    pointwise_mi_table,
    reverse_forms,
)
from signform.stats import bh_correct
from signform.synthbench import generate, planted_prefix_spec

from signform.phonolm import LossTable

from oracle_utils import (
    oracle_loss_tables,
    pointwise_affix_mi,
    reference_test_k,
    row_bits,
    traced_peak,
)


def make_lex(forms, lemmas=None, dim=2, language="toy"):
    lemmas = lemmas or [f"w{i}" for i in range(len(forms))]
    phones = sorted({ch for f in forms for ch in f})
    inv = PhoneInventory.from_phones(Phone(p) for p in phones)
    signs = [Sign(lemma=lm, form=tuple(Phone(ch) for ch in f),
                  meaning=np.zeros(dim), pos="N")
             for lm, f in zip(lemmas, forms)]
    return Lexicon(language=language, inventory=inv, signs=signs,
                   classes=("N",))


def random_tables(lex, rng, gap_scale=1.0):
    """Aligned (uncond, cond) loss tables with i.i.d. noise deltas."""
    ubits, cbits = [], []
    for sign in lex.signs:
        n = len(sign.form) + 1
        ub = rng.uniform(1.0, 4.0, size=n)
        ubits.append(ub)
        cbits.append(ub - gap_scale * rng.normal(size=n))
    keys = [s.key for s in lex.signs]
    return LossTable.from_rows(keys, ubits), LossTable.from_rows(keys, cbits)


def take_rows(table, rows):
    """The table of the given rows, in that order."""
    bits = row_bits(table)
    return LossTable.from_rows([table.keys[i] for i in rows],
                               [bits[i] for i in rows])


def ks_uniform(p):
    p = np.sort(np.asarray(p, dtype=np.float64))
    n = p.size
    up = np.max(np.arange(1, n + 1) / n - p)
    down = np.max(p - np.arange(n) / n)
    return max(up, down)


class TestPointwiseAffixMI:
    def test_hand_values(self):
        ub = [2.0, 3.0, 4.0]
        cb = [1.0, 1.0, 1.0]
        assert pointwise_affix_mi(ub, cb, 1) == pytest.approx(1.0)
        assert pointwise_affix_mi(ub, cb, 2) == pytest.approx(1.5)
        assert pointwise_affix_mi(ub, cb, 3) == pytest.approx(2.0)

    def test_full_k_equals_per_phone_delta(self):
        rng = np.random.default_rng(0)
        ub = rng.uniform(1, 3, size=6)
        cb = rng.uniform(0.5, 2.5, size=6)
        want = (ub.sum() - cb.sum()) / 6
        assert pointwise_affix_mi(ub, cb, 6) == pytest.approx(want, abs=1e-12)

    def test_errors(self):
        with pytest.raises(SignSetMismatchError):
            pointwise_affix_mi([1.0, 2.0], [1.0], 1)
        with pytest.raises(ValueError):
            pointwise_affix_mi([1.0, 2.0], [1.0, 2.0], 0)
        with pytest.raises(ValueError):
            pointwise_affix_mi([1.0, 2.0], [1.0, 2.0], 3)


class TestPointwiseMITable:
    def test_matches_per_word_reference(self):
        # Lengths 1..12 put rows on both sides of numpy's 8-wide pairwise
        # summation; every k up to the longest end marker is checked.
        rng = np.random.default_rng(1)
        forms = ["ka", "t", "tam"] + [
            "".join(rng.choice(list("akmt"), size=n)) for n in range(1, 13)]
        lex = make_lex(forms)
        u, c = random_tables(lex, rng, gap_scale=3.0)
        for k in range(1, max(len(f) for f in forms) + 2):
            table = pointwise_mi_table(lex, u, c, k=k)
            for form, ub, cb, got in zip(forms, row_bits(u), row_bits(c),
                                         table):
                if len(form) < k:
                    assert np.isnan(got)
                else:
                    assert got == pointwise_affix_mi(ub, cb, k)

    def test_misaligned_tables_rejected(self):
        lex = make_lex(["ka", "ta", "ma"])
        rng = np.random.default_rng(2)
        u, c = random_tables(lex, rng)
        for rows in ([2, 1, 0], [0, 1]):
            with pytest.raises(SignSetMismatchError):
                pointwise_mi_table(lex, take_rows(u, rows),
                                   take_rows(c, rows), k=1)
            with pytest.raises(SignSetMismatchError):
                pointwise_mi_table(lex, u, take_rows(c, rows), k=1)
        short = LossTable(keys=u.keys, bits=u.bits[:-1],
                          offsets=[0, 3, 6, 8])
        with pytest.raises(SignSetMismatchError):
            pointwise_mi_table(lex, u, short, k=1)
        with pytest.raises(ValueError):
            pointwise_mi_table(lex, u, c, k=0)


class TestEnumerateCandidates:
    def test_prefix_hand_counts(self):
        lex = make_lex(["ka", "kat", "ta", "t"])
        cands = enumerate_candidates(lex, (1, 2), min_count=1)
        by_key = {(c.k, "".join(c.phones)): c for c in cands}
        assert by_key[(1, "k")].count == 2
        assert by_key[(1, "t")].count == 2
        assert by_key[(2, "ka")].count == 2
        assert by_key[(2, "ta")].count == 1
        assert len(cands) == 4
        np.testing.assert_array_equal(by_key[(1, "k")].word_indices, [0, 1])

    def test_suffix_hand_counts(self):
        # Suffixes are the prefixes of the reversed forms, as mine() reads
        # them.
        lex = reverse_forms(make_lex(["ka", "kat", "ta", "t"]))
        cands = enumerate_candidates(lex, (1, 2), min_count=1)
        by_key = {(c.k, "".join(reversed(c.phones))): c for c in cands}
        assert by_key[(1, "a")].count == 2
        assert by_key[(1, "t")].count == 2
        assert by_key[(2, "ka")].count == 1
        assert by_key[(2, "at")].count == 1
        assert by_key[(2, "ta")].count == 1
        assert len(cands) == 5
        np.testing.assert_array_equal(by_key[(1, "a")].word_indices, [0, 2])

    def test_min_count_filters(self):
        lex = make_lex(["ka", "kat", "ta", "t"])
        cands = enumerate_candidates(lex, (1, 2), min_count=2)
        keys = {(c.k, "".join(c.phones)) for c in cands}
        assert keys == {(1, "k"), (1, "t"), (2, "ka")}

    def test_short_words_never_contribute(self):
        lex = make_lex(["t", "ta"])
        cands = enumerate_candidates(lex, (2,), min_count=1)
        assert len(cands) == 1
        np.testing.assert_array_equal(cands[0].word_indices, [1])

    def test_partition_of_eligible_words(self):
        rng = np.random.default_rng(3)
        forms = ["".join(rng.choice(list("akt"), size=rng.integers(1, 5)))
                 for _ in range(60)]
        lex = make_lex(forms, lemmas=[str(i) for i in range(60)])
        for k in (1, 2, 3):
            cands = enumerate_candidates(lex, (k,), min_count=1)
            seen = np.concatenate([c.word_indices for c in cands]) \
                if cands else np.array([], dtype=np.int64)
            eligible = [i for i, s in enumerate(lex.signs)
                        if len(s.form) >= k]
            assert sorted(seen.tolist()) == eligible

    def test_deterministic_order(self):
        lex = make_lex(["ka", "kat", "ta", "t"])
        a = enumerate_candidates(lex, (2, 1), min_count=1)
        b = enumerate_candidates(lex, (1, 2), min_count=1)
        assert [(c.k, c.phones) for c in a] == [(c.k, c.phones) for c in b]
        ks = [c.k for c in a]
        assert ks == sorted(ks)

    def test_bad_arguments(self):
        lex = make_lex(["ka"])
        with pytest.raises(ValueError):
            enumerate_candidates(lex, (1,), min_count=0)
        with pytest.raises(ValueError):
            enumerate_candidates(lex, (0,), min_count=1)


def subset_means(pop, n, n_samples, rng, also=()):
    """Null means of size n (and of each size in also) from one stream."""
    pop = np.asarray(pop, dtype=np.float64)
    sizes = (n,) + tuple(also)
    chunks = [sums[:, [m - 1 for m in sizes]] / sizes for _, sums in
              _permutation_sums(pop[None], [max(sizes)], n_samples, rng)]
    means = np.concatenate(chunks)
    return means[:, 0] if not also else means


class TestSubsetMeans:
    def exact_means(self, pop, n):
        return sorted(np.mean(c) for c in itertools.combinations(pop, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_enumeration_distribution(self, n):
        pop = np.array([0.0, 1.0, 10.0, 100.0, 1000.0])
        rng = np.random.default_rng(100 + n)
        draws = subset_means(pop, n, 20000, rng)
        support = self.exact_means(pop, n)
        assert set(np.round(draws, 9)) <= set(np.round(support, 9))
        for mean in support:
            freq = np.mean(np.isclose(draws, mean))
            assert freq == pytest.approx(1.0 / len(support), abs=0.015)

    def test_shared_stream_matches_every_size(self):
        # One permutation per sample serves all sizes; each size's means
        # must still follow its own enumerated distribution.
        pop = np.array([0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0])
        sizes = (1, 2, 3, 5)
        draws = subset_means(pop, sizes[0], 30000,
                             np.random.default_rng(12), also=sizes[1:])
        assert draws.shape == (30000, len(sizes))
        for col, n in enumerate(sizes):
            support = self.exact_means(pop, n)
            assert set(np.round(draws[:, col], 9)) <= set(
                np.round(support, 9))
            for mean in support:
                freq = np.mean(np.isclose(draws[:, col], mean))
                assert freq == pytest.approx(1.0 / len(support), abs=0.015)

    def test_full_population(self):
        pop = np.array([1.0, 2.0, 7.0])
        draws = subset_means(pop, 3, 50, np.random.default_rng(0))
        np.testing.assert_array_equal(draws, np.full(50, pop.mean()))

    def test_unbiased_mean(self):
        rng = np.random.default_rng(5)
        pop = rng.normal(size=200)
        draws = subset_means(pop, 37, 4000, np.random.default_rng(6))
        assert draws.mean() == pytest.approx(pop.mean(), abs=0.012)

    def test_out_of_range(self):
        pop = np.arange(4.0)
        with pytest.raises(ValueError):
            subset_means(pop, 0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            subset_means(pop, 5, 10, np.random.default_rng(0))

    def test_shared_counts_match_enumerated_tails(self):
        # Several candidates of one k counted from one stream: each p must
        # match the exact share of same-sized word sets whose mean reaches
        # the candidate's own.
        pop = np.array([0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0, 3.0, 30.0])
        cands = [stub_candidate(idx) for idx in
                 ([2], [1, 3], [0, 2, 7], [1, 2, 3, 6, 7], [4, 5, 6])]
        got = _test_k([pop], [(0, c) for c in cands], 1, 20000, 15)
        for cand, (p, observed) in zip(cands, got):
            means = [np.mean(c) for c in
                     itertools.combinations(pop, cand.count)]
            exact = np.mean(np.asarray(means) >= observed - 1e-9)
            assert p == pytest.approx(exact, abs=0.015)

    def test_count_ignores_other_candidates_of_its_k(self):
        # Candidates of one k share the stream, but each one's count reads
        # only its own column: adding or removing the others changes
        # nothing, in mine() or alone.
        rng = np.random.default_rng(13)
        pmis = rng.normal(size=90)
        pmis[:6] += 1.0
        cands = [stub_candidate(np.arange(0, 6)),
                 stub_candidate(np.arange(6, 40), phones=("y",)),
                 stub_candidate(np.arange(40, 45), phones=("z",))]
        alone = [one_candidate_test(c, pmis, 3000, 14)
                 for c in cands]
        for subset in ([0], [0, 1], [1, 2], [0, 1, 2], [2, 0]):
            batch = [(0, cands[i]) for i in subset]
            got = _test_k([pmis], batch, 1, 3000, 14)
            assert got == [alone[i] for i in subset]


def one_candidate_test(cand, pmis, n_samples, seed):
    """(p_value, observed_mean) of one candidate alone on one PMI row."""
    return _test_k([pmis], [(0, cand)], cand.k, n_samples, seed)[0]


def stub_candidate(indices, phones=("x",)):
    idx = np.asarray(indices, dtype=np.int64)
    return AffixCandidate(phones=tuple(Phone(p) for p in phones),
                          side="prefix", word_indices=idx,
                          count=int(idx.shape[0]))


def two_row_batch(n_words, n_cands, max_count, seed):
    """Two PMI rows over n_words words (the first 20 ineligible in both)
    and n_cands random candidates alternating between the rows."""
    rng = np.random.default_rng(seed)
    tables = [rng.normal(size=n_words) for _ in range(2)]
    for t in tables:
        t[:20] = np.nan
    batch = [(i % 2, stub_candidate(rng.choice(
        np.arange(20, n_words), int(rng.integers(1, max_count + 1)),
        replace=False))) for i in range(n_cands)]
    return tables, batch


class TestNullBlocks:
    @pytest.fixture
    def batch(self):
        tables, batch = two_row_batch(320, 10, 120, 31)
        # Two candidates of one size on one row, one of them shifted up.
        batch.append((1, stub_candidate(np.arange(60, 100))))
        batch.append((1, stub_candidate(np.arange(20, 60))))
        tables[1][20:60] += 0.3
        return tables, batch

    def test_p_values_do_not_depend_on_the_block(self, batch, monkeypatch):
        # 300 eligible words: blocks of 1, 8, 218 and 1001 permutations,
        # and 1001 samples is a multiple of none but the first and last.
        tables, cands = batch
        got = []
        for elems in (1, 2401, 1 << 16, 1 << 19):
            monkeypatch.setattr(phonesthemes, "_CHUNK_ELEMS", elems)
            got.append(_test_k(tables, cands, 2, 1001, 17))
        assert all(g == got[0] for g in got[1:])
        assert len({p for p, _ in got[0]}) > 1

    def test_vectorised_count_matches_per_candidate_loop(self):
        # Single-word candidates tie with the draws of their own word.
        tables, cands = two_row_batch(500, 36, 200, 32)
        cands += [(row, stub_candidate([20 + row + 2 * i]))
                  for i in range(2) for row in (0, 1)]
        assert _test_k(tables, cands, 1, 1500, 18) == reference_test_k(
            tables, cands, 1, 1500, 18)

    @pytest.mark.parametrize("n_samples", [1000, 40000])
    def test_peak_memory_is_one_block(self, n_samples):
        # Widths 325 and 309 of 800 words, as on the phonesthemes
        # benchmark lexicon at k=1.
        rng = np.random.default_rng(33)
        tables = [rng.normal(size=800) for _ in range(2)]
        cands = [(row, stub_candidate(rng.choice(800, n, replace=False)))
                 for row, n in ((0, 325), (0, 70), (1, 309), (1, 150))]
        peak, _ = traced_peak(_test_k, tables, cands, 1, n_samples, 19)
        assert peak < 1.5 * 2**20


class TestPhonesthemeTest:
    def test_all_equal_pmis_tie_to_one(self):
        pmis = np.full(30, 0.7)
        cand = stub_candidate([2, 5, 9])
        p, observed = one_candidate_test(cand, pmis, 200, 0)
        assert p == 1.0
        assert observed == pytest.approx(0.7)

    def test_whole_population_candidate_ties_to_one(self):
        rng = np.random.default_rng(7)
        pmis = rng.normal(size=25)
        cand = stub_candidate(np.arange(25))
        p, observed = one_candidate_test(cand, pmis, 200, 0)
        assert p == 1.0
        assert observed == pytest.approx(pmis.mean())

    def test_singleton_max_has_inverse_population_p(self):
        rng = np.random.default_rng(8)
        pmis = rng.normal(size=10)
        cand = stub_candidate([int(np.argmax(pmis))])
        p, _ = one_candidate_test(cand, pmis, 20000, 1)
        assert p == pytest.approx(0.1, abs=0.01)

    def test_add_one_smoothing_floor(self):
        # 2 of 2002 words carry the signal: the chance of redrawing exactly
        # that pair is ~1/2e6 per sample, so this seed sees no tie.
        pmis = np.concatenate([np.zeros(2000), [100.0, 100.0]])
        cand = stub_candidate([2000, 2001])
        p, _ = one_candidate_test(cand, pmis, 999, 2)
        assert p == pytest.approx(1.0 / 1000.0)

    def test_larger_observed_never_larger_p(self):
        rng = np.random.default_rng(9)
        pmis = rng.normal(size=50)
        order = np.argsort(pmis)
        low = stub_candidate(order[:8])
        high = stub_candidate(order[-8:])
        p_low, o_low = one_candidate_test(low, pmis, 2000, 3)
        p_high, o_high = one_candidate_test(high, pmis, 2000, 3)
        assert o_high > o_low
        assert p_high < p_low

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(10)
        pmis = rng.normal(size=60)
        cand = stub_candidate(np.arange(0, 24, 2))
        a = one_candidate_test(cand, pmis, 400, 4)
        b = one_candidate_test(cand, pmis, 400, 4)
        c = one_candidate_test(cand, pmis, 400, 5)
        assert a == b
        assert a[0] != c[0]

    def test_count_population_and_nan_errors(self):
        pmis = np.array([0.1, np.nan, 0.3])
        with pytest.raises(ValueError):
            one_candidate_test(stub_candidate([1]), pmis, 10, 0)
        with pytest.raises(ValueError):
            one_candidate_test(stub_candidate([0, 2, 0]), pmis, 10, 0)
        bad = stub_candidate([0, 2])
        bad.count = 3
        with pytest.raises(ValueError):
            one_candidate_test(bad, pmis, 10, 0)

    def test_p_uniform_under_exchangeable_noise(self):
        # Fixed word set, fresh i.i.d. noise each repeat: p ~ U(0, 1).
        rng = np.random.default_rng(11)
        cand = stub_candidate(np.arange(12))
        ps = []
        for rep in range(1000):
            pmis = rng.normal(size=80)
            p, _ = one_candidate_test(cand, pmis, 499, rep)
            ps.append(p)
        assert ks_uniform(ps) <= 0.05


class TestReverseForms:
    def test_involution_and_metadata(self):
        lex = make_lex(["kat", "ta", "m"], lemmas=["cat", "two", "em"])
        rev = reverse_forms(lex)
        assert [s.form for s in rev.signs] == [("t", "a", "k"), ("a", "t"),
                                               ("m",)]
        back = reverse_forms(rev)
        assert [s.form for s in back.signs] == [s.form for s in lex.signs]
        for a, b in zip(rev.signs, lex.signs):
            assert a.lemma == b.lemma
            assert a.pos == b.pos
            np.testing.assert_array_equal(a.meaning, b.meaning)
        assert rev.language == lex.language
        assert rev.classes == lex.classes
        assert rev.inventory is lex.inventory


class TestMine:
    def small_setup(self, seed=20, n=40):
        rng = np.random.default_rng(seed)
        forms = ["".join(rng.choice(list("aglmt"),
                                    size=rng.integers(2, 5)))
                 for _ in range(n)]
        lex = make_lex(forms, lemmas=[f"w{i}" for i in range(n)])
        u, c = random_tables(lex, rng)
        rev = reverse_forms(lex)
        ru, rc = random_tables(rev, rng)
        return lex, u, c, rev, ru, rc

    def test_degenerate_identical_models(self):
        lex, u, _, _, _, _ = self.small_setup()
        res = mine(lex, (u, u), MiningSettings(k_range=(1, 2), min_count=2,
                                               n_samples=200), 0)
        assert res
        assert all(c.p_value == 1.0 for c in res)
        assert all(not c.bh_significant for c in res)
        assert all(c.avg_pmi == pytest.approx(0.0, abs=1e-12) for c in res)

    def test_suffix_equals_reversed_prefix(self):
        lex, u, c, rev, ru, rc = self.small_setup()
        settings = MiningSettings(k_range=(1, 2), min_count=3, n_samples=500)
        both = mine(lex, (u, c), settings, 7, (ru, rc))
        direct = mine(rev, (ru, rc), settings, 7)
        suffixes = {(c.k, c.phones): c for c in both if c.side == "suffix"}
        prefixes = {(c.k, c.phones): c for c in direct}
        assert suffixes
        assert set(suffixes) == {(k, tuple(reversed(ph)))
                                 for k, ph in prefixes}
        for (k, phones), s in suffixes.items():
            match = prefixes[(k, tuple(reversed(phones)))]
            assert s.count == match.count
            assert s.avg_pmi == match.avg_pmi
            assert s.p_value == match.p_value
            np.testing.assert_array_equal(s.word_indices,
                                          match.word_indices)

    def test_p_equals_single_candidate_test(self):
        # Sharing a k's stream among candidates and both sides leaves each
        # candidate's p what it would be if tested alone.
        lex, u, c, rev, ru, rc = self.small_setup(seed=26)
        res = mine(lex, (u, c), MiningSettings(k_range=(1, 2), min_count=3,
                                               n_samples=400), 6, (ru, rc))
        assert {x.side for x in res} == {"prefix", "suffix"}
        for cand in res:
            eval_lex, eu, ec = ((lex, u, c) if cand.side == "prefix"
                                else (rev, ru, rc))
            phones = (cand.phones if cand.side == "prefix"
                      else cand.phones[::-1])
            table = pointwise_mi_table(eval_lex, eu, ec, cand.k)
            alone = one_candidate_test(
                stub_candidate(cand.word_indices, phones), table, 400, 6)
            assert alone == (cand.p_value, cand.avg_pmi)

    def test_bh_is_joint_and_sorted(self):
        lex, u, c, _, ru, rc = self.small_setup(seed=21)
        res = mine(lex, (u, c), MiningSettings(k_range=(1, 2), min_count=3,
                                               n_samples=300), 2, (ru, rc))
        assert any(c.side == "prefix" for c in res)
        assert any(c.side == "suffix" for c in res)
        reject, adjusted = bh_correct([c.p_value for c in res], alpha=0.05)
        np.testing.assert_allclose([c.p_adjusted for c in res], adjusted)
        assert [c.bh_significant for c in res] == list(reject)
        adj = [c.p_adjusted for c in res]
        assert adj == sorted(adj)

    def test_examples_and_counts(self):
        lex, u, c, _, _, _ = self.small_setup(seed=22, n=60)
        res = mine(lex, (u, c), MiningSettings(k_range=(1,), min_count=4,
                                               n_samples=200), 3)
        for cand in res:
            assert cand.count >= 4
            assert 1 <= len(cand.example_lemmata) <= 5
            carriers = {lex.signs[i].lemma for i in cand.word_indices}
            assert set(cand.example_lemmata) <= carriers

    def test_deterministic(self):
        lex, u, c, _, _, _ = self.small_setup(seed=23)
        settings = MiningSettings(k_range=(1, 2), min_count=3, n_samples=300)
        a = mine(lex, (u, c), settings, 4)
        b = mine(lex, (u, c), settings, 4)
        assert [(x.phones, x.p_value, x.avg_pmi) for x in a] == \
            [(x.phones, x.p_value, x.avg_pmi) for x in b]

    def test_reversed_lexicon_validated(self):
        # The reverse pair must hold reverse_forms(lex)'s signs in order:
        # the forward pair, or the reverse pair reordered, is refused.
        lex, u, c, _, ru, rc = self.small_setup(seed=24)
        settings = MiningSettings(k_range=(1, 2), min_count=3, n_samples=50)
        assert mine(lex, (u, c), settings, 0, (ru, rc))
        rows = np.arange(len(lex.signs))[::-1]
        for reverse in ((u, c), (take_rows(ru, rows), take_rows(rc, rows))):
            with pytest.raises(SignSetMismatchError):
                mine(lex, (u, c), settings, 0, reverse)

    def test_partition_identity(self):
        lex, u, c, _, _, _ = self.small_setup(seed=25, n=50)
        res = mine(lex, (u, c), MiningSettings(k_range=(2,), min_count=1,
                                               n_samples=50), 5)
        table = pointwise_mi_table(lex, u, c, k=2)
        eligible = table[~np.isnan(table)]
        weighted = sum(x.count * x.avg_pmi for x in res)
        total = sum(x.count for x in res)
        assert total == eligible.size
        assert weighted / total == pytest.approx(eligible.mean(), abs=1e-9)


class TestPlantedPrefixOracle:
    def test_planted_prefix_found_others_not(self):
        spec = planted_prefix_spec()
        lex, labels = generate(spec, 900, seed=5)
        uncond, cond = oracle_loss_tables(spec, lex, labels)
        res = mine(lex, (uncond, cond),
                   MiningSettings(k_range=(1, 2), min_count=15, alpha=0.05,
                                  n_samples=4000), 9)
        assert res
        planted = [c for c in res
                   if c.phones == (Phone("g"), Phone("l"))]
        assert len(planted) == 1
        assert planted[0].bh_significant
        assert planted[0].p_adjusted <= 0.01
        assert planted[0].avg_pmi > 0
        for cand in res:
            if cand.phones[0] != Phone("g"):
                assert not cand.bh_significant

    def test_null_pair_mixture_scores_find_nothing(self):
        spec = planted_prefix_spec()
        lex, labels = generate(spec, 400, seed=6)
        uncond, cond = oracle_loss_tables(spec, lex, labels,
                                          conditional="mixture")
        res = mine(lex, (uncond, cond),
                   MiningSettings(k_range=(1, 2), min_count=15,
                                  n_samples=500), 10)
        assert res
        assert all(c.p_value == 1.0 for c in res)
        assert not any(c.bh_significant for c in res)
