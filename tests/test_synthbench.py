import dataclasses
import json

import numpy as np
import pytest

from signform.errors import InfeasibleSpecError
from signform.seeding import derive_rng
from signform.synthbench import (
    ClusterChain,
    SyntheticSpec,
    exact_entropy,
    exact_mi,
    generate,
    independent_spec,
    oracle_word_bits,
    planted_prefix_spec,
    two_cluster_spec,
)


def single_chain_spec(start, trans, stop, max_len, alphabet, prior=None,
                      chains=None, planted=None):
    if chains is None:
        chains = (ClusterChain(start, trans, stop),)
    if prior is None:
        prior = np.ones(len(chains)) / len(chains)
    m = len(chains)
    return SyntheticSpec(alphabet=alphabet, prior=prior, chains=chains,
                         centroids=np.zeros((m, 4)), noise_scale=0.5,
                         max_len=max_len, planted=planted)


def word_prob(spec, c, phones):
    """Direct word probability under one cluster, for cross-checking."""
    chain = spec.chains[c]
    cap = spec.max_len
    if spec.planted is not None and spec.planted[0] == c:
        prefix = spec.planted[1]
        m = len(prefix)
        if len(phones) < m or tuple(phones[:m]) != prefix:
            return 0.0
        p = 1.0
        rest = phones[m:]
        prev = prefix[-1]
    else:
        p = float(chain.start[phones[0]])
        rest = phones[1:]
        prev = phones[0]
    for x in rest:
        p *= (1 - chain.stop[prev]) * chain.trans[prev, x]
        prev = x
    p *= 1.0 if len(phones) == cap else float(chain.stop[prev])
    return p


class TestExactEntropy:
    def test_uniform_single_phone_words(self):
        spec = single_chain_spec(np.array([0.5, 0.5]), np.full((2, 2), 0.5),
                                 np.ones(2), max_len=1, alphabet=("a", "b"))
        ee = exact_entropy(spec)
        assert ee.total_bits == pytest.approx(1.0, abs=1e-12)
        assert ee.expected_tokens == pytest.approx(2.0, abs=1e-12)
        assert ee.bits_per_phone == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_word(self):
        spec = single_chain_spec(np.array([1.0, 0.0]),
                                 np.array([[0.0, 1.0], [1.0, 0.0]]),
                                 np.zeros(2), max_len=3, alphabet=("a", "b"))
        ee = exact_entropy(spec)
        assert ee.total_bits == pytest.approx(0.0, abs=1e-12)
        assert ee.bits_per_phone == pytest.approx(0.0, abs=1e-12)

    def test_two_cluster_hand_values(self):
        ee = exact_entropy(two_cluster_spec())
        assert ee.total_bits == pytest.approx(2.0, abs=1e-12)
        assert ee.expected_tokens == pytest.approx(3.0, abs=1e-12)
        assert ee.bits_per_phone == pytest.approx(2 / 3, abs=1e-12)
        np.testing.assert_allclose(ee.cluster_bits, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(ee.cluster_expected_tokens, [3.0, 3.0],
                                   atol=1e-12)
        assert ee.conditional_total_bits == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_enumeration_random_spec(self):
        rng = np.random.default_rng(8)
        alphabet = ("a", "b", "c")
        chains = tuple(
            ClusterChain(rng.dirichlet(np.ones(3)),
                         rng.dirichlet(np.ones(3), size=3),
                         rng.uniform(0.2, 0.6, size=3))
            for _ in range(2))
        spec = single_chain_spec(None, None, None, max_len=4,
                                 alphabet=alphabet,
                                 prior=np.array([0.3, 0.7]), chains=chains)
        # Brute force over all strings, python-side.
        import itertools
        h = 0.0
        tok = 0.0
        for k in range(1, 5):
            for phones in itertools.product(range(3), repeat=k):
                p = sum(spec.prior[c] * word_prob(spec, c, list(phones))
                        for c in range(2))
                if p > 0:
                    h -= p * np.log2(p)
                    tok += (k + 1) * p
        ee = exact_entropy(spec)
        assert ee.total_bits == pytest.approx(h, abs=1e-10)
        assert ee.expected_tokens == pytest.approx(tok, abs=1e-10)

    def test_planted_prefix_enumeration(self):
        spec = planted_prefix_spec(max_len=4)
        import itertools
        s = len(spec.alphabet)
        h = 0.0
        cond = np.zeros(2)
        for k in range(1, 5):
            for phones in itertools.product(range(s), repeat=k):
                ps = [word_prob(spec, c, list(phones)) for c in range(2)]
                p = float(spec.prior @ np.array(ps))
                if p > 0:
                    h -= p * np.log2(p)
                for c, pc in enumerate(ps):
                    if pc > 0:
                        cond[c] -= pc * np.log2(pc)
        ee = exact_entropy(spec)
        assert ee.total_bits == pytest.approx(h, abs=1e-10)
        np.testing.assert_allclose(ee.cluster_bits, cond, atol=1e-10)


class TestExactMi:
    def test_single_cluster_zero(self):
        assert exact_mi(independent_spec()) == pytest.approx(0.0, abs=1e-12)

    def test_two_cluster_third_bit(self):
        assert exact_mi(two_cluster_spec()) == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_chains_zero_any_prior(self):
        rng = np.random.default_rng(3)
        chain = ClusterChain(rng.dirichlet(np.ones(3)),
                             rng.dirichlet(np.ones(3), size=3),
                             rng.uniform(0.3, 0.7, size=3))
        spec = single_chain_spec(None, None, None, max_len=4,
                                 alphabet=("a", "b", "c"),
                                 prior=np.array([0.2, 0.8]),
                                 chains=(chain, chain))
        assert exact_mi(spec) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_on_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            chains = tuple(
                ClusterChain(rng.dirichlet(np.ones(3)),
                             rng.dirichlet(np.ones(3), size=3),
                             rng.uniform(0.1, 0.8, size=3))
                for _ in range(m))
            spec = single_chain_spec(None, None, None, max_len=5,
                                     alphabet=("a", "b", "c"),
                                     prior=rng.dirichlet(np.ones(m)),
                                     chains=chains)
            assert exact_mi(spec) >= 0.0


def reference_forms(spec, n_words, seed):
    """Clusters, meanings and phone-index forms from one rng.choice call
    per phone and one rng.random() per stop test, the draws generate
    replays."""
    rng = derive_rng(seed, "synth", spec.language)
    s, cap = len(spec.alphabet), spec.max_len
    clusters = rng.choice(spec.n_clusters, size=n_words, p=spec.prior)
    meanings = (spec.centroids[clusters] + spec.noise_scale
                * rng.standard_normal((n_words, spec.meaning_dim)))
    forms = []
    for c in clusters.tolist():
        chain = spec.chains[c]
        if spec.planted is not None and c == spec.planted[0]:
            phones = list(spec.planted[1])
        else:
            phones = [int(rng.choice(s, p=chain.start))]
        while len(phones) < cap:
            if rng.random() < chain.stop[phones[-1]]:
                break
            phones.append(int(rng.choice(s, p=chain.trans[phones[-1]])))
        forms.append(tuple(spec.alphabet[p] for p in phones))
    return clusters, meanings, forms


class TestGenerate:
    @pytest.mark.parametrize("make", [two_cluster_spec, independent_spec,
                                      planted_prefix_spec, "zeros"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_replays_per_phone_choice_draws(self, make, seed):
        if make == "zeros":
            # Zero entries, leading and trailing, put ties in each CDF.
            rng = np.random.default_rng(9)
            trans = rng.dirichlet(np.ones(4), size=4) * [0, 1, 1, 0]
            trans /= trans.sum(axis=1, keepdims=True)
            spec = single_chain_spec(np.array([0.0, 0.3, 0.7, 0.0]), trans,
                                     np.array([0.2, 0.0, 0.5, 1.0]),
                                     max_len=5, alphabet=("a", "b", "c", "d"))
        else:
            spec = make()
        lex, clusters = generate(spec, 1500, seed)
        ref_clusters, ref_meanings, ref_forms = reference_forms(spec, 1500,
                                                                seed)
        assert clusters.tobytes() == ref_clusters.tobytes()
        meanings = np.stack([s.meaning for s in lex.signs])
        assert meanings.tobytes() == ref_meanings.tobytes()
        assert [s.form for s in lex.signs] == ref_forms

    def test_deterministic_given_seed(self):
        spec = independent_spec()
        lex1, lab1 = generate(spec, 50, seed=5)
        lex2, lab2 = generate(spec, 50, seed=5)
        lex3, _ = generate(spec, 50, seed=6)
        assert [s.form for s in lex1.signs] == [s.form for s in lex2.signs]
        np.testing.assert_array_equal(lab1, lab2)
        np.testing.assert_array_equal([s.meaning for s in lex1.signs],
                                      [s.meaning for s in lex2.signs])
        assert [s.form for s in lex1.signs] != [s.form for s in lex3.signs]

    def test_zero_noise_identifies_cluster(self):
        spec = two_cluster_spec(noise_scale=0.0)
        lex, labels = generate(spec, 200, seed=1)
        for sign, c in zip(lex.signs, labels):
            np.testing.assert_array_equal(sign.meaning, spec.centroids[c])

    def test_planted_prefix_constructive(self):
        spec = planted_prefix_spec()
        lex, labels = generate(spec, 300, seed=2)
        prefix = tuple(spec.alphabet[p] for p in spec.planted[1])
        hit = 0
        for sign, c in zip(lex.signs, labels):
            if c == spec.planted[0]:
                hit += 1
                assert sign.form[:len(prefix)] == prefix
        assert hit > 0

    def test_lengths_respect_cap(self):
        spec = independent_spec(max_len=4)
        lex, _ = generate(spec, 500, seed=3)
        assert max(len(s.form) for s in lex.signs) <= 4
        assert min(len(s.form) for s in lex.signs) >= 1

    def test_cluster_frequencies_match_prior(self):
        spec = planted_prefix_spec(planted_prior=0.35)
        _, labels = generate(spec, 5000, seed=4)
        assert labels.mean() == pytest.approx(0.35, abs=0.02)

    def test_plugin_entropy_converges(self):
        spec = single_chain_spec(
            np.array([0.5, 0.3, 0.2]),
            np.array([[0.6, 0.2, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]),
            np.array([0.5, 0.4, 0.6]), max_len=3, alphabet=("a", "b", "c"))
        lex, _ = generate(spec, 10_000, seed=7)
        from collections import Counter
        counts = Counter(s.form for s in lex.signs)
        n = len(lex.signs)
        probs = np.array([v / n for v in counts.values()])
        h_word = -np.sum(probs * np.log2(probs))
        mean_tokens = np.mean([len(s.form) + 1 for s in lex.signs])
        ee = exact_entropy(spec)
        assert h_word / mean_tokens == pytest.approx(ee.bits_per_phone,
                                                     abs=0.02)


class TestOracleWordBits:
    def test_two_cluster_hand_bits(self):
        spec = two_cluster_spec()
        uncond = oracle_word_bits(spec, (0, 1))
        np.testing.assert_allclose(uncond, [1.0, 1.0, 0.0], atol=1e-12)
        cond0 = oracle_word_bits(spec, (0, 1), cluster=0)
        np.testing.assert_allclose(cond0, [0.0, 1.0, 0.0], atol=1e-12)
        cond1 = oracle_word_bits(spec, (0, 1), cluster=1)
        assert np.isinf(cond1[0])

    def test_sums_match_direct_probability(self):
        spec = planted_prefix_spec(max_len=4)
        rng = np.random.default_rng(9)
        lex, labels = generate(spec, 60, seed=10)
        for sign, c in zip(lex.signs, labels):
            phones = spec.encode_form(sign.form)
            total = sum(spec.prior[k] * word_prob(spec, k, list(phones))
                        for k in range(2))
            bits = oracle_word_bits(spec, phones)
            assert 2.0 ** (-bits.sum()) == pytest.approx(total, rel=1e-9)
            bc = oracle_word_bits(spec, phones, cluster=int(c))
            pc = word_prob(spec, int(c), list(phones))
            assert 2.0 ** (-bc.sum()) == pytest.approx(pc, rel=1e-9)

    def test_expected_bits_equal_exact_entropy(self):
        # Enumerate every word of a small spec: E[code length] = H exactly.
        spec = single_chain_spec(
            np.array([0.7, 0.3]), np.array([[0.4, 0.6], [0.5, 0.5]]),
            np.array([0.5, 0.5]), max_len=3, alphabet=("a", "b"))
        import itertools
        total_bits = 0.0
        total_tokens = 0.0
        for k in range(1, 4):
            for phones in itertools.product(range(2), repeat=k):
                p = word_prob(spec, 0, list(phones))
                if p > 0:
                    b = oracle_word_bits(spec, phones)
                    total_bits += p * b.sum()
                    total_tokens += p * (k + 1)
        ee = exact_entropy(spec)
        assert total_bits == pytest.approx(ee.total_bits, abs=1e-9)
        assert total_tokens == pytest.approx(ee.expected_tokens, abs=1e-9)

    def test_posterior_sharpens_after_planted_prefix(self):
        spec = planted_prefix_spec()
        prefix = spec.planted[1]
        lex, labels = generate(spec, 100, seed=11)
        for sign, c in zip(lex.signs, labels):
            if c != spec.planted[0] or len(sign.form) <= len(prefix):
                continue
            phones = spec.encode_form(sign.form)
            uncond = oracle_word_bits(spec, phones)
            cond = oracle_word_bits(spec, phones, cluster=int(c))
            # After the prefix reveals the cluster, predictions coincide.
            np.testing.assert_allclose(uncond[len(prefix):],
                                       cond[len(prefix):], atol=1e-9)
            break

    def test_eos_forced_at_cap(self):
        spec = independent_spec(max_len=3)
        lex, _ = generate(spec, 400, seed=12)
        for sign in lex.signs:
            if len(sign.form) == 3:
                bits = oracle_word_bits(spec, spec.encode_form(sign.form))
                assert bits[-1] == pytest.approx(0.0, abs=1e-12)
                break


class TestSpecValidation:
    def test_bad_prior(self):
        with pytest.raises(InfeasibleSpecError):
            single_chain_spec(np.array([1.0, 0.0]), np.full((2, 2), 0.5),
                              np.ones(2), max_len=2, alphabet=("a", "b"),
                              prior=np.array([0.5, 0.6]),
                              chains=(ClusterChain(np.array([1.0, 0.0]),
                                                   np.full((2, 2), 0.5),
                                                   np.ones(2)),) * 2)

    def test_enumeration_cap(self):
        with pytest.raises(InfeasibleSpecError):
            independent_spec(alphabet=tuple("abcdefghijk"), max_len=8)

    def test_planted_out_of_range(self):
        with pytest.raises(InfeasibleSpecError):
            planted_prefix_spec(prefix=("g",) * 9, max_len=6)

    def test_roundtrip_dict(self):
        # synth writes to_dict() into its JSON metadata.
        spec = planted_prefix_spec()
        d = spec.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert set(d) == {f.name for f in dataclasses.fields(SyntheticSpec)}
        assert d["planted"] == [spec.planted[0], list(spec.planted[1])]
        assert d["alphabet"] == list(spec.alphabet)
