import numpy as np
import pytest

from signform import stats
from signform.errors import DegenerateRanksError
from signform.stats import (
    PermutationResult,
    bh_correct,
    exact_sign_flip_p,
    kde,
    permutation_test,
    spearman_rho,
)


class TestPermutationTest:
    def test_all_zero_deltas_tie_to_one(self):
        res = permutation_test(np.zeros(12), n_perm=500, seed=1)
        assert res.p_value == 1.0
        assert res.n_at_least_as_extreme == 500

    def test_single_positive_delta_half(self):
        res = permutation_test([1.0], n_perm=4000, seed=2)
        assert res.p_value == pytest.approx(0.5, abs=0.05)

    def test_matches_exhaustive_on_constant_deltas(self):
        deltas = np.ones(10)
        exact = exact_sign_flip_p(deltas)
        assert exact == pytest.approx(1 / 1024)
        res = permutation_test(deltas, n_perm=20_000, seed=3)
        assert res.p_value == pytest.approx(exact, abs=0.01)

    def test_matches_exhaustive_on_random_deltas(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            deltas = rng.normal(0.3, 1.0, size=10)
            exact = exact_sign_flip_p(deltas)
            res = permutation_test(deltas, n_perm=20_000, seed=trial)
            assert res.p_value == pytest.approx(exact, abs=0.01)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        deltas = rng.normal(0.2, 1.0, size=40)
        a = permutation_test(deltas, n_perm=2000, seed=6)
        b = permutation_test(deltas * 37.5, n_perm=2000, seed=6)
        assert a.n_at_least_as_extreme == b.n_at_least_as_extreme
        assert a.p_value == b.p_value

    def test_reproducible_and_seed_sensitive(self):
        deltas = np.random.default_rng(7).normal(0.1, 1, size=25)
        a = permutation_test(deltas, n_perm=3000, seed=8)
        b = permutation_test(deltas, n_perm=3000, seed=8)
        c = permutation_test(deltas, n_perm=3000, seed=9)
        assert a == b
        assert a.n_at_least_as_extreme != c.n_at_least_as_extreme

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 24])
    def test_matches_exhaustive_at_byte_boundaries(self, n):
        # Deltas are looked up 8 to a byte; sizes around multiples of 8
        # exercise full, padded and single-delta groups.
        deltas = np.random.default_rng(30 + n).normal(0.2, 1.0, size=n)
        exact = exact_sign_flip_p(deltas)
        res = permutation_test(deltas, n_perm=20_000, seed=n)
        assert res.p_value == pytest.approx(exact, abs=0.01)

    def test_unflipped_pattern_ties_observed(self):
        # Every flip of all-positive deltas lowers the mean, so only the
        # unflipped pattern (1 in 2^6) reaches the observed mean, and it
        # must reproduce that mean exactly to count.
        deltas = np.array([0.1, 0.2, 0.3, 0.7, 0.11, 0.13])
        res = permutation_test(deltas, n_perm=64_000, seed=11)
        assert res.observed_mean == deltas.sum() / deltas.size
        assert res.n_at_least_as_extreme == pytest.approx(1000, rel=0.15)

    def test_several_blocks(self):
        # 20 deltas fill 3 bytes, so a block holds 2^22 // 24 = 174762
        # permutations: 400_000 span two full blocks and a partial one.
        deltas = np.random.default_rng(12).normal(0.1, 1.0, size=20)
        assert 2 * (stats._BLOCK_DRAWS // 24) < 400_000
        res = permutation_test(deltas, n_perm=400_000, seed=13)
        assert res.n_permutations == 400_000
        assert 0.0 < res.p_value <= 1.0
        assert res.p_value == (res.n_at_least_as_extreme + 1) / 400_001
        assert res.p_value == pytest.approx(exact_sign_flip_p(deltas),
                                            abs=0.01)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            PermutationResult(observed_mean=0.0, n_permutations=10,
                              n_at_least_as_extreme=5, p_value=0.9, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            permutation_test([], n_perm=10, seed=0)

    def test_exhaustive_hand_case(self):
        # Sums of +-1 +-2: {3, 1, -1, -3}; observed 3 is matched once.
        assert exact_sign_flip_p([1.0, 2.0]) == pytest.approx(0.25)
        assert exact_sign_flip_p([1.0]) == pytest.approx(0.5)


class TestBhCorrect:
    def test_ladder_all_rejected(self):
        p = [0.01, 0.02, 0.03, 0.04, 0.05]
        reject, adjusted = bh_correct(p, alpha=0.05)
        assert reject.all()
        np.testing.assert_allclose(adjusted, 0.05)

    def test_single_p(self):
        reject, adjusted = bh_correct([0.04], alpha=0.05)
        assert reject[0]
        assert adjusted[0] == pytest.approx(0.04)

    def test_none_rejected(self):
        reject, adjusted = bh_correct([0.6, 0.7], alpha=0.05)
        assert not reject.any()
        np.testing.assert_allclose(adjusted, [0.7, 0.7])

    def test_adjusted_clamped_and_ordered(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(size=50)
        reject, adjusted = bh_correct(p, alpha=0.1)
        assert np.all(adjusted <= 1.0)
        assert np.all(adjusted >= p - 1e-12)
        order = np.argsort(p)
        assert np.all(np.diff(adjusted[order]) >= -1e-12)
        np.testing.assert_array_equal(reject, adjusted <= 0.1)

    def test_monotone_under_lowering(self):
        # Lowering one p-value never un-rejects any other hypothesis.
        rng = np.random.default_rng(12)
        for _ in range(30):
            p = rng.uniform(size=12)
            reject, _ = bh_correct(p, alpha=0.05)
            k = rng.integers(12)
            p2 = p.copy()
            p2[k] = p[k] * rng.uniform()
            reject2, _ = bh_correct(p2, alpha=0.05)
            others = np.arange(12) != k
            assert np.all(reject2[reject & others])

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            bh_correct([0.5, 1.2], alpha=0.05)
        with pytest.raises(ValueError):
            bh_correct([0.5], alpha=1.5)

    def test_empty(self):
        reject, adjusted = bh_correct([], alpha=0.05)
        assert reject.size == 0 and adjusted.size == 0


class TestSpearman:
    def test_perfectly_increasing(self):
        res = spearman_rho([(i, i * 2 + 1) for i in range(6)], n_perm=200,
                           seed=0)
        assert res.rho == pytest.approx(1.0)

    def test_hand_value(self):
        res = spearman_rho([(1, 2), (2, 3), (3, 1)], n_perm=200, seed=0)
        assert res.rho == pytest.approx(-0.5, abs=1e-12)

    def test_constant_coordinate(self):
        with pytest.raises(DegenerateRanksError):
            spearman_rho([(1, 5), (2, 5), (3, 5)], n_perm=10, seed=0)
        with pytest.raises(DegenerateRanksError):
            spearman_rho([(2, 1), (2, 2), (2, 3)], n_perm=10, seed=0)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = spearman_rho(list(zip(x, y)), n_perm=500, seed=3)
        warped = spearman_rho(list(zip(np.exp(x), y ** 3)), n_perm=500,
                              seed=3)
        assert warped.rho == pytest.approx(base.rho, abs=1e-12)
        assert warped.p_value == base.p_value

    def test_average_ranks_on_ties(self):
        # x ties at ranks (1+2)/2; compare against direct rank formula.
        res = spearman_rho([(1, 10), (1, 20), (2, 30), (3, 40)], n_perm=100,
                           seed=0)
        assert res.rho == pytest.approx(0.9486832980505138, abs=1e-9)

    def test_permutation_p_reasonable(self):
        rng = np.random.default_rng(14)
        x = np.arange(20.0)
        y = x + rng.normal(scale=2.0, size=20)
        res = spearman_rho(list(zip(x, y)), n_perm=2000, seed=1)
        assert res.p_value < 0.01
        noise = spearman_rho(list(zip(x, rng.normal(size=20))), n_perm=2000,
                             seed=1)
        assert noise.p_value > 0.05

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            spearman_rho([(1, 2), (3, 4)], n_perm=10, seed=0)


class TestKde:
    def test_symmetric_points(self):
        curve = kde([-1.0, 1.0], bandwidth=0.5)
        np.testing.assert_allclose(curve.density,
                                   curve.density[::-1], atol=1e-9)

    def test_integral_near_one(self):
        rng = np.random.default_rng(15)
        for values in (rng.normal(size=40),
                       rng.uniform(-50, 50, size=25),
                       np.concatenate([rng.normal(size=20),
                                       rng.normal(300, 1, size=20)])):
            curve = kde(values, bandwidth="auto")
            assert curve.integral() == pytest.approx(1.0, abs=1e-3)

    def test_silverman_bandwidth(self):
        rng = np.random.default_rng(16)
        values = rng.normal(size=30)
        curve = kde(values)
        expected = 1.06 * values.std(ddof=1) * 30 ** (-1 / 5)
        assert curve.bandwidth == pytest.approx(expected, rel=1e-12)

    def test_spike_mode(self):
        values = np.array([5.0] * 50 + [0.0])
        curve = kde(values, bandwidth=0.01)
        assert curve.x[np.argmax(curve.density)] == pytest.approx(5.0,
                                                                  abs=0.01)

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            kde([1.0])

    def test_constant_values_need_explicit_bandwidth(self):
        with pytest.raises(ValueError):
            kde([2.0, 2.0, 2.0])
        curve = kde([2.0, 2.0, 2.0], bandwidth=0.1)
        assert curve.integral() == pytest.approx(1.0, abs=1e-3)
