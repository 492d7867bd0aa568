import numpy as np
import pytest

from oracle_utils import oracle_loss_tables
from signform.errors import SignSetMismatchError, ZeroVarianceError
from signform.infotheory import (
    build_report,
    cohens_d,
    entropy_estimate,
    mi_estimate,
    uncertainty_coefficient,
)
from signform.phonolm import LossTable
from signform.synthbench import (
    ClusterChain,
    SyntheticSpec,
    exact_mi,
    generate,
    two_cluster_spec,
)


def table(spec_bits):
    """spec_bits: list of (key, bits list)."""
    return LossTable.from_rows([k for k, _ in spec_bits],
                               [b for _, b in spec_bits])


class TestEntropyEstimate:
    def test_single_word(self):
        est = entropy_estimate(table([("w1", [2.0, 3.0, 1.0])]))
        assert est.bits_per_phone == pytest.approx(2.0)
        assert est.total_tokens == 3
        assert est.n_words == 1

    def test_micro_average_two_words(self):
        est = entropy_estimate(table([("w1", [2.0, 3.0, 1.0]),
                                      ("w2", [1.5, 0.5])]))
        assert est.bits_per_phone == pytest.approx(8 / 5)

    def test_uniform_single_phone_oracle(self):
        chain = ClusterChain(start=np.array([0.5, 0.5]),
                             trans=np.full((2, 2), 0.5), stop=np.ones(2))
        spec = SyntheticSpec(alphabet=("a", "b"), prior=np.array([1.0]),
                             chains=(chain,), centroids=np.zeros((1, 4)),
                             noise_scale=1.0, max_len=1)
        lex, labels = generate(spec, 64, seed=0)
        uncond, _ = oracle_loss_tables(spec, lex, labels)
        est = entropy_estimate(uncond)
        assert est.bits_per_phone == pytest.approx(0.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy_estimate(table([]))

    def test_concatenation_identity(self):
        a = [("w1", [2.0, 3.0]), ("w2", [1.0, 1.0, 1.0])]
        b = [("w3", [0.5, 0.25])]
        whole = entropy_estimate(table(a + b))
        ea, eb = entropy_estimate(table(a)), entropy_estimate(table(b))
        combined = ((ea.total_bits + eb.total_bits)
                    / (ea.total_tokens + eb.total_tokens))
        assert whole.bits_per_phone == pytest.approx(combined, abs=1e-15)


class TestMiEstimate:
    def test_identical_tables_zero(self):
        t = table([("w1", [2.0, 3.0]), ("w2", [1.0, 1.0, 1.0])])
        est = mi_estimate(t, LossTable(t.keys, t.bits.copy(), t.offsets))
        assert est.mi == 0.0
        np.testing.assert_array_equal(est.deltas, 0.0)

    def test_antisymmetry(self):
        a = table([("w1", [2.0, 3.0]), ("w2", [1.0, 1.0, 1.0])])
        b = table([("w1", [1.0, 2.0]), ("w2", [2.0, 0.5, 0.5])])
        ab = mi_estimate(a, b)
        ba = mi_estimate(b, a)
        assert ab.mi == pytest.approx(-ba.mi, abs=1e-15)
        np.testing.assert_allclose(ab.deltas, -ba.deltas, atol=1e-15)

    def test_paper_scale_difference(self):
        # 1000 tokens at 3.401 vs 3.291 bits/phone gives MI 0.110.
        n = 500
        u = table([(f"w{i}", [3.401, 3.401]) for i in range(n)])
        c = table([(f"w{i}", [3.291, 3.291]) for i in range(n)])
        est = mi_estimate(u, c)
        assert est.mi == pytest.approx(0.110, abs=1e-12)
        assert est.uncond.bits_per_phone == pytest.approx(3.401)

    def test_two_cluster_oracle_recovers_exact_mi(self):
        spec = two_cluster_spec()
        lex, labels = generate(spec, 500, seed=3)
        uncond, cond = oracle_loss_tables(spec, lex, labels)
        est = mi_estimate(uncond, cond)
        assert est.mi == pytest.approx(exact_mi(spec), abs=1e-12)
        # Every word shares the same per-phone delta of 1/3.
        np.testing.assert_allclose(est.deltas, 1 / 3, atol=1e-12)

    def test_reordered_tables_refused(self):
        # Both tables of a pair hold the signs in one order; the same signs
        # in another order are refused, not matched by key.
        a = table([("w1", [2.0, 3.0]), ("w2", [1.0, 1.0, 1.0])])
        b = table([("w2", [1.0, 0.5, 0.5]), ("w1", [1.0, 2.0])])
        with pytest.raises(SignSetMismatchError):
            mi_estimate(a, b)
        with pytest.raises(SignSetMismatchError):
            mi_estimate(b, a)

    def test_sign_set_mismatch(self):
        a = [("w1", [2.0, 3.0])]
        b = [("w2", [1.0, 2.0])]
        with pytest.raises(SignSetMismatchError):
            mi_estimate(table(a), table(b))
        with pytest.raises(SignSetMismatchError):
            mi_estimate(table(a), table(a + b))
        with pytest.raises(SignSetMismatchError):
            mi_estimate(table(a + b), table(b + a + a))

    def test_token_count_mismatch(self):
        a = table([("w1", [2.0, 3.0])])
        b = table([("w1", [1.0, 1.0, 0.5])])
        with pytest.raises(SignSetMismatchError):
            mi_estimate(a, b)


class TestConditionalMi:
    def test_class_explains_form_meaning_adds_nothing(self):
        # Conditioning on the cluster (the class) leaves no residual MI for
        # the meaning vector: both class-aware tables are the cluster-true
        # code lengths.
        spec = two_cluster_spec()
        lex, labels = generate(spec, 300, seed=4)
        _, cond = oracle_loss_tables(spec, lex, labels)
        cond2 = LossTable(cond.keys, cond.bits.copy(), cond.offsets)
        est = mi_estimate(cond, cond2)
        assert est.mi == pytest.approx(0.0, abs=1e-15)


class TestUncertainty:
    def test_paper_ratio(self):
        assert uncertainty_coefficient(0.110, 3.401) == pytest.approx(
            0.0323, abs=5e-5)

    def test_zero_mi(self):
        assert uncertainty_coefficient(0.0, 2.0) == 0.0

    def test_negative_allowed(self):
        h = 1.7
        assert uncertainty_coefficient(-0.0388 * h, h) == pytest.approx(
            -0.0388, abs=1e-12)

    def test_nonpositive_entropy_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_coefficient(0.1, 0.0)


class TestCohensD:
    def test_constant_deltas_error(self):
        with pytest.raises(ZeroVarianceError):
            cohens_d([1.0, 1.0, 1.0])

    def test_zero_mean(self):
        assert cohens_d([0.1, -0.1]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert cohens_d([1.0, 2.0, 3.0]) == pytest.approx(2.0, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(ValueError):
            cohens_d([1.0])


class TestBuildReport:
    def test_identities_hold(self):
        spec = two_cluster_spec()
        lex, labels = generate(spec, 400, seed=5)
        uncond, cond = oracle_loss_tables(spec, lex, labels)
        plain = mi_estimate(uncond, cond)
        classed = mi_estimate(cond, cond)
        rep = build_report("twoclust", plain, classed=None, p_value=0.01)
        assert rep.mi == pytest.approx(
            rep.h_w.bits_per_phone - rep.h_w_given_v.bits_per_phone,
            abs=1e-12)
        assert rep.uncertainty == pytest.approx(
            rep.mi / rep.h_w.bits_per_phone, abs=1e-12)
        assert rep.n_words == 400
        d = rep.to_dict()
        assert d["mi_given_pos"] is None
        assert classed.mi == pytest.approx(0.0, abs=1e-15)

    def test_with_class_control(self):
        u = table([(f"w{i}", [3.0, 3.0 + 0.03 * i]) for i in range(10)])
        c = table([(f"w{i}", [2.5, 2.5]) for i in range(10)])
        uc = table([(f"w{i}", [2.8, 2.8 + 0.01 * i]) for i in range(10)])
        vc = table([(f"w{i}", [2.6, 2.6 + 0.02 * i]) for i in range(10)])
        rep = build_report("xx", mi_estimate(u, c),
                           classed=mi_estimate(uc, vc),
                           p_value=0.2, p_value_given_pos=0.4)
        assert rep.mi_given_pos == pytest.approx(
            rep.h_w_given_c.bits_per_phone
            - rep.h_w_given_vc.bits_per_phone, abs=1e-12)
        assert rep.uncertainty_given_pos == pytest.approx(
            rep.mi_given_pos / rep.h_w_given_c.bits_per_phone, abs=1e-12)
        assert rep.p_value_given_pos == 0.4
