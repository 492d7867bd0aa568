import numpy as np
import pytest
from oracle_utils import traced_peak

from signform.errors import DimensionMismatchError
from signform.semspace import PCAModel, pca_fit, pca_transform
from signform.synthbench import generate, planted_prefix_spec


def svd_reference(data, d, signs_of):
    """Top-d axes and 1/N variances from the float64 thin SVD of the
    centered data, each axis's sign matched to the same row of signs_of."""
    centered = data - data.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:d] * np.sign(np.sum(vt[:d] * signs_of, axis=1))[:, None]
    return axes, s[:d] ** 2 / data.shape[0]


def estimate_meanings():
    """720 x 300 meaning vectors as the estimate workload's training rows
    hold them: one dominant axis over a near-flat noise tail."""
    lex, _ = generate(planted_prefix_spec(meaning_dim=300), 720, seed=3)
    return np.stack([s.meaning for s in lex.signs])


class TestScatterEigendecomposition:
    """pca_fit's scatter-matrix eigenpairs against the thin SVD."""

    @pytest.mark.parametrize("case", ["estimate", "rank_deficient",
                                      "full_basis"])
    def test_matches_thin_svd(self, case):
        rng = np.random.default_rng(6)
        if case == "estimate":
            data, d = estimate_meanings(), 8
        elif case == "rank_deficient":
            # N < D: the centered rows span N - 1 dimensions.
            data = rng.normal(size=(12, 30)) @ rng.normal(size=(30, 30))
            d = 11
        else:
            data = rng.normal(size=(40, 10)) * rng.uniform(0.2, 3.0, 10)
            d = min(data.shape)
        m = pca_fit(data, d)
        axes, variance = svd_reference(data, d, m.components)
        np.testing.assert_allclose(m.components, axes, rtol=0, atol=1e-10)
        np.testing.assert_allclose(m.explained_variance, variance,
                                   rtol=1e-10, atol=0)
        np.testing.assert_allclose(m.components @ m.components.T,
                                   np.eye(d), rtol=0, atol=1e-12)
        assert np.all(np.diff(m.explained_variance) <= 0)
        assert np.all(m.explained_variance >= 0)

    def test_forms_no_n_by_d_factor(self):
        """Beyond the centered copy, the fit holds about two D x D
        matrices; the thin SVD's (N, D) left factor would not fit."""
        data = estimate_meanings()
        cap = data.shape[1]
        peak, _ = traced_peak(pca_fit, data, 8)
        assert peak < data.nbytes + 2.5 * cap * cap * data.itemsize


class TestOneCopy:
    """pca_fit and pca_transform copy their input once and leave it be."""

    def setup_method(self):
        self.data = estimate_meanings()[:200]
        self.rows = list(self.data)
        self.model = pca_fit(self.data, 8)

    def test_callers_array_unchanged(self):
        before = self.data.tobytes()
        pca_fit(self.data, 8)
        pca_transform(self.model, self.data)
        pca_transform(self.model, self.data[0])
        assert self.data.tobytes() == before

    def test_list_of_rows_gives_the_same_bytes(self):
        from_rows = pca_fit(self.rows, 8)
        for name in ("mean", "components", "explained_variance"):
            assert (getattr(from_rows, name).tobytes()
                    == getattr(self.model, name).tobytes()), name
        assert (pca_transform(self.model, self.rows).tobytes()
                == pca_transform(self.model, self.data).tobytes())


class TestPcaFit:
    def test_line_in_2d_captures_all_variance(self):
        t = np.linspace(-2, 5, 40)
        data = np.stack([3 * t + 1, -4 * t + 2], axis=1)
        m = pca_fit(data, d=1)
        total = np.var(data, axis=0).sum()
        assert m.explained_variance[0] == pytest.approx(total, rel=1e-10)

    def test_full_basis_reconstructs(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 6))
        m = pca_fit(data, d=6)
        rec = pca_transform(m, data) @ m.components + m.mean
        np.testing.assert_allclose(rec, data, atol=1e-8)

    def test_mirrored_points_hand_value(self):
        # Two points +-(3, 4): covariance [[9,12],[12,16]], top eigenpair
        # (25, (0.6, 0.8)).
        data = np.array([[3.0, 4.0], [-3.0, -4.0]])
        m = pca_fit(data, d=1)
        np.testing.assert_allclose(np.abs(m.components[0]), [0.6, 0.8],
                                   atol=1e-10)
        assert m.components[0, 1] > 0
        assert m.explained_variance[0] == pytest.approx(25.0, abs=1e-10)

    def test_matches_covariance_eigendecomposition(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            n, cap = rng.integers(10, 50), rng.integers(3, 20)
            data = rng.normal(size=(n, cap)) @ rng.normal(size=(cap, cap))
            d = int(rng.integers(1, min(n, cap)))
            m = pca_fit(data, d=d)
            cov = np.cov(data, rowvar=False, ddof=0)
            evals, evecs = np.linalg.eigh(cov)
            order = np.argsort(evals)[::-1][:d]
            np.testing.assert_allclose(m.explained_variance, evals[order],
                                       rtol=1e-6, atol=1e-9)
            for i, j in enumerate(order):
                dot = abs(np.dot(m.components[i], evecs[:, j]))
                assert dot == pytest.approx(1.0, abs=1e-6)

    def test_monotone_captured_variance(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(25, 8)) * rng.uniform(0.1, 3.0, size=8)
        prev = -1.0
        for d in range(1, 9):
            cap = pca_fit(data, d).explained_variance.sum()
            assert cap >= prev - 1e-12
            prev = cap

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(2)
        m = pca_fit(rng.normal(size=(40, 10)), d=7)
        np.testing.assert_allclose(m.components @ m.components.T, np.eye(7),
                                   atol=1e-8)

    def test_zero_variance_not_an_error(self):
        data = np.ones((10, 4))
        m = pca_fit(data, d=2)
        np.testing.assert_allclose(m.explained_variance, 0.0, atol=1e-12)

    def test_d_out_of_range(self):
        data = np.random.default_rng(3).normal(size=(5, 4))
        for bad in (0, 5, -1):
            with pytest.raises(ValueError):
                pca_fit(data, d=bad)

    def test_sign_determinism(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(30, 5))
        a = pca_fit(data, 3)
        b = pca_fit(data.copy(), 3)
        np.testing.assert_array_equal(a.components, b.components)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0


class TestTransform:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.data = rng.normal(size=(50, 6))
        self.m = pca_fit(self.data, 3)
        self.rng = rng

    def test_mean_maps_to_zero(self):
        np.testing.assert_allclose(pca_transform(self.m, self.m.mean), 0.0,
                                   atol=1e-12)

    def test_affine_linearity(self):
        for _ in range(20):
            a = self.rng.normal(size=6)
            b = self.rng.normal(size=6)
            lhs = pca_transform(self.m, a + b)
            rhs = (pca_transform(self.m, a) + pca_transform(self.m, b)
                   - pca_transform(self.m, np.zeros(6)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_projection_variance_matches_field(self):
        proj = pca_transform(self.m, self.data)
        np.testing.assert_allclose(np.var(proj, axis=0, ddof=0),
                                   self.m.explained_variance, rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pca_transform(self.m, np.zeros(7))

    def test_model_invariant_checks(self):
        with pytest.raises(ValueError):
            PCAModel(mean=np.zeros(2),
                     components=np.array([[1.0, 1.0]]),
                     explained_variance=np.array([1.0]))
