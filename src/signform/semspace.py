"""Semantic-vector handling: PCA compression of meaning vectors.

Word vectors arrive in a few hundred dimensions; the phone models condition
on a compressed version. Compression is plain PCA: center, project onto the
top-d principal axes of the population covariance. The axes are the top-d
eigenvectors of the centered D x D scatter matrix (Jolliffe 2002,
"Principal Component Analysis", ch. 3), so a fit never forms an N x D
factor beside the centered data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class PCAModel:
    """Affine projection onto the top-d principal axes.

    components has orthonormal rows (d, D); explained_variance holds the
    projection variance per axis, nonincreasing, under the 1/N convention.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self):
        d, cap = self.components.shape
        if self.mean.shape != (cap,):
            raise DimensionMismatchError("mean does not match components")
        if self.explained_variance.shape != (d,):
            raise DimensionMismatchError("explained_variance length != d")
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(d), atol=1e-8):
            raise ValueError("component rows are not orthonormal")
        if np.any(np.diff(self.explained_variance) > 1e-12):
            raise ValueError("explained_variance must be nonincreasing")

    @property
    def d(self) -> int:
        return self.components.shape[0]

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


def pca_fit(data: np.ndarray, d: int) -> PCAModel:
    """Fit a d-dimensional PCA to an (N, D) data matrix.

    Takes the top-d eigenpairs (lambda, axis) of the centered scatter
    matrix X^T X, D x D, in descending order; explained_variance =
    max(lambda, 0) / N (population convention), the clamp removing the
    rounding below zero of a rank-deficient input's null eigenvalues. The
    cost is O(N D^2 + D^3), and no (N, D) factor is formed beyond the
    centered data itself. Each axis's sign is fixed so its largest-
    magnitude entry is positive, making fits reproducible. Zero-variance
    input is legal and yields zero explained variance on arbitrary axes.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionMismatchError(f"expected 2d data, got shape {data.shape}")
    n, cap = data.shape
    if n < 2:
        raise ValueError("need at least 2 rows to fit")
    if not (1 <= d <= min(n, cap)):
        raise ValueError(f"d={d} out of range for data {data.shape}")

    mean = data.mean(axis=0)
    centered = data - mean
    # eigh returns the eigenvalues ascending; the top d are the last d.
    evals, evecs = np.linalg.eigh(centered.T @ centered)
    components = evecs.T[::-1][:d].copy()
    explained = np.maximum(evals[::-1][:d], 0.0) / n

    # Sign convention: largest-|entry| of each axis positive.
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PCAModel(mean=mean, components=components,
                    explained_variance=explained)


def pca_transform(model: PCAModel, v: np.ndarray) -> np.ndarray:
    """Project vector(s) onto the principal axes: components @ (v - mean).

    Accepts a single D-vector or an (N, D) matrix; the output mirrors the
    input's leading shape.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != model.input_dim:
        raise DimensionMismatchError(
            f"vector dim {v.shape[-1]} != model dim {model.input_dim}")
    return (v - model.mean) @ model.components.T

