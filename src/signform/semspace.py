"""Semantic-vector handling: PCA compression of meaning vectors.

Word vectors arrive in a few hundred dimensions; the phone models condition
on a compressed version. Compression is plain PCA: center, project onto the
top-d principal axes of the population covariance. The axes are the top-d
eigenvectors of the centered D x D scatter matrix (Jolliffe 2002,
"Principal Component Analysis", ch. 3), so a fit never forms an N x D
factor beside the centered data.

The input is an (N, D) array or a list of D-vectors, such as the
lexicon's own meaning vectors. pca_fit and pca_transform each make one
float64 copy of it, centre that copy in place and never write to the
caller's data, so a fit or a projection holds one N x D array at a time.
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


def pca_fit(data, d: int) -> PCAModel:
    """Fit a d-dimensional PCA to an (N, D) data matrix or N D-vectors.

    Takes the top-d eigenpairs (lambda, axis) of the centered scatter
    matrix X^T X, D x D, in descending order; explained_variance =
    max(lambda, 0) / N (population convention), the clamp removing the
    rounding below zero of a rank-deficient input's null eigenvalues. The
    cost is O(N D^2 + D^3). The data is copied once into float64 and
    centred in place, and that copy is freed once the scatter matrix is
    formed, before the eigendecomposition. Each axis's sign is fixed so its
    largest-magnitude entry is positive, making fits reproducible.
    Zero-variance input is legal and yields zero explained variance on
    arbitrary axes.
    """
    centered = np.array(data, dtype=np.float64)
    if centered.ndim != 2:
        raise DimensionMismatchError(
            f"expected 2d data, got shape {centered.shape}")
    n, cap = centered.shape
    if n < 2:
        raise ValueError("need at least 2 rows to fit")
    if not (1 <= d <= min(n, cap)):
        raise ValueError(f"d={d} out of range for data {centered.shape}")

    mean = centered.mean(axis=0)
    centered -= mean
    scatter = centered.T @ centered
    del centered
    # eigh returns the eigenvalues ascending; the top d are the last d.
    evals, evecs = np.linalg.eigh(scatter)
    components = evecs.T[::-1][:d].copy()
    explained = np.maximum(evals[::-1][:d], 0.0) / n

    # Sign convention: largest-|entry| of each axis positive.
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PCAModel(mean=mean, components=components,
                    explained_variance=explained)


def pca_transform(model: PCAModel, v) -> np.ndarray:
    """Project vector(s) onto the principal axes: components @ (v - mean).

    Accepts a single D-vector, an (N, D) matrix or a list of N D-vectors;
    the output mirrors the input's leading shape. The input is copied once
    into float64 and centred in place.
    """
    centered = np.array(v, dtype=np.float64)
    if centered.shape[-1] != model.input_dim:
        raise DimensionMismatchError(
            f"vector dim {centered.shape[-1]} != model dim {model.input_dim}")
    centered -= model.mean
    return centered @ model.components.T

