"""Significance machinery: sign-flip permutation test, BH correction,
Spearman correlation, and Gaussian kernel density estimates.

The permutation test asks whether per-word per-phone savings are centered
above zero: each permutation flips every delta's sign independently and the
p-value is the add-one-smoothed fraction of permutations whose mean reaches
the observed one (ties count as extreme, so p is never 0). Sign patterns
are drawn as random bytes, eight deltas per byte, and each byte is looked
up in a table of the sums of the deltas it flips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRanksError
from .seeding import derive_rng

# Permutations are drawn in blocks of about this many sign flips, keyed by
# (seed, block index), so the outcome is identical no matter how blocks are
# scheduled.
_BLOCK_DRAWS = 1 << 22
# A block's sign bytes are summed a slice of columns at a time, each slice
# about this many table lookups, so the work arrays stay in cache; slices
# stay at least _MIN_SLICE columns wide, as narrower ones cost more in call
# overhead than they save.
_SLICE_LOOKUPS = 1 << 16
_MIN_SLICE = 2048
# Bit j of byte value b: row b of this table says which of 8 deltas b flips.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


@dataclass(frozen=True)
class PermutationResult:
    observed_mean: float
    n_permutations: int
    n_at_least_as_extreme: int
    p_value: float
    seed: int

    def __post_init__(self):
        expected = (self.n_at_least_as_extreme + 1) / (self.n_permutations + 1)
        if abs(self.p_value - expected) > 1e-12:
            raise ValueError("p_value does not match its count invariant")
        if not (0.0 < self.p_value <= 1.0):
            raise ValueError("p_value must lie in (0, 1]")


def permutation_test(deltas, n_perm: int = 100_000,
                     seed: int = 0) -> PermutationResult:
    """Sign-flip test of mean(deltas) > 0.

    Flips each delta's sign independently with probability 1/2 per
    permutation; p = (r + 1)/(B + 1) where r counts permutation means at
    least as large as the observed mean.

    Each permutation is one random byte per group of 8 deltas (the last
    group zero-padded). table[g, b] sums the deltas of group g whose bit is
    set in b, so a permutation's flipped mass is one lookup per group and
    its mean is (total - 2 * flipped) / n. The unflipped pattern gives
    exactly the observed mean, so it always counts as a tie.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size == 0:
        raise ValueError("deltas must be non-empty")
    if n_perm < 1:
        raise ValueError("need at least one permutation")
    n = deltas.size
    total = float(deltas.sum())
    observed = total / n
    n_bytes = -(-n // 8)
    groups = np.zeros(n_bytes * 8)
    groups[:n] = deltas
    table = groups.reshape(n_bytes, 8) @ _BYTE_BITS.T
    # Row g's entries sit at g * 256 in the flattened table.
    offsets = (np.arange(n_bytes) * 256)[:, None]

    block = max(1, _BLOCK_DRAWS // (8 * n_bytes))
    width = min(block, n_perm, max(_MIN_SLICE, _SLICE_LOOKUPS // n_bytes))
    idx_buf = np.empty(n_bytes * width, dtype=np.intp)
    picked_buf = np.empty(n_bytes * width)
    flipped_buf = np.empty(width)
    extreme = 0
    done = 0
    bno = 0
    while done < n_perm:
        take = min(block, n_perm - done)
        rng = derive_rng(seed, "signflip", bno)
        codes = rng.integers(0, 256, size=(n_bytes, take), dtype=np.uint8)
        for start in range(0, take, width):
            w = min(width, take - start)
            idx = idx_buf[:n_bytes * w].reshape(n_bytes, w)
            picked = picked_buf[:n_bytes * w].reshape(n_bytes, w)
            flipped = flipped_buf[:w]
            np.add(codes[:, start:start + w], offsets, out=idx)
            # Every index is in range by construction; "clip" skips the
            # bounds check.
            np.take(table, idx, out=picked, mode="clip")
            picked.sum(axis=0, out=flipped)
            means = (total - 2.0 * flipped) / n
            extreme += int(np.count_nonzero(means >= observed))
        done += take
        bno += 1
    p = (extreme + 1) / (n_perm + 1)
    return PermutationResult(observed_mean=observed, n_permutations=n_perm,
                             n_at_least_as_extreme=extreme, p_value=p,
                             seed=seed)


def exact_sign_flip_p(deltas) -> float:
    """Brute-force reference: enumerate all 2^n sign patterns (small n).

    Returns the exact probability that a random sign assignment yields a
    mean at least as large as the observed one.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    n = deltas.size
    if n == 0:
        raise ValueError("deltas must be non-empty")
    if n > 24:
        raise ValueError("exhaustive enumeration is limited to 24 deltas")
    observed = deltas.sum()
    shifts = np.arange(n, dtype=np.uint64)[None, :]
    count = 0
    # Patterns are enumerated 2^16 at a time: all 2^24 at once would need
    # several GB.
    for start in range(0, 1 << n, 1 << 16):
        codes = np.arange(start, min(start + (1 << 16), 1 << n),
                          dtype=np.uint64)[:, None]
        signs = np.where((codes >> shifts) & 1 == 1, -1.0, 1.0)
        count += int(np.count_nonzero(signs @ deltas >= observed))
    return count / (1 << n)


def bh_correct(p_values, alpha: float = 0.05):
    """Benjamini-Hochberg step-up control of the false discovery rate.

    Returns (reject, adjusted): reject[i] is True when hypothesis i falls at
    or below the largest k with p_(k) <= k*alpha/m; adjusted[i] is
    min_{j>=rank(i)} m*p_(j)/j clamped to 1, so reject == (adjusted <= alpha)
    whenever no ties straddle the cutoff.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return np.zeros(0, dtype=bool), np.zeros(0)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("p-values must lie in [0, 1]")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranks = np.arange(1, m + 1)
    scaled = p[order] * m / ranks
    adjusted_sorted = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    adjusted = np.empty_like(p)
    adjusted[order] = adjusted_sorted

    passing = np.flatnonzero(p[order] <= ranks * alpha / m)
    reject = np.zeros(m, dtype=bool)
    if passing.size:
        threshold = p[order][passing[-1]]
        reject = p <= threshold
    return reject, adjusted


@dataclass(frozen=True)
class SpearmanResult:
    rho: float
    p_value: float
    n_permutations: int
    seed: int


def spearman_rho(pairs, n_perm: int = 10_000, seed: int = 0) -> SpearmanResult:
    """Spearman rank correlation with a two-sided permutation p-value.

    rho is the Pearson correlation of average-rank vectors; the p-value
    permutes the y ranks n_perm times and counts |rho| ties as extreme,
    add-one smoothed.
    """
    from scipy.stats import rankdata

    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 pairs")
    x = np.array([float(a) for a, _ in pairs])
    y = np.array([float(b) for _, b in pairs])
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateRanksError("constant coordinate: rho undefined")
    rx = rankdata(x)
    ry = rankdata(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0:
        raise DegenerateRanksError("tied ranks leave zero variance")
    rho = float((rx * ry).sum() / denom)

    rng = derive_rng(seed, "spearman")
    extreme = 0
    target = abs(rho) - 1e-12
    ry_sq = float((ry * ry).sum())
    for _ in range(n_perm):
        perm = rng.permutation(ry)
        r = float((rx * perm).sum() / np.sqrt((rx * rx).sum() * ry_sq))
        if abs(r) >= target:
            extreme += 1
    return SpearmanResult(rho=rho, p_value=(extreme + 1) / (n_perm + 1),
                          n_permutations=n_perm, seed=seed)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class KDECurve:
    x: np.ndarray
    density: np.ndarray
    bandwidth: float

    def integral(self) -> float:
        return float(_trapezoid(self.density, self.x))


def kde(values, bandwidth="auto") -> KDECurve:
    """Gaussian kernel density estimate on a regular grid.

    "auto" bandwidth is Silverman's rule, 1.06 * sample std * n^(-1/5).
    The grid spans the data plus four bandwidths on each side, with at
    least 512 points and dense enough that the trapezoid integral is 1
    within 1e-3.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise ValueError("need at least 2 values")
    if bandwidth == "auto":
        sd = float(values.std(ddof=1))
        if sd == 0:
            raise ValueError("auto bandwidth undefined for constant values")
        bw = 1.06 * sd * values.size ** (-1 / 5)
    else:
        bw = float(bandwidth)
        if bw <= 0:
            raise ValueError("bandwidth must be positive")
    lo = values.min() - 4 * bw
    hi = values.max() + 4 * bw
    # Keep grid spacing well under one bandwidth so the trapezoid integral
    # stays within 1e-3 even for widely spread data.
    needed = int(np.ceil((hi - lo) * 3 / bw)) + 1
    points = min(max(512, needed), 1 << 17)
    x = np.linspace(lo, hi, points)
    z = (x[:, None] - values[None, :]) / bw
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (
        values.size * bw * np.sqrt(2 * np.pi))
    return KDECurve(x=x, density=dens, bandwidth=bw)
