"""Bayesian optimization of language-model hyperparameters.

Minimizes validation bits/phone over a small box of hyperparameters with a
Gaussian process surrogate (squared-exponential kernel, per-dimension
length-scales, noise term) and the expected-improvement acquisition rule.
Integer dimensions are relaxed to the unit interval and rounded only when a
proposal is turned back into native units.

A search evaluates up to N_INIT seeded Latin-hypercube points, which are
independent and so go to `forkrun.run_indexed` together, then one GP step
(`propose_next`) at a time. Only that step needs scipy (L-BFGS-B and the
normal CDF), so `gp_fit`, `expected_improvement` and `propose_next` import
it when they run; the hypercube phase and this module's import need numpy
alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    AllTrialsDivergedError,
    SingularKernelError,
    TrainingDivergedError,
)
from .forkrun import run_indexed
from .seeding import derive_rng

DIMENSION_KINDS = ("integer", "continuous")
# Marginal-likelihood starts per GP fit, Latin-hypercube proposals before
# the first GP step, and random EI candidates per proposal.
GP_STARTS = 4
N_INIT = 5
N_CANDIDATES = 4096


@dataclass(frozen=True)
class Dimension:
    """One search dimension: closed interval in native units."""

    name: str
    kind: str
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in DIMENSION_KINDS:
            raise ValueError(f"unknown dimension kind {self.kind!r}")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"{self.name}: bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(f"{self.name}: lower must be < upper")

    def to_unit(self, value: float) -> float:
        return (value - self.lower) / (self.upper - self.lower)

    def from_unit(self, u: float):
        u = min(max(float(u), 0.0), 1.0)
        value = self.lower + u * (self.upper - self.lower)
        if self.kind == "integer":
            return int(min(max(round(value), math.ceil(self.lower)),
                           math.floor(self.upper)))
        return value


@dataclass(frozen=True)
class SearchSpace:
    dimensions: tuple[Dimension, ...]

    def __post_init__(self):
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dimension names")
        if not self.dimensions:
            raise ValueError("search space needs at least one dimension")

    @property
    def d(self) -> int:
        return len(self.dimensions)

    def to_unit(self, native: dict) -> np.ndarray:
        return np.array([dim.to_unit(native[dim.name])
                         for dim in self.dimensions])

    def from_unit(self, u) -> dict:
        return {dim.name: dim.from_unit(v)
                for dim, v in zip(self.dimensions, np.asarray(u))}


@dataclass(frozen=True)
class Trial:
    """One evaluated configuration."""

    native: dict
    unit: np.ndarray
    objective: float
    status: str = "ok"

    def __post_init__(self):
        if self.status not in ("ok", "diverged"):
            raise ValueError(f"unknown trial status {self.status!r}")
        if self.status == "ok" and not math.isfinite(self.objective):
            raise ValueError("ok trials need a finite objective")

    def to_json(self) -> str:
        return json.dumps({"native": self.native,
                           "unit": np.asarray(self.unit).tolist(),
                           "objective": self.objective,
                           "status": self.status}, sort_keys=True)


# --- Gaussian process surrogate ---------------------------------------------

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4)


def _se_kernel(xa, xb, length_scales, signal_var):
    diff = xa[:, None, :] - xb[None, :, :]
    sq = np.sum((diff / length_scales) ** 2, axis=2)
    return signal_var * np.exp(-0.5 * sq)


def _chol_with_jitter(k, scale):
    for jitter in _JITTERS:
        try:
            return np.linalg.cholesky(k + jitter * scale * np.eye(len(k)))
        except np.linalg.LinAlgError:
            continue
    raise SingularKernelError(
        f"kernel matrix of size {len(k)} stayed singular after jitter up to "
        f"{_JITTERS[-1] * scale:g}")


@dataclass
class GPPosterior:
    """GP posterior for a given kernel; no training points is the prior."""

    x: np.ndarray
    y: np.ndarray
    length_scales: np.ndarray
    signal_var: float
    noise_var: float
    y_mean: float = 0.0
    _chol: np.ndarray | None = field(default=None, repr=False)
    _alpha: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.x.shape[0] == 0:
            return
        k = _se_kernel(self.x, self.x, self.length_scales, self.signal_var)
        k[np.diag_indices_from(k)] += self.noise_var
        self._chol = _chol_with_jitter(k, self.signal_var)
        resid = self.y - self.y_mean
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, resid))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def predict(self, xq) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and latent variance at query points (q, d)."""
        xq = np.atleast_2d(np.asarray(xq, dtype=np.float64))
        if self.n == 0:
            return (np.full(xq.shape[0], self.y_mean),
                    np.full(xq.shape[0], self.signal_var))
        ks = _se_kernel(xq, self.x, self.length_scales, self.signal_var)
        mu = self.y_mean + ks @ self._alpha
        v = np.linalg.solve(self._chol, ks.T)
        var = np.maximum(self.signal_var - np.sum(v * v, axis=0), 0.0)
        return mu, var


def _nlml_and_grad(theta, x, y):
    """Negative log marginal likelihood and gradient in log-parameters."""
    d = x.shape[1]
    ell = np.exp(theta[:d])
    signal_var = math.exp(theta[d])
    noise_var = math.exp(theta[d + 1])
    diff = x[:, None, :] - x[None, :, :]
    sq_per_dim = (diff / ell) ** 2
    kf = signal_var * np.exp(-0.5 * sq_per_dim.sum(axis=2))
    k = kf + noise_var * np.eye(len(x))
    try:
        chol = np.linalg.cholesky(k + 1e-12 * signal_var * np.eye(len(x)))
    except np.linalg.LinAlgError:
        return 1e12, np.zeros_like(theta)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    nlml = (0.5 * float(y @ alpha) + np.log(np.diag(chol)).sum()
            + 0.5 * len(x) * math.log(2 * math.pi))
    kinv = np.linalg.solve(chol.T, np.linalg.solve(
        chol, np.eye(len(x))))
    w = np.outer(alpha, alpha) - kinv
    grad = np.empty_like(theta)
    for j in range(d):
        grad[j] = -0.5 * float(np.sum(w * (kf * sq_per_dim[:, :, j])))
    grad[d] = -0.5 * float(np.sum(w * kf))
    grad[d + 1] = -0.5 * float(np.trace(w)) * noise_var
    return nlml, grad


def gp_fit(trials, *, seed: int = 0) -> GPPosterior:
    """GP over unit-cube points of finite-objective trials.

    The mean is the trial average; length-scales and variances maximize the
    marginal likelihood over GP_STARTS gradient-ascent starts. Raises
    ValueError when no trial has a finite objective.
    """
    usable = [t for t in trials if math.isfinite(t.objective)]
    if not usable:
        raise ValueError("gp_fit needs a trial with a finite objective")
    x = np.array([np.asarray(t.unit, dtype=np.float64) for t in usable])
    y = np.array([t.objective for t in usable])
    d = x.shape[1]
    y_mean = float(y.mean())
    resid = y - y_mean
    vy = float(resid.var())
    sv0 = max(vy, 1e-8)
    starts = [np.concatenate([np.full(d, math.log(0.5)),
                              [math.log(sv0), math.log(1e-4 * sv0 + 1e-10)]])]
    rng = derive_rng(seed, "hyperopt", "gpfit", len(usable))
    for _ in range(GP_STARTS - 1):
        starts.append(np.concatenate([
            np.log(rng.uniform(0.1, 2.0, size=d)),
            [math.log(sv0 * rng.uniform(0.3, 3.0)),
             math.log(sv0 * 10 ** rng.uniform(-6, -1) + 1e-10)]]))
    bounds = ([(math.log(1e-2), math.log(10.0))] * d
              + [(math.log(1e-8), math.log(max(sv0 * 1e3, 1e-6))),
                 (math.log(1e-10), math.log(max(sv0, 1e-8)))])
    from scipy.optimize import minimize

    best = None
    for x0 in starts:
        res = minimize(_nlml_and_grad, x0, args=(x, resid), jac=True,
                       method="L-BFGS-B", bounds=bounds,
                       options={"maxiter": 200})
        if best is None or res.fun < best.fun:
            best = res
    theta = best.x
    return GPPosterior(x=x, y=y, length_scales=np.exp(theta[:d]),
                       signal_var=math.exp(theta[d]),
                       noise_var=math.exp(theta[d + 1]), y_mean=y_mean)


def expected_improvement(posterior: GPPosterior, best_so_far: float,
                         x) -> np.ndarray:
    """EI for minimization: E[max(best_so_far - f, 0)] under the posterior."""
    from scipy.special import ndtr

    mu, var = posterior.predict(x)
    sigma = np.sqrt(var)
    improve = best_so_far - mu
    out = np.maximum(improve, 0.0)
    pos = sigma > 0
    z = improve[pos] / sigma[pos]
    phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    out[pos] = sigma[pos] * (z * ndtr(z) + phi)
    return out


def _latin_hypercube(space: SearchSpace, seed: int) -> np.ndarray:
    """The seed-determined Latin hypercube of N_INIT rows in the unit cube."""
    rng = derive_rng(seed, "hyperopt", "lhs")
    strata = np.column_stack([rng.permutation(N_INIT)
                              for _ in range(space.d)])
    offsets = rng.random((N_INIT, space.d))
    return (strata + offsets) / N_INIT


def propose_next(trials, space: SearchSpace, seed: int = 0) -> dict:
    """The GP step: the next configuration to evaluate, in native units.

    Maximizes expected improvement over N_CANDIDATES fresh random points
    with local gradient refinement from the best candidate. Integer
    dimensions round at the very end. Deterministic in (trials, seed).
    Raises ValueError when no trial is ok.
    """
    ok = [tr for tr in trials if tr.status == "ok"]
    if not ok:
        raise ValueError("propose_next needs an ok trial")
    from scipy.optimize import minimize

    posterior = gp_fit(trials, seed=seed)
    incumbent = min(tr.objective for tr in ok)
    rng = derive_rng(seed, "hyperopt", "grid", len(trials))
    grid = rng.random((N_CANDIDATES, space.d))
    ei = expected_improvement(posterior, incumbent, grid)
    start = grid[int(np.argmax(ei))]
    res = minimize(
        lambda u: -expected_improvement(posterior, incumbent,
                                        u[None, :])[0],
        start, method="L-BFGS-B", bounds=[(0.0, 1.0)] * space.d,
        options={"maxiter": 60})
    refined = res.x if -res.fun >= ei.max() else start
    return space.from_unit(refined)


@dataclass
class SearchResult:
    best: Trial
    trials: list[Trial]


def _outcome(evaluate, native) -> float:
    """evaluate(native), or nan when the training diverges."""
    try:
        return float(evaluate(native))
    except TrainingDivergedError:
        return math.nan


def _record(trials: list, space: SearchSpace, native: dict,
            value: float) -> None:
    """Append a trial; a non-finite value is a divergence, recorded with
    run_search's penalty objective."""
    status = "ok" if math.isfinite(value) else "diverged"
    if status == "diverged":
        finite = [tr.objective for tr in trials if tr.status == "ok"]
        value = (max(finite) if finite else 20.0) + 2.0
    trials.append(Trial(native=native, unit=space.to_unit(native),
                        objective=value, status=status))


def run_search(evaluate, space: SearchSpace, budget: int, seed: int = 0,
               cost=None) -> SearchResult:
    """Bayesian-optimization loop; returns the lowest-objective trial.

    evaluate(native) returns validation bits/phone; a raised training
    divergence or a non-finite return records the trial as diverged with a
    penalty objective (2 bits above the worst finite trial so far, 22 before
    any) so the surrogate avoids the region.

    The first min(budget, N_INIT) points are the Latin hypercube's rows,
    which depend only on their index, so forkrun.run_indexed evaluates them
    together: on a machine with several usable CPUs, a share of them runs in
    forked worker processes, split largest-first by cost(native) (equal
    costs when None).
    evaluate must therefore be a pure function of its point: a worker's side
    effects never reach this process. The trials, and so the result, are the
    same with any number of CPUs. If none of them is ok, the search raises
    AllTrialsDivergedError; otherwise the GP steps run here, one at a time.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    points = [space.from_unit(u)
              for u in _latin_hypercube(space, seed)[:min(budget, N_INIT)]]
    outcomes = run_indexed(partial(_outcome, evaluate), points, cost)
    trials: list[Trial] = []
    for native, value in zip(points, outcomes):
        _record(trials, space, native, value)
    if not any(tr.status == "ok" for tr in trials):
        raise AllTrialsDivergedError(f"all {budget} trials diverged")
    while len(trials) < budget:
        native = propose_next(trials, space, seed)
        _record(trials, space, native, _outcome(evaluate, native))
    best = min((tr for tr in trials if tr.status == "ok"),
               key=lambda tr: tr.objective)
    return SearchResult(best=best, trials=trials)
