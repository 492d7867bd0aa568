import json
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from signform import forkrun, hyperopt
from signform.errors import AllTrialsDivergedError, TrainingDivergedError
from signform.hyperopt import (
    N_CANDIDATES,
    N_INIT,
    Dimension,
    GPPosterior,
    SearchSpace,
    Trial,
    expected_improvement,
    gp_fit,
    propose_next,
    run_search,
)
from signform.pipeline import _search_space
from signform.seeding import derive_rng
from signform.validate import run_python


def trial_at(space, unit, objective, status="ok"):
    unit = np.asarray(unit, dtype=np.float64)
    return Trial(native=space.from_unit(unit), unit=unit,
                 objective=objective, status=status)


def line_space():
    return SearchSpace(dimensions=(Dimension("x", "continuous", 0.0, 1.0),))


def fixed_gp(points, values, ell, signal_var, noise_var):
    """Zero-mean GP on [0, 1] with the kernel given; no points is the prior."""
    return GPPosterior(x=np.array(points, dtype=np.float64).reshape(-1, 1),
                       y=np.array(values, dtype=np.float64),
                       length_scales=np.array([ell]), signal_var=signal_var,
                       noise_var=noise_var)


class TestDimension:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dimension("a", "weird", 0, 1)
        with pytest.raises(ValueError):
            Dimension("a", "continuous", 1.0, 1.0)
        with pytest.raises(ValueError):
            Dimension("a", "continuous", 0.0, math.inf)
        with pytest.raises(ValueError):
            Dimension("a", "log-continuous", 0.1, 1.0)

    def test_continuous_roundtrip(self):
        dim = Dimension("a", "continuous", -2.0, 6.0)
        for v in (-2.0, 0.0, 3.3, 6.0):
            assert dim.from_unit(dim.to_unit(v)) == pytest.approx(v)

    def test_integer_rounding_in_bounds(self):
        dim = Dimension("n", "integer", 2, 7)
        seen = {dim.from_unit(u) for u in np.linspace(-0.2, 1.2, 101)}
        assert seen == {2, 3, 4, 5, 6, 7}
        assert all(isinstance(v, int) for v in seen)

    def test_clipping(self):
        dim = Dimension("a", "continuous", 0.0, 2.0)
        assert dim.from_unit(-0.5) == 0.0
        assert dim.from_unit(1.5) == 2.0


def lm_space():
    """The search space of a meaning model over 300-d embeddings, with
    more training rows than dimensions."""
    return _search_space("meaning", 300, 1000)


class TestSearchSpace:
    def test_lm_space_bounds(self):
        names = {d.name: d for d in lm_space().dimensions}
        assert set(names) == {"layers", "hidden_size", "pca_d", "dropout"}
        assert (names["layers"].lower, names["layers"].upper) == (1, 3)
        assert (names["hidden_size"].lower,
                names["hidden_size"].upper) == (32, 512)
        assert (names["pca_d"].lower, names["pca_d"].upper) == (2, 300)
        assert (names["dropout"].lower, names["dropout"].upper) == (0.0, 0.5)
        narrow = {d.name: d for d in
                  _search_space("meaning", 50, 1000).dimensions}
        assert narrow["pca_d"].upper == 50
        few_rows = {d.name: d for d in
                    _search_space("meaning", 300, 36).dimensions}
        assert few_rows["pca_d"].upper == 36
        assert "pca_d" not in {d.name for d in
                               _search_space("uncond", 300, 1000).dimensions}

    def test_roundtrip_and_validation(self):
        space = lm_space()
        native = space.from_unit([0.0, 1.0, 0.2, 0.5])
        assert native["layers"] == 1
        assert native["hidden_size"] == 512
        assert native["dropout"] == pytest.approx(0.1)
        u = space.to_unit(native)
        assert space.from_unit(u) == native
        with pytest.raises(ValueError):
            SearchSpace(dimensions=())
        with pytest.raises(ValueError):
            SearchSpace(dimensions=(Dimension("a", "continuous", 0, 1),
                                    Dimension("a", "continuous", 0, 1)))


class TestTrial:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trial(native={"x": 0.5}, unit=np.array([0.5]),
                  objective=math.nan, status="ok")
        with pytest.raises(ValueError):
            Trial(native={"x": 0.5}, unit=np.array([0.5]), objective=1.0,
                  status="maybe")

    def test_json_roundtrip(self):
        t = Trial(native={"x": 0.25, "n": 3}, unit=np.array([0.25, 0.4]),
                  objective=2.5, status="ok")
        back = json.loads(t.to_json())
        assert back["native"] == t.native
        np.testing.assert_allclose(back["unit"], t.unit)
        assert back["objective"] == t.objective
        assert back["status"] == t.status


class TestGP:
    def test_empty_is_prior(self):
        gp = fixed_gp([], [], 0.5, 2.0, 1e-6)
        mu, var = gp.predict(np.array([[0.3], [0.9]]))
        np.testing.assert_allclose(mu, 0.0)
        np.testing.assert_allclose(var, 2.0)

    def test_single_point_interpolates(self):
        space = line_space()
        trials = [trial_at(space, [0.4], 3.25)]
        gp = gp_fit(trials, seed=0)
        mu, _ = gp.predict(np.array([[0.4]]))
        assert mu[0] == pytest.approx(3.25, abs=1e-6)

    def test_fixed_kernel_matches_hand_solve(self):
        ell, sf, sn = 0.7, 2.0, 0.1
        gp = fixed_gp([0.2, 0.8], [1.0, 3.0], ell, sf, sn)

        def k(a, b):
            return sf * math.exp(-0.5 * ((a - b) / ell) ** 2)

        big_k = np.array([[k(0.2, 0.2) + sn, k(0.2, 0.8)],
                          [k(0.8, 0.2), k(0.8, 0.8) + sn]])
        ks = np.array([k(0.5, 0.2), k(0.5, 0.8)])
        want_mu = ks @ np.linalg.solve(big_k, np.array([1.0, 3.0]))
        want_var = sf - ks @ np.linalg.solve(big_k, ks)
        mu, var = gp.predict(np.array([[0.5]]))
        assert mu[0] == pytest.approx(want_mu, abs=1e-10)
        assert var[0] == pytest.approx(want_var, abs=1e-10)

    def test_observed_variance_below_far_variance(self):
        gp = fixed_gp([0.1, 0.2], [2.0, 2.5], 0.1, 1.0, 1e-8)
        _, var = gp.predict(np.array([[0.1], [0.95]]))
        assert var[0] < var[1]
        assert var[0] == pytest.approx(0.0, abs=1e-6)

    def test_interpolates_within_noise(self):
        space = line_space()
        rng = np.random.default_rng(0)
        xs = rng.uniform(size=8)
        trials = [trial_at(space, [x], float(np.sin(3 * x))) for x in xs]
        gp = gp_fit(trials, seed=1)
        mu, _ = gp.predict(xs[:, None])
        tol = 3 * math.sqrt(gp.noise_var) + 1e-6
        np.testing.assert_allclose(mu, [t.objective for t in trials],
                                   atol=tol)

    def test_none_finite_raises(self):
        space = line_space()
        trials = [trial_at(space, [0.5], math.inf, status="diverged")]
        with pytest.raises(ValueError):
            gp_fit(trials)
        with pytest.raises(ValueError):
            gp_fit([])


class TestExpectedImprovement:
    def test_zero_sigma_at_incumbent(self):
        gp = fixed_gp([0.5], [2.0], 0.2, 1.0, 1e-12)
        ei = expected_improvement(gp, 2.0, np.array([[0.5]]))
        assert ei[0] == pytest.approx(0.0, abs=1e-6)

    def test_zero_sigma_certain_improvement(self):
        gp = fixed_gp([0.5], [2.0], 0.2, 1.0, 1e-12)
        ei = expected_improvement(gp, 3.0, np.array([[0.5]]))
        assert ei[0] == pytest.approx(1.0, abs=1e-5)

    def test_phi_zero_value(self):
        gp = fixed_gp([], [], 0.5, 1.0, 0.0)
        ei = expected_improvement(gp, 0.0, np.array([[0.3]]))
        assert ei[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                      abs=1e-12)

    def test_nonnegative_everywhere(self):
        space = line_space()
        rng = np.random.default_rng(2)
        trials = [trial_at(space, [x], float(v)) for x, v in
                  zip(rng.uniform(size=6), rng.normal(size=6))]
        gp = gp_fit(trials, seed=3)
        best = min(t.objective for t in trials)
        ei = expected_improvement(gp, best, rng.uniform(size=(200, 1)))
        assert np.all(ei >= 0)


class TestProposeNext:
    def test_needs_an_ok_trial(self):
        space = line_space()
        with pytest.raises(ValueError, match="needs an ok trial"):
            propose_next([], space, seed=4)
        diverged = [trial_at(space, [x], 22.0, status="diverged")
                    for x in (0.1, 0.5, 0.9)]
        with pytest.raises(ValueError, match="needs an ok trial"):
            propose_next(diverged, space, seed=4)

    def test_deterministic(self):
        space = line_space()
        rng = np.random.default_rng(6)
        trials = [trial_at(space, [x], float(v)) for x, v in
                  zip(rng.uniform(size=7), rng.uniform(1, 3, size=7))]
        a = propose_next(trials, space, seed=7)
        b = propose_next(trials, space, seed=7)
        c = propose_next(trials, space, seed=8)
        assert a == b
        assert a != c

    def test_proposal_ei_dominates_grid(self):
        space = line_space()
        rng = np.random.default_rng(9)
        xs = rng.uniform(size=8)
        trials = [trial_at(space, [x], (x - 0.4) ** 2) for x in xs]
        seed = 10
        native = propose_next(trials, space, seed=seed)
        posterior = gp_fit(trials, seed=seed)
        incumbent = min(t.objective for t in trials)
        grid = derive_rng(seed, "hyperopt", "grid",
                          len(trials)).random((N_CANDIDATES, 1))
        grid_best = expected_improvement(posterior, incumbent, grid).max()
        chosen = expected_improvement(
            posterior, incumbent, space.to_unit(native)[None, :])[0]
        assert chosen >= grid_best - 1e-12


def quadratic(native):
    return (native["x"] - 0.37) ** 2


class TestRunSearch:
    def test_cold_start_in_bounds(self):
        native = run_search(lambda native: 1.0, lm_space(), budget=1,
                            seed=4).trials[0].native
        assert 1 <= native["layers"] <= 3
        assert isinstance(native["layers"], int)
        assert 32 <= native["hidden_size"] <= 512
        assert 2 <= native["pca_d"] <= 300
        assert 0.0 <= native["dropout"] <= 0.5

    def test_init_proposals_are_latin_hypercube(self):
        space = SearchSpace(dimensions=(
            Dimension("x", "continuous", 0.0, 1.0),
            Dimension("y", "continuous", 0.0, 1.0)))
        result = run_search(lambda native: 1.0, space, budget=5, seed=5)
        units = np.array([t.unit for t in result.trials])
        for j in range(2):
            assert sorted(np.floor(units[:, j] * 5).astype(int)) == \
                [0, 1, 2, 3, 4]

    def test_gp_steps_fill_the_budget(self, monkeypatch):
        calls = []
        real = hyperopt.propose_next
        monkeypatch.setattr(hyperopt, "propose_next",
                            lambda *a: calls.append(len(a[0])) or real(*a))
        result = run_search(quadratic, line_space(), budget=8, seed=0)
        assert len(result.trials) == 8
        assert calls == [N_INIT, N_INIT + 1, N_INIT + 2]

    def test_budget_one(self):
        result = run_search(quadratic, line_space(), budget=1, seed=0)
        assert len(result.trials) == 1
        assert result.best is result.trials[0]

    def test_validation(self):
        space = line_space()
        with pytest.raises(ValueError):
            run_search(quadratic, space, budget=0)

    def test_quadratic_found_and_beats_random(self):
        space = line_space()
        hits = 0
        wins = 0
        for seed in range(10):
            bo = run_search(quadratic, space, budget=20, seed=seed)
            # Random search over the same budget, from its own streams.
            rnd = min(quadratic(space.from_unit(
                derive_rng(seed, "hyperopt", "random", i).random(space.d)))
                for i in range(20))
            if abs(bo.best.native["x"] - 0.37) <= 0.05:
                hits += 1
            if bo.best.objective <= rnd:
                wins += 1
        assert hits >= 9
        assert wins >= 6

    def test_diverged_trials_penalized(self):
        space = line_space()

        def sometimes(native):
            if native["x"] < 0.5:
                raise TrainingDivergedError("loss blew up")
            return native["x"]

        result = run_search(sometimes, space, budget=8, seed=3)
        ok = [t for t in result.trials if t.status == "ok"]
        bad = [t for t in result.trials if t.status == "diverged"]
        assert ok and bad
        assert result.best.status == "ok"
        assert result.best.objective == min(t.objective for t in ok)
        worst_ok = max(t.objective for t in ok)
        for t in bad:
            assert t.objective >= min(worst_ok + 2.0, 22.0) - 1e-9

    def test_nan_return_is_divergence(self):
        # The 5-point init covers all fifths of [0, 1], so both sides of
        # the 0.5 threshold are guaranteed to be evaluated.
        space = line_space()
        result = run_search(lambda native: math.nan if native["x"] < 0.5
                            else 1.0, space, budget=6, seed=4)
        assert any(t.status == "diverged" for t in result.trials)
        assert any(t.status == "ok" for t in result.trials)

    def test_all_diverged_raises(self):
        space = line_space()

        def always_bad(native):
            raise TrainingDivergedError("no luck")

        with pytest.raises(AllTrialsDivergedError):
            run_search(always_bad, space, budget=3, seed=5)

    def test_all_diverged_fits_each_point_once(self, monkeypatch):
        # A search whose Latin-hypercube trials all diverge stops there,
        # with the budget in its message, and fits each point once.
        with_cpus(monkeypatch, 1)
        calls = []

        def always_bad(native):
            calls.append(native["x"])
            raise TrainingDivergedError("no luck")

        with pytest.raises(AllTrialsDivergedError,
                           match="^all 12 trials diverged$"):
            run_search(always_bad, line_space(), budget=12, seed=5)
        assert len(calls) == len(set(calls)) == N_INIT


def with_cpus(monkeypatch, n):
    monkeypatch.setattr(forkrun, "_usable_cpus", lambda: n)


def trial_fields(result):
    return [(t.native, t.unit.tolist(), t.objective, t.status)
            for t in result.trials]


def diverges_below_04(native):
    if native["x"] < 0.4:
        raise TrainingDivergedError("loss blew up")
    return quadratic(native)


class TestForkedInitialDesign:
    """The Latin-hypercube trials, shared between the parent and forked
    workers. Seed 0's points on the line are 0.546, 0.104, 0.218, 0.801 and
    0.725; with equal costs the parent takes points 0, 2 and 4."""

    def test_shares_largest_first(self):
        assert forkrun._shares([5, 1, 4, 2, 3], 2) == [[0, 3, 1], [2, 4]]
        assert forkrun._shares([1] * 5, 2) == [[0, 2, 4], [1, 3]]
        assert forkrun._shares([1] * 3, 3) == [[0], [1], [2]]

    @pytest.mark.parametrize("cpus,in_worker", [
        (1, [0.0] * 5), (2, [0.0, 1.0, 0.0, 1.0, 0.0])])
    def test_worker_evaluates_its_share(self, monkeypatch, cpus, in_worker):
        parent = os.getpid()
        with_cpus(monkeypatch, cpus)
        result = run_search(lambda native: float(os.getpid() != parent),
                            line_space(), budget=5, seed=0)
        assert [t.objective for t in result.trials] == in_worker
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("budget", [3, 7])
    def test_same_trials_with_one_and_two_cpus(self, monkeypatch, budget):
        runs = []
        for cpus in (1, 2):
            with_cpus(monkeypatch, cpus)
            runs.append(trial_fields(run_search(
                diverges_below_04, line_space(), budget=budget, seed=0)))
        assert runs[0] == runs[1]
        # Point 1 diverged in the worker, point 2 in the parent.
        assert [status for *_, status in runs[0][:3]] == [
            "ok", "diverged", "diverged"]

    def test_worker_error_reraised(self, monkeypatch):
        parent = os.getpid()

        def fails_in_worker(native):
            if os.getpid() != parent:
                raise KeyError("worker only")
            return quadratic(native)

        with_cpus(monkeypatch, 2)
        with pytest.raises(KeyError, match="worker only"):
            run_search(fails_in_worker, line_space(), budget=5, seed=0)
        assert multiprocessing.active_children() == []

    def test_lost_worker_is_an_error(self, monkeypatch):
        parent = os.getpid()

        def exits_in_worker(native):
            if os.getpid() != parent:
                os._exit(3)
            return quadratic(native)

        with_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            run_search(exits_in_worker, line_space(), budget=5, seed=0)
        assert multiprocessing.active_children() == []

    def test_parent_error_stops_the_worker(self, monkeypatch):
        parent = os.getpid()

        def fails_in_parent(native):
            if os.getpid() == parent:
                raise KeyError("parent only")
            time.sleep(20)
            return quadratic(native)

        with_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyError, match="parent only"):
            run_search(fails_in_parent, line_space(), budget=5, seed=0)
        assert time.monotonic() - start < 10
        assert multiprocessing.active_children() == []

    def test_another_thread_keeps_the_search_serial(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert forkrun._usable_cpus() == 1
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="needs sched_getaffinity")
    def test_single_threaded_process_forks_per_cpu(self, monkeypatch):
        # With BLAS pinned to one thread nothing else runs, so every
        # usable CPU takes a share.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            monkeypatch.setenv(name, "1")
        result = json.loads(run_python(FORK_SCRIPT))
        assert result["cpus"] == result["affinity"]
        assert (max(result["in_worker"]) > 0) == (result["affinity"] > 1)
        assert result["children_after"] == 0


FORK_SCRIPT = """
import json, multiprocessing, os
from signform import forkrun
from signform.hyperopt import Dimension, SearchSpace, run_search

parent = os.getpid()
space = SearchSpace((Dimension("x", "continuous", 0.0, 1.0),))
result = run_search(lambda native: float(os.getpid() != parent), space,
                    budget=5)
print(json.dumps({"cpus": forkrun._usable_cpus(),
                  "affinity": len(os.sched_getaffinity(0)),
                  "in_worker": [t.objective for t in result.trials],
                  "children_after": len(multiprocessing.active_children())}))
"""
