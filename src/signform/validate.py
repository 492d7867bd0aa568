"""Self-contained validation battery exercising the whole toolchain.

Each criterion is an oracle- or property-based check with a pinned
tolerance: gradients against finite differences, estimators against exact
synthetic enumeration, tests against brute-force enumeration, output files
against the fixed table schemas. Every check runs from fixed seeds, so a
fresh checkout either passes the battery or fails it reproducibly.

Criteria are registered by id (c01..c11) and runnable individually; the
``validate`` CLI command prints one PASS/FAIL line per criterion. c11 needs
user-supplied full-scale data and is informational: without data it is
reported as SKIP and never gates the battery.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .forkrun import run_indexed
from .hyperopt import (
    Dimension,
    GPPosterior,
    SearchSpace,
    expected_improvement,
    run_search,
)
from .infotheory import build_report, entropy_estimate, mi_estimate
from .lexicon import Lexicon, Phone, PhoneInventory, Sign, split_folds
from .phonesthemes import MiningSettings, mine, reverse_forms
from .phonolm import (
    LMConfig,
    LossTable,
    OptSettings,
    encode_signs,
    evaluate,
    init_params,
    loss_and_grads,
)
from .phonolm.model import _pad
from .pipeline import (
    FitUnit,
    RunConfig,
    fit_model,
    load_batch,
    make_lm_config,
    run_batch,
    run_estimate,
    seed_for,
)
from .reports import (
    write_appendix_tsv,
    write_phonesthemes_tsv,
    write_report_csv,
)
from .stats import bh_correct, exact_sign_flip_p, permutation_test, spearman_rho
from .synthbench import (
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

FAST_LM = {"hidden_size": 16, "phone_embed_size": 8, "pca_d": 3}
FAST_OPT = {"max_epochs": 12, "patience": 3, "batch_size": 64}


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    detail: str
    seconds: float = 0.0
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else (
            "PASS" if self.passed else "FAIL")
        return f"{status} {self.cid} {self.title} [{self.seconds:.1f}s] " \
               f"{self.detail}"


def _fast_estimate(lex, seed, folds=5, permutations=1000, lm=None, **kw):
    cfg = RunConfig(language=lex.language, folds=folds, seed=seed,
                    permutations=permutations,
                    lm=dict(FAST_LM if lm is None else lm),
                    opt=dict(FAST_OPT), **kw)
    return run_estimate(cfg, lex=lex, write=False)


def _loss_tables(spec, lex, labels, conditional=True):
    """Exact per-word code lengths: mixture model vs per-cluster model."""
    ubits, cbits = [], []
    for sign, c in zip(lex.signs, labels):
        phones = spec.encode_form(sign.form)
        bits = oracle_word_bits(spec, phones)
        ubits.append(bits)
        cbits.append(oracle_word_bits(spec, phones, cluster=int(c))
                     if conditional else bits)
    keys = [s.key for s in lex.signs]
    return LossTable.from_rows(keys, ubits), LossTable.from_rows(keys, cbits)


def _noise_tables(uncond, scale=0.25, seed=0):
    """A null conditional table: per-word noise with no affix structure."""
    rng = np.random.default_rng(seed)
    eps = scale * rng.standard_normal(len(uncond.keys)) / uncond.token_count
    return LossTable(keys=uncond.keys,
                     bits=uncond.bits - np.repeat(eps, uncond.token_count),
                     offsets=uncond.offsets)


def _reverse_tables(rev_lex, table):
    """Position-reversed tables aligned with rev_lex = reverse_forms(lex):
    each word's phone positions reversed, its end marker kept last."""
    lo, hi = table.offsets[:-1], table.offsets[1:]
    row = np.repeat(np.arange(lo.size), table.token_count)
    pos = np.arange(row.size)
    # Position j < n - 1 of an n-position row takes phone n - 2 - j.
    source = np.where(pos < hi[row] - 1, lo[row] + hi[row] - 2 - pos, pos)
    return LossTable(keys=[s.key for s in rev_lex.signs],
                     bits=table.bits[source], offsets=table.offsets)


def c01_gradient_check(hooks) -> tuple[bool, str]:
    """Analytic vs central finite-difference gradients on a tiny model."""
    start = time.time()
    alphabet = ("a", "k", "m", "s", "t")
    rng = np.random.default_rng(1)
    signs = [Sign(lemma=f"{w}{i}", form=tuple(Phone(ch) for ch in w),
                  meaning=rng.normal(size=3), pos="X")
             for i, w in enumerate(["kat", "sam", "ta"])]
    inventory = PhoneInventory.from_phones(Phone(p) for p in alphabet)
    lex = Lexicon(language="toy", inventory=inventory, signs=signs,
                  classes=("X",))
    cfg = LMConfig(layers=2, hidden_size=8, phone_embed_size=4, pca_d=3,
                   condition_on="nothing")
    params = init_params(cfg, len(lex.inventory), np.float64, rng=rng)
    batch = _pad(encode_signs(lex.signs, lex.inventory),
                 lex.inventory.eos_index)

    def batch_loss():
        return loss_and_grads(params, cfg, *batch)[0]

    _, _, grads = loss_and_grads(params, cfg, *batch)
    fault = float(hooks.get("gradient_fault", 0.0))
    if fault:
        name0 = list(params.named_arrays())[0][0]
        grads[name0].ravel()[0] += fault

    step = 1e-4
    worst = 0.0
    for name, arr in params.named_arrays():
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = batch_loss()
            flat[k] = orig - step
            down = batch_loss()
            flat[k] = orig
            numeric = (up - down) / (2 * step)
            err = abs(gflat[k] - numeric) / max(abs(gflat[k]), abs(numeric),
                                                1e-3)
            worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    return ok, f"max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s (<10s)"


def c02_variational_bound(hooks) -> tuple[bool, str]:
    """Held-out bits/phone of a trained model never beat the true entropy."""
    spec = independent_spec()
    hstar = exact_entropy(spec).bits_per_phone
    margins = []
    for seed in range(10):
        lex, _ = generate(spec, 600, seed=200 + seed)
        fresh, _ = generate(spec, 3000, seed=900 + seed)
        folds = split_folds(lex, 4, seed)
        unit = FitUnit("uncond", make_lm_config("uncond", FAST_LM),
                       seed_for(seed, "train", "uncond"), None)
        params, *_ = fit_model(lex, folds, 0, unit, OptSettings(**FAST_OPT))
        losses = evaluate(params, unit.cfg, fresh.signs, fresh.inventory)
        margins.append(entropy_estimate(losses).bits_per_phone - hstar)
    worst = min(margins)
    return worst >= -0.01, (f"min test margin over H* across 10 seeds: "
                            f"{worst:+.4f} bits (tol -0.01)")


def _single_cluster_null_spec() -> SyntheticSpec:
    """M=1 spec with fixed-length forms, so true MI is exactly zero.

    Words all have the same length: with varying lengths the conditioned
    model's trainable initial state calibrates the stop distribution a bit
    better than the unconditional model's fixed zero state, a small but
    real model-quality artifact unrelated to form-meaning association. The
    fixed length removes that confound and leaves exactly the question the
    null is asking: does the pipeline invent systematicity from meaningless
    meaning vectors?
    """
    rng = np.random.default_rng(31)
    s = 5
    chain = ClusterChain(start=rng.dirichlet(np.full(s, 2.0)),
                         trans=rng.dirichlet(np.full(s, 2.0), size=s),
                         stop=np.zeros(s))
    return SyntheticSpec(alphabet=("a", "k", "m", "s", "t"),
                         prior=np.array([1.0]), chains=(chain,),
                         centroids=np.zeros((1, 8)), noise_scale=1.0,
                         max_len=6, language="nullfix")


def c03_mi_recovery(hooks) -> tuple[bool, str]:
    """Pipeline recovers exact MI on clustered data, and zero when absent."""
    spec = two_cluster_spec()
    lex, _ = generate(spec, 5000, seed=42)
    out = _fast_estimate(lex, seed=0, folds=10, permutations=2000)
    gap = abs(out.report.mi - exact_mi(spec))
    part_a = gap <= 0.05

    null_spec = _single_cluster_null_spec()

    def null_estimate(seed: int) -> tuple:
        nlex, _ = generate(null_spec, 4000, seed=1000 + seed)
        report = _fast_estimate(nlex, seed=seed, folds=4, permutations=2000,
                                lm=dict(FAST_LM, dropout=0.2)).report
        return report.mi, report.p_value

    hits = sum(abs(mi) <= 0.03 and p_value > 0.05
               for mi, p_value in run_indexed(null_estimate, range(20)))
    part_b = hits >= 18
    return part_a and part_b, (
        f"two-cluster |est-exact|={gap:.4f} (tol 0.05); "
        f"null spec clean in {hits}/20 seeds (need 18)")


def c04_conditioning_direction(hooks) -> tuple[bool, str]:
    """Conditioning lowers mean test entropy wherever true MI is material."""
    specs = {name: maker() for name, maker in (
        ("two_cluster", two_cluster_spec),
        ("planted_prefix", planted_prefix_spec))}
    runs = [(name, seed) for name, spec in specs.items()
            if exact_mi(spec) > 0.05 for seed in range(3)]

    def entropies(run: tuple) -> tuple:
        name, seed = run
        lex, _ = generate(specs[name], 1500, seed=300 + seed)
        report = _fast_estimate(lex, seed=seed, folds=5).report
        return report.h_w.bits_per_phone, report.h_w_given_v.bits_per_phone

    by_spec = {}
    for (name, _), bits in zip(runs, run_indexed(entropies, runs)):
        by_spec.setdefault(name, []).append(bits)
    details = []
    ok = True
    for name, bits in by_spec.items():
        h_u, h_c = zip(*bits)
        drop = float(np.mean(h_u) - np.mean(h_c))
        ok = ok and drop >= 0.0
        details.append(f"{name}: mean drop {drop:+.3f} bits")
    return ok, "; ".join(details)


def c05_permutation_exactness(hooks) -> tuple[bool, str]:
    """Monte Carlo p matches 2^N enumeration; null p-values are uniform."""
    from scipy.stats import kstest

    rng = np.random.default_rng(5)
    worst = 0.0
    for n in (5, 8, 12):
        deltas = rng.standard_normal(n) * 0.5 + 0.2
        mc = permutation_test(deltas, n_perm=100_000, seed=1).p_value
        exact = exact_sign_flip_p(deltas)
        worst = max(worst, abs(mc - exact))
    part_a = worst <= 0.01

    null_rng = np.random.default_rng(2)
    ps = [permutation_test(null_rng.standard_normal(20), n_perm=999,
                           seed=10_000 + r).p_value for r in range(200)]
    ks_p = float(kstest(ps, "uniform").pvalue)
    part_b = ks_p > 0.05
    return part_a and part_b, (f"max |MC-exact| {worst:.4f} (tol 0.01); "
                               f"null uniformity KS p={ks_p:.3f} (>0.05)")


def c06_bh_and_spearman(hooks) -> tuple[bool, str]:
    """Hand-checked step-up correction and rank correlation, no tolerance."""
    reject, _ = bh_correct([0.01, 0.02, 0.03, 0.04, 0.05], alpha=0.05)
    part_a = list(reject) == [True] * 5
    rho = spearman_rho([(1, 2), (2, 3), (3, 1)], n_perm=100, seed=0).rho
    part_b = rho == -0.5
    return part_a and part_b, (f"step-up rejections {int(sum(reject))}/5; "
                               f"3-pair rho {rho}")


def c07_phonestheme_mining(hooks) -> tuple[bool, str]:
    """Planted affix found; null affixes stay quiet; suffix identity exact."""
    spec = planted_prefix_spec()
    lex, labels = generate(spec, 2500, seed=77)
    uncond, cond = _loss_tables(spec, lex, labels)
    rev = reverse_forms(lex)
    rev_u, rev_c = _reverse_tables(rev, uncond), _reverse_tables(rev, cond)
    found = mine(
        lex, (uncond, cond),
        MiningSettings(k_range=(1, 2, 3), min_count=10, n_samples=20_000), 7,
        (rev_u, rev_c))
    planted = next(c for c in found
                   if c.side == "prefix" and c.phones == ("g", "l"))
    part_a = planted.bh_significant and planted.p_adjusted <= 0.01

    null_cond = _noise_tables(uncond, seed=11)
    null_found = mine(
        lex, (uncond, null_cond),
        MiningSettings(k_range=(1, 2, 3), min_count=10, n_samples=2000), 8,
        (rev_u, _reverse_tables(rev, null_cond)))
    n_null = len(null_found)
    fp_rate = sum(c.bh_significant for c in null_found) / n_null
    part_b = n_null >= 50 and fp_rate <= 0.05 + 0.05

    small = MiningSettings(k_range=(1, 2), min_count=10, n_samples=2000)
    forward_run = mine(lex, (uncond, cond), small, 9, (rev_u, rev_c))
    mirrored = mine(rev, (rev_u, rev_c), small, 9)
    suffixes = {c.phones: c for c in forward_run if c.side == "suffix"}
    prefixes = {tuple(reversed(c.phones)): c for c in mirrored}
    part_c = set(suffixes) == set(prefixes) and all(
        suffixes[k].p_value == prefixes[k].p_value
        and suffixes[k].count == prefixes[k].count for k in suffixes)
    return part_a and part_b and part_c, (
        f"planted adj p {planted.p_adjusted:.4f} (<=0.01); "
        f"FP rate {fp_rate:.3f} over {n_null} null affixes (tol 0.10); "
        f"suffix/reversed-prefix identity {'exact' if part_c else 'BROKEN'}")


def c08_hyperopt_quadratic(hooks) -> tuple[bool, str]:
    """Search lands near an analytic optimum; EI closed form spot-checked."""
    space = SearchSpace(dimensions=(
        Dimension("x", "continuous", 0.0, 1.0),))
    hits = 0
    for seed in range(10):
        res = run_search(lambda nat: (nat["x"] - 0.37) ** 2, space,
                         budget=20, seed=seed)
        if abs(res.best.native["x"] - 0.37) <= 0.05:
            hits += 1
    part_a = hits >= 9

    prior = GPPosterior(x=np.zeros((0, 1)), y=np.zeros(0),
                        length_scales=np.array([0.5]), signal_var=1.0,
                        noise_var=0.0)
    ei = float(expected_improvement(prior, 0.0,
                                    np.array([[0.5]]))[0])
    phi0 = 1.0 / np.sqrt(2.0 * np.pi)
    part_b = abs(ei - phi0) <= 1e-4
    return part_a and part_b, (f"{hits}/10 seeds within 0.05 (need 9); "
                               f"EI at z=0: {ei:.6f} vs {phi0:.6f}")


def c09_table_schemas(hooks) -> tuple[bool, str]:
    """Emitted file headers match the published table layouts."""
    report = _toy_report()
    tmp = tempfile.mkdtemp(prefix="signform_schema_")
    try:
        csv_path = os.path.join(tmp, "report.csv")
        write_report_csv(csv_path, [report])
        with open(csv_path) as fh:
            report_header = tuple(fh.readline().strip().split(","))
        appendix_path = os.path.join(tmp, "appendix.tsv")
        write_appendix_tsv(appendix_path, [])
        with open(appendix_path) as fh:
            appendix_header = tuple(fh.readline().strip().split("\t"))
        ph_path = os.path.join(tmp, "phonesthemes.tsv")
        write_phonesthemes_tsv(ph_path, [])
        with open(ph_path) as fh:
            ph_header = tuple(fh.readline().strip().split("\t"))
    finally:
        shutil.rmtree(tmp)
    ok_report = report_header == (
        "language", "h_w", "mi_w_v", "u_w_v", "cohens_d",
        "mi_w_v_given_pos", "u_w_v_given_pos", "cohens_d_given_pos")
    ok_appendix = appendix_header == ("language", "h_w", "u_w_v",
                                      "u_w_v_given_pos")
    ok_ph = ph_header == ("phonestheme", "count", "examples", "p_value")
    return ok_report and ok_appendix and ok_ph, (
        f"report {'ok' if ok_report else report_header}; "
        f"appendix {'ok' if ok_appendix else appendix_header}; "
        f"phonesthemes {'ok' if ok_ph else ph_header}")


def _toy_report():
    keys = [(f"w{i}", (), "X") for i in range(4)]
    uncond = LossTable.from_rows(keys, [[2.0, 2.0]] * 4)
    cond = LossTable.from_rows(
        keys, [[1.0, 1.0], [1.2, 1.0], [0.8, 1.0], [1.1, 0.9]])
    return build_report("toy", mi_estimate(uncond, cond), p_value=0.01)


# An estimate in a fresh interpreter; it regenerates a two-cluster lexicon
# when argv gives its size and seed, else it reads the config's files.
_ESTIMATE_IN_NEW_PROCESS = """
import json, sys
from signform.pipeline import RunConfig, run_estimate
from signform.synthbench import generate, two_cluster_spec
lex = None
if len(sys.argv) > 2:
    lex, _ = generate(two_cluster_spec(), int(sys.argv[2]),
                      seed=int(sys.argv[3]))
run_estimate(RunConfig.from_dict(json.loads(sys.argv[1])), lex=lex)
"""


def estimate_in_new_process(cfg: RunConfig, *two_cluster: int) -> None:
    """run_estimate(cfg) in a fresh interpreter.

    two_cluster, when given as (n_words, seed), regenerates the lexicon
    there from two_cluster_spec; otherwise cfg's lexicon files are read.
    """
    run_python(_ESTIMATE_IN_NEW_PROCESS, json.dumps(cfg.to_dict()),
               *map(str, two_cluster))


def run_python(code: str, *args: str) -> str:
    """Run code in a fresh interpreter that imports this signform; stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"subprocess exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def c10_determinism(hooks) -> tuple[bool, str]:
    """Identical config gives byte-identical CSV and JSON reports.

    The first run is repeated three times into the same directory: reusing
    its archives, retrained after emptying it, and retrained in a fresh
    interpreter after emptying it again.
    """
    n_words, lex_seed = 300, 11
    lex, _ = generate(two_cluster_spec(), n_words, seed=lex_seed)
    tmp = tempfile.mkdtemp(prefix="signform_determinism_")
    out = os.path.join(tmp, "out")

    def reports():
        files = []
        for name in ("report.csv", "report.json"):
            with open(os.path.join(out, name), "rb") as fh:
                files.append(fh.read())
        return files

    try:
        cfg = RunConfig(language="tc", out_dir=out, folds=5, seed=9,
                        permutations=500, lm=dict(FAST_LM),
                        opt=dict(FAST_OPT))
        run_estimate(cfg, lex=lex)
        first = reports()
        run_estimate(cfg, lex=lex)
        same = {"reused": reports() == first}
        shutil.rmtree(out)
        run_estimate(cfg, lex=lex)
        same["retrained"] = reports() == first
        shutil.rmtree(out)
        estimate_in_new_process(cfg, n_words, lex_seed)
        same["new process"] = reports() == first
    finally:
        shutil.rmtree(tmp)
    return all(same.values()), "csv and json " + "; ".join(
        f"{how}: {'identical' if ok else 'differ'}"
        for how, ok in same.items())


def c11_full_scale(hooks) -> tuple[bool, str]:
    """Informational: batch over user-supplied data, U in the usual range."""
    config_path = hooks.get("full_scale_config") or os.environ.get(
        "SIGNFORM_FULLSCALE_CONFIG")
    if not config_path:
        raise _Skip("no full-scale dataset configured "
                    "(set SIGNFORM_FULLSCALE_CONFIG); informational only")
    # The document is loaded and run as `signform batch` would.
    batch = run_batch(*load_batch(config_path))
    us = [r.uncertainty for r in batch.reports]
    inside = sum(1 for u in us if -0.05 <= u <= 0.12)
    frac = inside / len(us)
    return True, (f"{inside}/{len(us)} languages with U in [-0.05, 0.12] "
                  f"({frac:.0%}); informational only")


class _Skip(Exception):
    pass


CRITERIA = (
    ("c01", "gradient check vs finite differences", c01_gradient_check),
    ("c02", "trained entropy upper-bounds the true entropy",
     c02_variational_bound),
    ("c03", "MI recovery on clustered and independent data",
     c03_mi_recovery),
    ("c04", "conditioning lowers entropy when MI is present",
     c04_conditioning_direction),
    ("c05", "permutation p vs exhaustive enumeration and uniformity",
     c05_permutation_exactness),
    ("c06", "step-up correction and rank correlation hand examples",
     c06_bh_and_spearman),
    ("c07", "planted phonestheme found, nulls quiet, suffix identity",
     c07_phonestheme_mining),
    ("c08", "hyperparameter search optimum and EI closed form",
     c08_hyperopt_quadratic),
    ("c09", "output file schemas", c09_table_schemas),
    ("c10", "byte-identical reruns", c10_determinism),
    ("c11", "full-scale batch on user data (informational)", c11_full_scale),
)

CRITERION_IDS = tuple(cid for cid, _, _ in CRITERIA)


def run_criterion(cid: str, **hooks) -> CriterionResult:
    for known, title, fn in CRITERIA:
        if known == cid:
            start = time.time()
            skipped = False
            try:
                passed, detail = fn(hooks)
            except _Skip as skip:
                passed, detail, skipped = True, str(skip), True
            except Exception as exc:
                passed = False
                detail = f"crashed: {type(exc).__name__}: {exc}"
            return CriterionResult(cid=cid, title=title, passed=passed,
                                   detail=detail,
                                   seconds=time.time() - start,
                                   skipped=skipped)
    raise ValueError(f"unknown criterion {cid!r}; have {CRITERION_IDS}")


def run_battery(ids=None, progress=None, **hooks) -> list[CriterionResult]:
    results = []
    for cid in ids or CRITERION_IDS:
        result = run_criterion(cid, **hooks)
        results.append(result)
        if progress is not None:
            progress(result.line())
    return results


def battery_passed(results) -> bool:
    return all(r.passed for r in results if not r.skipped)
