"""The benchmark's workloads: inputs from a seed, the timed call, checks.

Every workload is a synthbench corpus, so its exact answers are known and
nothing is downloaded. ``make_inputs`` writes the lexicon, embeddings and
truth files and returns the case (configs plus truth) before any timing;
``setup`` and ``run`` execute in a fresh operation process (see op.py);
``check`` reads the files the operation wrote.

Every workload trains with ``patience`` above ``max_epochs``, so early
stopping never changes how much work an operation does.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os

import numpy as np

from signform.lexicon import split_folds
from signform.pipeline import (
    MODEL_KINDS,
    RunConfig,
    resolve_lexicon,
    run_batch,
    run_estimate,
    run_phonesthemes,
    search_lm,
    seed_for,
    write_embeddings,
    write_lexicon_tsv,
)
from signform.reports import read_json, write_json
from signform.synthbench import (
    exact_entropy,
    exact_mi,
    generate,
    independent_spec,
    planted_prefix_spec,
    two_cluster_spec,
)

PERMUTATIONS = 100_000
POS_TAGS = ("N", "V", "A")
REPORT_KEYS = ("language", "n_words", "h_w", "h_w_given_v", "mi",
               "uncertainty", "cohens_d", "p_value", "h_w_given_c",
               "h_w_given_vc", "mi_given_pos", "uncertainty_given_pos",
               "cohens_d_given_pos", "p_value_given_pos")
AGGREGATE_KEYS = ("n_languages", "n_failed", "u_mean", "mi_mean",
                  "cohens_d_mean", "n_significant")
SIGNIFICANCE_KEYS = ("significant", "p_adjusted", "significant_pos",
                     "p_adjusted_pos")


def _opt(epochs: int, batch_size: int = 64) -> dict:
    return {"max_epochs": epochs, "patience": epochs + 1,
            "batch_size": batch_size}


def _write_language(in_dir, spec, n_words, seed, pos_rng=None) -> dict:
    """Write one synthbench language; returns its file paths and truth."""
    lex, labels = generate(spec, n_words, seed)
    base = os.path.join(in_dir, spec.language)
    os.makedirs(base, exist_ok=True)
    lex_path = os.path.join(base, "lexicon.tsv")
    emb_path = os.path.join(base, "embeddings.vec")
    if pos_rng is not None:
        lex = dataclasses.replace(lex, signs=[
            dataclasses.replace(s, pos=str(p)) for s, p in
            zip(lex.signs, pos_rng.choice(POS_TAGS, size=len(lex.signs)))])
    write_lexicon_tsv(lex_path, lex,
                      concepts=[f"c{int(c)}" for c in labels])
    write_embeddings(emb_path, lex)
    truth = {"language": spec.language, "n_words": n_words, "seed": seed,
             "exact_mi_bits_per_phone": exact_mi(spec),
             "exact_entropy_bits_per_phone":
                 exact_entropy(spec).bits_per_phone}
    write_json(os.path.join(base, "truth.json"), truth)
    return {"lexicon_path": lex_path, "embeddings_path": emb_path,
            "truth": truth}


def _language_config(files, seed, **fields) -> dict:
    return RunConfig(language=files["truth"]["language"],
                     lexicon_path=files["lexicon_path"],
                     embeddings_path=files["embeddings_path"],
                     pretokenized=True, seed=seed, **fields).to_dict()


@dataclasses.dataclass
class Verdict:
    """Outcome of one operation's output checks."""

    attempted: int
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    quality: dict = dataclasses.field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + 1)
        self.problems.append(problem)


class Workload:
    name = ""
    workers = 1

    def make_inputs(self, seed: int, in_dir: str) -> dict:
        raise NotImplementedError

    def setup(self, case: dict):
        """Untimed part of an operation after import (counted in setup_s)."""
        config = RunConfig.from_dict(case["config"])
        return config, resolve_lexicon(config)

    def run(self, state, out_dir: str) -> None:
        raise NotImplementedError

    def units(self, case: dict) -> int:
        """Operations (languages, mining runs, searches) one call attempts."""
        return 1

    def check(self, case: dict, out_dir: str) -> Verdict:
        raise NotImplementedError

    def expected_calls(self, case: dict) -> dict:
        """Span counts a traced operation must record, by span name."""
        raise NotImplementedError


class Estimate(Workload):
    name = "estimate"
    words, dim, hidden, epochs = 800, 300, 128, 3
    # The test fold holds 80 words: the acceptance battery's 0.05 bits at
    # 500 test words, scaled by the sampling error sqrt(500 / 80).
    mi_tolerance = 0.125

    def make_inputs(self, seed, in_dir):
        spec = planted_prefix_spec(meaning_dim=self.dim)
        files = _write_language(in_dir, spec, self.words, seed)
        config = _language_config(
            files, seed, permutations=PERMUTATIONS,
            lm={"hidden_size": self.hidden, "pca_d": 8},
            opt=_opt(self.epochs))
        return {"config": config, "truth": files["truth"]}

    def run(self, state, out_dir):
        config, lex = state
        run_estimate(dataclasses.replace(config, out_dir=out_dir), lex=lex)

    def check(self, case, out_dir):
        verdict = Verdict(attempted=self.units(case))
        report = _read_report(os.path.join(out_dir, "report.json"), verdict)
        if report is None:
            return verdict
        exact = case["truth"]["exact_mi_bits_per_phone"]
        err = abs(report["mi"] - exact)
        verdict.quality = {"mi_abs_err_bits": err,
                           "p_value": report["p_value"]}
        if err > self.mi_tolerance:
            verdict.fail(f"|MI - exact| = {err:.4f} > {self.mi_tolerance}")
        if not report["p_value"] < 0.05:
            verdict.fail(f"planted MI not significant: p = "
                         f"{report['p_value']}")
        return verdict

    def expected_calls(self, case):
        return {"phonolm.train_on_indices": len(case["config"]["model_kinds"]),
                "stats.permutation_test": 1}


class Batch(Workload):
    name = "batch"
    languages, words, dim, hidden, epochs = 4, 400, 50, 32, 3
    specs = (two_cluster_spec, independent_spec, planted_prefix_spec)
    # One worker: with two on a 2-vCPU machine, wall_s followed whether the
    # second vCPU was free and drifted 37% between two sets of runs made
    # 20 minutes apart (cpu_s moved 6%), past the largest allowed bound.
    workers = 1

    def make_inputs(self, seed, in_dir):
        configs, truth = [], {}
        pos_rng = np.random.default_rng([seed, 1])
        for i in range(self.languages):
            spec = self.specs[i % len(self.specs)](meaning_dim=self.dim)
            spec = dataclasses.replace(spec, language=f"{spec.language}{i}")
            files = _write_language(in_dir, spec, self.words, seed, pos_rng)
            truth[spec.language] = files["truth"]
            configs.append(_language_config(
                files, seed, model_kinds=MODEL_KINDS,
                permutations=PERMUTATIONS,
                lm={"hidden_size": self.hidden, "pca_d": 8},
                opt=_opt(self.epochs)))
        return {"configs": configs, "truth": truth}

    def setup(self, case):
        # Parsing happens inside run_batch, so it is timed in wall_s.
        return [RunConfig.from_dict(c) for c in case["configs"]]

    def run(self, state, out_dir):
        run_batch(state, out_dir, threads=self.workers)

    def units(self, case):
        return len(case["configs"])

    def check(self, case, out_dir):
        languages = [c["language"] for c in case["configs"]]
        verdict = Verdict(attempted=self.units(case))
        try:
            doc = read_json(os.path.join(out_dir, "aggregate.json"))
            _require(doc["aggregate"], AGGREGATE_KEYS, "aggregate")
            if doc["failures"]:
                raise ValueError(f"failed languages {sorted(doc['failures'])}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            verdict.fail(f"aggregate.json: {exc}")
            doc = {"significance": {}}
        errors = []
        for language in languages:
            report = _read_report(
                os.path.join(out_dir, language, "report.json"), verdict)
            flags = doc["significance"].get(language)
            if report is None:
                continue
            try:
                _require(flags or {}, SIGNIFICANCE_KEYS, "significance")
            except ValueError as exc:
                verdict.fail(f"{language}: {exc}")
                continue
            exact = case["truth"][language]["exact_mi_bits_per_phone"]
            errors.append(abs(report["mi"] - exact))
        if errors:
            verdict.quality = {"mi_abs_err_bits": float(np.mean(errors))}
        return verdict

    def expected_calls(self, case):
        kinds = sum(len(c["model_kinds"]) for c in case["configs"])
        return {"phonolm.train_on_indices": kinds,
                "pipeline.run_estimate": len(case["configs"])}


class Phonesthemes(Workload):
    name = "phonesthemes"
    # Smaller or shorter-trained LMs left gl- unfound on 1-2 of 12-40
    # seeds; h=32 for 8 epochs found it on 120 of 120.
    words, hidden, epochs = 800, 32, 8
    # At 800 words few affixes have expected counts near 70, so the seed
    # barely changes the candidate set (11 or 12, gl- among them) or the
    # sampler's work: its draws varied by under 3% over 15 seeds.
    mining = {"k_range": [1, 2], "min_count": 70, "alpha": 0.05,
              "n_samples": 10_000}

    def make_inputs(self, seed, in_dir):
        spec = planted_prefix_spec()
        files = _write_language(in_dir, spec, self.words, seed)
        config = _language_config(
            files, seed, lm={"hidden_size": self.hidden, "pca_d": 8},
            opt=_opt(self.epochs), phonesthemes=dict(self.mining))
        return {"config": config, "truth": files["truth"]}

    def run(self, state, out_dir):
        config, lex = state
        run_phonesthemes(dataclasses.replace(config, out_dir=out_dir),
                         lex=lex)

    def check(self, case, out_dir):
        verdict = Verdict(attempted=self.units(case))
        path = os.path.join(out_dir, "phonesthemes_detail.tsv")
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh, delimiter="\t"))
            planted = next(r for r in rows
                           if r["side"] == "prefix" and r["affix"] == "gl")
            p_adj = float(planted["p_adjusted"])
        except (OSError, KeyError, ValueError, StopIteration) as exc:
            verdict.fail(f"{path}: no usable gl- row ({exc!r})")
            return verdict
        verdict.quality = {"planted_p_adj": p_adj,
                           "candidates": len(rows)}
        if planted["significant"] != "1":
            verdict.fail(f"gl- not BH-significant (adjusted p {p_adj})")
        return verdict

    def expected_calls(self, case):
        # Forward and reversed uncond + meaning pairs.
        return {"phonolm.train_on_indices": 4}


# The search proposes trials from the config seed. One fixed seed makes
# every run evaluate the same Latin-hypercube design (architectures whose
# cost differs 50-fold), so the work does not swing with --seed; the
# lexicon the trials train on still follows --seed. The budget is that
# design's size: later proposals come from the GP fit to the objective
# values, so their architectures, and the run's wall time (by +-20%),
# would follow the lexicon.
SEARCH_SEED = 0


class Hyperopt(Workload):
    name = "hyperopt"
    words, dim, epochs, budget = 64, 16, 1, 5

    def make_inputs(self, seed, in_dir):
        spec = planted_prefix_spec(meaning_dim=self.dim)
        files = _write_language(in_dir, spec, self.words, seed)
        config = _language_config(
            files, SEARCH_SEED, folds=5, hyperopt_budget=self.budget,
            opt=_opt(self.epochs, batch_size=32))
        return {"config": config, "truth": files["truth"]}

    def run(self, state, out_dir):
        # The search that `signform hyperopt` runs, through the library API.
        config, lex = state
        folds = split_folds(lex, config.folds, seed_for(config.seed, "folds"))
        os.makedirs(out_dir, exist_ok=True)
        best_by_kind = {}
        with open(os.path.join(out_dir, "search.jsonl"), "w",
                  encoding="utf-8") as fh:
            for kind in config.model_kinds:
                best, trials = search_lm(lex, folds, config.rotation, kind,
                                         config)
                best_by_kind[kind] = best
                for trial in trials:
                    rec = json.loads(trial.to_json())
                    rec["kind"] = kind
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
        write_json(os.path.join(out_dir, "best.json"), best_by_kind)

    def units(self, case):
        return len(case["config"]["model_kinds"])

    def check(self, case, out_dir):
        kinds = case["config"]["model_kinds"]
        verdict = Verdict(attempted=self.units(case))
        try:
            with open(os.path.join(out_dir, "search.jsonl"),
                      encoding="utf-8") as fh:
                trials = [json.loads(line) for line in fh if line.strip()]
            best = read_json(os.path.join(out_dir, "best.json"))
        except (OSError, ValueError) as exc:
            for _ in kinds:
                verdict.fail(f"search output unreadable: {exc}")
            return verdict
        for kind in kinds:
            mine = [t for t in trials if t.get("kind") == kind]
            if len(mine) != self.budget or kind not in best:
                verdict.fail(f"{kind}: {len(mine)} trials, budget "
                             f"{self.budget}")
        ok = [t["objective"] for t in trials
              if t.get("kind") == "uncond" and t.get("status") == "ok"]
        if ok:
            verdict.quality = {"best_val_bits": min(ok)}
        return verdict

    def expected_calls(self, case):
        kinds = len(case["config"]["model_kinds"])
        return {"phonolm.train_on_indices": kinds * self.budget,
                "hyperopt.run_search": kinds}


def _require(doc: dict, keys, what: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValueError(f"{what} lacks {missing}")


def _read_report(path: str, verdict: Verdict):
    """The report row of a report.json, schema-checked; None on failure."""
    try:
        doc = read_json(path)
        if doc.get("schema_version") != 1:
            raise ValueError(f"schema_version {doc.get('schema_version')}")
        _require(doc, ("report", "config", "seeds"), "report.json")
        report = doc["report"]
        _require(report, REPORT_KEYS, "report")
        if not (isinstance(report["mi"], float)
                and isinstance(report["p_value"], float)):
            raise ValueError("mi and p_value must be numbers")
        return report
    except (OSError, ValueError, TypeError) as exc:
        verdict.fail(f"{path}: {exc}")
        return None


WORKLOADS = {w.name: w for w in (Estimate(), Batch(), Phonesthemes(),
                                 Hyperopt())}
