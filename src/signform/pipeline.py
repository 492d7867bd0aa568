"""End-to-end orchestration: config, per-language estimate, batch, mining.

One run estimates a language's form entropy and form-meaning MI: parse the
lexicon, attach embeddings, split folds, optionally search hyperparameters,
train one model per enabled kind, score the held-out test fold, difference
the cross-entropies, and attach sign-flip permutation p-values. Batch mode
repeats this per language, on the usable CPUs, with per-language crash
isolation, then corrects significance across languages and aggregates.

Both commands that train models state them as a fit plan, a list of
FitUnits that fit_units trains or reuses and scores: estimate one unit per
kind, phonesthemes forward and reversed uncond + meaning pairs. The units
share only the lexicon, the folds and the PCA, so with several usable CPUs
a plan's fits run in this process and forked workers, like a batch's
languages, with the same outputs and log lines as on one CPU.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .checks import check_fields
from .errors import SchemaError, SignformError
from .forkrun import run_indexed
from .hyperopt import Dimension, SearchSpace, run_search
from .infotheory import MIReport, build_report, mi_estimate
from .lexicon import (
    Lexicon,
    attach_meanings,
    load_embeddings,
    parse_lexicon,
    split_folds,
)
from .phonesthemes import MiningSettings, mine, reverse_forms
from .phonolm import (
    DTYPE,
    LMConfig,
    OptSettings,
    evaluate,
    load_model,
    save_model,
    train_on_indices,
)
from .reports import (
    appendix_row,
    read_json,
    report_json_payload,
    write_appendix_tsv,
    write_density_csv,
    write_density_svg,
    write_json,
    write_phonestheme_detail_tsv,
    write_phonesthemes_tsv,
    write_report_csv,
)
from .seeding import derive_rng
from .semspace import pca_fit, pca_transform
from .stats import bh_correct, kde, permutation_test
from .synthbench import (
    exact_entropy,
    exact_mi,
    generate,
    independent_spec,
    planted_prefix_spec,
    two_cluster_spec,
)

MODEL_KINDS = ("uncond", "meaning", "class", "meaning_and_class")
KIND_CONDITION = {
    "uncond": "nothing",
    "meaning": "meaning",
    "class": "class",
    "meaning_and_class": "meaning_and_class",
}
SCHEMA_VERSION = 1

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Everything one estimate run needs, loadable from a JSON document."""

    language: str
    lexicon_path: str | None = None
    embeddings_path: str | None = None
    out_dir: str = "."
    columns: dict | None = None
    pretokenized: bool = False
    strip_marks: bool = True
    folds: int = 10
    rotation: int = 0
    seed: int = 0
    model_kinds: tuple = ("uncond", "meaning")
    permutations: int = 100_000
    hyperopt_budget: int = 0
    lm: dict = field(default_factory=dict)
    opt: dict = field(default_factory=dict)
    phonesthemes: dict = field(
        default_factory=lambda: dataclasses.asdict(MiningSettings()))
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        check_fields(self)
        columns = self.columns or {}
        if not all(isinstance(x, str) for x in [*columns, *columns.values()]):
            raise ValueError("columns must map names to names, got "
                             f"{self.columns!r}")
        if not all(isinstance(kind, str) for kind in self.model_kinds):
            raise ValueError("model_kinds must hold names, got "
                             f"{self.model_kinds!r}")
        unknown = set(self.model_kinds) - set(MODEL_KINDS)
        if unknown:
            raise ValueError(f"unknown model kinds: {sorted(unknown)}")
        # report.json records the kinds as given: refuse a repeat, not drop it.
        repeated = _repeats(self.model_kinds)
        if repeated:
            raise ValueError(f"model_kinds repeats {', '.join(repeated)}")
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema {self.schema_version} not supported")
        if not ("uncond" in self.model_kinds
                and "meaning" in self.model_kinds):
            raise ValueError("MI needs both the uncond and meaning models")
        has_class = "class" in self.model_kinds
        has_mac = "meaning_and_class" in self.model_kinds
        if has_class != has_mac:
            raise ValueError("class-controlled MI needs both the class and "
                             "meaning_and_class models")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        # report.json records the rotation as given, so it is not taken
        # mod folds.
        if not 0 <= self.rotation < self.folds:
            raise ValueError(f"rotation must be in 0..{self.folds - 1}, got "
                             f"{self.rotation}")
        if self.permutations < 1:
            raise ValueError("permutations must be >= 1")
        if self.hyperopt_budget < 0:
            raise ValueError("hyperopt_budget must be >= 0")
        _check_section("opt", OptSettings, self.opt)
        unknown = set(self.lm) - (
            {f.name for f in dataclasses.fields(LMConfig)} - {"condition_on"})
        if unknown:
            raise ValueError(f"unknown lm keys: {sorted(unknown)} (the model "
                             "kind sets condition_on)")
        _check_section("lm", LMConfig, self.lm)
        _check_section("phonesthemes", MiningSettings, self.phonesthemes)

    @property
    def with_pos_control(self) -> bool:
        return "class" in self.model_kinds

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["model_kinds"] = list(self.model_kinds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def validate_paths(self):
        if self.lexicon_path is None:
            raise ValueError("config needs a lexicon_path")
        if not os.path.exists(self.lexicon_path):
            raise FileNotFoundError(self.lexicon_path)
        if self.embeddings_path is None:
            raise ValueError("meaning models need an embeddings_path")
        if not os.path.exists(self.embeddings_path):
            raise FileNotFoundError(self.embeddings_path)


def _repeats(names) -> list:
    """The names that occur more than once, sorted."""
    return sorted({n for n in names if names.count(n) > 1})


def _check_section(section: str, settings_type, given: dict) -> None:
    """Raise ValueError, naming the section, unless settings_type(**given)
    loads."""
    unknown = set(given) - {f.name for f in dataclasses.fields(settings_type)}
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    try:
        settings_type(**given)
    except ValueError as exc:
        raise ValueError(f"{section} {exc}") from exc


def _require_object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, got "
                          f"{type(value).__name__}")
    return value


def load_config(path, **overrides) -> RunConfig:
    """Read a config document; an override that is not None replaces its
    field. An error in the document carries its out_dir, if a string, as
    exc.out_dir, where its error.json belongs."""
    d = _require_object("a config document", read_json(path))
    d.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return RunConfig.from_dict(d)
    except Exception as exc:
        if isinstance(d.get("out_dir"), str):
            exc.out_dir = d["out_dir"]
        raise


def load_batch(path, *, seed=None, out_dir=None):
    """Read a batch document, {"out_dir", "languages"} and no other key;
    returns (configs, out_dir). A given seed replaces every language's, and
    a given out_dir the document's (default "."). A refused language is
    named, or given by its index in languages. An error in the document
    carries the resolved out_dir as exc.out_dir, where its error.json
    belongs."""
    doc = _require_object("a batch document", read_json(path))
    out_dir = out_dir or doc.get("out_dir") or "."
    if not isinstance(out_dir, str):
        raise ValueError(f"batch out_dir must be a string, got {out_dir!r}")
    try:
        unknown = sorted(set(doc) - {"out_dir", "languages"})
        if unknown:
            raise SchemaError(f"unknown batch keys: {unknown} (a batch "
                              "document holds out_dir and languages)")
        if not isinstance(doc.get("languages"), list):
            raise SchemaError("a batch document needs languages, a list of "
                              "language configs")
        configs = []
        for i, entry in enumerate(doc["languages"]):
            entry = _require_object(f"languages[{i}]", entry)
            if seed is not None:
                entry = dict(entry, seed=seed)
            try:
                configs.append(RunConfig.from_dict(entry))
            except (ValueError, TypeError) as exc:
                name = entry.get("language") or f"languages[{i}]"
                raise type(exc)(f"{name}: {exc}") from exc
    except Exception as exc:
        exc.out_dir = out_dir
        raise
    return configs, out_dir


def resolve_lexicon(config: RunConfig) -> Lexicon:
    """Parse the lexicon file and attach embedding vectors to its signs."""
    config.validate_paths()
    with open(config.lexicon_path, "r", encoding="utf-8") as fh:
        lex = parse_lexicon(fh, config.language, columns=config.columns,
                            pretokenized=config.pretokenized,
                            strip_marks=config.strip_marks)
    with open(config.embeddings_path, "r", encoding="utf-8") as fh:
        vectors, _missing = load_embeddings(fh, [s.lemma for s in lex.signs])
    return attach_meanings(lex, vectors)


def make_lm_config(kind: str, base: dict) -> LMConfig:
    cfg = LMConfig(**{**base, "condition_on": KIND_CONDITION[kind]})
    if kind == "meaning_and_class" and cfg.hidden_size % 2 != 0:
        cfg = dataclasses.replace(cfg, hidden_size=cfg.hidden_size + 1)
    return cfg


def seed_for(config_seed: int, *tags) -> int:
    return int(derive_rng(config_seed, *tags).integers(2 ** 31))


def _fingerprint(lex: Lexicon, train_idx, val_idx, cfg: LMConfig,
                 opt: OptSettings, seed: int, v) -> str:
    """sha256 over exactly what train_on_indices consumes."""
    # Phones never contain whitespace, so a space-joined form is unambiguous.
    doc = {"forms": [" ".join(s.form) for s in lex.signs],
           "pos": [s.pos for s in lex.signs],
           "classes": list(lex.classes),
           "phones": list(lex.inventory.phones),
           "eos_index": lex.inventory.eos_index,
           "train": train_idx.tolist(), "val": val_idx.tolist(),
           "lm": cfg.to_dict(), "opt": dataclasses.asdict(opt),
           "seed": seed, "dtype": np.dtype(DTYPE).name}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))
    if v is not None:
        digest.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _projection(lex: Lexicon, train_idx, cfg: LMConfig, projections: dict):
    """(pca, v_all) for cfg's pca_d, fitted into projections on first use
    from the training rows of the lexicon's own meaning vectors, without
    stacking them first; (None, None) when cfg ignores meaning."""
    if not cfg.uses_meaning:
        return None, None
    if cfg.pca_d not in projections:
        meanings = [s.meaning for s in lex.signs]
        pca = pca_fit([meanings[i] for i in train_idx], cfg.pca_d)
        projections[cfg.pca_d] = pca, pca_transform(pca, meanings)
    return projections[cfg.pca_d]


@dataclass(frozen=True)
class FitUnit:
    """One model of a fit plan, its LMConfig resolved by make_lm_config;
    path None means it is not archived."""

    kind: str
    cfg: LMConfig
    seed: int
    path: str | None
    reverse: bool = False


def fit_model(lex: Lexicon, folds, rotation: int, unit: FitUnit,
              opt: OptSettings, projections: dict | None = None):
    """Train one unit on a rotation's folds of lex, or reuse its archive.

    The archive at unit.path is reused only when its fingerprint matches the
    inputs of this fit; otherwise the model is trained once and, when a
    path is given, archived with the fingerprint. Returns
    (params, v_all, val_bits): v_all is the projected meaning of every sign
    (None when the unit ignores meaning), so callers score whichever signs
    they need. The PCA is fit on the training rows only. A reversed unit
    is fitted on the reversed lexicon its caller passes as lex.

    projections maps pca_d to a (pca, v_all) pair and is filled on first
    use (see _projection): fit_units fills one dict for every fit of a
    plan, which share the meaning vectors (in order), the folds and the
    rotation, so that each pca_d is fitted once.
    """
    train_idx, val_idx, _ = folds.roles(rotation)
    pca, v_all = _projection(lex, train_idx, unit.cfg,
                             {} if projections is None else projections)
    # Only an archived fit needs a fingerprint; search trials have no path.
    fingerprint = None if unit.path is None else _fingerprint(
        lex, train_idx, val_idx, unit.cfg, opt, unit.seed, v_all)
    reason = "no archive"
    if unit.path is not None and os.path.exists(unit.path):
        archive = load_model(unit.path)
        if archive.extra.get("fingerprint") == fingerprint:
            logger.info("reused %s", unit.path)
            return archive.params, v_all, archive.extra["val_bits"]
        reason = "fingerprint differs"
    logger.info("trained %s: %s", unit.kind, reason)
    result = train_on_indices(lex, train_idx, val_idx, unit.cfg, opt,
                              unit.seed, v=v_all)
    if unit.path is not None:
        save_model(unit.path, unit.cfg, lex.inventory, result.params, pca=pca,
                   extra={"kind": unit.kind, "language": lex.language,
                          "fingerprint": fingerprint,
                          "val_bits": result.best_val})
    return result.params, v_all, result.best_val


def _fit_cost(unit: FitUnit) -> int:
    """The cost by which run_indexed shares fits out: an LSTM step's
    multiply-adds grow as layers x hidden_size^2."""
    return unit.cfg.layers * unit.cfg.hidden_size ** 2


def _check_pca_d(cfg: LMConfig, lex: Lexicon, n_train: int) -> None:
    if cfg.uses_meaning and cfg.pca_d > min(lex.meaning_dim, n_train):
        raise ValueError(
            f"lm pca_d must be at most the meaning dimension "
            f"({lex.meaning_dim}) and the training rows ({n_train}), "
            f"got {cfg.pca_d}")


def _search_space(kind: str, meaning_dim: int, n_train: int) -> SearchSpace:
    """The search box of one kind; a PCA fit on n_train rows keeps at most
    n_train of the meaning dimensions."""
    dims = [Dimension("layers", "integer", 1, 3),
            Dimension("hidden_size", "integer", 32, 512),
            Dimension("dropout", "continuous", 0.0, 0.5)]
    upper = min(300, meaning_dim, n_train)
    if KIND_CONDITION[kind] in ("meaning", "meaning_and_class") and upper > 2:
        dims.append(Dimension("pca_d", "integer", 2, upper))
    return SearchSpace(dimensions=tuple(dims))


def search_lm(lex: Lexicon, folds, rotation: int, kind: str,
              config: RunConfig):
    """Hyperparameter search for one kind; returns (best lm dict, trials)."""
    space = _search_space(kind, lex.meaning_dim,
                          len(folds.roles(rotation)[0]))
    opt = OptSettings(**config.opt)
    seed = seed_for(config.seed, "search", kind)

    def trial_unit(native: dict) -> FitUnit:
        return FitUnit(kind, make_lm_config(kind, {**config.lm, **native}),
                       seed, None)

    result = run_search(
        lambda native: fit_model(lex, folds, rotation, trial_unit(native),
                                 opt)[2],
        space, budget=config.hyperopt_budget,
        seed=seed_for(config.seed, "hyperopt", kind),
        cost=lambda native: _fit_cost(trial_unit(native)))
    return {**config.lm, **result.best.native}, result.trials


def fit_units(lex: Lexicon, folds, rotation: int, opt: OptSettings, units,
              score_idx=None) -> list:
    """Fit or reuse every unit, then score lex.signs[score_idx] (every sign
    when None); returns the units' LossTables in plan order.

    This process does the work the units share: it checks every pca_d and
    fits one PCA per pca_d before any archive directory is made, makes
    those directories and builds the reversed lexicon (which keeps every
    sign's meaning in order). Each unit is then one task of
    forkrun.run_indexed, shared out by _fit_cost, so with several usable
    CPUs the fits run in this process and forked workers; the runner
    handles each fit's logged decision here, in plan order, so the log and
    every output are the same with any number of CPUs.
    """
    train_idx = folds.roles(rotation)[0]
    projections = {}
    for unit in units:
        _check_pca_d(unit.cfg, lex, len(train_idx))
        _projection(lex, train_idx, unit.cfg, projections)
    for unit in units:
        if unit.path is not None:
            os.makedirs(os.path.dirname(unit.path), exist_ok=True)
    rev = reverse_forms(lex) if any(u.reverse for u in units) else None
    idx = np.arange(len(lex.signs)) if score_idx is None else score_idx

    def fit_and_score(unit: FitUnit):
        forms = rev if unit.reverse else lex
        params, v_all, _ = fit_model(forms, folds, rotation, unit, opt,
                                     projections)
        return evaluate(params, unit.cfg, [forms.signs[i] for i in idx],
                        forms.inventory,
                        v=None if v_all is None else v_all[idx])

    return run_indexed(fit_and_score, units, _fit_cost)


def _prepare(config: RunConfig, lex: Lexicon | None):
    """A run's lexicon (parsed when lex is None), folds and OptSettings."""
    if lex is None:
        lex = resolve_lexicon(config)
    folds = split_folds(lex, config.folds, seed_for(config.seed, "folds"))
    return lex, folds, OptSettings(**config.opt)


@dataclass
class EstimateOutput:
    report: MIReport
    kind_results: dict  # kind -> that model's test-fold LossTable
    files: dict


def _search_kinds(lex: Lexicon, folds, config: RunConfig,
                  log_path: str | None) -> dict:
    """Search every configured kind; returns kind -> best lm dict.

    A kind whose search leaves pca_d as configured has it checked before
    the first trial. With log_path, every trial is written there as one
    JSON line tagged with its model kind.
    """
    n_train = len(folds.roles(config.rotation)[0])
    for kind in config.model_kinds:
        space = _search_space(kind, lex.meaning_dim, n_train)
        if "pca_d" not in {dim.name for dim in space.dimensions}:
            _check_pca_d(make_lm_config(kind, config.lm), lex, n_train)
    best_by_kind = {}
    trials_by_kind = {}
    for kind in config.model_kinds:
        best_by_kind[kind], trials_by_kind[kind] = search_lm(
            lex, folds, config.rotation, kind, config)
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for kind, trials in trials_by_kind.items():
                for t in trials:
                    rec = json.loads(t.to_json())
                    rec["kind"] = kind
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return best_by_kind


def run_estimate(config: RunConfig, lex: Lexicon | None = None,
                 write: bool = True) -> EstimateOutput:
    """The full single-language pipeline; returns the report and artifacts.

    With write, models are archived under out_dir/models and reused from
    there when their fingerprint matches.
    """
    lex, folds, opt = _prepare(config, lex)
    models_dir = os.path.join(config.out_dir, "models")
    files = {}
    lms = dict.fromkeys(config.model_kinds, config.lm)
    if config.hyperopt_budget > 0:
        if write:
            os.makedirs(config.out_dir, exist_ok=True)
            files["search_log"] = os.path.join(config.out_dir, "search.jsonl")
        lms = _search_kinds(lex, folds, config, files.get("search_log"))
    units = [FitUnit(kind, make_lm_config(kind, lms[kind]),
                     seed_for(config.seed, "train", kind),
                     os.path.join(models_dir, f"{kind}.archive")
                     if write else None)
             for kind in config.model_kinds]
    test_idx = folds.roles(config.rotation)[2]
    tables = dict(zip(config.model_kinds, fit_units(
        lex, folds, config.rotation, opt, units, test_idx)))
    if write:
        files.update((f"model_{u.kind}", u.path) for u in units)

    plain = mi_estimate(tables["uncond"], tables["meaning"])
    perm = permutation_test(plain.deltas, n_perm=config.permutations,
                            seed=seed_for(config.seed, "perm", "plain"))
    classed = None
    perm_pos = None
    if config.with_pos_control:
        classed = mi_estimate(tables["class"], tables["meaning_and_class"])
        perm_pos = permutation_test(
            classed.deltas, n_perm=config.permutations,
            seed=seed_for(config.seed, "perm", "pos"))
    report = build_report(
        config.language, plain, classed, p_value=perm.p_value,
        p_value_given_pos=perm_pos.p_value if perm_pos else None)

    if write:
        csv_path = os.path.join(config.out_dir, "report.csv")
        write_report_csv(csv_path, [report])
        json_path = os.path.join(config.out_dir, "report.json")
        write_json(json_path, report_json_payload(
            report, config=config.to_dict(),
            seeds={"master": config.seed,
                   "folds": seed_for(config.seed, "folds"),
                   "permutation": seed_for(config.seed, "perm", "plain")}))
        files.update(report_csv=csv_path, report_json=json_path)
    return EstimateOutput(report=report, kind_results=tables, files=files)


def run_hyperopt(config: RunConfig, lex: Lexicon | None = None):
    """Search each kind's hyperparameters without the final fits.

    Writes every trial to out_dir/search.jsonl and each kind's best lm dict
    to out_dir/best.json; returns (best by kind, files).
    """
    if config.hyperopt_budget < 1:
        raise ValueError("hyperopt needs hyperopt_budget >= 1 in the config")
    lex, folds, _ = _prepare(config, lex)
    os.makedirs(config.out_dir, exist_ok=True)
    files = {"search_log": os.path.join(config.out_dir, "search.jsonl"),
             "best": os.path.join(config.out_dir, "best.json")}
    best_by_kind = _search_kinds(lex, folds, config, files["search_log"])
    write_json(files["best"], best_by_kind)
    return best_by_kind, files


@dataclass
class BatchOutput:
    reports: list
    significant: dict
    failures: dict
    aggregate: dict
    files: dict


def error_record(exc: Exception, stage: str) -> dict:
    """What a failed stage prints and stores: no traceback, so the record
    depends only on the config and the input files."""
    return {"error": type(exc).__name__, "message": str(exc), "stage": stage}


def write_error(out_dir: str, record: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "error.json"), record)


def _clear_stale_error(out_dir: str) -> None:
    try:
        os.remove(os.path.join(out_dir, "error.json"))
    except OSError:
        pass


def _estimate_language(config: RunConfig) -> tuple:
    """One batch language: (language, its MIReport or None, its error
    record or None).

    A failure is recorded in the language's error.json, its traceback
    logged as a warning; when that error.json cannot be written, the record
    goes to aggregate.json alone. A success removes an error.json an
    earlier failure left there.
    """
    try:
        report = run_estimate(config).report
    except Exception as exc:
        logger.warning("%s failed", config.language, exc_info=True)
        record = error_record(exc, "estimate")
        try:
            write_error(config.out_dir, record)
        except OSError as write_exc:
            logger.warning("%s: error.json not written: %s",
                           config.language, write_exc)
        return config.language, None, record
    _clear_stale_error(config.out_dir)
    return config.language, report, None


def run_batch(configs, out_dir: str, threads: int = 1) -> BatchOutput:
    """Estimate every language, then correct and aggregate them.

    Each language writes into out_dir/<language>/ and is one task of
    forkrun.run_indexed, so with several usable CPUs the languages run in
    this process and forked workers; a failing language is recorded (see
    _estimate_language) and the batch carries on. Correction, aggregates
    and plots are made here, in document order, so every output is the
    same with any number of CPUs.
    Repeated language names, and names that are not one plain path
    component, are rejected with SchemaError before any run.
    """
    # threads=1 is accepted only because perfbench's Batch.run passes it.
    if threads != 1:
        raise ValueError(f"threads must be 1 (serial batch), got {threads!r}")
    if not configs:
        raise ValueError("batch needs at least one language config")
    duplicates = _repeats([c.language for c in configs])
    if duplicates:
        raise SchemaError("batch repeats language names, which would share "
                          f"one output directory: {', '.join(duplicates)}")
    # A name such as "", ".", ".." or "a/b" would write outside its own
    # directory, or share one with a name that spells it differently; the
    # operating system refuses a path holding a NUL.
    unplain = [c.language for c in configs if c.language in ("", ".", "..")
               or os.path.basename(c.language) != c.language
               or "\0" in c.language]
    if unplain:
        raise SchemaError("batch language names must each be one plain "
                          "directory name, which these are not: "
                          f"{', '.join(map(repr, unplain))}")
    os.makedirs(out_dir, exist_ok=True)

    outcomes = run_indexed(_estimate_language, [
        dataclasses.replace(c, out_dir=os.path.join(out_dir, c.language))
        for c in configs])
    reports = [report for _, report, _ in outcomes if report is not None]
    failures = {language: record for language, _, record in outcomes
                if record is not None}
    if not reports:
        raise SignformError("every language in the batch failed")

    reject, adjusted = bh_correct([r.p_value for r in reports])
    pos_reports = [r for r in reports if r.p_value_given_pos is not None]
    pos_flags = {}
    if pos_reports:
        pos_reject, pos_adj = bh_correct(
            [r.p_value_given_pos for r in pos_reports])
        pos_flags = {r.language: (bool(f), float(a)) for r, f, a in
                     zip(pos_reports, pos_reject, pos_adj)}

    significant = {}
    rows = []
    for rep, flag, adj in zip(reports, reject, adjusted):
        pos_flag, pos_adj_p = pos_flags.get(rep.language, (False, None))
        significant[rep.language] = {
            "significant": bool(flag), "p_adjusted": float(adj),
            "significant_pos": pos_flag, "p_adjusted_pos": pos_adj_p}
        rows.append(appendix_row(rep, bool(flag), pos_flag))

    us = [r.uncertainty for r in reports]
    mis = [r.mi for r in reports]
    aggregate = {
        "n_languages": len(reports),
        "n_failed": len(failures),
        "u_mean": float(np.mean(us)),
        "mi_mean": float(np.mean(mis)),
        "cohens_d_mean": float(np.mean([r.cohens_d for r in reports])),
        "n_significant": int(np.count_nonzero(reject)),
    }
    if pos_reports:
        aggregate.update({
            "u_pos_mean": float(np.mean(
                [r.uncertainty_given_pos for r in pos_reports])),
            "cohens_d_pos_mean": float(np.mean(
                [r.cohens_d_given_pos for r in pos_reports])),
            "n_significant_pos": int(sum(
                1 for v in pos_flags.values() if v[0])),
        })

    files = {}
    appendix = os.path.join(out_dir, "appendix.tsv")
    write_appendix_tsv(appendix, rows)
    files["appendix"] = appendix
    csv_path = os.path.join(out_dir, "report.csv")
    write_report_csv(csv_path, reports)
    files["report_csv"] = csv_path
    agg_path = os.path.join(out_dir, "aggregate.json")
    write_json(agg_path, {"aggregate": aggregate,
                          "significance": significant,
                          "failures": failures})
    files["aggregate"] = agg_path
    if len(reports) >= 2:
        curves = {}
        if float(np.std(mis)) > 0:
            curves["MI (bits/phone)"] = kde(mis)
        if float(np.std(us)) > 0:
            curves["uncertainty coefficient"] = kde(us)
        if curves:
            csv_d = os.path.join(out_dir, "mi_density.csv")
            svg_d = os.path.join(out_dir, "mi_density.svg")
            write_density_csv(csv_d, curves)
            write_density_svg(svg_d, curves, title="density across languages")
            files["density_csv"] = csv_d
            files["density_svg"] = svg_d
    return BatchOutput(reports=reports, significant=significant,
                       failures=failures, aggregate=aggregate, files=files)


def run_phonesthemes(config: RunConfig, lex: Lexicon | None = None):
    """Mine prefix and suffix phonesthemes with forward and reversed pairs.

    Each uncond + meaning pair is archived under out_dir/models as
    {kind}_fwd.archive or {kind}_rev.archive (names estimate never writes,
    so the two commands can share an out_dir) and reused from there when
    its fingerprint matches; every sign is scored.
    """
    lex, folds, opt = _prepare(config, lex)
    models_dir = os.path.join(config.out_dir, "models")
    fwd_u, fwd_m, rev_u, rev_m = fit_units(lex, folds, config.rotation, opt, [
        FitUnit(kind, make_lm_config(kind, config.lm),
                seed_for(seed_for(config.seed, tag), "train", kind),
                os.path.join(models_dir, f"{kind}_{tag}.archive"),
                reverse=tag == "rev")
        for tag in ("fwd", "rev") for kind in ("uncond", "meaning")])
    candidates = mine(lex, (fwd_u, fwd_m),
                      MiningSettings(**config.phonesthemes),
                      seed_for(config.seed, "phonesthemes"), (rev_u, rev_m))
    table = os.path.join(config.out_dir, "phonesthemes.tsv")
    detail = os.path.join(config.out_dir, "phonesthemes_detail.tsv")
    write_phonesthemes_tsv(table, candidates)
    write_phonestheme_detail_tsv(detail, config.language, candidates)
    return candidates, {"table": table, "detail": detail}


SYNTH_SPECS = {
    "two_cluster": two_cluster_spec,
    "independent": independent_spec,
    "planted_prefix": planted_prefix_spec,
}


def write_lexicon_tsv(path, lex: Lexicon, concepts=None) -> None:
    """Space-tokenized TSV in the canonical lemma/ipa/pos/concept schema."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lemma\tipa\tpos\tconcept\n")
        for i, sign in enumerate(lex.signs):
            concept = (concepts[i] if concepts is not None
                       else sign.concept_id or "")
            fh.write(f"{sign.lemma}\t{' '.join(sign.form)}\t{sign.pos}"
                     f"\t{concept}\n")


def write_embeddings(path, lex: Lexicon) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(lex.signs)} {lex.meaning_dim}\n")
        for sign in lex.signs:
            coords = " ".join(repr(float(x)) for x in sign.meaning)
            fh.write(f"{sign.lemma} {coords}\n")


def run_synth(spec_name: str, n_words: int, seed: int, out_dir: str) -> dict:
    """Materialize a synthetic language on disk with its ground truth."""
    if spec_name not in SYNTH_SPECS:
        raise ValueError(f"unknown spec {spec_name!r}; have "
                         f"{sorted(SYNTH_SPECS)}")
    spec = SYNTH_SPECS[spec_name]()
    lex, labels = generate(spec, n_words, seed)
    os.makedirs(out_dir, exist_ok=True)
    lex_path = os.path.join(out_dir, "lexicon.tsv")
    emb_path = os.path.join(out_dir, "embeddings.vec")
    truth_path = os.path.join(out_dir, "truth.json")
    write_lexicon_tsv(lex_path, lex,
                      concepts=[f"c{int(c)}" for c in labels])
    write_embeddings(emb_path, lex)
    entropy = exact_entropy(spec)
    write_json(truth_path, {
        "spec_name": spec_name,
        "n_words": n_words,
        "seed": seed,
        "exact_entropy_bits_per_phone": entropy.bits_per_phone,
        "exact_mi_bits_per_phone": exact_mi(spec),
        "cluster_labels": [int(c) for c in labels],
        "spec": spec.to_dict(),
    })
    return {"lexicon": lex_path, "embeddings": emb_path, "truth": truth_path}
