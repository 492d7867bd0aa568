"""End-to-end pipeline tests on synthetic corpora kept deliberately small."""

import dataclasses
import json
import logging
import os
import shutil
from multiprocessing.context import ForkProcess

import numpy as np
import pytest
from oracle_utils import traced_peak

from signform import checks, cli, forkrun, pipeline
from signform.errors import ArchiveFormatError
from signform.lexicon import load_embeddings, split_folds
from signform.phonolm import DTYPE, LMConfig, OptSettings, evaluate, load_model
from signform.phonolm import training
from signform.phonesthemes import MiningSettings, reverse_forms
from signform.pipeline import (
    MODEL_KINDS,
    FitUnit,
    RunConfig,
    fit_model,
    fit_units,
    load_config,
    make_lm_config,
    resolve_lexicon,
    run_batch,
    run_estimate,
    run_hyperopt,
    run_phonesthemes,
    run_synth,
    seed_for,
)
from signform.semspace import pca_fit, pca_transform
from signform.synthbench import (
    exact_entropy,
    exact_mi,
    generate,
    planted_prefix_spec,
    two_cluster_spec,
)
from signform.validate import estimate_in_new_process

FAST_LM = {"hidden_size": 16, "phone_embed_size": 8, "pca_d": 3}
FAST_OPT = {"max_epochs": 10, "patience": 3, "batch_size": 64}


def fast_config(tmp, files, language="synth", **kw):
    base = dict(language=language, lexicon_path=files["lexicon"],
                embeddings_path=files["embeddings"],
                out_dir=os.path.join(tmp, "out"), pretokenized=True,
                folds=5, permutations=1000, seed=3,
                lm=dict(FAST_LM), opt=dict(FAST_OPT))
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def two_cluster_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synth_tc")
    return str(tmp), run_synth("two_cluster", 400, 11, str(tmp))


@pytest.fixture(scope="module")
def planted_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synth_pp")
    return str(tmp), run_synth("planted_prefix", 600, 3, str(tmp))


class TestRunConfig:
    def test_defaults_roundtrip(self):
        cfg = RunConfig(language="xx")
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(language="xx", model_kinds=("uncond", "typo"))

    def test_mi_needs_both_base_models(self):
        with pytest.raises(ValueError):
            RunConfig(language="xx", model_kinds=("uncond",))

    def test_class_models_come_in_pairs(self):
        with pytest.raises(ValueError):
            RunConfig(language="xx",
                      model_kinds=("uncond", "meaning", "class"))
        cfg = RunConfig(language="xx",
                        model_kinds=("uncond", "meaning", "class",
                                     "meaning_and_class"))
        assert cfg.with_pos_control

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(language="xx", folds=1)
        with pytest.raises(ValueError):
            RunConfig(language="xx", permutations=0)

    @pytest.mark.parametrize("opt,match", [
        ({"max_epoch": 5}, "unknown opt keys"),
        ({"batch_size": 0}, "batch_size"),
        ({"max_epochs": 0}, "max_epochs"),
        ({"patience": -1}, "patience"),
        ({"lr": -1e-3}, "lr"),
        ({"eps": 0.0}, "eps"),
        ({"beta2": 1.0}, "beta"),
        ({"clip_norm": 0.0}, "clip_norm")])
    def test_bad_opt_rejected_at_load(self, opt, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(language="xx", opt=opt)
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({"language": "xx", "opt": opt})

    @pytest.mark.parametrize("value", [8.5, 2.0, "8", True])
    @pytest.mark.parametrize("name", ["batch_size", "max_epochs", "patience"])
    def test_non_integer_opt_counts_rejected_at_load(self, name, value):
        match = f"^opt {name} must be an integer, got "
        with pytest.raises(ValueError, match=match):
            RunConfig(language="xx", opt={name: value})
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({"language": "xx", "opt": {name: value}})

    @pytest.mark.parametrize("lm,match", [
        ({"hiden_size": 64}, "unknown lm keys"),
        ({"condition_on": "meaning"}, "condition_on"),
        ({"dropout": 1.5}, "dropout"),
        ({"hidden_size": 0}, ">= 1"),
        ({"pca_d": 0}, "pca_d")])
    def test_bad_lm_rejected_at_load(self, lm, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(language="xx", lm=lm)
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({"language": "xx", "lm": lm})

    @pytest.mark.parametrize("phonesthemes,match", [
        ({"n_sample": 5}, "unknown phonesthemes keys"),
        ({"n_samples": 0}, "n_samples"),
        ({"k_range": []}, "k_range"),
        ({"k_range": [1, 0]}, "k_range"),
        ({"min_count": 0}, "min_count"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 1.0}, "alpha")])
    def test_bad_phonesthemes_rejected_at_load(self, phonesthemes, match):
        with pytest.raises(ValueError, match=match):
            RunConfig(language="xx", phonesthemes=phonesthemes)

    @pytest.mark.parametrize("section,values,match", [
        ("lm", {"hidden_size": 64.5}, "lm hidden_size"),
        ("lm", {"layers": 2.0}, "lm layers"),
        ("lm", {"phone_embed_size": "16"}, "lm phone_embed_size"),
        ("lm", {"pca_d": True}, "lm pca_d"),
        ("opt", {"batch_size": 8.5}, "opt batch_size"),
        ("opt", {"max_epochs": 10.0}, "opt max_epochs"),
        ("opt", {"patience": False}, "opt patience"),
        ("phonesthemes", {"k_range": [1.5]}, "k_range"),
        ("phonesthemes", {"k_range": [1, True]}, "k_range"),
        ("phonesthemes", {"min_count": 2.5}, "phonesthemes min_count"),
        ("phonesthemes", {"n_samples": 1e5}, "phonesthemes n_samples")])
    def test_non_integer_counts_rejected_at_load(self, section, values,
                                                 match):
        with pytest.raises(ValueError, match=match):
            RunConfig(language="xx", **{section: values})
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({"language": "xx", section: values})

    @pytest.mark.parametrize("fields,match", [
        ({"folds": 2.5}, "^folds must be an integer, got 2.5$"),
        ({"folds": "10"}, "^folds must be an integer"),
        ({"seed": 1.5}, "^seed must be an integer"),
        ({"seed": True}, "^seed must be an integer"),
        ({"permutations": 10.5}, "^permutations must be an integer"),
        ({"hyperopt_budget": 1.5}, "^hyperopt_budget must be an integer"),
        ({"hyperopt_budget": -1}, "^hyperopt_budget must be >= 0"),
        ({"schema_version": True}, "^schema_version must be an integer"),
        ({"rotation": 7, "folds": 4}, r"^rotation must be in 0\.\.3, got 7"),
        ({"rotation": -1}, r"^rotation must be in 0\.\.9, got -1"),
        ({"rotation": 1.0}, "^rotation must be an integer"),
        ({"pretokenized": "no"}, "^pretokenized must be true or false"),
        ({"strip_marks": "yes"}, "^strip_marks must be true or false"),
        ({"strip_marks": 1}, "^strip_marks must be true or false"),
        ({"columns": [1]}, "^columns must be an object or null"),
        ({"columns": {"form": 1}}, "^columns must map names to names"),
        ({"language": 5}, "^language must be a string"),
        ({"lexicon_path": 5}, "^lexicon_path must be a string or null"),
        ({"out_dir": None}, "^out_dir must be a string"),
        ({"model_kinds": "uncond"}, "^model_kinds must be a list, got "
                                    "'uncond'$"),
        ({"model_kinds": ["uncond", 1]}, "^model_kinds must hold names"),
        ({"lm": None}, "^lm must be an object, got None$"),
        ({"opt": []}, "^opt must be an object"),
        ({"phonesthemes": None}, "^phonesthemes must be an object"),
        ({"lm": {"dropout": "0.1"}}, "^lm dropout must be a real number"),
        ({"opt": {"lr": "0.1"}}, "^opt lr must be a real number"),
        ({"opt": {"clip_norm": True}}, "^opt clip_norm must be a real "
                                       "number, got True$"),
        ({"opt": {"min_delta": None}}, "^opt min_delta must be a real"),
        ({"phonesthemes": {"alpha": "0.05"}}, "^phonesthemes alpha must be "
                                              "a real number, got '0.05'$"),
        ({"phonesthemes": {"alpha": None}}, "^phonesthemes alpha must be a "
                                            "real number, got None$"),
        ({"phonesthemes": {"alpha": True}}, "^phonesthemes alpha must be a "
                                            "real number, got True$"),
        ({"phonesthemes": {"k_range": 5}}, "^phonesthemes k_range must be a "
                                           "list, got 5$"),
        ({"phonesthemes": {"k_range": None}}, "^phonesthemes k_range must "
                                              "be a list, got None$"),
        ({"phonesthemes": {"k_range": [2, "3"]}}, r"^phonesthemes "
         r"k_range\[1\] must be an integer, got '3'$"),
        ({"opt": {"eps": float("inf")}}, "^opt eps must be finite, got inf$"),
        ({"opt": {"lr": float("-inf")}}, "^opt lr must be finite"),
        ({"opt": {"clip_norm": float("nan")}}, "^opt clip_norm must be "
                                               "finite, got nan$"),
        ({"lm": {"dropout": float("nan")}}, "^lm dropout must be finite"),
        ({"phonesthemes": {"alpha": float("inf")}}, "^phonesthemes alpha "
                                                    "must be finite"),
        ({"model_kinds": ["uncond", "meaning", "uncond", "meaning"]},
         "^model_kinds repeats meaning, uncond$")])
    def test_wrong_field_types_rejected_at_load(self, fields, match):
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({"language": "xx", **fields})

    @pytest.mark.parametrize("fields", [
        {"rotation": 9}, {"rotation": 3, "folds": 4}, {"seed": -5},
        {"opt": {"clip_norm": None, "lr": 1}}, {"lm": {"dropout": 0}},
        {"columns": {"form": "ipa"}}, {"model_kinds": ["uncond", "meaning"]},
        {"lexicon_path": "lex.tsv", "embeddings_path": None}])
    def test_right_field_types_load(self, fields):
        cfg = RunConfig.from_dict({"language": "xx", **fields})
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_phonesthemes_stored_as_given(self):
        cfg = RunConfig(language="xx", phonesthemes={"k_range": [2]})
        assert cfg.to_dict()["phonesthemes"] == {"k_range": [2]}
        assert MiningSettings(**cfg.phonesthemes).k_range == (2,)
        # The default section is written out in full, as report.json has
        # always recorded it.
        default = RunConfig(language="xx").phonesthemes
        assert json.loads(json.dumps(default)) == {
            "k_range": [1, 2, 3], "min_count": 20, "alpha": 0.05,
            "n_samples": 100_000}
        assert MiningSettings(**default) == MiningSettings()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_dict({"language": "xx", "bogus": 1})
        with pytest.raises(ValueError):
            RunConfig.from_dict({"language": "xx", "pca_train_only": True})

    def test_schema_version_checked(self):
        with pytest.raises(ValueError):
            RunConfig(language="xx", schema_version=99)

    def test_load_config_applies_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"language": "xx", "seed": 1}))
        cfg = load_config(path, seed=42, out_dir=None)
        assert cfg.seed == 42
        assert cfg.out_dir == "."

    def test_missing_paths_raise(self, tmp_path):
        cfg = RunConfig(language="xx")
        with pytest.raises(ValueError):
            cfg.validate_paths()
        cfg = RunConfig(language="xx",
                        lexicon_path=str(tmp_path / "absent.tsv"),
                        embeddings_path=str(tmp_path / "absent.vec"))
        with pytest.raises(FileNotFoundError):
            cfg.validate_paths()


# One value of the wrong type for each annotation checks.check_fields knows.
WRONG_TYPE = {"int": 1.5, "float": True, "float | None": "0.5", "str": 5,
              "str | None": 5, "bool": 1, "dict": [], "dict | None": [],
              "tuple": "uncond", "tuple[int, ...]": [1, 2.0]}
SETTINGS_FIELDS = [(cls, f) for cls in (RunConfig, LMConfig, OptSettings,
                                        MiningSettings)
                   for f in dataclasses.fields(cls)]


class TestSettingsTypes:
    def test_every_annotation_known(self):
        assert set(WRONG_TYPE) == checks.ANNOTATIONS
        unknown = {f"{cls.__name__}.{f.name}: {f.type}"
                   for cls, f in SETTINGS_FIELDS
                   if f.type not in checks.ANNOTATIONS}
        assert not unknown

    @pytest.mark.parametrize(
        "cls,f", SETTINGS_FIELDS,
        ids=[f"{cls.__name__}.{f.name}" for cls, f in SETTINGS_FIELDS])
    def test_wrong_type_refused_naming_the_field(self, cls, f):
        given = {"language": "xx"} if cls is RunConfig else {}
        given[f.name] = WRONG_TYPE[f.type]
        with pytest.raises(ValueError, match=f"^{f.name}"):
            cls(**given)


def unit(kind, seed, path=None, lm=FAST_LM, reverse=False):
    return FitUnit(kind, make_lm_config(kind, lm), seed, path, reverse)


class TestFitModel:
    def test_pca_fit_on_training_rows_only(self, two_cluster_files,
                                           tmp_path):
        _, files = two_cluster_files
        lex = resolve_lexicon(fast_config(str(tmp_path), files))
        folds = split_folds(lex, 5, seed_for(3, "folds"))
        train_idx = folds.roles(1)[0]
        projections = {}
        _, v_all, _ = fit_model(lex, folds, 1, unit("meaning", 0),
                                OptSettings(max_epochs=1), projections)
        pca, _ = projections[FAST_LM["pca_d"]]
        meanings = np.array([s.meaning for s in lex.signs])
        want = pca_fit(meanings[train_idx], FAST_LM["pca_d"])
        np.testing.assert_array_equal(pca.mean, want.mean)
        np.testing.assert_array_equal(pca.components, want.components)
        np.testing.assert_array_equal(pca.explained_variance,
                                      want.explained_variance)
        np.testing.assert_array_equal(v_all, pca_transform(want, meanings))
        everyone = pca_fit(meanings, FAST_LM["pca_d"])
        assert not np.array_equal(pca.mean, everyone.mean)
        assert not np.array_equal(pca.components, everyone.components)

    def test_meaning_fit_holds_one_n_by_d_copy(self):
        """A meaning fit on 800 x 300 meanings with a tiny LM holds one
        (N, D) float64 copy of the meanings plus the PCA's D x D scatter
        and eigendecomposition. Stacking the meanings, gathering the
        training rows and centring a third copy peaked at 6.15 MiB, 3.4
        times the (N, D) matrix."""
        lex, _ = generate(planted_prefix_spec(meaning_dim=300), 800, seed=3)
        folds = split_folds(lex, 10, seed=0)
        lm = {"hidden_size": 4, "phone_embed_size": 2, "pca_d": 8}
        peak, _ = traced_peak(fit_model, lex, folds, 0,
                              unit("meaning", 0, lm=lm),
                              OptSettings(max_epochs=1))
        n, cap = len(lex.signs), 300
        assert peak < n * cap * 8 + 2.5 * cap * cap * 8

    @pytest.mark.parametrize("command", ["estimate", "phonesthemes"])
    def test_one_pca_fit_per_command(self, planted_files, tmp_path,
                                     monkeypatch, command):
        """estimate's meaning and meaning_and_class models, and
        phonesthemes' forward and reversed meaning models, share the
        meanings, folds and pca_d, so the command fits one PCA."""
        _, files = planted_files
        calls = []
        real = pipeline.pca_fit
        monkeypatch.setattr(pipeline, "pca_fit",
                            lambda *a: calls.append(a) or real(*a))
        cfg = fast_config(str(tmp_path), files, model_kinds=MODEL_KINDS,
                          opt=dict(FAST_OPT, max_epochs=1),
                          phonesthemes={"k_range": [1], "min_count": 15,
                                        "n_samples": 100})
        if command == "estimate":
            run_estimate(cfg, write=False)
        else:
            run_phonesthemes(cfg)
        assert len(calls) == 1

    def test_fingerprint_only_when_archived(self, two_cluster_files,
                                            tmp_path, monkeypatch):
        _, files = two_cluster_files
        lex = resolve_lexicon(fast_config(str(tmp_path), files))
        folds = split_folds(lex, 5, seed_for(3, "folds"))
        calls = []
        real = pipeline._fingerprint
        monkeypatch.setattr(pipeline, "_fingerprint",
                            lambda *a: calls.append(a) or real(*a))
        opt = OptSettings(max_epochs=1)
        fit_model(lex, folds, 0, unit("meaning", 0), opt)
        assert calls == []
        path = str(tmp_path / "meaning.archive")
        fit_model(lex, folds, 0, unit("meaning", 0, path), opt)
        assert len(calls) == 1
        assert load_model(path).extra["fingerprint"] == real(*calls[0])


class TestFitUnits:
    def test_scores_chosen_signs_in_plan_order(self, two_cluster_files,
                                               tmp_path):
        _, files = two_cluster_files
        lex = resolve_lexicon(fast_config(str(tmp_path), files))
        folds = split_folds(lex, 5, seed_for(3, "folds"))
        opt = OptSettings(max_epochs=1)
        idx = np.array([7, 2, 40])
        units = [unit("meaning", 5, reverse=True), unit("uncond", 4)]
        tables = fit_units(lex, folds, 0, opt, units, idx)
        rev = reverse_forms(lex)
        assert tables[0].keys == tuple(rev.signs[i].key for i in idx)
        assert tables[1].keys == tuple(lex.signs[i].key for i in idx)
        params, v_all, _ = fit_model(rev, folds, 0, units[0], opt)
        alone = evaluate(params, units[0].cfg, [rev.signs[i] for i in idx],
                         rev.inventory, v=v_all[idx])
        np.testing.assert_array_equal(tables[0].bits, alone.bits)
        every = fit_units(lex, folds, 0, opt, units[1:])[0]
        assert every.keys == tuple(s.key for s in lex.signs)

    def test_pca_d_checked_before_the_first_fit(self, two_cluster_files,
                                                tmp_path, monkeypatch):
        _, files = two_cluster_files
        lex = resolve_lexicon(fast_config(str(tmp_path), files))
        folds = split_folds(lex, 5, seed_for(3, "folds"))
        calls = counting(monkeypatch, "train_on_indices")
        models = tmp_path / "models"
        units = [unit("uncond", 4, str(models / "u.archive")),
                 unit("meaning", 5, str(models / "m.archive"),
                      lm=dict(FAST_LM, pca_d=9))]
        with pytest.raises(ValueError, match=(
                r"^lm pca_d must be at most the meaning dimension \(8\) and "
                r"the training rows \(240\), got 9$")):
            fit_units(lex, folds, 0, OptSettings(max_epochs=1), units)
        assert calls == []
        assert not models.exists()

    @pytest.mark.parametrize("run,budget", [
        (run_estimate, 0), (run_estimate, 2), (run_hyperopt, 2)],
        ids=["estimate-0", "estimate-2", "hyperopt-2"])
    def test_pca_d_checked_before_any_search(self, tmp_path, monkeypatch,
                                             run, budget):
        # 2-d meanings leave the meaning search no pca_d dimension, so the
        # configured pca_d (default 8) is checked before the first trial.
        lex, _ = generate(planted_prefix_spec(meaning_dim=2), 200, seed=3)
        calls = counting(monkeypatch, "train_on_indices")
        config = RunConfig(language="flat", out_dir=str(tmp_path), folds=4,
                           hyperopt_budget=budget)
        with pytest.raises(ValueError, match=(
                r"^lm pca_d must be at most the meaning dimension \(2\) and "
                r"the training rows \(100\), got 8$")):
            run(config, lex)
        assert calls == []

    def test_equal_units_hash_equal(self):
        a, b = unit("meaning", 5, "m.archive"), unit("meaning", 5, "m.archive")
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert len({a, b, unit("meaning", 6, "m.archive")}) == 2


def counting(monkeypatch, name):
    """Count the calls made through pipeline.<name>."""
    calls = []
    real = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name,
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


class TestCallCounts:
    """The calls per operation that perfbench/workloads.py's
    expected_calls asks a traced benchmark run to record."""

    def test_estimate_trains_once_per_kind(self, two_cluster_files,
                                           tmp_path, monkeypatch):
        _, files = two_cluster_files
        # A forked worker's calls are counted in its own copy of the list,
        # so the fit plan must run in this process.
        monkeypatch.setattr(forkrun, "_usable_cpus", lambda: 1)
        calls = counting(monkeypatch, "train_on_indices")
        run_estimate(fast_config(str(tmp_path), files,
                                 model_kinds=MODEL_KINDS,
                                 opt=dict(FAST_OPT, max_epochs=1)))
        assert len(calls) == len(MODEL_KINDS)

    def test_phonesthemes_trains_four_models(self, planted_files, tmp_path,
                                             monkeypatch):
        _, files = planted_files
        monkeypatch.setattr(forkrun, "_usable_cpus", lambda: 1)
        calls = counting(monkeypatch, "train_on_indices")
        run_phonesthemes(fast_config(
            str(tmp_path), files, opt=dict(FAST_OPT, max_epochs=1),
            phonesthemes={"k_range": [1], "min_count": 15,
                          "n_samples": 100}))
        assert len(calls) == 4

    def test_batch_estimates_once_per_language(self, two_cluster_files,
                                               tmp_path, monkeypatch):
        _, files = two_cluster_files
        # A forked worker's calls are counted in its own copy of the list,
        # so the languages must all run in this process.
        monkeypatch.setattr(forkrun, "_usable_cpus", lambda: 1)
        calls = counting(monkeypatch, "run_estimate")
        configs = [fast_config(str(tmp_path), files, language=name,
                               opt=dict(FAST_OPT, max_epochs=1))
                   for name in ("l1", "l2", "l3")]
        run_batch(configs, str(tmp_path / "batch"))
        assert len(calls) == 3

    def test_hyperopt_searches_once_per_kind(self, two_cluster_files,
                                             tmp_path, monkeypatch):
        _, files = two_cluster_files
        calls = counting(monkeypatch, "run_search")
        run_hyperopt(fast_config(str(tmp_path), files,
                                 model_kinds=MODEL_KINDS, hyperopt_budget=1,
                                 opt=dict(FAST_OPT, max_epochs=1)))
        assert len(calls) == len(MODEL_KINDS)


class TestSynth:
    def test_writes_three_files(self, two_cluster_files):
        _, files = two_cluster_files
        for path in files.values():
            assert os.path.exists(path)

    def test_unknown_spec_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_synth("nope", 10, 0, str(tmp_path))

    def test_truth_matches_exact_quantities(self, two_cluster_files):
        _, files = two_cluster_files
        with open(files["truth"]) as fh:
            truth = json.load(fh)
        spec = two_cluster_spec()
        assert truth["exact_mi_bits_per_phone"] == pytest.approx(
            exact_mi(spec))
        assert truth["exact_entropy_bits_per_phone"] == pytest.approx(
            exact_entropy(spec).bits_per_phone)
        assert len(truth["cluster_labels"]) == 400

    def test_roundtrip_through_parsers(self, two_cluster_files):
        tmp, files = two_cluster_files
        cfg = fast_config(tmp, files)
        lex = resolve_lexicon(cfg)
        assert len(lex.signs) == 400
        assert lex.signs[0].meaning.shape == (8,)
        with open(files["truth"]) as fh:
            labels = json.load(fh)["cluster_labels"]
        for sign, label in zip(lex.signs, labels):
            assert sign.concept_id == f"c{label}"
        # embeddings written with repr() so floats roundtrip exactly
        with open(files["embeddings"]) as fh:
            vectors, missing = load_embeddings(
                fh, [s.lemma for s in lex.signs])
        assert not missing
        first = lex.signs[0]
        assert np.array_equal(vectors[first.lemma], first.meaning)


class TestEstimate:
    def test_two_cluster_recovers_mi(self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)
        out = run_estimate(cfg)
        exact = exact_mi(two_cluster_spec())
        assert abs(out.report.mi - exact) < 0.12
        assert out.report.p_value < 0.05
        assert out.report.n_words == 80  # one test fold of the 400 words

    def test_artifacts_written_and_loadable(self, two_cluster_files,
                                            tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)
        out = run_estimate(cfg)
        assert os.path.exists(out.files["report_csv"])
        payload = json.load(open(out.files["report_json"]))
        assert payload["schema_version"] == 1
        assert payload["config"]["language"] == "synth"
        assert payload["report"]["mi"] == pytest.approx(out.report.mi)
        assert set(payload["seeds"]) == {"master", "folds", "permutation"}
        for kind in ("uncond", "meaning"):
            archive = load_model(out.files[f"model_{kind}"])
            assert archive.extra["kind"] == kind
        assert archive.pca is not None  # meaning model carries its PCA

    def test_identical_config_identical_bytes(self, two_cluster_files,
                                              tmp_path, caplog):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)

        def reports():
            return [open(os.path.join(cfg.out_dir, name), "rb").read()
                    for name in ("report.csv", "report.json")]

        run_estimate(cfg)
        first = reports()
        run_estimate(cfg)  # reuses the archives
        assert reports() == first
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        shutil.rmtree(cfg.out_dir)
        run_estimate(cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "trained uncond: no archive", "trained meaning: no archive"]
        assert reports() == first
        shutil.rmtree(cfg.out_dir)
        estimate_in_new_process(cfg)
        assert reports() == first

    def test_archives_from_retired_config_keys_retrain_once(
            self, two_cluster_files, tmp_path, caplog, monkeypatch):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)
        # Archives as written before LMConfig lost condition_state and
        # condition_layers: both keys, at their only kept values, in the
        # stored config and in the fingerprinted config.
        to_dict = LMConfig.to_dict
        monkeypatch.setattr(LMConfig, "to_dict", lambda self: dict(
            to_dict(self), condition_state="both", condition_layers="first"))
        run_estimate(cfg)
        monkeypatch.undo()
        first = open(cfg.out_dir + "/report.json", "rb").read()
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        run_estimate(cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "trained uncond: fingerprint differs",
            "trained meaning: fingerprint differs"]
        caplog.clear()
        run_estimate(cfg)
        assert [r.getMessage().split()[0] for r in caplog.records] == \
            ["reused", "reused"]
        assert open(cfg.out_dir + "/report.json", "rb").read() == first

    def test_float64_archives_retrain_once(self, two_cluster_files, tmp_path,
                                           caplog, monkeypatch):
        """Archives fit in float64, as they were before fits trained in
        float32, are fingerprinted apart: each retrains once, in DTYPE."""
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)
        monkeypatch.setattr(training, "DTYPE", np.float64)
        monkeypatch.setattr(pipeline, "DTYPE", np.float64)
        out = run_estimate(cfg)
        monkeypatch.undo()
        paths = [out.files[f"model_{kind}"] for kind in ("uncond", "meaning")]
        assert [load_model(p).params.flat.dtype for p in paths] == [
            np.float64] * 2
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        run_estimate(cfg)
        assert [r.getMessage() for r in caplog.records] == [
            "trained uncond: fingerprint differs",
            "trained meaning: fingerprint differs"]
        assert [load_model(p).params.flat.dtype for p in paths] == [DTYPE] * 2
        caplog.clear()
        run_estimate(cfg)
        assert [r.getMessage().split()[0] for r in caplog.records] == \
            ["reused", "reused"]

    def test_archives_reused_until_config_changes(self, two_cluster_files,
                                                  tmp_path, caplog):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)
        run_estimate(cfg)
        models = os.path.join(cfg.out_dir, "models")
        stamps = {f: os.stat(os.path.join(models, f)).st_mtime_ns
                  for f in os.listdir(models)}
        first_json = open(cfg.out_dir + "/report.json", "rb").read()
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        run_estimate(cfg)
        for f, stamp in stamps.items():
            assert os.stat(os.path.join(models, f)).st_mtime_ns == stamp
        assert open(cfg.out_dir + "/report.json", "rb").read() == first_json
        assert [r.getMessage().split()[0] for r in caplog.records] == \
            ["reused", "reused"]
        caplog.clear()
        run_estimate(fast_config(str(tmp_path), files,
                                 opt=dict(FAST_OPT, max_epochs=4)))
        assert [r.getMessage() for r in caplog.records] == [
            "trained uncond: fingerprint differs",
            "trained meaning: fingerprint differs"]

    def test_unreadable_archive_raises(self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)
        os.makedirs(os.path.join(cfg.out_dir, "models"))
        with open(os.path.join(cfg.out_dir, "models", "uncond.archive"),
                  "wb") as fh:
            fh.write(b"PK\x03\x04 truncated")
        with pytest.raises(ArchiveFormatError):
            run_estimate(cfg)

    def test_tampered_archive_with_matching_fingerprint_raises(
            self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files)
        out = run_estimate(cfg)
        path = out.files["model_uncond"]
        with np.load(path, allow_pickle=False) as stored:
            data = dict(stored)
        data["param.w_out"] = data["param.w_out"][:, :5]
        data["param.b_out"] = data["param.b_out"][:3]
        with open(path, "wb") as fh:
            np.savez(fh, **data)
        with pytest.raises(ArchiveFormatError, match="tensor w_out"):
            run_estimate(cfg)

    def test_seed_changes_report(self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        a = run_estimate(fast_config(str(tmp_path / "a"), files, seed=3))
        b = run_estimate(fast_config(str(tmp_path / "b"), files, seed=4))
        assert a.report.mi != b.report.mi

    def test_pos_controlled_kinds(self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files,
                          model_kinds=("uncond", "meaning", "class",
                                       "meaning_and_class"))
        out = run_estimate(cfg)
        rep = out.report
        assert rep.mi_given_pos is not None
        assert rep.p_value_given_pos is not None
        # single-class corpus: the class control should not erase the effect
        assert rep.mi_given_pos > 0.1
        assert set(out.kind_results) == set(cfg.model_kinds)

    def test_hyperopt_budget_searches_and_logs(self, two_cluster_files,
                                               tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files, hyperopt_budget=3,
                          opt=dict(FAST_OPT, max_epochs=5))
        out = run_estimate(cfg)
        lines = open(out.files["search_log"]).read().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 6
        assert {r["kind"] for r in records} == {"uncond", "meaning"}
        uncond_dims = {k for r in records if r["kind"] == "uncond"
                       for k in r["native"]}
        meaning_dims = {k for r in records if r["kind"] == "meaning"
                        for k in r["native"]}
        assert "pca_d" not in uncond_dims
        assert "pca_d" in meaning_dims

    def test_search_bounds_pca_d_by_training_rows(self, tmp_path):
        # 60 words in 5 folds leave 36 training rows for a PCA of 300-d
        # meanings, so no proposal may keep more than 36 components.
        lex, _ = generate(planted_prefix_spec(meaning_dim=300), 60, seed=0)
        cfg = RunConfig(language="wide", out_dir=str(tmp_path), folds=5,
                        seed=0, hyperopt_budget=3,
                        opt=dict(FAST_OPT, max_epochs=1))
        n_train = len(split_folds(lex, 5, seed_for(0, "folds")).roles(
            cfg.rotation)[0])
        assert n_train == 36
        best, files = run_hyperopt(cfg, lex)
        with open(files["search_log"]) as fh:
            records = [json.loads(line) for line in fh]
        pca_ds = [r["native"]["pca_d"] for r in records
                  if r["kind"] == "meaning"]
        assert len(pca_ds) == 3
        assert all(2 <= d <= n_train for d in pca_ds)
        assert best["meaning"]["pca_d"] in pca_ds

    def test_search_outputs_same_with_one_and_two_cpus(self, tmp_path,
                                                       monkeypatch):
        # A budget above N_INIT: forked Latin-hypercube trials, then GP ones.
        lex, _ = generate(planted_prefix_spec(meaning_dim=16), 60, seed=0)
        written = []
        for cpus in (1, 2):
            monkeypatch.setattr(forkrun, "_usable_cpus", lambda n=cpus: n)
            cfg = RunConfig(language="tiny", out_dir=str(tmp_path / str(cpus)),
                            folds=5, seed=0, hyperopt_budget=6,
                            opt=dict(FAST_OPT, max_epochs=1))
            _, files = run_hyperopt(cfg, lex)
            written.append([open(files[name], "rb").read()
                            for name in ("search_log", "best")])
        assert written[0] == written[1]
        assert written[0][0].count(b"\n") == 12


class TestBatch:
    def test_failure_is_isolated(self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        good = fast_config(str(tmp_path), files, language="alpha")
        bad = fast_config(str(tmp_path), files, language="beta",
                          lexicon_path=str(tmp_path / "missing.tsv"))
        out = run_batch([good, bad], str(tmp_path / "batch"))
        assert [r.language for r in out.reports] == ["alpha"]
        assert set(out.failures) == {"beta"}
        err = json.load(open(tmp_path / "batch" / "beta" / "error.json"))
        assert err["error"] == "FileNotFoundError"
        assert out.aggregate["n_failed"] == 1

    def test_more_than_one_thread_refused_before_any_run(
            self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files, language="alpha")
        with pytest.raises(ValueError, match="threads must be 1"):
            run_batch([cfg], str(tmp_path / "batch"), threads=2)
        assert not (tmp_path / "batch").exists()

    def test_single_language_aggregate_equals_row(self, two_cluster_files,
                                                  tmp_path):
        tmp, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files, language="only")
        out = run_batch([cfg], str(tmp_path / "batch"))
        rep = out.reports[0]
        assert out.aggregate["u_mean"] == pytest.approx(rep.uncertainty)
        assert out.aggregate["mi_mean"] == pytest.approx(rep.mi)
        assert out.aggregate["cohens_d_mean"] == pytest.approx(rep.cohens_d)
        # single language: BH-adjusted p equals the raw p
        assert out.significant["only"]["p_adjusted"] == pytest.approx(
            rep.p_value)

    def test_two_languages_emit_density_curves(self, two_cluster_files,
                                               tmp_path):
        tmp, files = two_cluster_files
        configs = [fast_config(str(tmp_path), files, language="l1", seed=3),
                   fast_config(str(tmp_path), files, language="l2", seed=4)]
        out = run_batch(configs, str(tmp_path / "batch"))
        assert os.path.exists(out.files["density_csv"])
        assert os.path.exists(out.files["density_svg"])
        appendix = open(out.files["appendix"]).read().splitlines()
        assert len(appendix) == 3  # header + one row per language
        assert appendix[0].split("\t")[0] == "language"

    def test_all_failed_raises(self, two_cluster_files, tmp_path):
        tmp, files = two_cluster_files
        bad = fast_config(str(tmp_path), files, language="beta",
                          lexicon_path=str(tmp_path / "missing.tsv"))
        from signform.errors import SignformError
        with pytest.raises(SignformError):
            run_batch([bad], str(tmp_path / "batch"))

    def test_empty_batch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_batch([], str(tmp_path))

    def test_same_bytes_with_one_and_two_cpus(self, two_cluster_files,
                                              tmp_path, monkeypatch):
        # The second language fails; with two CPUs it runs in the worker.
        _, files = two_cluster_files
        configs = [fast_config(str(tmp_path), files, language=name, seed=seed,
                               opt=dict(FAST_OPT, max_epochs=1))
                   for name, seed in (("l1", 3), ("l2", 4), ("l3", 5))]
        configs[1] = dataclasses.replace(
            configs[1], lexicon_path=str(tmp_path / "missing.tsv"))
        runs = [batch_bytes(monkeypatch, cpus, configs, tmp_path / "batch")
                for cpus in (1, 2)]
        assert runs[0] == runs[1]
        assert "l2/error.json" in runs[0]
        assert "l3/models/meaning.archive" in runs[0]

    def test_nested_search_does_not_fork_again(self, two_cluster_files,
                                             tmp_path, monkeypatch):
        # Each language searches; inside the batch's runner those searches
        # run serially, so two CPUs start exactly one process in all.
        _, files = two_cluster_files
        configs = [fast_config(str(tmp_path), files, language=name, seed=seed,
                               hyperopt_budget=3,
                               opt=dict(FAST_OPT, max_epochs=1))
                   for name, seed in (("l1", 3), ("l2", 4))]
        starts = tmp_path / "starts.log"
        real_start = ForkProcess.start

        def logged_start(proc):
            with open(starts, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            real_start(proc)

        monkeypatch.setattr(ForkProcess, "start", logged_start)
        runs = [batch_bytes(monkeypatch, cpus, configs, tmp_path / "batch")
                for cpus in (1, 2)]
        assert starts.read_text() == f"{os.getpid()}\n"
        assert runs[0] == runs[1]
        assert runs[0]["l2/search.jsonl"].count(b"\n") == 6

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_unwritable_language_directory_does_not_stop_the_batch(
            self, two_cluster_files, tmp_path, monkeypatch, cpus):
        _, files = two_cluster_files
        monkeypatch.setattr(forkrun, "_usable_cpus", lambda: cpus)
        out_dir = tmp_path / "batch"
        out_dir.mkdir()
        (out_dir / "beta").write_text("not a directory")
        configs = [fast_config(str(tmp_path), files, language=name,
                               opt=dict(FAST_OPT, max_epochs=1))
                   for name in ("alpha", "beta", "gamma")]
        out = run_batch(configs, str(out_dir))
        assert [r.language for r in out.reports] == ["alpha", "gamma"]
        assert list(out.failures) == ["beta"]
        doc = json.load(open(out_dir / "aggregate.json"))
        assert doc["failures"]["beta"]["error"] in (
            "FileExistsError", "NotADirectoryError")
        assert (out_dir / "beta").read_text() == "not a directory"


def run_bytes(monkeypatch, cpus, run, out_dir) -> dict:
    """Every file run() writes into out_dir with this many usable CPUs, by
    relative path; out_dir is emptied first, so that every model trains
    and every run writes the same out_dir into its reports."""
    monkeypatch.setattr(forkrun, "_usable_cpus", lambda: cpus)
    shutil.rmtree(out_dir, ignore_errors=True)
    run()
    return {os.path.relpath(os.path.join(root, name), out_dir):
            open(os.path.join(root, name), "rb").read()
            for root, _, names in os.walk(out_dir) for name in names}


def batch_bytes(monkeypatch, cpus, configs, out_dir) -> dict:
    return run_bytes(monkeypatch, cpus,
                     lambda: run_batch(configs, str(out_dir)), out_dir)


def counted_forks(monkeypatch) -> list:
    """The pid of the process that starts each forked worker from now on."""
    starts = []
    real_start = ForkProcess.start

    def logged_start(proc):
        starts.append(os.getpid())
        real_start(proc)

    monkeypatch.setattr(ForkProcess, "start", logged_start)
    return starts


class TestFitPlanSameBytes:
    """A fit plan's outputs, archives and logged decisions are the same
    with one usable CPU and with two, where its fits run in this process
    and a forked worker."""

    @pytest.mark.parametrize("kinds", [("uncond", "meaning"), MODEL_KINDS])
    def test_estimate_same_bytes_and_log(self, two_cluster_files, tmp_path,
                                         monkeypatch, caplog, kinds):
        _, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files, model_kinds=kinds,
                          opt=dict(FAST_OPT, max_epochs=2))
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        starts = counted_forks(monkeypatch)
        runs, logs, forks = [], [], []
        for cpus in (1, 2):
            caplog.clear()
            runs.append(run_bytes(monkeypatch, cpus,
                                  lambda: run_estimate(cfg), cfg.out_dir))
            logs.append([r.getMessage() for r in caplog.records])
            forks.append(len(starts))
        assert runs[0] == runs[1]
        assert logs[0] == logs[1] == [f"trained {kind}: no archive"
                                      for kind in kinds]
        # Only the two-CPU run forks, once, from this process.
        assert forks == [0, 1]
        assert starts == [os.getpid()]
        assert f"models/{kinds[-1]}.archive" in runs[0]

    def test_searched_estimate_same_bytes(self, two_cluster_files, tmp_path,
                                          monkeypatch):
        _, files = two_cluster_files
        cfg = fast_config(str(tmp_path), files, hyperopt_budget=3,
                          opt=dict(FAST_OPT, max_epochs=1))
        runs = [run_bytes(monkeypatch, cpus, lambda: run_estimate(cfg),
                          cfg.out_dir) for cpus in (1, 2)]
        assert runs[0] == runs[1]
        assert runs[0]["search.jsonl"].count(b"\n") == 6

    def test_phonesthemes_same_bytes(self, planted_files, tmp_path,
                                     monkeypatch):
        _, files = planted_files
        cfg = fast_config(str(tmp_path), files, language="planted",
                          opt=dict(FAST_OPT, max_epochs=2),
                          phonesthemes={"k_range": [1], "min_count": 15,
                                        "n_samples": 500})
        runs = [run_bytes(monkeypatch, cpus, lambda: run_phonesthemes(cfg),
                          cfg.out_dir) for cpus in (1, 2)]
        assert runs[0] == runs[1]
        assert sorted(name for name in runs[0]
                      if name.startswith("models/")) == [
            "models/meaning_fwd.archive", "models/meaning_rev.archive",
            "models/uncond_fwd.archive", "models/uncond_rev.archive"]

    def test_failing_second_unit_same_error_json(self, two_cluster_files,
                                                 tmp_path, monkeypatch,
                                                 caplog):
        # The meaning archive is unreadable; with two CPUs its unit runs in
        # the worker while this process trains the uncond model, whose
        # decision is still logged, as by the serial loop.
        _, files = two_cluster_files
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        cfg = fast_config(str(tmp_path), files,
                          opt=dict(FAST_OPT, max_epochs=1))
        doc = tmp_path / "estimate.json"
        doc.write_text(json.dumps(cfg.to_dict()))

        def run():
            os.makedirs(os.path.join(cfg.out_dir, "models"))
            with open(os.path.join(cfg.out_dir, "models", "meaning.archive"),
                      "wb") as fh:
                fh.write(b"PK\x03\x04 truncated")
            assert cli.main(["--config", str(doc), "estimate"]) == 1

        runs, logs = [], []
        for cpus in (1, 2):
            caplog.clear()
            runs.append(run_bytes(monkeypatch, cpus, run, cfg.out_dir))
            logs.append([r.getMessage() for r in caplog.records
                         if r.name == "signform.pipeline"])
        assert runs[0] == runs[1]
        assert json.loads(runs[0]["error.json"])["error"] == \
            "ArchiveFormatError"
        assert logs[0] == logs[1] == ["trained uncond: no archive"]


class TestPhonesthemes:
    def test_planted_prefix_is_found(self, planted_files, tmp_path):
        tmp, files = planted_files
        cfg = fast_config(str(tmp_path), files, language="planted",
                          opt=dict(FAST_OPT, max_epochs=15),
                          phonesthemes={"k_range": [1, 2], "min_count": 15,
                                        "n_samples": 2000})
        candidates, outs = run_phonesthemes(cfg)
        by_key = {(c.side, c.affix_string()): c for c in candidates}
        planted = by_key[("prefix", "gl-")]
        assert planted.bh_significant
        assert planted.p_adjusted < 0.05
        assert planted.avg_pmi > 0
        table = open(outs["table"]).read().splitlines()
        assert any("gl-" in line for line in table[1:])
        detail = open(outs["detail"]).read().splitlines()
        assert len(detail) == len(candidates) + 1

    def test_archives_reused_on_second_run(self, planted_files, tmp_path):
        tmp, files = planted_files
        cfg = fast_config(str(tmp_path), files, language="planted",
                          phonesthemes={"k_range": [1], "min_count": 15,
                                        "n_samples": 500})
        first, _ = run_phonesthemes(cfg)
        models = os.path.join(cfg.out_dir, "models")
        stamps = {f: os.path.getmtime(os.path.join(models, f))
                  for f in os.listdir(models)}
        second, _ = run_phonesthemes(cfg)
        for f, stamp in stamps.items():
            assert os.path.getmtime(os.path.join(models, f)) == stamp
        firsts = [(c.side, c.phones, c.p_value) for c in first]
        seconds = [(c.side, c.phones, c.p_value) for c in second]
        assert firsts == seconds

    def _config(self, tmp_path, files, out):
        return fast_config(str(tmp_path), files, language="planted",
                           out_dir=str(tmp_path / out),
                           opt=dict(FAST_OPT, max_epochs=15),
                           phonesthemes={"k_range": [1, 2], "min_count": 15,
                                         "n_samples": 2000})

    def _rerun_matches_fresh(self, tmp_path, files, cfg):
        _, fresh = run_phonesthemes(self._config(tmp_path, files, "fresh"))
        candidates, outs = run_phonesthemes(cfg)
        assert open(outs["detail"], "rb").read() == \
            open(fresh["detail"], "rb").read()
        by_key = {(c.side, c.affix_string()): c for c in candidates}
        assert by_key[("prefix", "gl-")].bh_significant

    def test_estimate_and_phonesthemes_keep_own_archives(
            self, planted_files, tmp_path, caplog):
        # estimate trains the same kinds on the same lexicon, other seeds
        _, files = planted_files
        cfg = self._config(tmp_path, files, "shared")
        run_estimate(cfg)
        models = os.path.join(cfg.out_dir, "models")
        stamps = {f: os.stat(os.path.join(models, f)).st_mtime_ns
                  for f in os.listdir(models)}
        self._rerun_matches_fresh(tmp_path, files, cfg)
        assert sorted(os.listdir(models)) == [
            "meaning.archive", "meaning_fwd.archive", "meaning_rev.archive",
            "uncond.archive", "uncond_fwd.archive", "uncond_rev.archive"]
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        run_estimate(cfg)
        assert [r.getMessage() for r in caplog.records] == [
            f"reused {os.path.join(models, f)}"
            for f in ("uncond.archive", "meaning.archive")]
        for f, stamp in stamps.items():
            assert os.stat(os.path.join(models, f)).st_mtime_ns == stamp

    def test_other_lexicon_archives_retrained(self, planted_files,
                                              two_cluster_files, tmp_path,
                                              caplog):
        # same archive names, other forms and inventory: none may be reused
        _, files = planted_files
        _, other_files = two_cluster_files
        cfg = self._config(tmp_path, files, "shared")
        run_phonesthemes(fast_config(
            str(tmp_path), other_files, out_dir=cfg.out_dir,
            phonesthemes={"k_range": [1], "min_count": 15,
                          "n_samples": 500}))
        caplog.set_level(logging.INFO, logger="signform.pipeline")
        self._rerun_matches_fresh(tmp_path, files, cfg)
        assert [r.getMessage() for r in caplog.records
                if "fingerprint differs" in r.getMessage()] == [
            f"trained {kind}: fingerprint differs"
            for kind in ("uncond", "meaning") * 2]
        assert not any(r.getMessage().startswith("reused")
                       for r in caplog.records)


class TestFitPlanOnOneAndTwoCPUs:
    """The fit-plan tests that pin log lines and archive reuse, with one and
    with two usable CPUs forced, whatever this machine has."""

    @pytest.fixture(autouse=True, params=[1, 2])
    def cpus(self, request):
        # Not the monkeypatch fixture: two of these tests undo its patches.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forkrun, "_usable_cpus", lambda: request.param)
            yield

    test_identical_config_identical_bytes = \
        TestEstimate.test_identical_config_identical_bytes
    test_archives_reused_until_config_changes = \
        TestEstimate.test_archives_reused_until_config_changes
    test_archives_from_retired_config_keys_retrain_once = \
        TestEstimate.test_archives_from_retired_config_keys_retrain_once
    test_float64_archives_retrain_once = \
        TestEstimate.test_float64_archives_retrain_once
    _config = TestPhonesthemes._config
    _rerun_matches_fresh = TestPhonesthemes._rerun_matches_fresh
    test_estimate_and_phonesthemes_keep_own_archives = \
        TestPhonesthemes.test_estimate_and_phonesthemes_keep_own_archives
    test_other_lexicon_archives_retrained = \
        TestPhonesthemes.test_other_lexicon_archives_retrained
