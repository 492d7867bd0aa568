"""Command-line interface tests driven through main(argv)."""

import json
import os

import pytest

from signform.cli import build_parser, main
from signform.pipeline import RunConfig, run_estimate, run_synth
from signform.reports import read_json

FAST_LM = {"hidden_size": 16, "phone_embed_size": 8, "pca_d": 3}
FAST_OPT = {"max_epochs": 8, "patience": 3, "batch_size": 64}


def write_config(path, data_dir, **extra):
    doc = {
        "language": "toy",
        "lexicon_path": os.path.join(data_dir, "lexicon.tsv"),
        "embeddings_path": os.path.join(data_dir, "embeddings.vec"),
        "pretokenized": True,
        "folds": 5,
        "seed": 9,
        "permutations": 400,
        "lm": dict(FAST_LM),
        "opt": dict(FAST_OPT),
    }
    doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("corpus")
    run_synth("two_cluster", 300, 11, str(data_dir))
    return str(data_dir)


class TestSynthCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "synthout"
        rc = main(["--out", str(out), "--seed", "5", "synth",
                   "--spec", "independent", "--n-words", "50"])
        assert rc == 0
        for name in ("lexicon.tsv", "embeddings.vec", "truth.json"):
            assert (out / name).exists()
        truth = read_json(out / "truth.json")
        assert truth["seed"] == 5
        assert truth["n_words"] == 50

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGNFORM_SEED", "7")
        out = tmp_path / "envseed"
        rc = main(["--out", str(out), "synth", "--spec", "independent",
                   "--n-words", "30"])
        assert rc == 0
        assert read_json(out / "truth.json")["seed"] == 7

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGNFORM_SEED", "7")
        out = tmp_path / "flagseed"
        rc = main(["--out", str(out), "--seed", "3", "synth",
                   "--spec", "independent", "--n-words", "30"])
        assert rc == 0
        assert read_json(out / "truth.json")["seed"] == 3

    def test_unknown_spec_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--out", str(tmp_path), "synth", "--spec", "bogus"])


class TestEstimateCommand:
    def test_end_to_end(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "est.json"
        write_config(cfg, corpus)
        out = tmp_path / "run"
        rc = main(["--config", str(cfg), "--out", str(out), "estimate"])
        assert rc == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "toy:" in stdout
        assert "bits/phone" in stdout

    def test_missing_config_flag(self, capsys):
        rc = main(["estimate"])
        assert rc == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["error"] == "ValueError"
        assert record["stage"] == "estimate"

    @pytest.mark.parametrize("command", ["estimate", "phonesthemes",
                                         "hyperopt", "batch"])
    @pytest.mark.parametrize("via_flag", [True, False])
    def test_bad_path_writes_error_json(self, tmp_path, capsys, command,
                                        via_flag):
        # Without --out, the record goes to the config's out_dir.
        cfg = tmp_path / "bad.json"
        out = tmp_path / "failed"
        where = {} if via_flag else {"out_dir": str(out)}
        doc = write_config(cfg, str(tmp_path / "nowhere"), hyperopt_budget=1,
                           **({} if command == "batch" else where))
        if command == "batch":
            cfg.write_text(json.dumps(dict(where, languages=[doc])))
        flags = ["--out", str(out)] if via_flag else []
        rc = main(["--config", str(cfg)] + flags + [command])
        assert rc == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert read_json(out / "error.json") == record
        records = [record]
        if command == "batch":
            # The only language failed, so the batch did too.
            assert record["error"] == "SignformError"
            records.append(read_json(out / "toy" / "error.json"))
        assert records[-1]["error"] == "FileNotFoundError"
        assert records[-1]["stage"] == ("estimate" if command == "batch"
                                        else command)
        for rec in records:
            assert sorted(rec) == ["error", "message", "stage"]

    def test_wrong_field_type_rejected_before_parsing(self, tmp_path,
                                                     capsys):
        # The lexicon path does not exist: a parse would fail differently.
        cfg = tmp_path / "bad.json"
        out = tmp_path / "failed"
        write_config(cfg, str(tmp_path / "nowhere"), folds="10")
        rc = main(["--config", str(cfg), "--out", str(out), "estimate"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError", "stage": "estimate",
            "message": "folds must be an integer, got '10'"}
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("command", ["estimate", "phonesthemes",
                                         "hyperopt"])
    def test_load_error_written_to_document_out_dir(self, tmp_path, capsys,
                                                    command):
        cfg = tmp_path / "bad.json"
        out = tmp_path / "docout"
        cfg.write_text(json.dumps({"language": "x", "out_dir": str(out),
                                   "folds": "10"}))
        rc = main(["--config", str(cfg), command])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record == {"error": "ValueError", "stage": command,
                          "message": "folds must be an integer, got '10'"}
        assert read_json(out / "error.json") == record
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_wrong_mining_field_rejected_before_parsing(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "bad.json"
        out = tmp_path / "failed"
        write_config(cfg, str(tmp_path / "nowhere"),
                     phonesthemes={"alpha": "0.05"})
        rc = main(["--config", str(cfg), "--out", str(out), "phonesthemes"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError", "stage": "phonesthemes",
            "message": "phonesthemes alpha must be a real number, got "
                       "'0.05'"}
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    def test_success_clears_stale_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "error.json").write_text("{}")
        cfg = tmp_path / "est.json"
        write_config(cfg, corpus)
        rc = main(["--config", str(cfg), "--out", str(out), "estimate"])
        assert rc == 0
        assert not (out / "error.json").exists()

        # A batch whose only language failed (its embeddings are missing),
        # then succeeds: both the batch's and the language's error.json go.
        doc = write_config(tmp_path / "unused.json", corpus)
        batch = tmp_path / "batch"
        batch_cfg = tmp_path / "batch.json"
        for embeddings, rc in ((str(tmp_path / "missing.vec"), 1),
                               (doc["embeddings_path"], 0)):
            batch_cfg.write_text(json.dumps({"languages": [
                dict(doc, embeddings_path=embeddings)]}))
            assert main(["--config", str(batch_cfg), "--out", str(batch),
                         "batch"]) == rc
        assert (batch / "toy" / "report.json").exists()
        assert not (batch / "error.json").exists()
        assert not (batch / "toy" / "error.json").exists()


class TestReportCommand:
    def test_rerender_matches_pipeline_csv(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "est.json"
        write_config(cfg, corpus)
        out = tmp_path / "run"
        assert main(["--config", str(cfg), "--out", str(out),
                     "estimate"]) == 0
        rerender = tmp_path / "rerender"
        rc = main(["--config", str(out / "report.json"),
                   "--out", str(rerender), "report"])
        assert rc == 0
        assert ((rerender / "report.csv").read_bytes()
                == (out / "report.csv").read_bytes())

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "none.json"), "report"])
        assert rc == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["stage"] == "report"


def batch_rejected_before_training(tmp_path, capsys, languages, argv=(),
                                   **doc):
    """Run a batch that must fail before any language trains; its record."""
    out = tmp_path / "batchout"
    batch_cfg = tmp_path / "batch.json"
    batch_cfg.write_text(json.dumps(
        dict(doc, out_dir=str(out), languages=languages)))
    rc = main(["--config", str(batch_cfg), *argv, "batch"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    return json.loads(lines[0])


class TestBatchCommand:
    def test_failure_isolation(self, corpus, tmp_path, capsys):
        good = write_config(tmp_path / "unused.json", corpus,
                            language="alpha")
        bad = dict(good, language="broken",
                   lexicon_path=str(tmp_path / "missing.tsv"),
                   embeddings_path=str(tmp_path / "missing.vec"))
        out = tmp_path / "batchout"
        batch_cfg = tmp_path / "batch.json"
        batch_cfg.write_text(json.dumps(
            {"out_dir": str(out), "languages": [good, bad]}))
        rc = main(["--config", str(batch_cfg), "batch"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "! broken: FileNotFoundError" in stdout
        assert "1 failed" in stdout
        assert (out / "appendix.tsv").exists()
        record = read_json(out / "broken" / "error.json")
        assert read_json(out / "aggregate.json")["failures"] == {
            "broken": record}
        assert sorted(record) == ["error", "message", "stage"]

    def test_duplicate_languages_rejected_before_training(self, corpus,
                                                          tmp_path, capsys):
        lang = write_config(tmp_path / "unused.json", corpus,
                            language="alpha")
        out = tmp_path / "batchout"
        batch_cfg = tmp_path / "batch.json"
        batch_cfg.write_text(json.dumps(
            {"out_dir": str(out), "languages": [lang, lang]}))
        rc = main(["--config", str(batch_cfg), "batch"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "SchemaError"
        assert "alpha" in record["message"]
        assert not (out / "alpha").exists()
        assert read_json(out / "error.json") == record

    @pytest.mark.parametrize("names", [
        [""], ["."], [".."], ["elsewhere"], ["alpha", "./alpha"], ["a\0b"]])
    def test_unplain_language_names_rejected_before_training(
            self, corpus, tmp_path, capsys, names):
        # "elsewhere" stands for an absolute path, one outside the batch.
        names = [str(tmp_path / n) if n == "elsewhere" else n for n in names]
        lang = write_config(tmp_path / "unused.json", corpus)
        out = tmp_path / "runs" / "batchout"
        batch_cfg = tmp_path / "batch.json"
        batch_cfg.write_text(json.dumps(
            {"out_dir": str(out),
             "languages": [dict(lang, language=n) for n in names]}))
        before = set(tmp_path.rglob("*"))
        rc = main(["--config", str(batch_cfg), "batch"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "SchemaError"
        assert repr(names[-1]) in record["message"]
        assert set(tmp_path.rglob("*")) - before == {
            out.parent, out, out / "error.json"}

    @pytest.mark.parametrize("opt", [{"max_epoch": 5}, {"batch_size": 0}])
    def test_bad_opt_rejected_before_training(self, corpus, tmp_path, capsys,
                                              opt):
        good = write_config(tmp_path / "unused.json", corpus,
                            language="alpha")
        bad = dict(good, language="beta", opt=dict(FAST_OPT, **opt))
        record = batch_rejected_before_training(tmp_path, capsys,
                                                [good, bad])
        assert record["error"] == "ValueError"
        assert record["message"].startswith("beta: ")

    @pytest.mark.parametrize("section,value", [
        ("lm", {"hiden_size": 64}),
        ("lm", {"dropout": 1.5}),
        ("lm", {"condition_on": "meaning"}),
        ("phonesthemes", {"n_samples": 0})])
    def test_bad_section_rejected_before_training(self, corpus, tmp_path,
                                                  capsys, section, value):
        good = write_config(tmp_path / "unused.json", corpus,
                            language="alpha")
        bad = dict(good, language="beta", **{section: value})
        record = batch_rejected_before_training(tmp_path, capsys,
                                                [good, bad])
        assert record["error"] == "ValueError"
        assert record["message"].startswith("beta: ")

    def test_unnamed_language_rejected_by_index(self, corpus, tmp_path,
                                                capsys):
        good = write_config(tmp_path / "unused.json", corpus,
                            language="alpha")
        unnamed = {k: v for k, v in good.items() if k != "language"}
        record = batch_rejected_before_training(tmp_path, capsys,
                                                [good, unnamed])
        assert record["error"] == "TypeError"
        assert record["message"].startswith("languages[1]: ")

    def test_document_threads_refused(self, corpus, tmp_path, capsys):
        lang = write_config(tmp_path / "unused.json", corpus,
                            language="alpha")
        record = batch_rejected_before_training(tmp_path, capsys, [lang],
                                                threads=1)
        assert record == {
            "error": "SchemaError", "stage": "batch",
            "message": "unknown batch keys: ['threads'] (a batch document "
                       "holds out_dir and languages)"}

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(tmp_path / "batch.json"), "--threads", "2",
                  "batch"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: signform")
        assert "threads" not in build_parser().format_help()

    def test_document_out_dir_must_be_a_string(self, tmp_path, capsys):
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps({"out_dir": 5, "languages": []}))
        rc = main(["--config", str(cfg), "batch"])
        assert rc == 1
        assert json.loads(capsys.readouterr().out) == {
            "error": "ValueError", "stage": "batch",
            "message": "batch out_dir must be a string, got 5"}
        assert [p.name for p in tmp_path.iterdir()] == ["batch.json"]

    def test_all_failed_is_an_error(self, tmp_path, capsys):
        bad = {"language": "x", "lexicon_path": str(tmp_path / "no.tsv"),
               "embeddings_path": str(tmp_path / "no.vec")}
        batch_cfg = tmp_path / "batch.json"
        batch_cfg.write_text(json.dumps(
            {"out_dir": str(tmp_path / "o"), "languages": [bad]}))
        rc = main(["--config", str(batch_cfg), "batch"])
        assert rc == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["error"] == "SignformError"


class TestRejectedBeforeTraining:
    """Each case exits 1 with one JSON line and trains nothing."""

    @pytest.mark.parametrize("command", ["estimate", "phonesthemes",
                                         "hyperopt", "batch"])
    @pytest.mark.parametrize("fields,message", [
        ({"opt": dict(FAST_OPT, eps=float("inf"))},
         "opt eps must be finite, got inf"),
        ({"opt": dict(FAST_OPT, lr=float("nan"))},
         "opt lr must be finite, got nan"),
        ({"model_kinds": ["uncond", "meaning", "meaning"]},
         "model_kinds repeats meaning")],
        ids=["infinite-eps", "nan-lr", "repeated-kind"])
    def test_bad_values_rejected_at_load(self, corpus, tmp_path, capsys,
                                         command, fields, message):
        cfg = tmp_path / "bad.json"
        out = tmp_path / "failed"
        doc = write_config(cfg, corpus, hyperopt_budget=1, **fields)
        if command == "batch":
            cfg.write_text(json.dumps({"languages": [doc]}))
            message = f"toy: {message}"
        rc = main(["--config", str(cfg), "--out", str(out), command])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError", "message": message, "stage": command}
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("command,doc,message", [
        ("estimate", [], "a config document must be a JSON object, got list"),
        ("phonesthemes", "toy",
         "a config document must be a JSON object, got str"),
        ("hyperopt", None,
         "a config document must be a JSON object, got NoneType"),
        ("batch", [], "a batch document must be a JSON object, got list"),
        ("batch", {},
         "a batch document needs languages, a list of language configs"),
        ("batch", {"languages": {"toy": {}}},
         "a batch document needs languages, a list of language configs"),
        ("batch", {"languages": [["toy"]]},
         "languages[0] must be a JSON object, got list"),
        ("report", [], "a report document must be a JSON object, got list"),
        ("report", {"aggregate": {"n_languages": 2}, "significance": {},
                    "failures": {}},
         "a report document needs a report object, as report.json holds"),
        ("report", {"report": {"mi": 0.1}},
         "a report needs language, h_w, mi, uncertainty, cohens_d; missing "
         "language, h_w, uncertainty, cohens_d")],
        ids=["config-list", "config-string", "config-null", "batch-list",
             "no-languages", "languages-object", "language-list",
             "report-list", "report-aggregate", "report-missing-keys"])
    def test_malformed_document_rejected(self, tmp_path, capsys, command,
                                         doc, message):
        cfg = tmp_path / "bad.json"
        out = tmp_path / "failed"
        cfg.write_text(json.dumps(doc))
        rc = main(["--config", str(cfg), "--out", str(out), command])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "SchemaError", "message": message, "stage": command}
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("command", ["estimate", "batch", "synth"])
    def test_bad_env_seed_rejected(self, corpus, tmp_path, capsys,
                                   monkeypatch, command):
        monkeypatch.setenv("SIGNFORM_SEED", "abc")
        cfg = tmp_path / "good.json"
        out = tmp_path / "failed"
        doc = write_config(cfg, corpus)
        if command == "batch":
            cfg.write_text(json.dumps({"languages": [doc]}))
        argv = (["synth", "--spec", "independent"] if command == "synth"
                else [command])
        rc = main(["--config", str(cfg), "--out", str(out), *argv])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ValueError",
            "message": "SIGNFORM_SEED must be an integer, got 'abc'",
            "stage": command}
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]

    @pytest.mark.parametrize("command", ["estimate", "phonesthemes",
                                         "batch"])
    def test_pca_d_checked_before_any_fit(self, corpus, tmp_path, capsys,
                                          command):
        # The corpus has 8-d meanings; a search sets its own pca_d.
        cfg = tmp_path / "bad.json"
        out = tmp_path / "failed"
        doc = write_config(cfg, corpus, lm=dict(FAST_LM, pca_d=9))
        if command == "batch":
            cfg.write_text(json.dumps({"languages": [doc]}))
        rc = main(["--config", str(cfg), "--out", str(out), command])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        if command == "batch":
            assert sorted(p.name for p in out.iterdir()) == ["error.json",
                                                             "toy"]
            out = out / "toy"
            record = read_json(out / "error.json")
        assert record["error"] == "ValueError"
        assert record["message"] == (
            "lm pca_d must be at most the meaning dimension (8) and the "
            "training rows (180), got 9")
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]


class TestHyperoptCommand:
    def test_writes_search_log_and_best(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "hyp.json"
        write_config(cfg, corpus, hyperopt_budget=2,
                     lm={"phone_embed_size": 8},
                     opt={"max_epochs": 4, "patience": 2, "batch_size": 64})
        out = tmp_path / "hypout"
        rc = main(["--config", str(cfg), "--out", str(out), "hyperopt"])
        assert rc == 0
        lines = (out / "search.jsonl").read_text().splitlines()
        assert len(lines) == 4
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"uncond", "meaning"}
        best = read_json(out / "best.json")
        assert set(best) == {"uncond", "meaning"}
        assert "pca_d" in best["meaning"]

    def test_search_log_matches_estimate(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "hyp.json"
        doc = write_config(cfg, corpus, hyperopt_budget=2,
                           lm={"phone_embed_size": 8},
                           opt={"max_epochs": 2, "patience": 1,
                                "batch_size": 64})
        out = tmp_path / "hypout"
        rc = main(["--config", str(cfg), "--out", str(out), "hyperopt"])
        assert rc == 0
        est = run_estimate(RunConfig.from_dict(
            dict(doc, out_dir=str(tmp_path / "estout"))))
        with open(est.files["search_log"], "rb") as fh:
            assert fh.read() == (out / "search.jsonl").read_bytes()

    def test_requires_budget(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "hyp.json"
        write_config(cfg, corpus)
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "h"),
                   "hyperopt"])
        assert rc == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "hyperopt_budget" in record["message"]


class TestValidateCommand:
    def test_list_prints_all_without_running(self, capsys):
        rc = main(["validate", "--list"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("c01")
        assert lines[-1].startswith("c11")

    def test_subset_passes(self, capsys):
        rc = main(["validate", "--only", "c01", "c06", "c09"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") == 3

    def test_gradient_fault_fails_battery(self, capsys):
        rc = main(["validate", "--only", "c01", "--inject-gradient-fault"])
        assert rc == 1
        assert "FAIL c01" in capsys.readouterr().out

    def test_full_scale_document_loaded_as_batch(self, tmp_path, capsys):
        doc = tmp_path / "batch.json"
        doc.write_text(json.dumps({"threads": "2", "languages": []}))
        rc = main(["--config", str(doc), "validate", "--only", "c11"])
        assert rc == 1
        line = capsys.readouterr().out.strip()
        assert line.startswith("FAIL c11")
        assert line.endswith(
            "crashed: SchemaError: unknown batch keys: ['threads'] (a batch "
            "document holds out_dir and languages)")

    def test_unknown_id(self, capsys):
        rc = main(["validate", "--only", "zzz"])
        assert rc == 1
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["error"] == "ValueError"


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entry_matches_script(self):
        import signform.__main__  # noqa: F401
