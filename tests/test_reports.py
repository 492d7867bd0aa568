"""Formatting and file-emission checks for the result tables and plots."""

import csv
import json

import numpy as np
import pytest

from signform.infotheory import build_report, mi_estimate
from signform.phonesthemes import AffixCandidate
from signform.phonolm import LossTable
from signform.reports import (
    APPENDIX_COLUMNS,
    PHONESTHEME_COLUMNS,
    REPORT_COLUMNS,
    appendix_row,
    fmt_bits,
    fmt_p,
    fmt_percent,
    read_json,
    report_json_payload,
    write_appendix_tsv,
    write_density_csv,
    write_density_svg,
    write_json,
    write_phonesthemes_tsv,
    write_report_csv,
)
from signform.stats import kde


def toy_report(language="toy", with_pos=False):
    keys = [(f"w{i}", (), "X") for i in range(4)]
    cond = LossTable.from_rows(
        keys, [[1.0, 1.0], [1.2, 1.0], [0.8, 1.0], [1.1, 0.9]])
    plain = mi_estimate(LossTable.from_rows(keys, [[2.0, 2.0]] * 4), cond)
    classed = None
    if with_pos:
        classed = mi_estimate(LossTable.from_rows(keys, [[1.9, 1.9]] * 4),
                              cond)
    return build_report(language, plain, classed, p_value=0.004,
                        p_value_given_pos=0.2 if with_pos else None)


def toy_candidate(**kw):
    fields = dict(phones=("a", "t"), side="suffix",
                  word_indices=np.array([0, 1, 2], dtype=np.int64),
                  count=3, avg_pmi=0.5, p_value=0.002, p_adjusted=0.01,
                  bh_significant=True, example_lemmata=("bat", "cat", "hat"))
    fields.update(kw)
    return AffixCandidate(**fields)


class TestFormatting:
    def test_fmt_bits(self):
        assert fmt_bits(1.23456) == "1.235"
        assert fmt_bits(None) == ""

    def test_fmt_percent(self):
        assert fmt_percent(0.031415) == "3.14%"
        assert fmt_percent(0.031415, significant=True) == "3.14%*"
        assert fmt_percent(None) == ""

    def test_fmt_p(self):
        assert fmt_p(0.0123456) == "0.01235"
        assert fmt_p(1e-6) == "<0.00001"
        assert fmt_p(None) == ""


class TestReportCSV:
    def test_header_and_rounding(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [toy_report()])
        rows = list(csv.reader(open(path)))
        assert tuple(rows[0]) == REPORT_COLUMNS
        row = dict(zip(rows[0], rows[1]))
        assert row["language"] == "toy"
        assert row["h_w"] == "2.000"
        assert row["mi_w_v"] == "1.000"
        assert row["u_w_v"] == "50.00%"
        assert row["mi_w_v_given_pos"] == ""  # no POS control in this run

    def test_pos_columns_filled(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, [toy_report(with_pos=True)])
        rows = list(csv.reader(open(path)))
        row = dict(zip(rows[0], rows[1]))
        assert row["mi_w_v_given_pos"] == "0.900"
        assert row["cohens_d_given_pos"] != ""


class TestJSONPayload:
    def test_payload_and_roundtrip(self, tmp_path):
        rep = toy_report()
        payload = report_json_payload(rep, config={"language": "toy"},
                                      seeds={"master": 0})
        assert payload["schema_version"] == 1
        assert payload["report"]["mi"] == pytest.approx(1.0)
        path = tmp_path / "report.json"
        write_json(path, payload)
        text = path.read_text()
        assert text.endswith("\n")
        assert read_json(path) == json.loads(text)

    def test_sorted_keys_make_stable_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"z": 1, "a": 2})
        write_json(b, {"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()


class TestAppendix:
    def test_row_marks_significance(self):
        rep = toy_report(with_pos=True)
        row = appendix_row(rep, True, False)
        assert row[0] == "toy"
        assert row[1] == "2.0000"
        assert row[2].endswith("%*")
        assert row[3].endswith("%")
        assert not row[3].endswith("*")

    def test_row_without_pos_control(self):
        row = appendix_row(toy_report(), False, False)
        assert row[3] == ""

    def test_tsv_emission(self, tmp_path):
        path = tmp_path / "appendix.tsv"
        rep = toy_report(with_pos=True)
        write_appendix_tsv(path, [appendix_row(rep, True, True)])
        lines = path.read_text().splitlines()
        assert lines[0] == "\t".join(APPENDIX_COLUMNS)
        assert lines[1].split("\t")[0] == "toy"


class TestPhonesthemeTSV:
    def test_only_significant_rows(self, tmp_path):
        path = tmp_path / "ph.tsv"
        cands = [toy_candidate(),
                 toy_candidate(phones=("k",), side="prefix",
                               bh_significant=False)]
        write_phonesthemes_tsv(path, cands)
        lines = path.read_text().splitlines()
        assert lines[0] == "\t".join(PHONESTHEME_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split("\t")
        assert cells[0] == "-at"
        assert cells[1] == "3"
        assert cells[2] == "bat, cat, hat"
        assert cells[3] == "0.00200"


class TestDensity:
    def test_csv_long_format(self, tmp_path):
        rng = np.random.default_rng(0)
        curves = {"b": kde(rng.normal(size=40)),
                  "a": kde(rng.normal(size=40))}
        path = tmp_path / "density.csv"
        write_density_csv(path, curves)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["series", "x", "density"]
        n_a = curves["a"].x.size
        a_rows = rows[1:1 + n_a]
        assert {r[0] for r in a_rows} == {"a"}  # sorted by name
        assert rows[1 + n_a][0] == "b"
        x_back = np.array([float(r[1]) for r in a_rows])
        assert np.array_equal(x_back, curves["a"].x)  # repr roundtrips

    def test_svg_has_one_polyline_per_curve(self, tmp_path):
        rng = np.random.default_rng(1)
        curves = {"mi": kde(rng.normal(size=30)),
                  "u": kde(rng.normal(size=30))}
        path = tmp_path / "density.svg"
        write_density_svg(path, curves, title="densities")
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "densities" in text
        assert text.startswith("<svg")

    def test_empty_curves_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_density_svg(tmp_path / "x.svg", {})
