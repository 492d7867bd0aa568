"""Emission of result tables and plots.

All values are stored unrounded in JSON; rounding happens only here, at
display time: bits to 3 decimals, uncertainty coefficients as percentages
to 2 decimals. A trailing ``*`` on a percentage marks significance after
multiple-test correction, standing in for the bold entries of a printed
table. SVG plots are minimal hand-written line charts; the numbers behind
them always ship in a CSV alongside.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .infotheory import MIReport
from .stats import KDECurve

REPORT_COLUMNS = ("language", "h_w", "mi_w_v", "u_w_v", "cohens_d",
                  "mi_w_v_given_pos", "u_w_v_given_pos", "cohens_d_given_pos")
APPENDIX_COLUMNS = ("language", "h_w", "u_w_v", "u_w_v_given_pos")
PHONESTHEME_COLUMNS = ("phonestheme", "count", "examples", "p_value")
PHONESTHEME_DETAIL_COLUMNS = ("language", "side", "affix", "count",
                              "avg_pmi", "p", "p_adjusted", "significant",
                              "examples")


def fmt_bits(x) -> str:
    return "" if x is None else f"{x:.3f}"


def fmt_percent(x, significant: bool = False) -> str:
    if x is None:
        return ""
    return f"{100.0 * x:.2f}%" + ("*" if significant else "")


def fmt_p(p) -> str:
    if p is None:
        return ""
    return "<0.00001" if p < 1e-5 else f"{p:.5f}"


def report_csv_row(d: dict) -> list[str]:
    """Display row for one language from an unrounded report dict."""
    return [
        d["language"],
        fmt_bits(d["h_w"]),
        fmt_bits(d["mi"]),
        fmt_percent(d["uncertainty"]),
        fmt_bits(d["cohens_d"]),
        fmt_bits(d.get("mi_given_pos")),
        fmt_percent(d.get("uncertainty_given_pos")),
        fmt_bits(d.get("cohens_d_given_pos")),
    ]


def write_report_csv(path, reports) -> None:
    """One row per language with the seven headline quantities."""
    write_report_csv_rows(path, [rep.to_dict() for rep in reports])


def write_report_csv_rows(path, report_dicts) -> None:
    _write_table(path, REPORT_COLUMNS, map(report_csv_row, report_dicts))


def report_json_payload(report: MIReport, config: dict | None = None,
                        seeds: dict | None = None) -> dict:
    """Unrounded report row plus the resolved configuration and seeds."""
    return {
        "schema_version": 1,
        "report": report.to_dict(),
        "config": config or {},
        "seeds": seeds or {},
    }


def _write_table(path, header, rows, delimiter=",") -> None:
    """Write a header row, then rows, one line each, split by delimiter."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write through a temporary file, so a killed run leaves no torn file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def appendix_row(report: MIReport, significant: bool,
                 significant_pos: bool) -> list[str]:
    return [
        report.language,
        f"{report.h_w.bits_per_phone:.4f}",
        fmt_percent(report.uncertainty, significant),
        fmt_percent(report.uncertainty_given_pos, significant_pos)
        if report.uncertainty_given_pos is not None else "",
    ]


def write_appendix_tsv(path, rows) -> None:
    """Per-language summary table; rows come from appendix_row."""
    _write_table(path, APPENDIX_COLUMNS, rows, "\t")


def write_phonesthemes_tsv(path, candidates) -> None:
    """Discovered-affix table: affix, carrier count, examples, p-value.

    Only candidates that survive the multiple-test correction appear here;
    the full candidate list goes to the detail table.
    """
    _write_table(path, PHONESTHEME_COLUMNS, (
        [cand.affix_string(), cand.count, ", ".join(cand.example_lemmata),
         fmt_p(cand.p_value)]
        for cand in candidates if cand.bh_significant), "\t")


def write_phonestheme_detail_tsv(path, language: str, candidates) -> None:
    _write_table(path, PHONESTHEME_DETAIL_COLUMNS, (
        [language, cand.side, "".join(cand.phones), cand.count,
         repr(cand.avg_pmi), repr(cand.p_value), repr(cand.p_adjusted),
         int(cand.bh_significant), ", ".join(cand.example_lemmata)]
        for cand in candidates), "\t")


def write_density_csv(path, curves: dict[str, KDECurve]) -> None:
    """Long-format table of every curve: series, x, density."""
    _write_table(path, ["series", "x", "density"], (
        [name, repr(float(x)), repr(float(d))] for name in sorted(curves)
        for x, d in zip(curves[name].x, curves[name].density)))


_SVG_COLORS = ("#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#b8860b")


def write_density_svg(path, curves: dict[str, KDECurve],
                      title: str = "density") -> None:
    """Self-contained 640 x 400 line chart of the curves with a simple
    legend."""
    if not curves:
        raise ValueError("no curves to plot")
    width, height, margin = 640, 400, 50
    xs = np.concatenate([c.x for c in curves.values()])
    ys = np.concatenate([c.density for c in curves.values()])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = 0.0, float(ys.max()) * 1.05 or 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (
            height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16}" '
        f'font-family="sans-serif" font-size="11" '
        f'text-anchor="middle">{x_lo:.3g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" '
        f'font-family="sans-serif" font-size="11" '
        f'text-anchor="middle">{x_hi:.3g}</text>',
        f'<text x="{margin - 6}" y="{margin}" font-family="sans-serif" '
        f'font-size="11" text-anchor="end">{y_hi:.3g}</text>',
        f'<text x="{margin - 6}" y="{height - margin}" '
        f'font-family="sans-serif" font-size="11" text-anchor="end">0</text>',
    ]
    for i, name in enumerate(sorted(curves)):
        curve = curves[name]
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(d)):.2f}"
                       for x, d in zip(curve.x, curve.density))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = margin + 16 * i
        parts.append(f'<line x1="{width - margin - 90}" y1="{ly}" '
                     f'x2="{width - margin - 70}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin - 64}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
