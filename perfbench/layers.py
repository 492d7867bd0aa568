"""Per-layer metrics from the spans of one traced operation.

Each metric names the end-to-end metric it should move, and on which
workload, so a later change can say in advance which numbers it expects to
move. Times sum the outermost span of each named function (a call nested
inside a call of the same group is not counted twice); ``<layer>.self_s``
is the layer's spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

WRITERS = ("reports.write_report_csv", "reports.write_report_csv_rows",
           "reports.write_json", "reports.write_appendix_tsv",
           "reports.write_phonesthemes_tsv",
           "reports.write_phonestheme_detail_tsv",
           "reports.write_density_csv", "reports.write_density_svg")

# The end-to-end metric each per-layer metric should move, and where. Names,
# units and directions are BENCHMARK.json's; the run checks that the two
# lists name the same metrics.
MOVES = {
    "phonolm.step_ms": "median loss_and_grads call; wall_s on estimate, "
                       "batch, hyperopt, barely phonesthemes",
    "phonolm.batches": "exact count of training batches",
    "phonolm.tokens": "exact count of target tokens",
    "phonolm.pad_ratio": "non-padding target cells / B*T cells; wall_s on "
                         "estimate, batch, hyperopt",
    "phonolm.gflop_per_s": "FLOPs computed from config and batch shapes / "
                           "loss_and_grads time; wall_s on estimate, batch, "
                           "hyperopt",
    "phonolm.epochs": "exact; if it changes, convergence changed, not speed",
    "phonolm.eval_s": "evaluate (validation, test, all-sign scoring); wall_s "
                      "on estimate, phonesthemes",
    "phonolm.archive_s": "save_model + load_model; wall_s on batch",
    "reports.write_s": "write_* functions; wall_s on batch",
    "stats.permutation_s": "permutation_test; wall_s on batch (~31%) and "
                           "estimate (~12%), not phonesthemes",
    "stats.flips_per_s": "n_perm * n / permutation_test time; wall_s on "
                         "batch, estimate",
    "phonesthemes.test_s": "phonestheme_test; wall_s on phonesthemes only",
    "phonesthemes.candidates": "exact count of tested candidates",
    "phonesthemes.samples_per_s": "candidates * n_samples / phonestheme_test "
                                  "time; wall_s on phonesthemes only",
    "phonesthemes.pmi_table_s": "pointwise_mi_table; wall_s on phonesthemes "
                                "only",
    "hyperopt.trials": "exact count of search trials",
    "hyperopt.objective_s": "run_search minus propose_next; wall_s on "
                            "hyperopt",
    "hyperopt.propose_s": "propose_next (LHS, GP fit, EI); wall_s on hyperopt",
    "hyperopt.gp_fit_s": "gp_fit; wall_s on hyperopt",
    "hyperopt.propose_share": "propose_s / wall_s: the most a faster proposer "
                              "can save on hyperopt",
    "lexicon.parse_s": "parse_lexicon; setup_s on estimate, wall_s on batch",
    "lexicon.load_embeddings_s": "load_embeddings; setup_s on estimate, "
                                 "wall_s on batch",
    "semspace.pca_fit_s": "pca_fit; wall_s on estimate, batch and hyperopt",
    "infotheory.mi_estimate_s": "mi_estimate; wall_s on batch",
    "pipeline.worker_busy_ratio": "sum of run_estimate spans / (wall_s * "
                                  "workers); wall_s and cpu_s on batch, not "
                                  "estimate",
    **{f"{layer}.self_s": f"time in {layer} outside its callees; wall_s "
                          f"where {layer} is hot" for layer in LAYERS},
    # Filled in by the run from traced and untraced operations.
    "trace.overhead_s": "median over adjacent traced/untraced operation "
                        "pairs of traced wall_s - untraced wall_s",
}


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _outer_total(spans, names, by_id) -> float:
    names = set(names)
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names
               and (by_id.get(s["parent"]) or {}).get("name") not in names)


def _sum_counts(spans, name, key) -> float:
    return sum(s["counts"][key] for s in spans
               if s["name"] == name and s["counts"])


def op_metrics(spans: list[dict], wall_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced operation (trace.overhead_s aside)."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    self_time = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ()))
        self_time[s["name"].split(".")[0]] += s["end"] - s["start"] - covered

    def total(*names):
        return _outer_total(spans, names, by_id)

    steps = [s["end"] - s["start"] for s in spans
             if s["name"] == "phonolm.loss_and_grads"]
    step_time = sum(steps)
    cells = _sum_counts(spans, "phonolm.loss_and_grads", "cells")
    tokens = _sum_counts(spans, "phonolm.loss_and_grads", "tokens")
    perm_s = total("stats.permutation_test")
    test_s = total("phonesthemes.phonestheme_test")
    search_s = total("hyperopt.run_search")
    propose_s = total("hyperopt.propose_next")
    out = {
        "phonolm.step_ms": 1e3 * statistics.median(steps) if steps else 0.0,
        "phonolm.batches": len(steps),
        "phonolm.tokens": tokens,
        "phonolm.pad_ratio": tokens / cells if cells else 0.0,
        "phonolm.gflop_per_s": (
            _sum_counts(spans, "phonolm.loss_and_grads", "flops")
            / step_time / 1e9 if step_time else 0.0),
        "phonolm.epochs": _sum_counts(spans, "phonolm.train_on_indices",
                                      "epochs"),
        "phonolm.eval_s": total("phonolm.evaluate"),
        "phonolm.archive_s": total("phonolm.save_model",
                                   "phonolm.load_model"),
        "reports.write_s": total(*WRITERS),
        "stats.permutation_s": perm_s,
        "stats.flips_per_s": (
            _sum_counts(spans, "stats.permutation_test", "flips") / perm_s
            if perm_s else 0.0),
        "phonesthemes.test_s": test_s,
        "phonesthemes.candidates": sum(
            1 for s in spans if s["name"] == "phonesthemes.phonestheme_test"),
        "phonesthemes.samples_per_s": (
            _sum_counts(spans, "phonesthemes.phonestheme_test", "samples")
            / test_s if test_s else 0.0),
        "phonesthemes.pmi_table_s": total("phonesthemes.pointwise_mi_table"),
        "hyperopt.trials": _sum_counts(spans, "hyperopt.run_search",
                                       "trials"),
        "hyperopt.objective_s": search_s - propose_s,
        "hyperopt.propose_s": propose_s,
        "hyperopt.gp_fit_s": total("hyperopt.gp_fit"),
        "hyperopt.propose_share": propose_s / wall_s,
        "lexicon.parse_s": total("lexicon.parse_lexicon"),
        "lexicon.load_embeddings_s": total("lexicon.load_embeddings"),
        "semspace.pca_fit_s": total("semspace.pca_fit"),
        "infotheory.mi_estimate_s": total("infotheory.mi_estimate"),
        "pipeline.worker_busy_ratio": (
            total("pipeline.run_estimate") / (wall_s * workers)),
    }
    out.update({f"{layer}.self_s": t for layer, t in self_time.items()})
    return out


def missing_spans(spans: list[dict], expected: dict) -> list[str]:
    """Expected span counts that the trace does not show."""
    problems = []
    for name, want in expected.items():
        got = sum(1 for s in spans if s["name"] == name and s["ok"])
        if got != want:
            problems.append(f"{got} {name} spans, expected {want}")
    return problems
