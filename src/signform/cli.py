"""Command-line front end.

Every command reads one JSON config document, honors the global overrides
(--seed, then SIGNFORM_SEED, and --out), prints a short human summary to
stdout, and on failure emits one machine-readable JSON error line, writes it
to error.json in the output directory and exits nonzero. A successful
estimate, batch, phonesthemes or hyperopt removes the error.json an earlier
failure left in its output directory. A batch runs its languages on the
usable CPUs (signform.forkrun) and writes its aggregates in document order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import SchemaError
from .pipeline import (
    SYNTH_SPECS,
    _clear_stale_error,
    _require_object,
    error_record,
    load_batch,
    load_config,
    run_batch,
    run_estimate,
    run_hyperopt,
    run_phonesthemes,
    run_synth,
    write_error,
)
from .reports import read_json, write_report_csv_rows
from .validate import CRITERIA, battery_passed, run_battery


def _seed(args):
    """--seed beats SIGNFORM_SEED beats the config file (None)."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("SIGNFORM_SEED", "")
    try:
        return int(raw) if raw else None
    except ValueError:
        raise ValueError(
            f"SIGNFORM_SEED must be an integer, got {raw!r}") from None


def _config_path(args, what: str) -> str:
    if not args.config:
        raise ValueError(f"{args.command} needs --config pointing at {what}")
    return args.config


def _fail(exc: Exception, stage: str, out_dir: str | None = None) -> int:
    record = error_record(exc, stage)
    print(json.dumps(record, sort_keys=True))
    if out_dir:
        try:
            write_error(out_dir, record)
        except OSError:
            pass
    return 1


def _run_config_command(args, run) -> int:
    """Load the run config and call run(config) -> (summary lines, files);
    print both, or on error print and store the error record."""
    out_dir = args.out
    try:
        config = load_config(_config_path(args, "a JSON config document"),
                             seed=_seed(args), out_dir=args.out)
        out_dir = config.out_dir
        lines, files = run(config)
    except Exception as exc:
        return _fail(exc, args.command, getattr(exc, "out_dir", out_dir))
    _clear_stale_error(out_dir)
    for line in lines:
        print(line)
    for name, path in sorted(files.items()):
        print(f"  {name}: {path}")
    return 0


def cmd_estimate(args) -> int:
    def run(config):
        out = run_estimate(config)
        rep = out.report
        line = (f"{rep.language}: H(W) {rep.h_w.bits_per_phone:.3f} "
                f"bits/phone, MI {rep.mi:.3f}, "
                f"U {100 * rep.uncertainty:.2f}%, p {rep.p_value:.5f}")
        return [line], out.files
    return _run_config_command(args, run)


def cmd_phonesthemes(args) -> int:
    def run(config):
        candidates, files = run_phonesthemes(config)
        significant = [c for c in candidates if c.bh_significant]
        lines = [f"{c.affix_string()}\tcount {c.count}\t"
                 f"adjusted p {c.p_adjusted:.5f}" for c in significant]
        lines.append(f"{len(significant)} significant of {len(candidates)} "
                     "candidates")
        return lines, files
    return _run_config_command(args, run)


def cmd_hyperopt(args) -> int:
    def run(config):
        best_by_kind, files = run_hyperopt(config)
        return [f"{kind}: {json.dumps(best, sort_keys=True)}"
                for kind, best in best_by_kind.items()], files
    return _run_config_command(args, run)


def cmd_batch(args) -> int:
    out_dir = args.out
    try:
        configs, out_dir = load_batch(_config_path(args, "a batch document"),
                                      seed=_seed(args), out_dir=args.out)
        out = run_batch(configs, out_dir)
    except Exception as exc:
        return _fail(exc, "batch", getattr(exc, "out_dir", out_dir))
    _clear_stale_error(out_dir)
    for rep in out.reports:
        flags = out.significant[rep.language]
        mark = "*" if flags["significant"] else " "
        print(f"{mark} {rep.language}: U {100 * rep.uncertainty:.2f}%, "
              f"adjusted p {flags['p_adjusted']:.5f}")
    for language, err in sorted(out.failures.items()):
        print(f"! {language}: {err['error']}: {err['message']}")
    agg = out.aggregate
    print(f"mean U {100 * agg['u_mean']:.2f}% over {agg['n_languages']} "
          f"languages, {agg['n_significant']} significant, "
          f"{agg['n_failed']} failed")
    return 0


def cmd_synth(args) -> int:
    try:
        files = run_synth(args.spec, args.n_words, _seed(args) or 0,
                          args.out or ".")
    except Exception as exc:
        return _fail(exc, "synth", args.out)
    for name, path in sorted(files.items()):
        print(f"  {name}: {path}")
    return 0


def cmd_validate(args) -> int:
    if args.list:
        for cid, title, _fn in CRITERIA:
            print(f"{cid}  {title}")
        return 0
    hooks = {}
    if args.inject_gradient_fault:
        hooks["gradient_fault"] = 1e-3
    if args.config:
        hooks["full_scale_config"] = args.config
    ids = args.only or None
    try:
        results = run_battery(ids=ids, progress=print, **hooks)
    except ValueError as exc:
        return _fail(exc, "validate")
    return 0 if battery_passed(results) else 1


def cmd_report(args) -> int:
    """Re-render the display CSV from a stored unrounded JSON report."""
    try:
        payload = _require_object(
            "a report document",
            read_json(_config_path(args, "a report.json file")))
        if not isinstance(payload.get("report"), dict):
            raise SchemaError("a report document needs a report object, "
                              "as report.json holds")
        out_dir = args.out or os.path.dirname(os.path.abspath(args.config))
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, "report.csv")
        write_report_csv_rows(csv_path, [payload["report"]])
    except Exception as exc:
        return _fail(exc, "report", args.out)
    print(f"  report_csv: {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signform",
        description="Estimate form-meaning systematicity of phone-"
                    "transcribed lexica and mine phonesthemes.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config document")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="master seed override (beats SIGNFORM_SEED)")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("estimate", help="entropy/MI pipeline for one language")
    sub.add_parser("batch", help="many languages, correction, aggregates")
    sub.add_parser("phonesthemes", help="mine prefix/suffix phonesthemes")
    sub.add_parser("hyperopt",
                   help="hyperparameter search only, write search.jsonl")

    synth = sub.add_parser("synth", help="write a synthetic benchmark corpus")
    synth.add_argument("--spec", required=True, choices=SYNTH_SPECS)
    synth.add_argument("--n-words", type=int, default=1000)

    validate = sub.add_parser("validate",
                              help="run the validation battery")
    validate.add_argument("--list", action="store_true",
                          help="print criteria without running")
    validate.add_argument("--only", nargs="*", metavar="ID",
                          help="run a subset of criteria, e.g. c03 c05")
    validate.add_argument("--inject-gradient-fault", action="store_true",
                          help=argparse.SUPPRESS)

    sub.add_parser("report", help="re-render CSV from a JSON report")
    return parser


COMMANDS = {
    "estimate": cmd_estimate,
    "batch": cmd_batch,
    "phonesthemes": cmd_phonesthemes,
    "hyperopt": cmd_hyperopt,
    "synth": cmd_synth,
    "validate": cmd_validate,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
