"""Command-line interface.

Subcommands: ``run`` (single trial), ``headline`` (three-mode experiment),
``sweep`` (one sensitivity sweep), ``analyze`` (recompute statistics from a
per-trial CSV), and ``plots`` (emit per-figure JSON datasets).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .config import CorridorConfig, Mode, load_config, validate_config
from .engine import check_duration, run_trial
from .experiments import (SWEEP_GRIDS, ExperimentPlan, TrialError,
                          default_workers, emit_plot_data, format_summary,
                          run_sweep, summarize)
from .records import (read_trials_csv, record_from_result, write_csv,
                      write_trials_csv)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON corridor config file")
    parser.add_argument("--seed", type=int, default=42, help="master seed")


def _add_batch(parser: argparse.ArgumentParser) -> None:
    """The flags of the commands that run many trials and write files."""
    _add_common(parser)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: WVC_SIM_WORKERS or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wvcsim",
        description="Monte Carlo corridor simulator for animal detection networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single trial and print its metrics")
    _add_common(p_run)
    p_run.add_argument("--hours", type=float, default=4.0)
    p_run.add_argument("--trial-id", type=int, default=0)
    p_run.add_argument("--mode", choices=[m.value for m in Mode], default=None)

    p_head = sub.add_parser("headline", help="run the three-mode comparison")
    _add_batch(p_head)
    p_head.add_argument("--trials", type=int, default=20)
    p_head.add_argument("--hours", type=float, default=4.0)

    p_sweep = sub.add_parser("sweep", help="run one sensitivity sweep")
    _add_batch(p_sweep)
    p_sweep.add_argument("--kind", choices=list(SWEEP_GRIDS), required=True)
    p_sweep.add_argument("--trials", type=int, default=15)
    p_sweep.add_argument("--hours", type=float, default=2.0)

    p_an = sub.add_parser("analyze", help="recompute statistics from a trial CSV")
    p_an.add_argument("trials_csv")
    p_an.add_argument("--out", default=None,
                      help="also write the summary CSV into this directory")

    p_plot = sub.add_parser("plots", help="emit per-figure JSON datasets")
    p_plot.add_argument("trials_csv")
    p_plot.add_argument("--kind", choices=["headline", *SWEEP_GRIDS],
                        required=True)
    p_plot.add_argument("--out", default=".")
    return parser


def _load_base_config(path: Optional[str]) -> CorridorConfig:
    if path is None:
        return CorridorConfig()
    config = load_config(path)
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid config:\n  " + "\n  ".join(problems))
    return config


def _at_least(flag: str, value: int, minimum: int) -> int:
    if value < minimum:
        raise ValueError(f"{flag} must be an integer >= {minimum}, got {value}")
    return value


def _workers(args) -> int:
    if args.workers is None:
        return default_workers()
    return _at_least("--workers", args.workers, 1)


def _write_summary_csv(path: str, stats) -> None:
    names = [f.name for f in dataclasses.fields(stats[0])] if stats else []
    write_csv(path, names, ([getattr(s, n) for n in names] for s in stats))


def _cmd_run(args) -> int:
    config = _load_base_config(args.config)
    _at_least("--seed", args.seed, 0)
    _at_least("--trial-id", args.trial_id, 0)
    check_duration("--hours", args.hours)
    if args.mode is not None:
        config = config.with_mode(Mode(args.mode))
    result = run_trial(config, args.hours, args.trial_id, args.seed)
    record = record_from_result(result, config, "run", None)
    print(json.dumps(dataclasses.asdict(record), indent=2, sort_keys=True))
    return 0


def _cmd_experiment(args) -> int:
    config = _load_base_config(args.config)
    _at_least("--seed", args.seed, 0)
    _at_least("--trials", args.trials, 1)
    check_duration("--hours", args.hours)
    sizes = dict(master_seed=args.seed, trials_per_point=args.trials,
                 hours_per_trial=args.hours)
    if args.command == "headline":
        plan, stem = ExperimentPlan.headline(**sizes), "headline"
    else:
        plan, stem = ExperimentPlan.sweep(args.kind, **sizes), f"{args.kind}_sweep"
    workers = _workers(args)
    os.makedirs(args.out, exist_ok=True)
    records = run_sweep(plan, config, workers=workers)
    trials_path = os.path.join(args.out, f"{stem}_trials.csv")
    write_trials_csv(trials_path, records)
    stats = summarize(records)
    _write_summary_csv(os.path.join(args.out, f"{stem}_summary.csv"), stats)
    print(format_summary(stats))
    print(f"\nwrote {trials_path}")
    return 0


def _cmd_analyze(args) -> int:
    records = read_trials_csv(args.trials_csv)
    stats = summarize(records)
    print(format_summary(stats))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        name = os.path.splitext(os.path.basename(args.trials_csv))[0]
        _write_summary_csv(os.path.join(args.out, f"{name}_summary.csv"), stats)
    return 0


def _cmd_plots(args) -> int:
    records = read_trials_csv(args.trials_csv)
    print(f"wrote {emit_plot_data(records, args.kind, args.out)}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "headline": _cmd_experiment,
    "sweep": _cmd_experiment,
    "analyze": _cmd_analyze,
    "plots": _cmd_plots,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SystemExit:
        raise
    except (ValueError, OSError, TrialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
