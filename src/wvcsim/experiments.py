"""Experiment harness: the three-mode headline run, sensitivity sweeps,
mode-contrast statistics, and plot-ready JSON datasets.

Trials are paired across modes through a common arrival stream (same trial
index, same master seed); comparisons still use Welch's unpaired test. Trials
are embarrassingly parallel; aggregation sorts deterministically so output
ordering never depends on worker scheduling.
"""

from __future__ import annotations

import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import (ROADSIDE_COVERAGE_DEPTH, CorridorConfig, Mode,
                     coverage_ok, replace_config)
from .engine import run_trial
from .records import SCHEMA_VERSION, TrialRecord, record_from_result
from .stats import mean_sd, significance_stars, welch_t
from .vehicles import load_kernel

ALL_MODES = (Mode.CONTROL, Mode.DETECTION, Mode.AWARE)

SPACING_GRID = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0)
SIZE_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
KAPPA_GRID = (0.3, 0.5, 1.0, 2.0, 3.0, 5.0)

SWEEP_GRIDS = {"spacing": SPACING_GRID, "size": SIZE_GRID, "kappa": KAPPA_GRID}
SWEEP_FIELDS = {"spacing": "radar_spacing", "size": "size_scale", "kappa": "kappa"}

# The seven reported headline metrics.
HEADLINE_METRICS = (
    "collision_rate_per_entry_pct",
    "detection_rate_pct",
    "mean_in_range_latency",
    "arrivals",
    "road_entries",
    "crossing_success_rate_pct",
    "frozen_on_road_time",
)

CONTRASTS = ((Mode.CONTROL, Mode.DETECTION), (Mode.CONTROL, Mode.AWARE))


@dataclass
class ExperimentPlan:
    kind: str                      # "headline", "spacing", "size", or "kappa"
    trials_per_point: int
    hours_per_trial: float
    values: tuple[Optional[float], ...]   # (None,) for the headline: one point
    master_seed: int
    modes: tuple[Mode, ...] = ALL_MODES

    @classmethod
    def headline(cls, master_seed: int, trials_per_point: int = 20,
                 hours_per_trial: float = 4.0,
                 modes: tuple[Mode, ...] = ALL_MODES) -> "ExperimentPlan":
        return cls(kind="headline", trials_per_point=trials_per_point,
                   hours_per_trial=hours_per_trial, values=(None,),
                   master_seed=master_seed, modes=modes)

    @classmethod
    def sweep(cls, kind: str, master_seed: int, trials_per_point: int = 15,
              hours_per_trial: float = 2.0,
              values: Optional[Sequence[float]] = None,
              modes: tuple[Mode, ...] = ALL_MODES) -> "ExperimentPlan":
        if kind not in SWEEP_GRIDS:
            raise ValueError(f"unknown sweep kind {kind!r}")
        grid = tuple(values) if values is not None else SWEEP_GRIDS[kind]
        return cls(kind=kind, trials_per_point=trials_per_point,
                   hours_per_trial=hours_per_trial, values=grid,
                   master_seed=master_seed, modes=modes)


def sweep_config(base: CorridorConfig, kind: str, value: float) -> CorridorConfig:
    """The base config with one swept parameter replaced."""
    return replace_config(base, **{SWEEP_FIELDS[kind]: value})


class TrialError(RuntimeError):
    """A trial of an experiment raised; the message names the task."""


def _execute(task) -> TrialRecord:
    experiment, sweep_value, config, hours, trial_id, master_seed = task
    try:
        result = run_trial(config, hours, trial_id, master_seed)
    except Exception as exc:
        raise TrialError(
            f"trial failed (experiment={experiment!r}, sweep_value={sweep_value!r}, "
            f"mode={config.mode.value!r}, trial_id={trial_id}, "
            f"master_seed={master_seed}): {type(exc).__name__}: {exc}") from exc
    return record_from_result(result, config, experiment, sweep_value)


def _run_tasks(tasks: list, workers: int) -> list[TrialRecord]:
    if workers <= 1 or len(tasks) <= 1:
        return [_execute(t) for t in tasks]
    # One task at a time, so that no worker is left holding a chunk of
    # trials while the others idle.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute, tasks))


def default_workers() -> int:
    """Worker count from ``WVC_SIM_WORKERS`` (1 when unset); ValueError if invalid."""
    env = os.environ.get("WVC_SIM_WORKERS")
    if not env:
        return 1
    workers = int(env) if env.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"WVC_SIM_WORKERS must be an integer >= 1, got {env!r}")
    return workers


def run_sweep(plan: ExperimentPlan, base_config: Optional[CorridorConfig] = None,
              workers: int = 1) -> list[TrialRecord]:
    """Run every mode and trial at each point of the plan's grid, with arrival
    pairing across modes. The headline is the one point ``None``, which runs
    the base config unchanged; a sweep point replaces the swept parameter.

    Spacing sweep points whose geometry cannot cover the roadside strip get a
    warning (the points still run; detection simply degrades there).
    """
    if plan.kind != "headline" and plan.kind not in SWEEP_GRIDS:
        raise ValueError(f"unknown plan kind {plan.kind!r}")
    base = base_config if base_config is not None else CorridorConfig()
    if plan.kind == "spacing":
        for value in plan.values:
            if not coverage_ok(value, ROADSIDE_COVERAGE_DEPTH, base.radar_range):
                warnings.warn(
                    f"spacing {value:g} m leaves coverage gaps in the "
                    f"{ROADSIDE_COVERAGE_DEPTH:g} m roadside strip "
                    f"(range {base.radar_range:g} m)", stacklevel=2)
    tasks = [
        (plan.kind, value,
         (base if value is None
          else sweep_config(base, plan.kind, value)).with_mode(mode),
         plan.hours_per_trial, trial_id, plan.master_seed)
        for value in plan.values
        for mode in plan.modes
        for trial_id in range(plan.trials_per_point)
    ]
    if workers > 1:
        # The forked workers inherit this process's kernel, or its failed
        # attempt, instead of each compiling its own.
        load_kernel()
    return _run_tasks(tasks, workers)


run_headline = run_sweep


# ---------------------------------------------------------------------------
# Mode-contrast statistics


@dataclass
class ComparisonStat:
    """One metric contrast at one sweep point (baseline mode_a vs mode_b)."""

    metric: str
    sweep_value: Optional[float]
    mode_a: str
    n_a: int
    mean_a: Optional[float]
    sd_a: Optional[float]
    mode_b: str
    n_b: int
    mean_b: Optional[float]
    sd_b: Optional[float]
    t: Optional[float]
    df: Optional[float]
    p: Optional[float]
    stars: str
    rel_change_pct: Optional[float]
    degenerate: bool = False


def _metric_sample(records: Sequence[TrialRecord], metric: str) -> list[float]:
    # Missing metrics (e.g. a rate with a zero denominator) are excluded.
    return [getattr(r, metric) for r in records if getattr(r, metric) is not None]


def _points(records: Sequence[TrialRecord]) -> dict:
    """``{sweep_value: {mode: [records]}}``, the unswept point ``None`` first and
    modes in ``ALL_MODES`` order. ValueError on no records, an unknown mode, a
    repeated (mode, sweep_value, trial_id), or non-empty cells that do not all
    hold the same trials."""
    if not records:
        raise ValueError("no trial records supplied")
    values = sorted({r.sweep_value for r in records},
                    key=lambda v: (v is not None, v))
    points = {value: {mode.value: [] for mode in ALL_MODES} for value in values}
    trials: dict[tuple, set[int]] = {}
    for rec in records:
        cells = points[rec.sweep_value]
        if rec.mode not in cells:
            raise ValueError(f"unknown mode {rec.mode!r}")
        ids = trials.setdefault((rec.mode, rec.sweep_value), set())
        if rec.trial_id in ids:
            raise ValueError("repeated trial record (mode, sweep_value, trial_id) "
                             f"= {(rec.mode, rec.sweep_value, rec.trial_id)}")
        ids.add(rec.trial_id)
        cells[rec.mode].append(rec)
    every = set().union(*trials.values())
    short = sorted(str(key) for key, ids in trials.items() if ids != every)
    if short:
        raise ValueError("incomplete records: short cells " + ", ".join(short))
    return points


def summarize(records: Sequence[TrialRecord],
              metrics: Sequence[str] = HEADLINE_METRICS) -> list[ComparisonStat]:
    """Welch contrasts (Control vs each sensor mode) per metric per sweep point.
    ValueError when the records are empty, repeat a trial or miss one."""
    stats: list[ComparisonStat] = []
    for value, cells in _points(records).items():
        for metric in metrics:
            for mode_a, mode_b in CONTRASTS:
                xs = _metric_sample(cells[mode_a.value], metric)
                ys = _metric_sample(cells[mode_b.value], metric)
                mean_a, sd_a = mean_sd(xs)
                mean_b, sd_b = mean_sd(ys)
                t = df = p = rel = None
                stars = ""
                degenerate = False
                if len(xs) >= 2 and len(ys) >= 2:
                    w = welch_t(xs, ys)
                    t, df, p, degenerate = w.t, w.df, w.p, w.degenerate
                    stars = significance_stars(p)
                if mean_a not in (None, 0.0) and mean_b is not None:
                    rel = 100.0 * (mean_b - mean_a) / mean_a
                stats.append(ComparisonStat(
                    metric=metric, sweep_value=value,
                    mode_a=mode_a.value, n_a=len(xs), mean_a=mean_a, sd_a=sd_a,
                    mode_b=mode_b.value, n_b=len(ys), mean_b=mean_b, sd_b=sd_b,
                    t=t, df=df, p=p, stars=stars, rel_change_pct=rel,
                    degenerate=degenerate))
    return stats


def format_summary(stats: Sequence[ComparisonStat]) -> str:
    """Human-readable contrast table."""
    lines = []
    header = (f"{'metric':<34}{'value':>7}  {'contrast':<22}"
              f"{'mean_a':>10}{'mean_b':>10}{'t':>8}{'p':>10}  stars  rel%")
    lines.append(header)
    lines.append("-" * len(header))
    for s in stats:
        value = "" if s.sweep_value is None else f"{s.sweep_value:g}"
        contrast = f"{s.mode_a} vs {s.mode_b}"
        mean_a = "" if s.mean_a is None else f"{s.mean_a:.3f}"
        mean_b = "" if s.mean_b is None else f"{s.mean_b:.3f}"
        t = "" if s.t is None else f"{s.t:.2f}"
        p = "" if s.p is None else f"{s.p:.4g}"
        rel = "" if s.rel_change_pct is None else f"{s.rel_change_pct:+.1f}"
        lines.append(f"{s.metric:<34}{value:>7}  {contrast:<22}"
                     f"{mean_a:>10}{mean_b:>10}{t:>8}{p:>10}  {s.stars:<5}  {rel}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Plot-ready datasets (no plotting here; an external tool renders these)

HEADLINE_PANELS = ("collisions", "collision_rate_per_entry_pct",
                   "road_entries", "frozen_on_road_time")
SWEEP_SERIES_METRICS = ("collision_rate_per_entry_pct", "detection_rate_pct",
                        "mean_in_range_latency", "road_entries",
                        "frozen_on_road_time")


def _plot_cell(cell: Sequence[TrialRecord], metric: str) -> dict:
    """Every trial's value, then mean, SD and count of the non-missing ones."""
    xs = _metric_sample(cell, metric)
    m, sd = mean_sd(xs)
    return {"trials": [getattr(r, metric) for r in cell],
            "mean": m, "sd": sd, "n": len(xs)}


def plot_dataset(records: Sequence[TrialRecord], kind: str) -> dict:
    """Per-figure dataset: per-trial points, per-point means and SDs, significance.
    ValueError as ``summarize``, or when the records are not all of experiment
    ``kind``."""
    points = _points(records)
    experiments = sorted({r.experiment for r in records})
    if experiments != [kind]:
        raise ValueError(f"plot kind {kind!r} does not match the records' "
                         f"experiment(s): {', '.join(experiments)}")
    significance = [
        {"metric": s.metric, "sweep_value": s.sweep_value, "mode_a": s.mode_a,
         "mode_b": s.mode_b, "t": s.t, "df": s.df, "p": s.p, "stars": s.stars,
         "rel_change_pct": s.rel_change_pct}
        for s in summarize(records) if s.p is not None
    ]

    if kind == "headline":
        (cells,) = points.values()  # a headline is the one point ``None``
        panels = {metric: {mode: _plot_cell(cell, metric)
                           for mode, cell in cells.items()}
                  for metric in HEADLINE_PANELS}
        return {"schema_version": SCHEMA_VERSION, "kind": "headline",
                "panels": panels, "significance": significance}

    series = {}
    for metric in SWEEP_SERIES_METRICS:
        per_mode = {}
        for mode in ALL_MODES:
            line = [{"value": value, **_plot_cell(cells[mode.value], metric)}
                    for value, cells in points.items() if cells[mode.value]]
            if line:
                per_mode[mode.value] = line
        series[metric] = per_mode
    return {"schema_version": SCHEMA_VERSION, "kind": kind,
            "series": series, "significance": significance}


def emit_plot_data(records: Sequence[TrialRecord], kind: str,
                   out_dir: str) -> str:
    """Write the figure dataset for ``kind`` as JSON with sorted keys, so the
    same records give the same bytes; returns the path written."""
    document = plot_dataset(records, kind)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"plot_{kind}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
