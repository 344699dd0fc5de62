"""Flat per-trial records, CSV round-tripping, and plot-ready JSON datasets.

One CSV row per trial with a fixed, documented header. Floats are written with
``repr`` so a write/read round trip is exact; missing metrics serialize as
empty fields. JSON documents carry a ``schema_version`` and are emitted with
sorted keys so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields as dc_fields
from typing import Iterable, Optional, Sequence

from .animals import Activity
from .config import CorridorConfig, Mode
from .engine import TrialResult
from .stats import mean_sd

SCHEMA_VERSION = 1

_VISIT_COLUMNS = {
    Activity.FORAGING: "visits_foraging",
    Activity.APPROACHING: "visits_approaching",
    Activity.HESITATING: "visits_hesitating",
    Activity.CROSSING: "visits_crossing",
    Activity.FROZEN: "visits_frozen",
    Activity.FLEEING: "visits_fleeing",
    Activity.MOVED_AWAY: "visits_moved_away",
}


@dataclass
class TrialRecord:
    """One flat row per trial: identity, swept parameters, and every metric."""

    schema_version: int
    experiment: str            # "headline", "spacing", "size", or "kappa"
    sweep_value: Optional[float]
    trial_id: int
    mode: str
    seed: int
    hours: float
    radar_spacing: float
    size_scale: float
    kappa: float
    arrivals: int
    road_entries: int
    crossing_successes: int
    collisions: int
    detected: int
    detectable: int
    mean_in_range_latency: Optional[float]
    median_in_range_latency: Optional[float]
    frozen_on_road_time: float
    exits_clean: int
    active_at_end: int
    collision_rate_per_entry_pct: Optional[float]
    detection_rate_pct: Optional[float]
    crossing_success_rate_pct: Optional[float]
    visits_foraging: int
    visits_approaching: int
    visits_hesitating: int
    visits_crossing: int
    visits_frozen: int
    visits_fleeing: int
    visits_moved_away: int


COLUMNS = tuple(f.name for f in dc_fields(TrialRecord))

_INT_COLUMNS = frozenset(f.name for f in dc_fields(TrialRecord)
                         if f.type == "int")
_OPTIONAL_COLUMNS = frozenset(f.name for f in dc_fields(TrialRecord)
                              if f.type.startswith("Optional"))


def record_from_result(result: TrialResult, config: CorridorConfig,
                       experiment: str, sweep_value: Optional[float]) -> TrialRecord:
    visits = result.state_visit_counts
    return TrialRecord(
        schema_version=SCHEMA_VERSION,
        experiment=experiment,
        sweep_value=sweep_value,
        trial_id=result.trial_id,
        mode=result.mode.value,
        seed=result.seed,
        hours=result.sim_hours,
        radar_spacing=config.radar_spacing,
        size_scale=config.size_scale,
        kappa=config.kappa,
        arrivals=result.arrivals,
        road_entries=result.road_entries,
        crossing_successes=result.crossing_successes,
        collisions=result.collisions,
        detected=result.detected,
        detectable=result.detectable,
        mean_in_range_latency=result.mean_in_range_latency,
        median_in_range_latency=result.median_in_range_latency,
        frozen_on_road_time=result.frozen_on_road_time,
        exits_clean=result.exits_clean,
        active_at_end=result.active_at_end,
        collision_rate_per_entry_pct=result.collision_rate_per_entry_pct,
        detection_rate_pct=result.detection_rate_pct,
        crossing_success_rate_pct=result.crossing_success_rate_pct,
        **{column: visits.get(activity.value, 0)
           for activity, column in _VISIT_COLUMNS.items()},
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(column: str, text: str):
    if text == "":
        if column not in _OPTIONAL_COLUMNS:
            raise ValueError(f"column {column}: unexpected empty field")
        return None
    if column in ("experiment", "mode"):
        return text
    if column in _INT_COLUMNS:
        return int(text)
    return float(text)


def write_csv(path: str, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row: floats as ``repr``, None empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(value) for value in row])


def write_trials_csv(path: str, records: Sequence[TrialRecord]) -> None:
    write_csv(path, COLUMNS, ([getattr(rec, c) for c in COLUMNS] for rec in records))


def read_trials_csv(path: str) -> list[TrialRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != COLUMNS:
            raise ValueError(f"{path}: unrecognized trial CSV header")
        records = []
        for row in reader:
            if len(row) != len(COLUMNS):
                raise ValueError(f"{path}, line {reader.line_num}: expected "
                                 f"{len(COLUMNS)} cells, got {len(row)}")
            records.append(TrialRecord(**{c: _parse(c, cell)
                                          for c, cell in zip(COLUMNS, row)}))
        return records


def write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Plot-ready datasets (no plotting here; an external tool renders these)

_MODE_ORDER = (Mode.CONTROL.value, Mode.DETECTION.value, Mode.AWARE.value)

HEADLINE_PANELS = ("collisions", "collision_rate_per_entry_pct",
                   "road_entries", "frozen_on_road_time")
SWEEP_SERIES_METRICS = ("collision_rate_per_entry_pct", "detection_rate_pct",
                        "mean_in_range_latency", "road_entries",
                        "frozen_on_road_time")


def _point_stats(values: list) -> dict:
    """Mean, SD and count of the non-missing values, as plot-dataset keys."""
    xs = [v for v in values if v is not None]
    m, sd = mean_sd(xs)
    return {"mean": m, "sd": sd, "n": len(xs)}


def _check_complete(records: Sequence[TrialRecord]) -> None:
    if not records:
        raise ValueError("no trial records supplied")
    cells: dict[tuple, set[int]] = {}
    for rec in records:
        cells.setdefault((rec.mode, rec.sweep_value), set()).add(rec.trial_id)
    counts = {key: len(ids) for key, ids in cells.items()}
    expected = max(counts.values())
    gaps = sorted(str(key) for key, n in counts.items() if n != expected)
    if gaps:
        raise ValueError("incomplete records: short cells " + ", ".join(gaps))


def plot_dataset(records: Sequence[TrialRecord], kind: str) -> dict:
    """Per-figure dataset: per-trial points, per-point means and SDs, significance."""
    from .experiments import summarize  # local import avoids a module cycle

    _check_complete(records)
    stats = summarize(records)
    significance = [
        {"metric": s.metric, "sweep_value": s.sweep_value, "mode_a": s.mode_a,
         "mode_b": s.mode_b, "t": s.t, "df": s.df, "p": s.p, "stars": s.stars,
         "rel_change_pct": s.rel_change_pct}
        for s in stats if s.p is not None
    ]

    if kind == "headline":
        panels = {}
        for metric in HEADLINE_PANELS:
            per_mode = {}
            for mode in _MODE_ORDER:
                values = [getattr(r, metric) for r in records if r.mode == mode]
                per_mode[mode] = {"trials": values, **_point_stats(values)}
            panels[metric] = per_mode
        return {"schema_version": SCHEMA_VERSION, "kind": "headline",
                "panels": panels, "significance": significance}

    values = sorted({r.sweep_value for r in records})
    series = {}
    for metric in SWEEP_SERIES_METRICS:
        per_mode = {}
        for mode in _MODE_ORDER:
            points = []
            for value in values:
                cell = [getattr(r, metric) for r in records
                        if r.mode == mode and r.sweep_value == value]
                if not cell:
                    continue
                points.append({"value": value, "trials": cell,
                               **_point_stats(cell)})
            if points:
                per_mode[mode] = points
        series[metric] = per_mode
    return {"schema_version": SCHEMA_VERSION, "kind": kind,
            "series": series, "significance": significance}


def emit_plot_data(records: Sequence[TrialRecord], kind: str,
                   out_dir: str) -> list[str]:
    """Write the figure dataset(s) for ``kind``; returns the paths written."""
    document = plot_dataset(records, kind)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"plot_{kind}.json")
    write_json(path, document)
    return [path]
