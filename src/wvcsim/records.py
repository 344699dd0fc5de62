"""Flat per-trial records and their CSV format.

One CSV row per trial with a fixed, documented header. Floats are written with
``repr`` so a write/read round trip is exact; missing metrics serialize as
empty fields.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields as dc_fields
from typing import Iterable, Optional, Sequence

from .animals import Activity
from .config import CorridorConfig
from .engine import TrialResult

SCHEMA_VERSION = 1


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
    """The row of one trial: its identity from the call, the swept parameters
    from the config, one ``visits_<activity>`` column per activity, and every
    other column from the result attribute of the same name."""
    row = {"schema_version": SCHEMA_VERSION, "experiment": experiment,
           "sweep_value": sweep_value, "mode": result.mode.value,
           "hours": result.sim_hours}
    for name in ("radar_spacing", "size_scale", "kappa"):
        row[name] = getattr(config, name)
    visits = result.state_visit_counts
    for activity in Activity:
        row["visits_" + activity.name.lower()] = visits.get(activity.value, 0)
    for column in COLUMNS:
        if column not in row:
            row[column] = getattr(result, column)
    return TrialRecord(**row)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse(column: str, text: str):
    """One cell's value. Every number the writer produces is finite and
    non-negative, so any other is rejected, as is a schema version other
    than this module's: its columns may mean something else."""
    if text == "":
        if column not in _OPTIONAL_COLUMNS:
            raise ValueError("unexpected empty field")
        return None
    if column in ("experiment", "mode"):
        return text
    value = int(text) if column in _INT_COLUMNS else float(text)
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"expected a finite number >= 0, got {text!r}")
    if column == "schema_version" and value != SCHEMA_VERSION:
        raise ValueError(f"expected schema version {SCHEMA_VERSION}, got {text!r}")
    return value


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
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(COLUMNS):
                raise ValueError(f"{where}: expected {len(COLUMNS)} cells, "
                                 f"got {len(row)}")
            values = {}
            for column, cell in zip(COLUMNS, row):
                try:
                    values[column] = _parse(column, cell)
                except ValueError as exc:
                    raise ValueError(f"{where}, column {column}: {exc}") from None
            records.append(TrialRecord(**values))
        return records
