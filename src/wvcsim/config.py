"""Corridor configuration, sensor topology, and world construction.

The configuration is a plain dataclass tree loadable from a single JSON
document. Topology construction is deterministic: radar nodes sit on a regular
grid along the shoulders, alternating sides.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dc_fields, is_dataclass, replace
from enum import Enum
from typing import Any

from .animals import BehaviourParams
from .vehicles import IdmParams, VehicleState, link_ring_leaders

# Roadside strip (m from the shoulder) that the sensor line is meant to cover;
# used only for the coverage warning at sparse spacings.
ROADSIDE_COVERAGE_DEPTH = 10.0

NEAR = "Near"
FAR = "Far"


class Mode(str, Enum):
    CONTROL = "Control"
    DETECTION = "Detection"
    AWARE = "Aware"


@dataclass
class GeometryParams:
    """Road cross-section and body sizes. Lane 0 carries +x traffic, lane 1 -x."""

    lane_width: float = 3.7
    n_lanes: int = 2
    vehicle_length: float = 4.5
    vehicle_width: float = 1.8
    animal_radius: float = 0.5
    spawn_offset: float = -25.0   # animal spawn y, m (off-road side)
    exit_offset: float = 25.0     # distance past the far edge where animals leave

    @property
    def road_width(self) -> float:
        return self.lane_width * self.n_lanes

    def lane_centre(self, lane: int) -> float:
        return (lane + 0.5) * self.lane_width

    def validate(self) -> list[str]:
        problems = []
        for name in ("lane_width", "vehicle_length", "vehicle_width", "animal_radius",
                     "exit_offset"):
            if getattr(self, name) <= 0:
                problems.append(f"geometry.{name}: must be positive")
        if self.n_lanes < 2:
            problems.append("geometry.n_lanes: need one lane per direction")
        if self.spawn_offset >= 0:
            problems.append("geometry.spawn_offset: must be off-road (negative)")
        return problems


@dataclass
class CorridorConfig:
    """Full parameter set for one simulated corridor."""

    road_length: float = 1000.0
    time_step: float = 0.1
    radar_spacing: float = 15.0
    radar_range: float = 15.0
    awareness_range: float = 1500.0
    boost_factor: float = 1.8
    persistence_window: float = 30.0
    arrival_rate: float = 15.0        # animals per hour
    kappa: float = 3.0                # baseline per-second detection rate
    size_scale: float = 1.0
    vehicles_per_direction: int = 4
    mode: Mode = Mode.CONTROL
    idm: IdmParams = field(default_factory=IdmParams)
    behaviour: BehaviourParams = field(default_factory=BehaviourParams)
    geometry: GeometryParams = field(default_factory=GeometryParams)

    def with_mode(self, mode: Mode) -> "CorridorConfig":
        return replace_config(self, mode=mode)

    @property
    def radar_shoulder_near(self) -> float:
        return -0.5

    @property
    def radar_shoulder_far(self) -> float:
        return self.geometry.road_width + 0.5


@dataclass
class RadarNode:
    """One radar: grid index, position, and shoulder side."""

    rid: int
    x: float
    side: str                     # NEAR or FAR
    y: float


def coverage_ok(spacing: float, d_y: float, r_det: float) -> bool:
    """Worst-case coverage test: detection radius must reach sqrt(spacing^2 + d_y^2)."""
    if spacing <= 0 or d_y <= 0 or r_det <= 0:
        raise ValueError("coverage_ok arguments must be positive")
    return r_det * r_det >= spacing * spacing + d_y * d_y


def _nonfinite(value: Any, path: str) -> list[str]:
    """``<path>: must be finite`` for each NaN or infinite number in a config
    value, its sections and its tuples (dwell ranges, size classes), in field
    order. The walk reads a section's fields from its class's dataclass
    fields, and spells out a number's path only where it is not finite."""
    names = getattr(type(value), "__dataclass_fields__", None)
    if names is not None:
        items = ((name, getattr(value, name)) for name in names)
    elif isinstance(value, tuple):
        items = enumerate(value)
    else:
        return []
    problems = []
    for key, item in items:
        if isinstance(item, (int, float)):
            if not math.isfinite(item):
                problems.append(f"{_child(path, key)}: must be finite")
        elif isinstance(item, tuple) or hasattr(type(item), "__dataclass_fields__"):
            problems += _nonfinite(item, _child(path, key))
    return problems


def _child(path: str, key) -> str:
    """The path of a section's field ``key`` (a name) or a tuple's item
    ``key`` (an index)."""
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def validate_config(config: CorridorConfig) -> list[str]:
    """Collect human-readable diagnostics; empty list means the config is valid."""
    problems = _nonfinite(config, "")
    for name in ("road_length", "time_step", "radar_spacing", "radar_range",
                 "awareness_range", "persistence_window", "size_scale"):
        if getattr(config, name) <= 0:
            problems.append(f"{name}: must be positive")
    for name in ("arrival_rate", "kappa"):
        if getattr(config, name) < 0:
            problems.append(f"{name}: must be non-negative")
    if config.boost_factor < 1.0:
        problems.append("boost_factor: must be at least 1 (boost never suppresses)")
    if config.vehicles_per_direction < 0:
        problems.append("vehicles_per_direction: must be non-negative")
    if not isinstance(config.mode, Mode):
        problems.append(f"mode: unknown mode {config.mode!r}")
    problems.extend(config.idm.validate())
    problems.extend(config.behaviour.validate())
    problems.extend(config.geometry.validate())
    return problems


@dataclass
class World:
    """Mutable state of one trial: topology plus vehicles."""

    config: CorridorConfig
    radars: list[RadarNode]
    vehicles: list[VehicleState]


def _build_radars(config: CorridorConfig) -> list[RadarNode]:
    if config.mode is Mode.CONTROL:
        return []
    spacing = config.radar_spacing
    n = int(math.floor(config.road_length / spacing)) + 1
    near_y, far_y = config.radar_shoulder_near, config.radar_shoulder_far
    # The even radars on the near shoulder, the odd on the far.
    return [RadarNode(i, i * spacing, FAR, far_y) if i % 2
            else RadarNode(i, i * spacing, NEAR, near_y) for i in range(n)]


def _build_vehicles(config: CorridorConfig) -> list[VehicleState]:
    vehicles: list[VehicleState] = []
    n = config.vehicles_per_direction
    if n == 0:
        return vehicles
    spacing = config.road_length / n
    vid = 0
    for direction, lane in ((1, 0), (-1, 1)):
        for i in range(n):
            vehicles.append(VehicleState(
                vid=vid, x=i * spacing, v=config.idm.v_cruise,
                direction=direction, lane=lane))
            vid += 1
    link_ring_leaders(vehicles, config.road_length)
    return vehicles


def build_corridor(config: CorridorConfig) -> World:
    """Construct the deterministic world for one trial.

    Raises ValueError when the config fails validation.
    """
    problems = validate_config(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return World(config=config, radars=_build_radars(config),
                 vehicles=_build_vehicles(config))


# ---------------------------------------------------------------------------
# JSON configuration


_SECTIONS = {"IdmParams": IdmParams, "BehaviourParams": BehaviourParams,
             "GeometryParams": GeometryParams}


def _is_number(value: Any) -> bool:
    """An int or a finite float: never a bool, NaN or Infinity."""
    return type(value) in (int, float) and math.isfinite(value)


def _is_numbers(value: Any, n: int) -> bool:
    return (isinstance(value, list) and len(value) == n
            and all(_is_number(v) for v in value))


def _expect(ok: bool, key: str, expected: str, value: Any) -> None:
    if not ok:
        raise ValueError(f"{key}: expected {expected}, "
                         f"got {json.dumps(value, default=repr)}")


def _field_from_json(ftype: str, key: str, value: Any):
    """One field's value from JSON, checked against its annotation. Numbers are
    kept as given (an int stays an int), so records show them as written."""
    if ftype == "Mode":
        try:
            return Mode(value)
        except ValueError:
            raise ValueError(f"{key}: unknown mode {value!r}") from None
    if ftype in _SECTIONS:
        return _dataclass_from_dict(_SECTIONS[ftype], value, key)
    if ftype == "int":
        _expect(type(value) is int, key, "an integer", value)
    elif ftype == "float":
        _expect(_is_number(value), key, "a finite number", value)
    elif ftype == "tuple[float, float]":
        _expect(_is_numbers(value, 2), key, "a list of 2 finite numbers", value)
        value = tuple(value)
    elif ftype == "tuple[tuple[float, float, float], ...]":
        _expect(isinstance(value, list) and all(_is_numbers(c, 3) for c in value),
                key, "a list of [weight, lo, hi] lists of finite numbers", value)
        value = tuple(tuple(c) for c in value)
    return value


def _dataclass_from_dict(cls, data: Any, key: str):
    _expect(isinstance(data, dict), key, "a JSON object", data)
    prefix = "" if key == "config" else key + "."
    types = {f.name: f.type for f in dc_fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config key(s): "
                         + ", ".join(sorted(prefix + k for k in unknown)))
    return cls(**{name: _field_from_json(types[name], prefix + name, value)
                  for name, value in data.items()})


def config_from_dict(data: dict[str, Any]) -> CorridorConfig:
    """Build a config from a JSON-style dict. Unknown keys and wrongly typed
    values are a ValueError naming the key."""
    return _dataclass_from_dict(CorridorConfig, data, "config")


def load_config(path: str) -> CorridorConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_to_dict(config: CorridorConfig) -> dict[str, Any]:
    """Inverse of config_from_dict (tuples become JSON lists)."""
    def convert(value):
        if isinstance(value, Mode):
            return value.value
        if is_dataclass(value):
            return {f.name: convert(getattr(value, f.name)) for f in dc_fields(value)}
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value
    return convert(config)


def replace_config(config: CorridorConfig, **changes: Any) -> CorridorConfig:
    """Copy the config with top-level field changes (sub-params are shared)."""
    return replace(config, **changes)
