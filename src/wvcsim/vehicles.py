"""Car-following dynamics on a per-direction ring, plus the driver-alert response.

Vehicles recirculate on a closed ring (one per travel direction) so traffic
density stays constant. Longitudinal control is the Intelligent Driver Model;
an active message sign switches the desired speed to the caution setpoint
after a perception-reaction delay, and alerted drivers may apply emergency
braking when an animal is on the road ahead.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .animals import AnimalState
    from .config import GeometryParams

# Gap used when a vehicle has no leader, so the car-following law stays total.
FREE_ROAD_GAP = 1.0e6

# Bytes of vehicle states the cruise table may hold in one process. A row costs
# 16 bytes per vehicle (128 B for the default 8), so this covers 7.28 h at
# dt = 0.1 s; a trial that runs past it integrates its vehicles from there.
CRUISE_TABLE_MAX_BYTES = 32 * 1024 * 1024

_IDM_FIELDS = ("s0", "T", "a_max", "b_conf", "delta", "a_em", "v_cruise",
               "v_caution", "t_react")


@dataclass
class IdmParams:
    """Intelligent Driver Model parameters plus the driver-response constants."""

    s0: float = 5.0            # jam distance, m
    T: float = 1.5             # time headway, s
    a_max: float = 2.5         # max acceleration, m/s^2
    b_conf: float = 4.0        # comfortable deceleration, m/s^2
    delta: float = 4.0         # free-flow exponent
    a_em: float = 9.0          # emergency deceleration cap, m/s^2
    v_cruise: float = 27.78    # desired speed, m/s (100 km/h)
    v_caution: float = 8.33    # alerted desired speed, m/s (30 km/h)
    t_react: float = 1.5       # perception-reaction time, s

    def validate(self) -> list[str]:
        problems = []
        for name in _IDM_FIELDS:
            if getattr(self, name) <= 0:
                problems.append(f"idm.{name}: must be positive")
        if self.v_caution >= self.v_cruise:
            problems.append("idm.v_caution: must be below v_cruise")
        if self.a_em <= self.b_conf:
            problems.append("idm.a_em: must exceed b_conf")
        return problems


@dataclass
class VehicleState:
    """One vehicle on the ring. ``x`` wraps modulo road length; ``v`` never goes negative."""

    vid: int
    x: float
    v: float
    direction: int             # +1 or -1 along the road axis
    lane: int
    emergency_braking: bool = False
    leader: int = -1           # ring leader's index in the trial's list; -1 for none


def desired_gap(v: float, dv: float, p: IdmParams) -> float:
    """Desired gap s* to the leader; clamped at zero if the closing term goes negative."""
    s_star = p.s0 + v * p.T + v * dv / (2.0 * math.sqrt(p.a_max * p.b_conf))
    return s_star if s_star > 0.0 else 0.0


def idm_acceleration(v: float, v0: float, dv: float, s: float, p: IdmParams) -> float:
    """IDM acceleration; ``s`` must be positive (use FREE_ROAD_GAP when no leader)."""
    if s <= 0.0:
        raise ValueError(f"non-positive gap {s}: vehicles may not interpenetrate")
    s_star = desired_gap(v, dv, p)
    a = p.a_max * (1.0 - (v / v0) ** p.delta - (s_star / s) ** 2)
    return a if a > -p.a_em else -p.a_em


def step_vehicles(vehicles: list[VehicleState], accels: list[float], dt: float,
                  road_length: float) -> None:
    """Semi-implicit Euler update of every vehicle: speed first (floored at 0),
    then position on the ring."""
    for v, a in zip(vehicles, accels):
        nv = v.v + a * dt
        if nv < 0.0:
            nv = 0.0
        v.v = nv
        v.x = (v.x + nv * dt * v.direction) % road_length


class VehicleOverlap(ValueError):
    """A follower's bumper gap to its leader reached zero ``step`` steps into
    an ``advance_idm`` stretch."""

    def __init__(self, step: int, follower: VehicleState, leader: VehicleState):
        super().__init__(f"vehicles {follower.vid} and {leader.vid} overlap")
        self.step = step
        self.follower = follower
        self.leader = leader


def advance_idm(vehicles: list[VehicleState], n_steps: int, v0: float,
                p: IdmParams, dt: float, road_length: float, vehicle_length: float,
                rows: Optional[array] = None) -> None:
    """``n_steps`` rounds of ``idm_acceleration`` at desired speed ``v0`` plus
    ``step_vehicles``, for steps on which no driver brakes for an animal.

    The IDM formula is inlined with its constants hoisted, but every float
    operation keeps the order of ``desired_gap``/``idm_acceleration`` and
    ``step_vehicles``, so the result is bit-identical to the per-step path.
    Each step reads one snapshot of positions and speeds and writes the next
    into a second buffer; when ``rows`` is given, each step then appends its
    positions and its speeds to it. Clears ``emergency_braking``; raises
    VehicleOverlap on a gap <= 0, leaving the vehicles as they were before
    that step.
    """
    for v in vehicles:
        v.emergency_braking = False
    s0, T, a_max, delta = p.s0, p.T, p.a_max, p.delta
    a_floor = -p.a_em
    closing = 2.0 * math.sqrt(p.a_max * p.b_conf)
    # (vehicle, leader or -1, direction) in list order, the per-step path's
    # order, so an overlap names the same pair.
    links = [(i, v.leader, v.direction) for i, v in enumerate(vehicles)]
    xs = [v.x for v in vehicles]
    vs = [v.v for v in vehicles]
    next_xs = xs[:]
    next_vs = vs[:]
    try:
        for step in range(n_steps):
            for i, j, d in links:
                x = xs[i]
                v = vs[i]
                if j < 0:
                    gap = FREE_ROAD_GAP
                    dv = 0.0
                else:
                    gap = ((xs[j] - x) * d) % road_length - vehicle_length
                    if gap <= 0.0:
                        raise VehicleOverlap(step, vehicles[i], vehicles[j])
                    dv = v - vs[j]
                s_star = s0 + v * T + v * dv / closing
                if s_star <= 0.0:
                    s_star = 0.0
                a = a_max * (1.0 - (v / v0) ** delta - (s_star / gap) ** 2)
                nv = v + (a if a > a_floor else a_floor) * dt
                if nv < 0.0:
                    nv = 0.0
                next_vs[i] = nv
                next_xs[i] = (x + nv * dt * d) % road_length
            xs, next_xs = next_xs, xs
            vs, next_vs = next_vs, vs
            if rows is not None:
                rows.extend(xs)
                rows.extend(vs)
    finally:
        for vehicle, x, v in zip(vehicles, xs, vs):
            vehicle.x, vehicle.v = x, v


def cruise_key(vehicles: list[VehicleState], p: IdmParams, dt: float,
               road_length: float, vehicle_length: float) -> tuple:
    """Everything the unalerted trajectory of ``vehicles`` depends on: each
    vehicle's start x, v, direction and leader index, the IDM parameters, the
    time step and the ring."""
    starts = tuple((v.x, v.v, v.direction, v.leader) for v in vehicles)
    idm = tuple(getattr(p, name) for name in _IDM_FIELDS)
    return starts, idm, dt, road_length, vehicle_length


# This process's last cruise trajectory: (key, rows asked for, rows).
_cruise: Optional[tuple[tuple, int, array]] = None


def cruise_rows(vehicles: list[VehicleState], p: IdmParams, dt: float,
                road_length: float, vehicle_length: float, n_rows: int) -> array:
    """The cruise trajectory of ``vehicles``' start state: every vehicle's
    (x, v) after r = 0, 1, ... rounds of ``advance_idm`` at cruise speed, row
    r holding the n positions, then the n speeds, in one flat ``array('d')``.

    Each process keeps the last array it built and returns it again for the
    same ``cruise_key`` when it was built for at least ``n_rows`` rows;
    otherwise it builds one from row 0, on vehicles made from the key alone,
    to ``n_rows`` rows or as many as CRUISE_TABLE_MAX_BYTES holds. Where the
    kernel finds an overlap, the rows end at the row where the gap closed.
    """
    global _cruise
    key = cruise_key(vehicles, p, dt, road_length, vehicle_length)
    if _cruise is not None and _cruise[0] == key and _cruise[1] >= n_rows:
        return _cruise[2]
    # The kernel reads no lane.
    own = [VehicleState(vid=i, x=x, v=v, direction=d, lane=0, leader=j)
           for i, (x, v, d, j) in enumerate(key[0])]
    rows = array("d", [v.x for v in own] + [v.v for v in own])
    n_steps = n_rows - 1
    if own:
        n_steps = min(n_steps, CRUISE_TABLE_MAX_BYTES // (16 * len(own)) - 1)
    try:
        advance_idm(own, n_steps, p.v_cruise, p, dt, road_length, vehicle_length,
                    rows=rows)
    except VehicleOverlap:
        pass
    _cruise = (key, n_rows, rows)
    return rows


def load_row(vehicles: list[VehicleState], rows: array, row: int) -> bool:
    """Copy row ``row`` of a cruise trajectory into ``vehicles``. Returns
    False, and leaves the vehicles as they were, past its last row."""
    n = len(vehicles)
    base = 2 * n * row
    if base + 2 * n > len(rows):
        return False
    for i, vehicle in enumerate(vehicles):
        vehicle.x = rows[base + i]
        vehicle.v = rows[base + n + i]
    return True


@dataclass
class DriverAlert:
    """The drivers' response to the message sign.

    The sign is corridor-wide, so one instance per trial serves every driver.
    The caution setpoint takes effect once the sign has been visible for the
    perception-reaction time; deactivation reverts to cruise immediately.
    """

    onset: Optional[float] = None
    alerted: bool = False

    def update(self, dms_active: bool, now: float, p: IdmParams) -> None:
        if dms_active:
            if self.onset is None:
                self.onset = now
            if not self.alerted and now - self.onset >= p.t_react:
                self.alerted = True
        else:
            self.onset = None
            self.alerted = False

    def desired_speed(self, p: IdmParams) -> float:
        return p.v_caution if self.alerted else p.v_cruise


def stopping_envelope(v: float, p: IdmParams) -> float:
    """Kinematic stopping envelope: braking distance at b_conf plus reaction travel."""
    return v * v / (2.0 * p.b_conf) + v * p.t_react


def emergency_brake_needed(vehicle: VehicleState, animals: Iterable["AnimalState"],
                           geometry: "GeometryParams", p: IdmParams,
                           road_length: float) -> bool:
    """True when the driver faces an animal on its lane, ahead, inside the
    kinematic stopping envelope.

    Only alerted drivers brake for animals: the engine calls this only while
    the drivers are alerted, and passes only the animals on the carriageway
    (0 < y <= road width), the ones this test can brake for.

    The scan band is the vehicle's own lane (padded by the animal radius), so
    vehicles clear of the crossing path roll through instead of stopping
    inside it. Animals holding at the road edge (y = 0) do not trigger
    braking; animals on the carriageway do. A standstill zone of the jam
    distance ahead of the bumper keeps a stopped vehicle from creeping into
    an animal still crossing in front of it.
    """
    reach = stopping_envelope(vehicle.v, p)
    hold_zone = p.s0 + geometry.vehicle_length / 2.0 + geometry.animal_radius
    if reach < hold_zone:
        reach = hold_zone
    road_width = geometry.road_width
    band = geometry.lane_width / 2.0 + geometry.animal_radius
    centre = geometry.lane_centre(vehicle.lane)
    vx = vehicle.x
    sign = vehicle.direction
    for a in animals:
        if 0.0 < a.y <= road_width and abs(a.y - centre) < band:
            ahead = ((a.x - vx) * sign) % road_length
            if ahead < reach:
                return True
    return False


def link_ring_leaders(vehicles: list[VehicleState], road_length: float) -> None:
    """Assign each vehicle its leader on the same directional ring.

    Ring order is fixed for the whole trial: IDM keeps followers behind their
    leaders, so the neighbour assignment never changes.
    """
    for direction in (1, -1):
        group = [i for i, v in enumerate(vehicles) if v.direction == direction]
        if len(group) < 2:
            for i in group:
                vehicles[i].leader = -1
            continue
        # Sort in travel order so group[m+1] is directly ahead of group[m].
        group.sort(key=lambda i: vehicles[i].x * direction)
        n = len(group)
        for m, i in enumerate(group):
            vehicles[i].leader = group[(m + 1) % n]
