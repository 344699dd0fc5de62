"""Car-following dynamics on a per-direction ring, plus the driver-alert response.

Vehicles recirculate on a closed ring (one per travel direction) so traffic
density stays constant. Longitudinal control is the Intelligent Driver Model;
an active message sign switches the desired speed to the caution setpoint
after a perception-reaction delay, and alerted drivers may apply emergency
braking when an animal is on the road ahead.
"""

from __future__ import annotations

import ctypes
import importlib.resources
import math
import os
import subprocess
import tempfile
import warnings
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .animals import AnimalState
    from .config import GeometryParams

# Gap used when a vehicle has no leader, so the car-following law stays total.
FREE_ROAD_GAP = 1.0e6


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
        for name in ("s0", "T", "a_max", "b_conf", "delta", "a_em", "v_cruise",
                     "v_caution", "t_react"):
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
        # The new x first: a ring length of 0 raises here, before any write.
        v.x, v.v = (v.x + nv * dt * v.direction) % road_length, nv


class VehicleOverlap(ValueError):
    """A follower's bumper gap to its leader reached zero ``step`` steps into
    a ``Fleet.advance`` call."""

    def __init__(self, step: int, follower: VehicleState, leader: VehicleState):
        super().__init__(f"vehicles {follower.vid} and {leader.vid} overlap")
        self.step = step
        self.follower = follower
        self.leader = leader


class Fleet:
    """One trial's vehicles and the compiled kernel's buffer that steps them.

    The buffer takes the leaders, directions and IDM parameters once, and x
    and v once; then only the kernel writes x and v, and ``advance`` copies
    them into the ``VehicleState`` objects after each call, for the readers
    of the vehicles. Where the compiled kernel is unavailable, or leaves
    steps to the Python body, the Python body steps the objects, and the
    buffer is reloaded from them before the next kernel call.
    """

    def __init__(self, vehicles: list[VehicleState], p: IdmParams, dt: float,
                 road_length: float, vehicle_length: float):
        self.vehicles = vehicles
        self.p = p
        self.dt = dt
        self.road_length = road_length
        self.vehicle_length = vehicle_length
        # Whether some ``emergency_braking`` flag may be set.
        self.braked = True
        self.kernel = load_kernel()
        if self.kernel:
            n = len(vehicles)
            self.lead = (ctypes.c_long * n)(*(v.leader for v in vehicles))
            self.brake = (ctypes.c_ubyte * n)()
            self.buf = (ctypes.c_double * (_STATE + 5 * n))(
                p.s0, p.T, p.a_max, p.delta, -p.a_em,
                2.0 * math.sqrt(p.a_max * p.b_conf), dt, road_length,
                vehicle_length, FREE_ROAD_GAP, *(v.direction for v in vehicles))
            # Pointers as addresses, which convert fastest.
            self.addresses = (ctypes.addressof(self.lead),
                              ctypes.addressof(self.brake),
                              ctypes.addressof(self.buf))
            # The x and v slots, read back as one list after each call.
            self.state = memoryview(self.buf).cast("B").cast("d")[
                _STATE + n:_STATE + 3 * n]
            self.stale = True    # x and v are still to be written

    def advance(self, n_steps: int, v0: float,
                brake: Optional[list[bool]] = None) -> None:
        """``n_steps`` rounds of ``idm_acceleration`` at desired speed ``v0``
        plus ``step_vehicles``. ``brake`` is None, or one flag per vehicle:
        a flagged driver brakes at ``-a_em`` in place of its IDM
        acceleration, on every step, after the same overlap check and the
        same arithmetic.

        Sets each ``emergency_braking`` to its flag (False without flags);
        raises VehicleOverlap on a gap <= 0, leaving the vehicles as they
        were before that step.

        The steps run in the compiled kernel (``load_kernel``) where it
        loads. The Python body below is its reference and its fallback: it
        takes every step from the first one the kernel leaves to it, so
        errors are raised here, as they would be without the kernel.
        """
        vehicles = self.vehicles
        if brake is not None or self.braked:
            for v, flag in zip(vehicles, brake or [False] * len(vehicles)):
                v.emergency_braking = flag
            self.braked = brake is not None
        first = 0
        kernel = self.kernel
        if kernel:
            n = len(self.lead)
            if self.stale:
                self.state[:] = array("d", [v.x for v in vehicles]
                                      + [v.v for v in vehicles])
                self.stale = False
            lead_at, brake_at, buf_at = self.addresses
            if brake is None:
                brake_at = None
            else:
                self.brake[:] = brake
            first = kernel(n, n_steps, v0, lead_at, brake_at, buf_at)
            state = self.state.tolist()
            for v, x, speed in zip(vehicles, state, state[n:]):
                v.x = x
                v.v = speed
            if first >= n_steps:
                return
            self.stale = True
        p = self.p
        road_length = self.road_length
        vehicle_length = self.vehicle_length
        for step in range(first, n_steps):
            accels = []
            for i, v in enumerate(vehicles):
                if v.leader < 0:
                    gap = FREE_ROAD_GAP
                    dv = 0.0
                else:
                    lead = vehicles[v.leader]
                    gap = ((lead.x - v.x) * v.direction) % road_length - vehicle_length
                    if gap <= 0.0:
                        raise VehicleOverlap(step, v, lead)
                    dv = v.v - lead.v
                a = idm_acceleration(v.v, v0, dv, gap, p)
                accels.append(-p.a_em if brake is not None and brake[i] else a)
            step_vehicles(vehicles, accels, self.dt, road_length)


def advance_idm(vehicles: list[VehicleState], n_steps: int, v0: float,
                p: IdmParams, dt: float, road_length: float,
                vehicle_length: float) -> None:
    """``n_steps`` non-braking steps of ``vehicles`` at desired speed ``v0``:
    ``Fleet.advance`` on a fleet of its own, which clears
    ``emergency_braking`` and raises VehicleOverlap as it does."""
    Fleet(vehicles, p, dt, road_length, vehicle_length).advance(n_steps, v0)


# The command that builds the compiled kernel: no fused multiply-add and no
# builtin pow, so that each float operation is the reference functions'.
CC = ("cc", "-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")

# The kernel buffer's parameter count: x and v start at ``_STATE + n``.
_STATE = 10

# This process's compiled kernel: None until the first ``load_kernel``, then
# the loaded function, or False where it could not be built or loaded.
_kernel = None


def load_kernel():
    """The compiled vehicle kernel: on the first call in a process, the C
    source shipped with the package is compiled with ``CC`` into a private
    temporary directory and loaded with ``ctypes``. Where that fails, warns
    once with the reason and returns False; ``Fleet.advance`` then runs its
    Python body, which gives the same bits."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build_kernel()
        except subprocess.CalledProcessError as exc:
            _kernel = _no_kernel(f"{exc.cmd[0]} exited with code {exc.returncode}: "
                                 f"{exc.stderr.strip()}")
        except OSError as exc:
            _kernel = _no_kernel(str(exc))
    return _kernel


def _no_kernel(reason: str) -> bool:
    warnings.warn(f"the compiled vehicle kernel is unavailable ({reason}); "
                  "using the Python kernel, which is slower", RuntimeWarning,
                  stacklevel=3)
    return False


def _build_kernel():
    source = importlib.resources.files(__package__).joinpath("advance_idm.c")
    with tempfile.TemporaryDirectory(prefix="wvcsim-") as tmp:
        src = os.path.join(tmp, "advance_idm.c")
        lib = os.path.join(tmp, "advance_idm.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(source.read_text(encoding="utf-8"))
        subprocess.run([*CC, "-o", lib, src, "-lm"], check=True,
                       capture_output=True, text=True)
        # The loaded library outlives its file.
        fn = ctypes.CDLL(lib).advance_idm
    fn.argtypes = (ctypes.c_long, ctypes.c_long, ctypes.c_double,
                   ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p)
    fn.restype = ctypes.c_long
    return fn


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
