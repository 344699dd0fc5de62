"""Car-following dynamics on a per-direction ring, the driver-alert response,
and the scans that set animals against the vehicles.

Vehicles recirculate on a closed ring (one per travel direction) so traffic
density stays constant. Longitudinal control is the Intelligent Driver Model;
an active message sign switches the desired speed to the caution setpoint
after a perception-reaction delay, and alerted drivers may apply emergency
braking when an animal is on the road ahead. An animal's threat tests and
the contact test read the vehicles.

A trial's vehicles live in one ``Fleet``, whose buffer is their only state:
the ``VehicleState`` objects it is built from are the initial condition. The
fleet steps and scans the buffer in the compiled kernel, or in Python; the
module functions here are the references, on lists of ``VehicleState``.
"""

from __future__ import annotations

import importlib.resources
import math
import os
import sys
import subprocess
import tempfile
import warnings
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .animals import AnimalState, BehaviourParams
    from .config import GeometryParams

# Gap used when a vehicle has no leader, so the car-following law stays total.
FREE_ROAD_GAP = 1.0e6

# Proximity at which an emergency-braking vehicle counts as a dangerous
# interaction for a crossing animal.
BRAKING_INTERACTION_DISTANCE = 50.0


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


def closing_term(p: IdmParams) -> float:
    """The desired gap's closing-speed divisor, 2 * sqrt(a_max * b_conf)."""
    return 2.0 * math.sqrt(p.a_max * p.b_conf)


def desired_gap(v: float, dv: float, p: IdmParams,
                closing: Optional[float] = None) -> float:
    """Desired gap s* to the leader; clamped at zero if the closing term goes
    negative. ``closing`` is ``closing_term(p)``, worked out here unless
    given."""
    if closing is None:
        closing = closing_term(p)
    s_star = p.s0 + v * p.T + v * dv / closing
    return s_star if s_star > 0.0 else 0.0


def idm_acceleration(v: float, v0: float, dv: float, s: float, p: IdmParams,
                     closing: Optional[float] = None) -> float:
    """IDM acceleration; ``s`` must be positive (use FREE_ROAD_GAP when no leader).
    ``closing`` is handed to ``desired_gap``.

    The powers are products, as in the compiled kernel: ``(s*/s) ** 2`` is
    ``r * r`` and, for delta 4, ``(v/v0) ** 4`` is ``(b * b) * (b * b)``; any
    other delta takes ``**``. OverflowError is raised where ``**`` raises
    it: where a finite base's power is infinite. An infinite or NaN base
    passes through.
    """
    if s <= 0.0:
        raise ValueError(f"non-positive gap {s}: vehicles may not interpenetrate")
    s_star = desired_gap(v, dv, p, closing)
    b = v / v0
    if p.delta == 4.0:
        f = b * b
        f *= f
    else:
        f = b ** p.delta
    r = s_star / s
    q = r * r
    if f == math.inf and math.isfinite(b) or q == math.inf and math.isfinite(r):
        raise OverflowError(f"an IDM power overflows: v/v0 = {b!r}, s*/s = {r!r}")
    a = p.a_max * (1.0 - f - q)
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
    a ``Fleet.advance`` call; ``follower`` and ``leader`` are the two
    vehicles' indices."""

    def __init__(self, step: int, follower: int, leader: int):
        super().__init__(f"vehicles {follower} and {leader} overlap")
        self.step = step
        self.follower = follower
        self.leader = leader


class Fleet:
    """One trial's vehicles, held in one buffer, and the steps and scans
    that read it.

    The buffer ``buf`` (its slots in advance_idm.c) is the vehicles' only
    state. It takes the IDM, brake-test, threat and contact parameters, the
    directions and lane centres, and x, v and the ``emergency_braking``
    flags of the ``VehicleState`` objects once, at construction: those
    objects are the initial condition, and nothing writes them back.
    ``snapshot`` builds new ones from the buffer on request. Directions,
    leaders and lanes are fixed for the fleet's life, and a vehicle is
    named by its index in the list the fleet was built from.

    ``advance`` steps x, v and the flags in the buffer: in the compiled
    kernel (``load_kernel``) where it loads, and in its Python body where
    the kernel is unavailable or leaves it steps. The scans
    ``threat_present``, ``crossing_dangers`` and ``detect_collisions`` read
    the buffer in the kernel too; without it, or where it leaves a case to
    the reference, they ask the module function of the same name about a
    snapshot, with the fleet's own thresholds and ring.
    """

    def __init__(self, vehicles: list[VehicleState], p: IdmParams, dt: float,
                 road_length: float, geometry: "GeometryParams",
                 behaviour: "BehaviourParams"):
        self.p = p
        self.road_length = road_length
        self.geometry = geometry
        self.behaviour = behaviour
        self.kernel = load_kernel()
        # Each vehicle's fixed attributes, for ``snapshot``.
        self.fixed = [(v.vid, v.direction, v.lane, v.leader) for v in vehicles]
        self.lead = array("l", [v.leader for v in vehicles])
        # The kernel's slots (advance_idm.c): the parameters, then n each of
        # directions, lane centres, x, v, two of scratch and brake flags.
        self.buf = array("d", [
            p.s0, p.T, p.a_max, p.delta, -p.a_em, closing_term(p), dt, road_length,
            geometry.vehicle_length, FREE_ROAD_GAP, 2.0 * p.b_conf, p.t_react,
            *brake_zone(geometry, p), *contact_zone(geometry), geometry.road_width,
            behaviour.v_threat, behaviour.t_threat, behaviour.near_pass_distance,
            BRAKING_INTERACTION_DISTANCE])
        for values in ([v.direction for v in vehicles],
                       [geometry.lane_centre(v.lane) for v in vehicles],
                       [v.x for v in vehicles], [v.v for v in vehicles],
                       [0.0] * (2 * len(vehicles)),
                       [v.emergency_braking for v in vehicles]):
            self.buf.extend(values)

    def snapshot(self) -> list[VehicleState]:
        """The vehicles as the buffer holds them now, as new ``VehicleState``
        objects, for the reference functions, tests and observers."""
        n = len(self.fixed)
        x = _STATE + 2 * n
        return [VehicleState(vid, xi, vi, direction, lane, flag != 0.0, leader)
                for (vid, direction, lane, leader), xi, vi, flag in zip(
                    self.fixed, self.buf[x:x + n], self.buf[x + n:x + 2 * n],
                    self.buf[x + 4 * n:])]

    def advance(self, n_steps: int, v0: float,
                animals: Optional[list["AnimalState"]] = None) -> None:
        """``n_steps`` rounds of ``idm_acceleration`` at desired speed ``v0``
        plus ``step_vehicles``. With ``animals``, the last step is a braking
        step: from that step's pre-step snapshot, each driver for whom
        ``emergency_brake_needed`` holds for ``animals`` brakes at ``-a_em``
        in place of its IDM acceleration, after the same overlap check and
        the same arithmetic.

        Sets each brake flag to its driver's test on the braking step (False
        without one); raises VehicleOverlap on a gap <= 0, leaving the
        vehicles as they were before that step.

        The steps run in the compiled kernel (``load_kernel``) where it
        loads. The Python body below is its reference and its fallback: it
        takes every step from the first one the kernel leaves to it, so
        errors are raised here, as they would be without the kernel.
        """
        buf, lead, p = self.buf, self.lead, self.p
        first = 0
        if self.kernel:
            first = self.kernel.advance(buf, lead, n_steps, v0, animals)
            if first >= n_steps:
                return
        n = len(lead)
        # The slots DT to FREE_GAP; the closing term from ``p`` as it stands.
        dt, L, length, free_gap = buf[6:10]
        closing = closing_term(p)
        dirs = buf[_STATE:_STATE + n]
        x, flags = _STATE + 2 * n, _STATE + 6 * n
        brake = [False] * n
        buf[flags:] = array("d", brake)
        for step in range(first, n_steps):
            if animals is not None and step == n_steps - 1:
                brake = [emergency_brake_needed(v, animals, self.geometry, p, L)
                         for v in self.snapshot()]
                buf[flags:] = array("d", brake)
            xs, vs = buf[x:x + n], buf[x + n:x + 2 * n]
            nvs = []
            for i in range(n):
                xi, vi, j = xs[i], vs[i], lead[i]
                if j < 0:
                    a = idm_acceleration(vi, v0, 0.0, free_gap, p, closing)
                else:
                    gap = ((xs[j] - xi) * dirs[i]) % L - length
                    if gap <= 0.0:
                        raise VehicleOverlap(step, i, j)
                    a = idm_acceleration(vi, v0, vi - vs[j], gap, p, closing)
                nv = vi + (-p.a_em if brake[i] else a) * dt
                nvs.append(0.0 if nv < 0.0 else nv)
            buf[x:x + 2 * n] = array("d", [(xi + nv * dt * d) % L for xi, nv, d
                                           in zip(xs, nvs, dirs)] + nvs)

    def threat_present(self, animal: "AnimalState") -> bool:
        """``threat_present`` for this fleet."""
        if self.kernel:
            found = self.kernel.threat_present(self.buf, animal.x)
            if found is not None:
                return found
        return threat_present(animal, self.snapshot(), self.behaviour, self.road_length)

    def crossing_dangers(self, animal: "AnimalState") -> list[int]:
        """``crossing_dangers`` for this fleet."""
        if self.kernel:
            found = self.kernel.crossing_dangers(self.buf, animal.x)
            if found is not None:
                return found
        return crossing_dangers(animal, self.snapshot(), self.behaviour, self.road_length)

    def detect_collisions(self, animals: list["AnimalState"]) -> list[tuple[int, int]]:
        """``detect_collisions`` for this fleet."""
        if self.kernel:
            found = self.kernel.detect_collisions(self.buf, animals)
            if found is not None:
                return found
        return detect_collisions(self.snapshot(), animals, self.geometry, self.road_length)


# The command that builds the compiled kernel, an extension module of this
# interpreter: no fused multiply-add, and no builtin pow or fmod (the pow of
# a delta other than 4, and the remainder's slow path), so that each float
# operation is the reference functions'. ``build_command`` completes it.
CC = ("cc", "-O2", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")

# The kernel buffer's first vehicle slot (advance_idm.c): the directions
# start at ``_STATE``, x and v at ``_STATE + 2 * n``.
_STATE = 21

# This process's compiled kernel: None until the first ``load_kernel``, then
# the extension module, or False where it could not be built or loaded.
_kernel = None


def load_kernel():
    """The compiled kernel: on the first call in a process, the C source
    shipped with the package is compiled with ``build_command`` into a
    private temporary directory and imported as an extension module, which
    is returned. Its entries serve ``Fleet`` (``advance`` and the three
    scans) and ``detection.Detector`` (``detect``, which draws through
    numpy's bit generator). Where the build or import fails, warns once with
    the reason and returns False; both then run in Python, which gives the
    same bits and draws."""
    global _kernel
    if _kernel is None:
        try:
            _kernel = _build_kernel()
        except subprocess.CalledProcessError as exc:
            _kernel = _no_kernel(f"{exc.cmd[0]} exited with code {exc.returncode}: "
                                 f"{exc.stderr.strip()}")
        except (OSError, ImportError) as exc:
            _kernel = _no_kernel(str(exc))
    return _kernel


def _no_kernel(reason: str) -> bool:
    warnings.warn(f"the compiled vehicle kernel is unavailable ({reason}); "
                  "using the Python kernel, which is slower", RuntimeWarning,
                  stacklevel=3)
    return False


def build_command(source: str, target: str) -> list[str]:
    """The command that compiles ``source`` into the extension ``target``:
    ``CC`` with this interpreter's include directory and numpy's, for
    ``numpy/random/bitgen.h`` alone (no numpy library is linked). On macOS
    the Python C-API symbols are left for the interpreter to resolve on
    import, since its linker rejects undefined symbols by default."""
    import sysconfig
    import numpy
    darwin = ["-undefined", "dynamic_lookup"] if sys.platform == "darwin" else []
    return [*CC, *darwin, "-I", sysconfig.get_paths()["include"],
            "-I", numpy.get_include(), "-o", target, source, "-lm"]


def _build_kernel():
    import importlib.machinery
    import importlib.util
    source = importlib.resources.files(__package__).joinpath("advance_idm.c")
    with tempfile.TemporaryDirectory(prefix="wvcsim-") as tmp:
        src = os.path.join(tmp, "advance_idm.c")
        lib = os.path.join(tmp, "advance_idm.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(source.read_text(encoding="utf-8"))
        subprocess.run(build_command(src, lib), check=True, capture_output=True,
                       text=True)
        # The loaded module outlives its file.
        loader = importlib.machinery.ExtensionFileLoader("advance_idm", lib)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader("advance_idm", loader))
        loader.exec_module(module)
    return module


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
            if not self.alerted and self.reacted(now, p):
                self.alerted = True
        else:
            self.onset = None
            self.alerted = False

    def reacted(self, now: float, p: IdmParams) -> bool:
        """Whether the sign, lit since ``onset``, has been visible for the
        perception-reaction time at ``now``: the test ``update`` alerts on.
        Once true it stays true, so a search can find the step it turns."""
        return now - self.onset >= p.t_react

    def desired_speed(self, p: IdmParams) -> float:
        return p.v_caution if self.alerted else p.v_cruise


def stopping_envelope(v: float, p: IdmParams) -> float:
    """Kinematic stopping envelope: braking distance at b_conf plus reaction travel."""
    return v * v / (2.0 * p.b_conf) + v * p.t_react


def brake_zone(geometry: "GeometryParams", p: IdmParams) -> tuple[float, float]:
    """The brake test's hold zone, the least reach ahead, and its lane band,
    the half-width around the lane centre it scans."""
    return (p.s0 + geometry.vehicle_length / 2.0 + geometry.animal_radius,
            geometry.lane_width / 2.0 + geometry.animal_radius)


def emergency_brake_needed(vehicle: VehicleState, animals: Iterable["AnimalState"],
                           geometry: "GeometryParams", p: IdmParams,
                           road_length: float) -> bool:
    """True when the driver faces an animal on its lane, ahead, inside the
    kinematic stopping envelope.

    Only alerted drivers brake for animals, and only for animals on the
    carriageway (0 < y <= road width): the caller passes those alone. The
    engine calls this only while the drivers are alerted, and its candidate
    filter leaves out animals holding at the road edge (y = 0), which no
    driver brakes for.

    The scan band is the vehicle's own lane (padded by the animal radius), so
    vehicles clear of the crossing path roll through instead of stopping
    inside it. A standstill zone of the jam distance ahead of the bumper
    keeps a stopped vehicle from creeping into an animal still crossing in
    front of it.
    """
    reach = stopping_envelope(vehicle.v, p)
    hold_zone, band = brake_zone(geometry, p)
    if reach < hold_zone:
        reach = hold_zone
    centre = geometry.lane_centre(vehicle.lane)
    vx = vehicle.x
    sign = vehicle.direction
    for a in animals:
        if abs(a.y - centre) < band:
            ahead = ((a.x - vx) * sign) % road_length
            if ahead < reach:
                return True
    return False


def contact_zone(geometry: "GeometryParams") -> tuple[float, float]:
    """The contact test's half-widths: along the road, and across it around
    the lane centre."""
    return (geometry.vehicle_length / 2.0 + geometry.animal_radius,
            geometry.vehicle_width / 2.0 + geometry.animal_radius)


def vehicle_is_threat(animal_x: float, vehicle: VehicleState,
                      params: "BehaviourParams", road_length: float) -> bool:
    """One vehicle's threat test.

    A vehicle above the threat speed floor is threatening while it will reach
    the animal within the time horizon, and while it is still within the
    near-pass distance after going by.
    """
    v = vehicle.v
    if v <= params.v_threat:
        return False
    dx = ((animal_x - vehicle.x) * vehicle.direction) % road_length
    if dx < params.t_threat * v:
        return True
    return road_length - dx < params.near_pass_distance


def threat_present(animal: "AnimalState", vehicles: list[VehicleState],
                   params: "BehaviourParams", road_length: float) -> bool:
    """True when any vehicle threatens the animal's road position."""
    ax = animal.x
    for veh in vehicles:
        if vehicle_is_threat(ax, veh, params, road_length):
            return True
    return False


def crossing_dangers(animal: "AnimalState", vehicles: list[VehicleState],
                     params: "BehaviourParams", road_length: float) -> list[int]:
    """The indices, in list order, of the vehicles that a crossing animal
    meets dangerously: each emergency-braking one within
    ``BRAKING_INTERACTION_DISTANCE`` of it, and each other one that is a
    threat."""
    ax = animal.x
    found = []
    for i, veh in enumerate(vehicles):
        if veh.emergency_braking:
            dx = abs(veh.x - ax)
            if min(dx, road_length - dx) >= BRAKING_INTERACTION_DISTANCE:
                continue
        elif not vehicle_is_threat(ax, veh, params, road_length):
            continue
        found.append(i)
    return found


def detect_collisions(vehicles: list[VehicleState], animals: list["AnimalState"],
                      geometry: "GeometryParams",
                      road_length: float) -> list[tuple[int, int]]:
    """(vehicle index, animal id) contact pairs for animals on the
    carriageway, 0 < y <= road width: an animal waiting at the edge (y = 0)
    is never hit."""
    x_thresh, y_thresh = contact_zone(geometry)
    road_width = geometry.road_width
    centres = [geometry.lane_centre(i) for i in range(geometry.n_lanes)]
    pairs = []
    for a in animals:
        if not 0.0 < a.y <= road_width:
            continue
        for i, v in enumerate(vehicles):
            dx = abs(v.x - a.x)
            if min(dx, road_length - dx) < x_thresh and \
                    abs(a.y - centres[v.lane]) < y_thresh:
                pairs.append((i, a.aid))
    return pairs


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
