"""Discrete-time trial engine: phase ordering, collisions, metrics, RNG discipline.

Each step runs a fixed phase order: (1) spawn due arrivals, (2) radar
detection against the previous step's awareness state, (3) awareness and sign
update from the new events, (4) vehicle alert/acceleration/integration from a
synchronous snapshot, (5) animal behaviour, (6) collision check, (7) state
visits and frozen-on-road time. The event totals (road entries, crossings,
collisions, detections, clean exits) are summed after the last step from each
animal's own monotone flags. A trial is a pure function of (config, duration,
trial_id, master_seed).

Idle stretches use a next-event time advance. A step that starts with no
animal present and no arrival due, with the sign off on the last stepped
step, changes nothing but the vehicles: with no animal there is no detection,
broadcast, sign, alert, braking, animal step or collision, and the next thing
that can change any of that is the next scheduled arrival. That last step's
phase 4, the alert's only writer, reset the drivers, so the engine skips every
step up to the one where phase 1 would spawn the arrival (or the end of the
trial) at once, owing the vehicles those steps at cruise speed.

Vehicle steps are owed, not taken, until something reads the vehicles. A step
on which no driver brakes for an animal is one round of the IDM at the
drivers' desired speed, so the engine only counts it (``lag`` steps at
``lag_v0``) and ``settle`` later takes all of them in one call of the trial's
``vehicles.Fleet``, whose buffer the compiled kernel steps where a C compiler
is found, in every mode. That kernel runs the same IDM update and
semi-implicit Euler step as the reference functions, with every float
operation in the same order, so the vehicles come out bit for bit as if
stepped one phase loop at a time; an overlap raises the same error at the
same ``t=``, since the kernel reports the step it found it at. The debt is
settled just before each reader: a braking step (alerted drivers and an
animal on the carriageway); phase 5 when an animal is hesitating, crossing or
frozen, the only activities that look at the vehicles; phase 6 when it runs;
and the end of the trial. It is also settled before the desired speed
changes, so that the owed steps share one speed.

A braking step is one kernel step of its own, after the settle: phase 4 takes
each driver's ``emergency_brake_needed`` from the pre-step snapshot, and a
flagged driver brakes at ``-a_em`` in place of its IDM acceleration. Only
``Fleet.advance`` writes ``emergency_braking``, on every call: a braking step
sets each flag to its driver's brake test, and any other call clears them
all, as a non-braking round does. So a braking step's flags stay set until
the next settle; only a crossing animal reads them, and it settles first.

Three scans skip what they cannot find, each gated on the band of its own
test. Phase 4 makes its brake tests only when an alerted driver has an animal
on the carriageway (0 < y <= road width) to brake for: ``emergency_brake_needed``
brakes for no other, so a step whose road animals all wait at the edge (y = 0)
is one kernel round with every ``emergency_braking`` flag False, and is owed
like any other non-braking step. Phase 6 runs only when phase 5 leaves an
animal inside the contact band (``_contact_band``: the lane centres plus or
minus half a vehicle width and an animal radius, clipped to the road), outside
which ``detect_collisions`` pairs nothing; frozen-on-road time still counts
the whole road, 0 <= y <= road width. Phase 2 skips an animal whose y lies
outside every radar's reach plus 1 m (``_radar_band``): no radar covers it, so
``try_detect`` would draw no random number and record no first-in-range time
for it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .animals import Activity, AnimalState, Arrival, sample_arrivals, step_animal
from .awareness import AwarenessState
from .config import CorridorConfig, Mode, build_corridor
from .detection import DetectionParams, try_detect
# perfbench's tracer wraps idm_acceleration (unused here) at this name.
from .vehicles import (DriverAlert, Fleet, VehicleOverlap, emergency_brake_needed,
                       idm_acceleration)


class EngineInvariantError(RuntimeError):
    """An internal invariant broke mid-trial: an engine bug, not data."""


# Stream tags; behaviour and detection are additionally mode-private.
_STREAM_ARRIVALS = 0
_STREAM_BEHAVIOUR = 1
_STREAM_DETECTION = 2

_MODE_INDEX = {Mode.CONTROL: 0, Mode.DETECTION: 1, Mode.AWARE: 2}


@dataclass
class RngStreams:
    """Independent substreams for one trial.

    The arrivals stream depends on (master_seed, trial_id) only, never on the
    mode, so the Poisson input is bit-identical across compared modes.
    """

    arrivals: np.random.Generator
    behaviour: np.random.Generator
    detection: np.random.Generator

    @classmethod
    def for_trial(cls, master_seed: int, trial_id: int, mode: Mode) -> "RngStreams":
        m = _MODE_INDEX[mode]

        def gen(*spawn_key: int) -> np.random.Generator:
            seq = np.random.SeedSequence(entropy=master_seed, spawn_key=spawn_key)
            return np.random.Generator(np.random.PCG64(seq))

        return cls(
            arrivals=gen(trial_id, _STREAM_ARRIVALS),
            behaviour=gen(trial_id, _STREAM_BEHAVIOUR, m),
            detection=gen(trial_id, _STREAM_DETECTION, m),
        )


def check_duration(name: str, hours: float) -> None:
    """Reject a trial duration, called ``name`` in the error, that is not
    positive and finite."""
    if not (hours > 0 and math.isfinite(hours)):
        raise ValueError(f"{name} must be positive and finite, got {hours!r}")


def _step_count(config: CorridorConfig, duration_hours: float) -> int:
    """The number of steps of a trial lasting ``duration_hours``."""
    check_duration("duration", duration_hours)
    return int(math.ceil(duration_hours * 3600.0 / config.time_step - 1e-9))


def _schedule(config: CorridorConfig, duration_hours: float,
              rng: np.random.Generator) -> tuple[list[Arrival], int]:
    """The step count and the Poisson arrivals due by the last step (the
    trial never spawns later ones)."""
    n_steps = _step_count(config, duration_hours)
    last_now = (n_steps - 1) * config.time_step
    arrivals = sample_arrivals(config.arrival_rate, duration_hours,
                               config.road_length, config.size_scale,
                               config.behaviour, rng)
    return [a for a in arrivals if a.time <= last_now], n_steps


def _stretch_end(schedule: list[Arrival], next_arrival: int, k: int, dt: float,
                 n_steps: int) -> int:
    """Where an idle stretch from step ``k`` ends: ``n_steps`` when no arrival
    is left, else the first step ``j >= k`` at which phase 1 spawns the next
    one, due at ``t``: the first ``j`` with ``t <= j * dt``, the same float
    test. The quotient ``t / dt`` is only the starting guess."""
    if next_arrival == len(schedule):
        return n_steps
    t = schedule[next_arrival].time
    j = max(k, int(t / dt))
    while j > k and t <= (j - 1) * dt:
        j -= 1
    while t > j * dt:
        j += 1
    return j


def make_arrival_schedule(config: CorridorConfig, duration_hours: float,
                          trial_id: int, master_seed: int) -> list[Arrival]:
    """The trial's arrival schedule; independent of the operating mode."""
    streams = RngStreams.for_trial(master_seed, trial_id, config.mode)
    return _schedule(config, duration_hours, streams.arrivals)[0]


@dataclass
class TrialResult:
    """All per-trial outcome metrics."""

    trial_id: int
    mode: Mode
    seed: int
    sim_hours: float
    arrivals: int = 0
    road_entries: int = 0
    crossing_successes: int = 0
    collisions: int = 0
    detected: int = 0
    detectable: int = 0
    mean_in_range_latency: Optional[float] = None
    median_in_range_latency: Optional[float] = None
    frozen_on_road_time: float = 0.0
    state_visit_counts: dict[str, int] = field(default_factory=dict)
    exits_clean: int = 0
    active_at_end: int = 0

    @property
    def collision_rate_per_entry_pct(self) -> Optional[float]:
        if self.road_entries == 0:
            return None
        return 100.0 * self.collisions / self.road_entries

    @property
    def detection_rate_pct(self) -> Optional[float]:
        if self.detectable == 0:
            return None
        return 100.0 * self.detected / self.detectable

    @property
    def crossing_success_rate_pct(self) -> Optional[float]:
        if self.arrivals == 0:
            return None
        return 100.0 * self.crossing_successes / self.arrivals

    def check_invariants(self) -> None:
        problems = []
        if self.collisions > self.road_entries:
            problems.append("collisions exceed road entries")
        if self.crossing_successes > self.road_entries:
            problems.append("crossing successes exceed road entries")
        if not (self.detected <= self.detectable <= self.arrivals):
            problems.append("detected/detectable/arrivals ordering broken")
        if self.exits_clean + self.collisions + self.active_at_end != self.arrivals:
            problems.append("animal conservation broken")
        if self.mode is Mode.CONTROL and self.detected != 0:
            problems.append("detections in Control mode")
        if problems:
            raise EngineInvariantError(
                f"trial {self.trial_id} ({self.mode.value}): " + "; ".join(problems))


def detect_collisions(vehicles, animals, geometry, road_length: float):
    """(vehicle id, animal id) contact pairs for animals on the carriageway,
    0 < y <= road width: an animal waiting at the edge (y = 0) is never hit."""
    x_thresh = geometry.vehicle_length / 2.0 + geometry.animal_radius
    y_thresh = geometry.vehicle_width / 2.0 + geometry.animal_radius
    road_width = geometry.road_width
    centres = [geometry.lane_centre(i) for i in range(geometry.n_lanes)]
    pairs = []
    for a in animals:
        if not 0.0 < a.y <= road_width:
            continue
        for v in vehicles:
            dx = abs(v.x - a.x)
            if min(dx, road_length - dx) < x_thresh and \
                    abs(a.y - centres[v.lane]) < y_thresh:
                pairs.append((v.vid, a.aid))
    return pairs


# The only activities whose step reads the vehicles.
_READERS = frozenset({Activity.HESITATING, Activity.CROSSING, Activity.FROZEN})


def _reads_vehicles(active: list[AnimalState]) -> bool:
    """Whether phase 5 reads the vehicles this step: only a hesitating,
    crossing or frozen animal looks at them."""
    for a in active:
        if a.state in _READERS:
            return True
    return False


def _radar_band(radars, r_det: float) -> tuple[float, float]:
    """The band of y outside which no radar covers an animal: every radar's
    reach plus 1 m, so that ``dy * dy > r_det * r_det`` for every radar
    whatever the rounding. Empty when there is no radar."""
    ys = [node.y for node in radars]
    return (min(ys, default=math.inf) - r_det - 1.0,
            max(ys, default=-math.inf) + r_det + 1.0)


# Far above the rounding of ``abs(a.y - centre)``, far below the 0.45 m
# between the road edge and the first lane's contact band at the defaults.
_CONTACT_MARGIN = 1e-6


def _contact_band(geometry) -> tuple[float, float]:
    """The band of y outside which ``detect_collisions`` pairs no animal with
    any vehicle: the lane centres plus or minus half a vehicle width and an
    animal radius, widened by ``_CONTACT_MARGIN`` so that no rounding pairs
    an animal outside it, and clipped to the road."""
    reach = geometry.vehicle_width / 2.0 + geometry.animal_radius
    centres = [geometry.lane_centre(i) for i in range(geometry.n_lanes)]
    return (max(0.0, min(centres) - reach - _CONTACT_MARGIN),
            min(geometry.road_width, max(centres) + reach + _CONTACT_MARGIN))


def _overlap(trial_id: int, follower, leader, now: float) -> EngineInvariantError:
    return EngineInvariantError(f"trial {trial_id}: vehicles {follower.vid} and "
                                f"{leader.vid} overlap at t={now:.1f}")


def run_trial(config: CorridorConfig, duration_hours: float, trial_id: int,
              master_seed: int) -> TrialResult:
    """Run one trial and return its fully populated result.

    Raises ValueError on an invalid config and EngineInvariantError if any
    internal invariant breaks (which would be an engine bug).
    """
    world = build_corridor(config)
    streams = RngStreams.for_trial(master_seed, trial_id, config.mode)
    schedule, n_steps = _schedule(config, duration_hours, streams.arrivals)
    dt = config.time_step
    result = TrialResult(trial_id=trial_id, mode=config.mode, seed=master_seed,
                         sim_hours=duration_hours, arrivals=len(schedule))
    visits = {a.value: 0 for a in Activity}

    # Hot-loop locals.
    L = config.road_length
    geometry = config.geometry
    idm = config.idm
    behaviour = config.behaviour
    radars = world.radars
    spacing = config.radar_spacing
    det_params = DetectionParams(kappa=config.kappa, r_det=config.radar_range)
    awareness = AwarenessState(config, len(radars))
    beta_for = awareness.beta_for
    vehicles = world.vehicles
    rng_b = streams.behaviour
    rng_d = streams.detection
    radar_lo, radar_hi = _radar_band(radars, det_params.r_det)
    contact_lo, contact_hi = _contact_band(geometry)
    road_width = geometry.road_width
    spawn_y = geometry.spawn_offset
    forage_lo, forage_hi = behaviour.forage_dwell

    active: list[AnimalState] = world.animals
    all_animals: list[AnimalState] = []
    latencies: list[float] = []
    events = []
    next_arrival = 0
    n_schedule = len(schedule)
    frozen_time = 0.0
    fleet = Fleet(vehicles, idm, dt, L, geometry.vehicle_length)
    alert = DriverAlert()
    # The vehicles hold row k - lag: the last ``lag`` steps, none braking and
    # all at desired speed ``lag_v0``, are owed (see the module docstring).
    lag = 0
    lag_v0 = idm.v_cruise
    dms = False  # the sign as phase 3 last computed it

    def settle(row: int, brake: Optional[list[bool]] = None) -> None:
        """Take the owed steps, so that the vehicles hold row ``row``;
        ``brake`` is ``Fleet.advance``'s."""
        nonlocal lag
        if not lag:
            return
        n, lag = lag, 0
        try:
            fleet.advance(n, lag_v0, brake)
        except VehicleOverlap as exc:
            raise _overlap(trial_id, exc.follower, exc.leader,
                           (row - n + exc.step) * dt) from None

    k = 0
    while k < n_steps:
        now = k * dt

        # Idle stretch: owe the vehicles' steps up to the next arrival.
        if not active and not dms:
            k_end = _stretch_end(schedule, next_arrival, k, dt, n_steps)
            if k_end > k:
                lag += k_end - k
                k = k_end
                continue
        k += 1

        # Phase 1: spawn due arrivals.
        while next_arrival < n_schedule and schedule[next_arrival].time <= now:
            arr = schedule[next_arrival]
            animal = AnimalState(aid=next_arrival, x=arr.x, y=spawn_y,
                                 sigma=arr.sigma,
                                 dwell_remaining=rng_b.uniform(forage_lo, forage_hi))
            active.append(animal)
            all_animals.append(animal)
            visits[Activity.FORAGING.value] += 1
            next_arrival += 1

        # Phase 2: detection against the previous step's awareness state,
        # for animals within some radar's reach.
        if active:
            for a in active:
                if not a.detected and radar_lo <= a.y <= radar_hi:
                    ev = try_detect(a, radars, spacing, beta_for, now, dt,
                                    det_params, rng_d)
                    if ev is not None:
                        events.append(ev)
                        latencies.append(a.detected_at - a.first_in_range_at)

        # Phase 3: awareness / sign update from this step's events.
        if events:
            for ev in events:
                awareness.on_detection(ev, radars)
            events.clear()
        dms = awareness.dms_active(active, now)

        # Phase 4: vehicles, synchronously from the pre-step snapshot. A step
        # on which no driver brakes is owed; a braking step settles the debt,
        # then is one kernel step with the brake flags of that snapshot.
        # Alerted drivers brake only for an animal on the carriageway, the
        # band of ``emergency_brake_needed``'s own test.
        alert.update(dms, now, idm)
        v0 = alert.desired_speed(idm)
        candidates = None
        if alert.alerted and active:
            candidates = [a for a in active if 0.0 < a.y <= road_width]
        if candidates or v0 != lag_v0:
            settle(k - 1)
            lag_v0 = v0
        lag += 1
        if candidates:
            settle(k, [emergency_brake_needed(v, candidates, geometry, idm, L)
                       for v in vehicles])

        if _reads_vehicles(active):
            settle(k)
        if not active:
            continue

        # Phase 5: animal behaviour, with state-visit and frozen-time accounting.
        pruned = False
        in_contact = False
        for a in active:
            prev_state = a.state
            step_animal(a, vehicles, dt, behaviour, geometry, L, rng_b)
            st = a.state
            if st is not prev_state:
                visits[st.value] += 1
                if st is Activity.MOVED_AWAY:
                    pruned = True
            y = a.y
            if contact_lo <= y <= contact_hi:
                in_contact = True
            if st is Activity.FROZEN and 0.0 <= y <= road_width:
                frozen_time += dt

        # Phase 6: collisions, only with an animal in the contact band; the
        # animal is removed, the vehicle continues.
        if in_contact:
            settle(k)
            pairs = detect_collisions(vehicles, active, geometry, L)
            if pairs:
                by_id = {a.aid: a for a in active}
                for _vid, aid in pairs:
                    a = by_id[aid]
                    if a.collided:
                        continue
                    a.collided = True
                    a.state = Activity.MOVED_AWAY
                    visits[Activity.MOVED_AWAY.value] += 1
                    pruned = True

        if pruned:
            active = [a for a in active if a.state is not Activity.MOVED_AWAY]

    # Take the steps still owed, so that an overlap in them still raises.
    settle(n_steps)

    # Phase 7 aggregation.
    result.road_entries = sum(1 for a in all_animals if a.entered_road)
    result.crossing_successes = sum(1 for a in all_animals if a.crossed)
    result.collisions = sum(1 for a in all_animals if a.collided)
    result.frozen_on_road_time = frozen_time
    result.detected = sum(1 for a in all_animals if a.detected)
    result.detectable = sum(1 for a in all_animals if a.left_foraging)
    result.exits_clean = sum(1 for a in all_animals
                             if a.state is Activity.MOVED_AWAY and not a.collided)
    result.active_at_end = len(active)
    result.state_visit_counts = visits
    if latencies:
        result.mean_in_range_latency = sum(latencies) / len(latencies)
        result.median_in_range_latency = statistics.median(latencies)
    result.check_invariants()
    return result
