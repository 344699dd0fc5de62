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
animal present, no arrival due and no live sign window (``AwarenessState.quiet``)
changes nothing but the vehicles: with no animal there is no detection,
broadcast, sign, alert, braking, animal step or collision, and the next thing
that can change any of that is the next scheduled arrival. So the engine hands
every step up to the one where phase 1 would spawn it (or the end of the
trial) to ``vehicles.advance_unalerted`` in one call. That kernel runs the same
cruise-speed IDM update and semi-implicit Euler step with every float
operation in the same order, so every output byte is the same as stepping
through the stretch one phase loop at a time.

In a Control trial the vehicles are not integrated at all until the drivers
are first alerted, which only a sign patched on by a test can do: they read
the cruise trajectory, ``vehicles.CruiseTable``, which each process computes
once with that same kernel and shares across trials and seeds. This is exact.
Unalerted drivers read no animal (braking needs an alert), so before the first
alert the vehicles' path depends only on their start state, the IDM
parameters, the time step and the ring, which key the table. The rows are the
kernel's own output, and where the kernel finds an overlap the table ends; a
trial that needs a later row leaves the table there, and the kernel or the
per-step path raises the same error at the same step. An idle stretch on the
table copies the row it ends at, and a busy step copies its row in place of
phase 4. The first alert leaves the table for the rest of the trial, as does
reaching ``CRUISE_TABLE_MAX_BYTES`` (32 MiB, 7.28 h at the defaults); from
there the vehicles integrate step by step.

Detection and Aware trials could read the table up to their first alert, with
the same results, but they integrate from the start. Their first alert comes
at a random time, so reading that prefix would make a trial's cost depend on
its seed: in 0.25 h trials it saved a fifth of the steps on average but
doubled the spread of the benchmark's rates between seeds, and in a 4 h trial
it is about 1.5% of the steps (first alerts 66-846 s in, median about 214 s).
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
from .vehicles import (FREE_ROAD_GAP, DriverAlert, VehicleOverlap,
                       advance_unalerted, cruise_table, emergency_brake_needed,
                       idm_acceleration, step_vehicles)


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


def _schedule(config: CorridorConfig, duration_hours: float,
              rng: np.random.Generator) -> tuple[list[Arrival], int]:
    """The step count and the Poisson arrivals due by the last step (the
    trial never spawns later ones)."""
    if not (duration_hours > 0 and math.isfinite(duration_hours)):
        raise ValueError("duration must be positive and finite, "
                         f"got {duration_hours!r}")
    n_steps = int(math.ceil(duration_hours * 3600.0 / config.time_step - 1e-9))
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
    """(vehicle id, animal id) contact pairs for animals inside the road band."""
    x_thresh = geometry.vehicle_length / 2.0 + geometry.animal_radius
    y_thresh = geometry.vehicle_width / 2.0 + geometry.animal_radius
    road_width = geometry.road_width
    centres = [geometry.lane_centre(i) for i in range(geometry.n_lanes)]
    pairs = []
    for a in animals:
        if not 0.0 <= a.y <= road_width:
            continue
        for v in vehicles:
            dx = abs(v.x - a.x)
            if min(dx, road_length - dx) < x_thresh and \
                    abs(a.y - centres[v.lane]) < y_thresh:
                pairs.append((v.vid, a.aid))
    return pairs


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
    sensing = bool(radars)
    road_width = geometry.road_width
    spawn_y = geometry.spawn_offset
    forage_lo, forage_hi = behaviour.forage_dwell

    active: list[AnimalState] = world.animals
    all_animals: list[AnimalState] = []
    latencies: list[float] = []
    events = []
    accels = [0.0] * len(vehicles)
    next_arrival = 0
    n_schedule = len(schedule)
    frozen_time = 0.0
    veh_length = geometry.vehicle_length
    alert = DriverAlert()
    # Only Control trials read the cruise table (see the module docstring);
    # while on it, the vehicles hold row k at the top of the loop.
    cruise = (cruise_table(vehicles, idm, dt, L, veh_length)
              if config.mode is Mode.CONTROL else None)
    on_cruise = cruise is not None
    n_rows = n_steps + 1

    k = 0
    while k < n_steps:
        now = k * dt

        # Idle stretch: advance the vehicles alone to the next arrival.
        if not active and awareness.quiet(now):
            k_end = _stretch_end(schedule, next_arrival, k, dt, n_steps)
            if k_end > k:
                alert.update(False, now, idm)
                on_cruise = on_cruise and cruise.load(vehicles, k_end, n_rows)
                if not on_cruise:
                    try:
                        advance_unalerted(vehicles, k_end - k, idm, dt, L,
                                          veh_length)
                    except VehicleOverlap as exc:
                        raise _overlap(trial_id, exc.follower, exc.leader,
                                       (k + exc.step) * dt) from None
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

        # Phase 2: detection against the previous step's awareness state.
        if sensing and active:
            for a in active:
                if not a.detected:
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

        # Phase 4: vehicles, synchronously from the pre-step snapshot; in a
        # Control trial until the first alert, row k of the cruise table.
        alert.update(dms, now, idm)
        on_cruise = (on_cruise and not alert.alerted
                     and cruise.load(vehicles, k, n_rows))
        if not on_cruise:
            v0 = alert.desired_speed(idm)
            road_animals = None
            if alert.alerted and active:
                road_animals = [a for a in active if 0.0 <= a.y <= road_width]

            for i, v in enumerate(vehicles):
                lead = v.leader
                if lead is None:
                    gap = FREE_ROAD_GAP
                    dv = 0.0
                else:
                    gap = ((lead.x - v.x) * v.direction) % L - veh_length
                    dv = v.v - lead.v
                if gap <= 0.0:
                    raise _overlap(trial_id, v, lead, now)
                a_cmd = idm_acceleration(v.v, v0, dv, gap, idm)
                if road_animals and emergency_brake_needed(v, road_animals,
                                                           geometry, idm, L):
                    a_cmd = -idm.a_em
                    v.emergency_braking = True
                else:
                    v.emergency_braking = False
                accels[i] = a_cmd
            step_vehicles(vehicles, accels, dt, L)

        if not active:
            continue

        # Phase 5: animal behaviour, with state-visit and frozen-time accounting.
        pruned = False
        for a in active:
            prev_state = a.state
            step_animal(a, vehicles, dt, behaviour, geometry, L, rng_b)
            st = a.state
            if st is not prev_state:
                visits[st.value] += 1
                if st is Activity.MOVED_AWAY:
                    pruned = True
            if st is Activity.FROZEN and 0.0 <= a.y <= road_width:
                frozen_time += dt

        # Phase 6: collisions; the animal is removed, the vehicle continues.
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
