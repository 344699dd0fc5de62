"""Discrete-time trial engine: phase ordering, collisions, metrics, RNG discipline.

Each step runs a fixed phase order: (1) spawn due arrivals, (2) radar
detection against the previous step's awareness state, (3) awareness and sign
update from the new events, (4) vehicle alert/acceleration/integration from a
synchronous snapshot, (5) animal behaviour, (6) collision check, (7) state
visits and frozen-on-road time. The event totals (road entries, crossings,
collisions, detections, clean exits) are summed after the last step from each
animal's own monotone flags. A trial is a pure function of (config, duration,
trial_id, master_seed).

Where the compiled kernel loads (``vehicles.load_kernel``), ``run_trial``
runs the whole step loop in one call of its ``trial``: every phase of every
step in C, with every live animal stepped every step, drawing from the
behaviour and detection streams through numpy's bit generator; it steps the
trial's ``Fleet``'s buffer and returns the animals' end states, the visit
counts, the frozen time and the latencies, from which phase 7 builds the
result (``_result``). A trial the kernel declines (one the Python loop below
raises on or treats apart; see advance_idm.c) runs in the Python loop from
its first step, with a fresh world and fresh streams, so every error is
raised there. The Python loop is the reference and the fallback; it gives
the same bits and draws. Either way the arrival schedule comes from
``sample_arrivals``, which draws it in the kernel's ``arrivals`` where the
kernel loads.

The Python loop saves Python's time per step. Animals sleep through their
quiet steps, and stretches of steps use a next-event time advance. A step
is quiet for an animal (``animals.quiet_steps``) when it draws no random
number, reads no vehicle and prunes nothing, and the animal starts it
detected or outside ``_radar_band`` (phase 2 tries nothing) and starts and
ends it off the carriageway (phase 4 brakes for nothing and phase 6 scans
nothing). Such steps are foraging, approaching short of the edge,
hesitating short of the dwell's end, fleeing short of the spawn offset and
walking out past the far edge. An animal that phase 5 leaves off the
carriageway has its quiet steps from the next step on walked once, up to
the trial's end, with ``animals.step_animal`` on a copy that may not draw or
read (a frozen animal is never walked); phase 5 applies the walk at once
(``animals.take_quiet_steps``) and the animal sleeps until the step after
the walk's last (``sleeping``, ``next_wake``). Phases 2 and 5 skip a
sleeper. Nothing reads what changes while it sleeps: a quiet step changes
only its dwell, its y off the carriageway and at most its FORAGING
-> APPROACHING switch, which moves it neither in nor out of
``DANGEROUS_STATES`` nor onto the carriageway; and a sleeper draws nothing,
so the awake animals draw in the same order. A trial's outputs are those of
stepping every animal every step, as the compiled loop does, but an
observer mid-trial sees a sleeper in the state it wakes with.

With every animal asleep, the gate at step k counts ``m`` steps up to the
first of: the first wake; the step phase 1 spawns the next arrival
(``_stretch_end``); while the sign's window is open, the step it closes;
while the sign is lit and the drivers are not yet alerted, the step they
become alerted. Up to there the sign, the alert and the desired speed hold,
since no detection can move the window and no sleeper changes whether it
holds the sign. At such a stretch's first step phases 1-3 have nothing to
do: no arrival is due, no animal is tried and no event is pending. So one
body serves both: phases 1-3 run only when ``m`` is 0 (step k is stepped);
phase 4 runs once (``dms_active``, ``DriverAlert.update`` and the desired
speed), cutting ``m`` at the alert step, and steps the vehicles through the
step or the stretch; a stepped step goes on to phases 5 and 6.
``_first_step`` finds each edge with its owner's own float test: the
arrival's ``t <= now``, ``AwarenessState.window_closed`` and
``DriverAlert.reacted``.

In the Python loop, phase 2 is one call of the trial's
``detection.Detector.detect`` over the awake animals (none in a trial
without radars, Control): ``try_detect`` for each; phase 3 applies each
event it returns.

Phase 5 is one call of the trial's ``animals.Herd.behave`` over the awake
animals: ``step_animal`` for each, the state visits and frozen-on-road time,
and the quiet walk and sleep. It returns the animals it leaves on the
carriageway, which are all of the corridor's carriageway animals: a sleeper
sleeps off it and an arrival spawns off it. Phase 6 scans those animals
alone, only when there are some, and those phase 6 leaves in the corridor
are the next phase 4's braking candidates: no y changes from a phase 5 to
the next phase 4 (an arrival spawns at the negative spawn offset, and
phases 2 and 3 move no animal), and a stretch opens only when every animal
sleeps, off the carriageway.

After phase 4 the vehicles hold row k + 1 (k + m after a stretch), taken in
one call of the trial's ``vehicles.Fleet.advance``. The fleet's buffer is
the vehicles' only state; the ``VehicleState`` objects of the world are
their initial condition, and nothing writes them back.

A braking step (alerted drivers and an animal on the carriageway) is a
one-step call: phase 4 passes those animals to ``Fleet.advance``, which
tests each driver's ``emergency_brake_needed`` from the pre-step snapshot; a
driver for whom it holds brakes at ``-a_em`` in place of its IDM
acceleration. Only ``Fleet.advance`` sets the brake flags, so a braking
step's flags stay set until the next call, and every other call clears
them. Phases 5 and 6 read the vehicles from the fleet's buffer: phase 5's
threat tests (``step_animal``'s ``Fleet.threat_present`` and
``Fleet.crossing_dangers``) and phase 6's ``detect_collisions`` (this
module's call of ``Fleet.detect_collisions``) ask the references about a
snapshot of x, v and the brake flags as the last ``Fleet.advance`` left
them, and name each vehicle by its index.

Three scans skip what they cannot find, in both loops. The carriageway,
0 < y <= road width, is ``detect_collisions``' own filter and the only band
drivers brake for (``emergency_brake_needed`` is asked about no other
animal); it gates phases 4 and 6 and the quiet test alike. Phase 4 makes its
brake tests only when an alerted driver has an animal there to brake for,
so a step whose road animals all wait at the edge (y = 0) is one round of
the vehicles with every brake flag clear, like any other non-braking step.
Phase 6 runs only when phase 5 leaves an animal there; frozen-on-road time
still counts the whole road, 0 <= y <= road width. Phase 2 skips an animal
whose y lies outside every radar's reach plus 1 m (``_radar_band``, the
``Detector``'s band): no radar covers it, so ``try_detect`` would draw no
random number and record no first-in-range time for it.
"""

from __future__ import annotations

import math
import statistics
from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .animals import Activity, AnimalState, Arrival, Herd, sample_arrivals
# perfbench's tracer wraps step_animal, try_detect, idm_acceleration and
# emergency_brake_needed at these names; the engine calls none of them
# (in the Python loop ``Herd.behave`` runs the first, ``Detector.detect``
# the second and ``Fleet.advance`` the other two).
from .animals import step_animal
from .awareness import AwarenessState
from .config import CorridorConfig, Mode, build_corridor
from .detection import Detector, try_detect
from .vehicles import (DriverAlert, Fleet, VehicleOverlap, emergency_brake_needed,
                       idm_acceleration, load_kernel)


def detect_collisions(fleet: Fleet, animals: list[AnimalState]) -> list[tuple[int, int]]:
    """Phase 6's contact scan, ``fleet.detect_collisions``, called at this
    name, where perfbench's tracer counts it."""
    return fleet.detect_collisions(animals)


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


def _first_step(k: int, guess: float, reached, dt: float) -> int:
    """The first step ``j >= k`` whose time ``j * dt`` passes ``reached``, a
    float test that stays true once true; the time ``guess`` is only where
    the search starts."""
    j = max(k, int(guess / dt))
    while j > k and reached((j - 1) * dt):
        j -= 1
    while not reached(j * dt):
        j += 1
    return j


def _stretch_end(schedule: list[Arrival], next_arrival: int, k: int, dt: float,
                 n_steps: int) -> int:
    """``n_steps`` when no arrival is left, else the first step ``j >= k`` at
    which phase 1 spawns the next one, due at ``t``: the first ``j`` with
    ``t <= j * dt``, the same float test."""
    if next_arrival == len(schedule):
        return n_steps
    t = schedule[next_arrival].time
    return _first_step(k, t, lambda now: t <= now, dt)


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


def _radar_band(radars, r_det: float) -> tuple[float, float]:
    """The band of y outside which no radar covers an animal: every radar's
    reach plus 1 m, so that ``dy * dy > r_det * r_det`` for every radar
    whatever the rounding. Empty when there is no radar."""
    ys = [node.y for node in radars]
    return (min(ys, default=math.inf) - r_det - 1.0,
            max(ys, default=-math.inf) + r_det + 1.0)


def _overlap(trial_id: int, follower: int, leader: int,
             now: float) -> EngineInvariantError:
    return EngineInvariantError(f"trial {trial_id}: vehicles {follower} and "
                                f"{leader} overlap at t={now:.1f}")


def run_trial(config: CorridorConfig, duration_hours: float, trial_id: int,
              master_seed: int) -> TrialResult:
    """Run one trial and return its fully populated result.

    Raises ValueError on an invalid config and EngineInvariantError if any
    internal invariant breaks (which would be an engine bug).
    """
    return _play(config, duration_hours, trial_id, master_seed)[0]


def _play(config: CorridorConfig, duration_hours: float, trial_id: int,
          master_seed: int) -> tuple[TrialResult, list[AnimalState], Fleet]:
    """``run_trial``'s result, with every animal as the trial ends and the
    trial's fleet: in one call of the compiled kernel's ``trial``
    (``vehicles.load_kernel``) where it loads and takes the trial, else in
    the Python loop, from a fresh world and fresh streams."""
    kernel = load_kernel()
    if kernel:
        played = _compiled(kernel, config, duration_hours, trial_id, master_seed)
        if played is not None:
            return played
    return _loop(config, duration_hours, trial_id, master_seed)


def _setup(config: CorridorConfig, duration_hours: float, trial_id: int,
           master_seed: int):
    """A trial's radars, streams, arrival schedule, step count, frame
    length (a float, so that each step's time is one, whatever the config),
    radar band and fleet."""
    world = build_corridor(config)
    streams = RngStreams.for_trial(master_seed, trial_id, config.mode)
    schedule, n_steps = _schedule(config, duration_hours, streams.arrivals)
    dt = float(config.time_step)
    band = _radar_band(world.radars, config.radar_range)
    fleet = Fleet(world.vehicles, config.idm, dt, config.road_length, config.geometry,
                  config.behaviour)
    return world.radars, streams, schedule, n_steps, dt, band, fleet


def _result(config: CorridorConfig, duration_hours: float, trial_id: int,
            master_seed: int, animals: list[AnimalState], visits: dict[str, int],
            frozen_time: float, latencies: list[float]) -> TrialResult:
    """Phase 7: the trial's result from its animals as it ends (one per
    arrival), its visit counts, frozen-on-road time and detection latencies
    in event order."""
    result = TrialResult(trial_id=trial_id, mode=config.mode, seed=master_seed,
                         sim_hours=duration_hours, arrivals=len(animals))
    result.road_entries = sum(1 for a in animals if a.entered_road)
    result.crossing_successes = sum(1 for a in animals if a.crossed)
    result.collisions = sum(1 for a in animals if a.collided)
    result.frozen_on_road_time = frozen_time
    result.detected = sum(1 for a in animals if a.detected)
    result.detectable = sum(1 for a in animals if a.left_foraging)
    result.exits_clean = sum(1 for a in animals
                             if a.state is Activity.MOVED_AWAY and not a.collided)
    result.active_at_end = sum(1 for a in animals if a.state is not Activity.MOVED_AWAY)
    result.state_visit_counts = visits
    if latencies:
        result.mean_in_range_latency = sum(latencies) / len(latencies)
        result.median_in_range_latency = statistics.median(latencies)
    result.check_invariants()
    return result


def _compiled(kernel, config: CorridorConfig, duration_hours: float, trial_id: int,
              master_seed: int) -> Optional[tuple[TrialResult, list[AnimalState], Fleet]]:
    """``_play`` in one call of the kernel's ``trial``, which steps the
    fleet's buffer and every animal, every step; None where it declines the
    trial (see advance_idm.c)."""
    radars, streams, schedule, n_steps, _, band, fleet = _setup(
        config, duration_hours, trial_id, master_seed)
    idm = config.idm
    herd = Herd(config, band, streams.behaviour, fleet, n_steps)
    detector = Detector(config, radars, band, streams.detection)
    columns = [array("d", column) for column in zip(*schedule)] or [array("d")] * 3
    out = kernel.trial(fleet.buf, fleet.lead, herd.buf, detector.buf, *columns,
                       _MODE_INDEX[config.mode], config.persistence_window,
                       config.awareness_range, idm.v_cruise, idm.v_caution,
                       *config.behaviour.forage_dwell, n_steps,
                       streams.behaviour.bit_generator.capsule,
                       streams.detection.bit_generator.capsule)
    if out is None:
        return None
    ends, counts, frozen_time, latencies = out
    activities = list(Activity)
    animals = [AnimalState(aid, arr.x, y, arr.sigma, activities[s], dwell, *flags,
                           None if came_from < 0 else activities[came_from], met)
               for aid, (arr, (s, y, dwell, *flags, came_from, met))
               in enumerate(zip(schedule, ends))]
    visits = {a.value: n for a, n in zip(activities, counts)}
    return (_result(config, duration_hours, trial_id, master_seed, animals, visits,
                    frozen_time, latencies), animals, fleet)


def _loop(config: CorridorConfig, duration_hours: float, trial_id: int,
          master_seed: int) -> tuple[TrialResult, list[AnimalState], Fleet]:
    """``_play`` in the Python loop: the reference and the fallback."""
    radars, streams, schedule, n_steps, dt, radar_band, fleet = _setup(
        config, duration_hours, trial_id, master_seed)
    visits = {a.value: 0 for a in Activity}

    # Hot-loop locals.
    idm = config.idm
    awareness = AwarenessState(config, len(radars))
    rng_b = streams.behaviour
    detector = Detector(config, radars, radar_band, streams.detection)
    # A float, as the kernel reads it, whatever the config.
    spawn_y = float(config.geometry.spawn_offset)
    forage_lo, forage_hi = config.behaviour.forage_dwell

    active: list[AnimalState] = []
    all_animals: list[AnimalState] = []
    # The animals phase 5 left on the carriageway, less those that left the
    # corridor since: phase 4's braking candidates.
    on_road: list[AnimalState] = []
    latencies: list[float] = []
    next_arrival = 0
    n_schedule = len(schedule)
    herd = Herd(config, radar_band, rng_b, fleet, n_steps)
    alert = DriverAlert()
    # Sleepers: each animal whose quiet run is taken ahead, by aid, and the
    # step it wakes at (see the module docstring).
    sleeping: dict[int, int] = {}
    next_wake = n_steps

    k = 0
    while k < n_steps:
        now = k * dt
        if k == next_wake:
            sleeping = {aid: j for aid, j in sleeping.items() if j > k}
            next_wake = min(sleeping.values(), default=n_steps)

        # Next-event gate: while every animal sleeps, ``m`` steps from step k
        # up to the first step at which anything but the vehicle steps can
        # happen; 0 when step k is stepped.
        m = 0
        if len(sleeping) == len(active):
            m = min(next_wake, _stretch_end(schedule, next_arrival, k, dt, n_steps)) - k
            if m and not awareness.window_closed(now):
                m = min(m, _first_step(k, awareness.dms_active_until,
                                       awareness.window_closed, dt) - k)
        if not m:
            # Phase 1: spawn due arrivals.
            while next_arrival < n_schedule and schedule[next_arrival].time <= now:
                arr = schedule[next_arrival]
                dwell = rng_b.uniform(forage_lo, forage_hi)
                animal = AnimalState(aid=next_arrival, x=arr.x, y=spawn_y,
                                     sigma=arr.sigma, dwell_remaining=dwell)
                active.append(animal)
                all_animals.append(animal)
                visits[Activity.FORAGING.value] += 1
                next_arrival += 1

            # Phase 2: detection of the awake animals within some radar's
            # reach, against the previous step's awareness state, in one
            # call (none without radars); then phase 3, the awareness / sign
            # update from each event.
            if radars:
                for ev in detector.detect(active, sleeping, awareness, now):
                    a = all_animals[ev.animal_id]
                    latencies.append(a.detected_at - a.first_in_range_at)
                    awareness.on_detection(ev, radars)

        # Phase 4: vehicles, synchronously from the pre-step snapshot; in a
        # stretch the sign and alert then hold to step k + m, so it is cut at
        # the step the drivers become alerted. One call takes the step or the
        # stretch; on a stepped step alerted drivers brake for the animals on
        # the carriageway.
        lit = awareness.dms_active(active, now)
        alert.update(lit, now, idm)
        if m and lit and not alert.alerted:
            m = min(m, _first_step(k, alert.onset + idm.t_react,
                                   lambda t: alert.reacted(t, idm), dt) - k)
        candidates = None
        if alert.alerted and not m:
            candidates = on_road or None
        try:
            fleet.advance(m or 1, alert.desired_speed(idm), candidates)
        except VehicleOverlap as exc:
            raise _overlap(trial_id, exc.follower, exc.leader,
                           (k + exc.step) * dt) from None
        if m:
            k += m
            continue
        k += 1

        # Phase 5: behaviour of the awake animals, in one call, with
        # state-visit and frozen-time accounting. An animal it leaves off the
        # carriageway takes its quiet run at once and sleeps through it.
        next_wake, pruned, on_road = herd.behave(active, sleeping, k, next_wake, visits)

        # Phase 6: collisions of the animals on the carriageway, the band of
        # ``detect_collisions``' own test, which phase 5 returned in
        # ``active``'s order; the animal is removed, the vehicle continues.
        if on_road:
            pairs = detect_collisions(fleet, on_road)
            if pairs:
                by_id = {a.aid: a for a in on_road}
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
            on_road = [a for a in on_road if a.state is not Activity.MOVED_AWAY]

    return (_result(config, duration_hours, trial_id, master_seed, all_animals, visits,
                    herd.frozen_time, latencies), all_animals, fleet)
