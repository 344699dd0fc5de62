"""Animal arrivals and the six-state behavioural model.

Animals arrive by a Poisson process, forage off-road, approach the carriageway,
and decide at the road edge whether to cross, freeze, or flee depending on the
perceived vehicle threat. Crossing animals can freeze mid-road after a
dangerous encounter with a vehicle.

The module functions are the references: ``step_animal`` is the one Python
statement of the model, and ``quiet_steps`` walks an animal's quiet steps
with it. A trial's ``Herd`` runs a step's behaviour, phase 5 of
``engine.run_trial``'s Python loop, over the awake animals, in a loop over
``step_animal`` and the quiet walks. The compiled trial loop
(``vehicles.load_kernel``) has its own port of ``step_animal``, which gives
the same bits and draws.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import CorridorConfig, GeometryParams
    from .vehicles import Fleet

# Countdown comparisons tolerate float accumulation error.
_DWELL_EPS = 1e-9


class Activity(str, Enum):
    FORAGING = "Foraging"
    APPROACHING = "Approaching"
    HESITATING = "Hesitating"
    CROSSING = "Crossing"
    FROZEN = "Frozen"
    FLEEING = "Fleeing"
    MOVED_AWAY = "MovedAway"


# (weight, sigma_low, sigma_high) per body-size class: small, medium, large.
DEFAULT_SIZE_MIXTURE = (
    (0.15, 0.25, 0.55),
    (0.60, 0.70, 1.20),
    (0.25, 1.40, 2.30),
)


@dataclass
class BehaviourParams:
    """Dwell ranges, branch probabilities, speeds, and threat-zone constants."""

    forage_dwell: tuple[float, float] = (2.0, 10.0)
    hesitate_dwell: tuple[float, float] = (0.5, 3.0)
    p_cross_no_threat: float = 0.80
    p_frozen_threat: float = 0.10
    p_flee_threat: float = 0.20
    p_freeze_crossing: float = 0.15   # per dangerous vehicle interaction
    v_approach: float = 1.5
    v_cross: float = 4.0
    v_flee: float = 6.0
    size_mixture: tuple[tuple[float, float, float], ...] = DEFAULT_SIZE_MIXTURE
    t_threat: float = 5.0             # threat horizon: time-to-arrival, s
    v_threat: float = 10.0            # threat speed floor, m/s
    near_pass_distance: float = 20.0  # flight-zone radius behind a passing vehicle, m
    frozen_max_dwell: float = 8.0

    def validate(self) -> list[str]:
        problems = []
        for name in ("p_cross_no_threat", "p_frozen_threat", "p_flee_threat",
                     "p_freeze_crossing"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                problems.append(f"behaviour.{name}: must be in [0, 1]")
        if self.p_frozen_threat + self.p_flee_threat > 1.0:
            problems.append("behaviour: threat branch probabilities exceed 1")
        if abs(sum(w for w, _, _ in self.size_mixture) - 1.0) > 1e-9:
            problems.append("behaviour.size_mixture: weights must sum to 1")
        for i, (weight, lo, hi) in enumerate(self.size_mixture):
            if not 0.0 <= weight <= 1.0:
                problems.append(f"behaviour.size_mixture[{i}]: "
                                "weight must be in [0, 1]")
            if not 0.0 < lo <= hi:
                problems.append(f"behaviour.size_mixture[{i}]: need 0 < lo <= hi")
        if not (0.0 < self.v_approach < self.v_cross < self.v_flee):
            problems.append("behaviour: speeds must satisfy 0 < approach < cross < flee")
        for name in ("t_threat", "v_threat", "frozen_max_dwell"):
            if getattr(self, name) <= 0:
                problems.append(f"behaviour.{name}: must be positive")
        if self.near_pass_distance < 0:
            problems.append("behaviour.near_pass_distance: must be non-negative")
        for name in ("forage_dwell", "hesitate_dwell"):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi:
                problems.append(f"behaviour.{name}: bad dwell range")
        return problems


class Arrival(NamedTuple):
    time: float     # seconds since trial start
    x: float        # metres along the road
    sigma: float    # body-size factor (radar cross-section proxy)


@dataclass
class AnimalState:
    """One animal's position, behavioural state, and bookkeeping flags.

    ``detected``, ``entered_road``, ``crossed``, ``collided`` and
    ``left_foraging`` are monotone; MOVED_AWAY is absorbing.
    ``frozen_from`` remembers the activity a frozen animal resumes on release.
    """

    aid: int
    x: float
    y: float
    sigma: float
    state: Activity = Activity.FORAGING
    dwell_remaining: float = 0.0
    detected: bool = False
    first_in_range_at: Optional[float] = None
    detected_at: Optional[float] = None
    entered_road: bool = False
    crossed: bool = False
    collided: bool = False
    left_foraging: bool = False
    frozen_from: Optional[Activity] = None
    interacted_vehicles: set[int] = field(default_factory=set)


def sample_sigma(mixture: Sequence[tuple[float, float, float]],
                 rng: np.random.Generator) -> float:
    """Draw one body-size factor from the class mixture."""
    u = rng.random()
    acc = 0.0
    for weight, lo, hi in mixture:
        acc += weight
        if u < acc:
            return rng.uniform(lo, hi)
    lo, hi = mixture[-1][1], mixture[-1][2]
    return rng.uniform(lo, hi)


def sample_arrivals(rate_per_hour: float, duration_hours: float, road_length: float,
                    size_scale: float, params: BehaviourParams,
                    rng: np.random.Generator) -> list[Arrival]:
    """Poisson arrival schedule: exponential inter-arrival times, uniform positions.

    Sizes are drawn from the mixture and then multiplied by ``size_scale``, so
    the underlying draws (and hence times and positions) are identical across
    size scalings for the same stream.
    """
    if not (math.isfinite(rate_per_hour) and rate_per_hour >= 0):
        raise ValueError(f"arrival rate must be finite and non-negative, "
                         f"got {rate_per_hour!r}")
    if not (math.isfinite(duration_hours) and duration_hours > 0):
        raise ValueError(f"duration must be positive and finite, got {duration_hours!r}")
    if rate_per_hour == 0:
        return []
    horizon = duration_hours * 3600.0
    mean_gap = 3600.0 / rate_per_hour
    arrivals: list[Arrival] = []
    t = rng.exponential(mean_gap)
    while t <= horizon:
        x = rng.uniform(0.0, road_length)
        sigma = sample_sigma(params.size_mixture, rng) * size_scale
        arrivals.append(Arrival(t, x, sigma))
        t += rng.exponential(mean_gap)
    return arrivals


def _enter_hesitating(animal: AnimalState, params: BehaviourParams,
                      rng: np.random.Generator) -> None:
    animal.state = Activity.HESITATING
    animal.dwell_remaining = rng.uniform(*params.hesitate_dwell)


def _enter_frozen(animal: AnimalState, came_from: Activity,
                  params: BehaviourParams) -> None:
    animal.state = Activity.FROZEN
    animal.frozen_from = came_from
    # A float, as the kernel reads and writes it, whatever the config.
    animal.dwell_remaining = float(params.frozen_max_dwell)


def step_animal(animal: AnimalState, fleet: "Fleet", dt: float,
                params: BehaviourParams, geometry: "GeometryParams",
                rng: np.random.Generator) -> None:
    """Advance one animal by one time step (in place). The vehicles, the
    trial's ``Fleet``, are read through its ``threat_present`` and
    ``crossing_dangers`` alone.

    State semantics:
      FORAGING     hold position until the dwell expires, then approach.
      APPROACHING  move toward the road; stop at the near edge (y = 0) and hesitate.
      HESITATING   on dwell expiry, branch on vehicle threat; unresolved draws
                   redraw the dwell and re-evaluate later.
      CROSSING     traverse the carriageway; a dangerous vehicle encounter
                   (threatening, or emergency-braking within 50 m) rolls a
                   freeze once per vehicle; past the far edge, walk out to the
                   exit offset and leave.
      FROZEN       hold until no threat remains or the maximum dwell elapses,
                   then resume the interrupted activity.
      FLEEING      retreat; gone once back at the spawn offset.
    """
    state = animal.state
    if state is Activity.MOVED_AWAY:
        raise ValueError(f"animal {animal.aid} stepped after it left the corridor")

    if state is Activity.FORAGING:
        animal.dwell_remaining -= dt
        if animal.dwell_remaining <= _DWELL_EPS:
            animal.state = Activity.APPROACHING
            animal.left_foraging = True
        return

    if state is Activity.APPROACHING:
        ny = animal.y + params.v_approach * dt
        if ny >= 0.0:
            animal.y = 0.0
            _enter_hesitating(animal, params, rng)
        else:
            animal.y = ny
        return

    if state is Activity.HESITATING:
        animal.dwell_remaining -= dt
        if animal.dwell_remaining > _DWELL_EPS:
            return
        u = rng.random()
        if fleet.threat_present(animal):
            if u < params.p_frozen_threat:
                _enter_frozen(animal, Activity.HESITATING, params)
            elif u < params.p_frozen_threat + params.p_flee_threat:
                animal.state = Activity.FLEEING
            else:
                animal.dwell_remaining = rng.uniform(*params.hesitate_dwell)
        else:
            if u < params.p_cross_no_threat:
                animal.state = Activity.CROSSING
            else:
                animal.dwell_remaining = rng.uniform(*params.hesitate_dwell)
        return

    if state is Activity.CROSSING:
        road_width = geometry.road_width
        if animal.y < road_width:
            # Dangerous interactions roll a freeze at most once per vehicle.
            interacted = animal.interacted_vehicles
            for vid in fleet.crossing_dangers(animal):
                if vid in interacted:
                    continue
                interacted.add(vid)
                if rng.random() < params.p_freeze_crossing:
                    _enter_frozen(animal, Activity.CROSSING, params)
                    return
        ny = animal.y + params.v_cross * dt
        animal.y = ny
        if ny > 0.0:
            animal.entered_road = True
        if ny >= road_width:
            animal.crossed = True
            if ny >= road_width + geometry.exit_offset:
                animal.state = Activity.MOVED_AWAY
        return

    if state is Activity.FROZEN:
        animal.dwell_remaining -= dt
        released = animal.dwell_remaining <= _DWELL_EPS or \
            not fleet.threat_present(animal)
        if released:
            if animal.frozen_from is Activity.CROSSING:
                animal.state = Activity.CROSSING
            else:
                _enter_hesitating(animal, params, rng)
            animal.frozen_from = None
        return

    if state is Activity.FLEEING:
        animal.y -= params.v_flee * dt
        if animal.y <= geometry.spawn_offset:
            animal.state = Activity.MOVED_AWAY
        return

    raise AssertionError(f"unhandled activity {state}")


# A walk of an animal's quiet steps: (steps walked, activity, dwell, y), the
# last three its state after them.
QuietWalk = tuple[int, Activity, float, float]


class _Loud(Exception):
    """A quiet walk's step that draws a random number or reads a vehicle."""


class _Silence:
    """A quiet walk's fleet and stream, which refuse every read and draw."""

    def refuse(self, *args):
        raise _Loud

    threat_present = crossing_dangers = random = uniform = refuse


_SILENCE = _Silence()


def quiet_steps(animal: AnimalState, limit: int, dt: float, params: BehaviourParams,
                geometry: "GeometryParams",
                radar_band: tuple[float, float]) -> QuietWalk:
    """How many of its next ``limit`` steps the animal takes quietly (0 when
    the next step is not quiet), as the walk that counted them: the count,
    then the activity, dwell and y after those steps, which
    ``take_quiet_steps`` applies. A walk's first ``n`` steps do not depend on
    its limit, so a walk limited to ``n`` ends where a longer one is after
    ``n`` steps.

    The walk steps a copy of the animal with ``step_animal`` against a fleet
    and a stream that refuse every read and draw, and stops before the first
    step that is not quiet. A quiet step draws nothing, reads no vehicle and
    does not prune the animal (MOVED_AWAY); the animal starts it detected or
    outside ``radar_band`` (detection tries nothing for it), and starts and
    ends it off the carriageway, 0 < y <= road width (no driver brakes for
    it, no vehicle can hit it). A frozen or departed animal is never walked:
    one frozen while crossing is released without a draw or a read, but into
    CROSSING, a visit the walk does not count.
    """
    n, state, dwell, y = 0, animal.state, animal.dwell_remaining, animal.y
    if state is Activity.FROZEN or state is Activity.MOVED_AWAY:
        return n, state, dwell, y
    lo, hi = radar_band
    road_width = geometry.road_width
    # step_animal's reads of the animal (its vehicles met come after a read).
    walker = AnimalState(animal.aid, animal.x, y, animal.sigma, state, dwell,
                         frozen_from=animal.frozen_from)
    while n < limit and not (0.0 < y <= road_width
                             or not animal.detected and lo <= y <= hi):
        try:
            step_animal(walker, _SILENCE, dt, params, geometry, _SILENCE)
        except _Loud:
            break
        if walker.state is Activity.MOVED_AWAY or 0.0 < walker.y <= road_width:
            break
        state, dwell, y = walker.state, walker.dwell_remaining, walker.y
        n += 1
    return n, state, dwell, y


def take_quiet_steps(animal: AnimalState, walk: QuietWalk) -> bool:
    """Take the quiet steps that ``walk``, a walk ``quiet_steps`` made from
    the animal's present state, counted: apply its end state in place, bit
    for bit as that many calls of ``step_animal`` would leave the animal.
    Returns whether the animal left foraging, a visit to APPROACHING."""
    n, state, dwell, y = walk
    left = state is not animal.state
    animal.state, animal.dwell_remaining, animal.y = state, dwell, y
    if left:
        animal.left_foraging = True
    elif n and state is Activity.CROSSING:
        animal.entered_road = animal.crossed = True
    return left


class Herd:
    """One trial's behaviour stream and parameters: each step's behaviour
    in the Python loop.

    ``behave`` steps the awake animals in Python, reading the vehicles
    through the fleet's scans. ``frozen_time`` is the trial's frozen-on-road
    time so far. The buffer ``buf`` (its slots in advance_idm.c) takes the
    frame length, the ``BehaviourParams`` the steps read, the road width,
    the spawn offset, the exit edge and ``_DWELL_EPS`` once, for the
    compiled trial loop.
    """

    def __init__(self, config: "CorridorConfig", band: tuple[float, float],
                 rng: np.random.Generator, fleet: "Fleet", n_steps: int):
        self.params = p = config.behaviour
        self.geometry = geometry = config.geometry
        self.dt = config.time_step
        self.band = band
        self.rng = rng
        self.fleet = fleet
        self.n_steps = n_steps
        self.frozen_time = 0.0
        self.buf = array("d", [
            self.dt, p.v_approach, p.v_cross, p.v_flee, *p.hesitate_dwell,
            p.p_cross_no_threat, p.p_frozen_threat,
            p.p_frozen_threat + p.p_flee_threat, p.p_freeze_crossing,
            p.frozen_max_dwell, geometry.road_width, geometry.spawn_offset,
            geometry.road_width + geometry.exit_offset, _DWELL_EPS])

    def behave(self, animals: list[AnimalState], sleeping: dict[int, int], k: int,
               next_wake: int, visits: dict[str, int]) -> tuple[int, bool,
                                                                list[AnimalState]]:
        """The behaviour of the step before step ``k``: ``step_animal`` for
        each animal of ``animals``, in order, that is not a key of
        ``sleeping``, with each change of activity counted in ``visits`` and
        each frozen animal on the road adding a frame to ``frozen_time``. An
        animal it leaves off the carriageway takes its quiet run at once
        (``quiet_steps`` and ``take_quiet_steps``, up to the trial's end)
        and sleeps through it: it goes into ``sleeping`` with the step it
        wakes at. Returns the first wake (``next_wake`` or an earlier one),
        whether an animal left the corridor, and the animals left on the
        carriageway, in order."""
        pruned, on_road = False, []
        p, geometry, dt, band = self.params, self.geometry, self.dt, self.band
        road_width = geometry.road_width
        for a in animals:
            if a.aid in sleeping:
                continue
            prev_state = a.state
            step_animal(a, self.fleet, dt, p, geometry, self.rng)
            st = a.state
            if st is not prev_state:
                visits[st.value] += 1
                if st is Activity.MOVED_AWAY:
                    pruned = True
            y = a.y
            if st is Activity.FROZEN and 0.0 <= y <= road_width:
                self.frozen_time += dt
            if 0.0 < y <= road_width:
                on_road.append(a)
                continue
            walk = quiet_steps(a, self.n_steps - k, dt, p, geometry, band)
            if walk[0]:
                if take_quiet_steps(a, walk):
                    visits[Activity.APPROACHING.value] += 1
                sleeping[a.aid] = k + walk[0]
                next_wake = min(next_wake, k + walk[0])
        return next_wake, pruned, on_road
