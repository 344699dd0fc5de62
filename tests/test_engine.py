import copy
import dataclasses
import math
import struct

import pytest

import wvcsim.engine
import wvcsim.vehicles
from wvcsim.animals import Activity, AnimalState, Arrival, step_animal
from wvcsim.awareness import AwarenessState
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, build_corridor,
                           replace_config)
from wvcsim.detection import radars_in_range
from wvcsim.engine import (EngineInvariantError, RngStreams, TrialResult,
                           _step_count, detect_collisions, make_arrival_schedule,
                           run_trial)
from wvcsim.vehicles import (FREE_ROAD_GAP, DriverAlert, Fleet, VehicleState,
                             emergency_brake_needed, idm_acceleration,
                             step_vehicles)

GEO = GeometryParams()


def fast_config(mode=Mode.DETECTION, **kw):
    return replace_config(CorridorConfig(), mode=mode, **kw)


def vehicle(x, lane=0, direction=1, vid=0, v=20.0):
    return VehicleState(vid=vid, x=x, v=v, direction=direction, lane=lane)


def road_animal(x, y, aid=0):
    return AnimalState(aid=aid, x=x, y=y, sigma=1.0, state=Activity.CROSSING)


class TestDetectCollisions:
    def test_off_road_animal_never_collides(self):
        a = road_animal(500.0, -1.0)
        assert detect_collisions([vehicle(500.0)], [a], GEO, 1000.0) == []

    def test_contact_at_lane_centre(self):
        a = road_animal(500.0, GEO.lane_centre(0))
        pairs = detect_collisions([vehicle(500.0)], [a], GEO, 1000.0)
        assert pairs == [(0, 0)]

    def test_opposite_lane_clearance(self):
        # Animal in the +x lane under a -x vehicle: |dy| = 3.7 > 1.4.
        a = road_animal(500.0, GEO.lane_centre(0))
        v = vehicle(500.0, lane=1, direction=-1)
        assert detect_collisions([v], [a], GEO, 1000.0) == []

    def test_longitudinal_threshold(self):
        near = road_animal(502.7, GEO.lane_centre(0))
        far = road_animal(502.8, GEO.lane_centre(0), aid=1)
        pairs = detect_collisions([vehicle(500.0)], [near, far], GEO, 1000.0)
        assert pairs == [(0, 0)]

    def test_ring_wraparound_distance(self):
        a = road_animal(0.5, GEO.lane_centre(0))
        pairs = detect_collisions([vehicle(999.0)], [a], GEO, 1000.0)
        assert pairs == [(0, 0)]

    def test_wide_animal_at_the_edge_never_collides(self):
        # |dy| = 1.85 < 0.9 + 1.5, but an animal waiting at y = 0 has not
        # entered the road, so no vehicle can hit it there.
        wide = dataclasses.replace(GEO, animal_radius=1.5)
        a = road_animal(500.0, 0.0)
        assert detect_collisions([vehicle(500.0)], [a], wide, 1000.0) == []
        a.y = 1e-9
        assert detect_collisions([vehicle(500.0)], [a], wide, 1000.0) == [(0, 0)]


class TestRngStreams:
    def test_arrival_stream_ignores_mode(self):
        a = RngStreams.for_trial(42, 3, Mode.CONTROL).arrivals
        b = RngStreams.for_trial(42, 3, Mode.AWARE).arrivals
        assert list(a.random(32)) == list(b.random(32))

    def test_behaviour_stream_is_mode_private(self):
        a = RngStreams.for_trial(42, 3, Mode.CONTROL).behaviour
        b = RngStreams.for_trial(42, 3, Mode.AWARE).behaviour
        assert list(a.random(32)) != list(b.random(32))

    def test_streams_are_mutually_independent(self):
        s = RngStreams.for_trial(42, 3, Mode.CONTROL)
        assert list(s.arrivals.random(8)) != list(s.behaviour.random(8))

    def test_trials_differ(self):
        a = RngStreams.for_trial(42, 0, Mode.CONTROL).arrivals
        b = RngStreams.for_trial(42, 1, Mode.CONTROL).arrivals
        assert list(a.random(8)) != list(b.random(8))


class TestCommonRandomNumbers:
    def test_schedule_identical_across_modes(self):
        kwargs = dict(duration_hours=1.0, trial_id=5, master_seed=99)
        schedules = [make_arrival_schedule(fast_config(mode), **kwargs)
                     for mode in (Mode.CONTROL, Mode.DETECTION, Mode.AWARE)]
        assert schedules[0] == schedules[1] == schedules[2]
        assert schedules[0]  # non-trivial

    def test_trial_arrival_counts_match_across_modes(self):
        results = [run_trial(fast_config(mode), 0.3, 2, 7)
                   for mode in (Mode.CONTROL, Mode.DETECTION, Mode.AWARE)]
        assert len({r.arrivals for r in results}) == 1


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(fast_config(Mode.AWARE), 0.3, 1, 11)
        b = run_trial(fast_config(Mode.AWARE), 0.3, 1, 11)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_zero_arrival_rate(self):
        r = run_trial(fast_config(Mode.CONTROL, arrival_rate=0.0), 0.2, 0, 1)
        assert r.arrivals == 0
        assert r.collisions == 0
        assert r.road_entries == 0
        assert r.detected == 0

    def test_control_mode_never_detects(self):
        r = run_trial(fast_config(Mode.CONTROL), 0.5, 0, 21)
        assert r.detected == 0
        assert r.mean_in_range_latency is None

    def test_invariants_and_conservation(self):
        for mode in (Mode.CONTROL, Mode.DETECTION, Mode.AWARE):
            r = run_trial(fast_config(mode), 0.5, 3, 33)
            assert r.collisions <= r.road_entries
            assert r.crossing_successes <= r.road_entries
            assert r.detected <= r.detectable <= r.arrivals
            assert r.exits_clean + r.collisions + r.active_at_end == r.arrivals

    def test_detection_mode_detects_most_approachers(self):
        r = run_trial(fast_config(Mode.DETECTION), 0.5, 4, 55)
        assert r.detectable > 0
        assert r.detected / r.detectable > 0.9
        assert r.mean_in_range_latency is not None
        assert 0.0 <= r.mean_in_range_latency < 1.0

    def test_state_visits_accounted(self):
        r = run_trial(fast_config(Mode.CONTROL), 0.5, 6, 77)
        visits = r.state_visit_counts
        assert visits["Foraging"] == r.arrivals
        assert visits["Approaching"] == r.detectable
        assert visits["MovedAway"] == r.arrivals - r.active_at_end
        assert visits["Crossing"] >= r.road_entries

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            run_trial(fast_config(Mode.CONTROL, time_step=-0.1), 0.1, 0, 0)

    @pytest.mark.parametrize("hours", [float("inf"), float("nan"), 0.0, -1.0])
    def test_rejects_nonpositive_or_nonfinite_duration(self, hours):
        with pytest.raises(ValueError, match="duration must be positive"):
            run_trial(fast_config(Mode.CONTROL), hours, 0, 0)

    def test_step_count_rounding(self):
        # 0.25 h = 9000 steps; the trial must complete without drift issues.
        r = run_trial(fast_config(Mode.CONTROL, arrival_rate=0.0), 0.25, 0, 0)
        assert r.sim_hours == 0.25

    def test_results_are_seed_sensitive(self):
        a = run_trial(fast_config(Mode.CONTROL), 0.5, 0, 1)
        b = run_trial(fast_config(Mode.CONTROL), 0.5, 0, 2)
        assert dataclasses.asdict(a) != dataclasses.asdict(b)


class TestArrivalsAfterLastStep:
    """Arrivals due after the last simulated step are never spawned, so the
    schedule leaves them out rather than counting them as arrivals."""

    @pytest.mark.parametrize("config, hours, trial_id, seed", [
        (replace_config(CorridorConfig(), arrival_rate=300, radar_spacing=5,
                        kappa=0.3), 0.125, 16, 10),
        (CorridorConfig(), 4.0, 10, 160),
    ])
    def test_conservation_holds(self, config, hours, trial_id, seed):
        r = run_trial(config, hours, trial_id, seed)
        assert r.exits_clean + r.collisions + r.active_at_end == r.arrivals
        schedule = make_arrival_schedule(config, hours, trial_id, seed)
        assert len(schedule) == r.arrivals
        last_now = (round(hours * 3600.0 / config.time_step) - 1) * config.time_step
        assert schedule[-1].time <= last_now


class TestTrialResultInvariantCheck:
    def test_breach_raises(self):
        r = TrialResult(trial_id=0, mode=Mode.CONTROL, seed=0, sim_hours=1.0,
                        arrivals=1, road_entries=0, collisions=1)
        with pytest.raises(Exception):
            r.check_invariants()


class NoVehicles:
    def __iter__(self):
        pytest.fail("a quiet step read the vehicles")


class NoDraws:
    def random(self, *args):
        pytest.fail("a quiet step drew a random number")

    uniform = random


def watch_asks(monkeypatch):
    """Record each ask of the engine for the sign and the drivers' alert, the
    desired speed of every vehicle step and each animal's sleep. Each stepped
    step, and each stretch the next-event gate jumps, asks ``dms_active`` for
    the sign, then ``DriverAlert.update``, once. Returns the list of asks,
    each [time, copies of the animals, the window's end, the sign, the alert
    after the update], the list of speeds and the list of sleeps, each (the
    time of the step whose phase 5 put the animal to sleep, a copy of it
    before ``take_quiet_steps``, the walk, what that returned, a copy after
    it)."""
    asks, speeds, sleeps = [], [], []
    dms_active = AwarenessState.dms_active
    update = DriverAlert.update
    advance = Fleet.advance
    take_quiet_steps = wvcsim.engine.take_quiet_steps

    def sign(self, animals, now):
        lit = dms_active(self, animals, now)
        asks.append([now, copies(animals), self.dms_active_until, lit])
        return lit

    def alert(self, dms, now, p):
        update(self, dms, now, p)
        asks[-1].append(dataclasses.replace(self))

    def owed(fleet, n_steps, v0, brake=None):
        speeds.extend([v0] * n_steps)
        return advance(fleet, n_steps, v0, brake)

    def slept(animal, walk):
        before = copy.deepcopy(animal)
        left = take_quiet_steps(animal, walk)
        sleeps.append((asks[-1][0], before, walk, left, copy.deepcopy(animal)))
        return left

    monkeypatch.setattr(AwarenessState, "dms_active", sign)
    monkeypatch.setattr(DriverAlert, "update", alert)
    monkeypatch.setattr(Fleet, "advance", owed)
    monkeypatch.setattr(wvcsim.engine, "take_quiet_steps", slept)
    return asks, speeds, sleeps


def stretches(asks, cfg, hours):
    """The stretches of more than one step in a trial's asks: a gap of more
    than one step between two asks, or between the last and the end. Each is
    (first step, steps, *the ask at its first step but the time)."""
    dt = cfg.time_step
    ks = [round(now / dt) for now, *_ in asks] + [_step_count(cfg, hours)]
    return [(k, k_next - k, *ask[1:])
            for k, k_next, ask in zip(ks, ks[1:], asks) if k_next - k > 1]


def run_watched(monkeypatch, cfg, hours, trial_id, seed=5):
    """Run one trial, watched; returns its result as a dict, its stretches,
    the desired speed of every vehicle step and its sleeps."""
    with monkeypatch.context() as m:
        asks, speeds, sleeps = watch_asks(m)
        result = dataclasses.asdict(run_trial(cfg, hours, trial_id, seed))
    return result, stretches(asks, cfg, hours), speeds, sleeps


def animal_bits(animal):
    """Every field of the animal; repr tells apart every two floats."""
    return repr(dataclasses.astuple(animal))


def check_sleeps(cfg, jumped, sleeps):
    """Each sleep of a trial, replayed one ``step_animal`` call at a time,
    takes quiet steps only: each starts with the animal detected or outside
    ``_radar_band``, starts and ends off the carriageway, draws nothing,
    reads no vehicle and leaves the animal in the corridor; the replay ends
    on the bits the sleep applied. Every animal present at a stretch sleeps
    through it. Returns the number of sleeps."""
    dt, rw = cfg.time_step, cfg.geometry.road_width
    lo, hi = wvcsim.engine._radar_band(build_corridor(cfg).radars, cfg.radar_range)
    asleep = {}
    for now, before, walk, left, after in sleeps:
        a = copy.deepcopy(before)
        for _ in range(walk[0]):
            assert a.detected or not lo <= a.y <= hi
            assert not 0.0 < a.y <= rw
            step_animal(a, NoVehicles(), dt, cfg.behaviour, cfg.geometry,
                        cfg.road_length, NoDraws())
            assert a.state is not Activity.MOVED_AWAY
            assert not 0.0 < a.y <= rw
        assert animal_bits(a) == animal_bits(after)
        assert left is (a.state is not before.state)
        first = round(now / dt) + 1
        asleep.setdefault(before.aid, []).append((first, first + walk[0]))
    for k, m, animals, *_ in jumped:
        for a in animals:
            assert any(s <= k and k + m <= e for s, e in asleep[a.aid])
    return len(sleeps)


def no_stretch(schedule, next_arrival, k, dt, n_steps):
    """A stand-in for ``_stretch_end`` that holds the next-event gate shut."""
    return k


def no_sleep(animal, limit, *args):
    """A stand-in for ``quiet_steps`` that keeps every animal awake."""
    return 0, animal.state, animal.dwell_remaining, animal.y


CROWDED = dict(arrival_rate=300.0, radar_spacing=5.0, kappa=0.3)

# "wide-radar": every radar's band reaches past the spawn offset, so an
# animal foraging undetected is never quiet.
IDLE_OVERRIDES = pytest.mark.parametrize("overrides", [
    {}, {"time_step": 0.05}, {"time_step": 0.2},
    {"vehicles_per_direction": 0}, {"vehicles_per_direction": 1},
    {"arrival_rate": 60.0}, {"radar_range": 30.0}, CROWDED,
], ids=["default", "dt0.05", "dt0.2", "no-vehicles", "free-vehicles", "rate60",
        "wide-radar", "crowded"])


class TestIdleStretch:
    """Jumping stretches and sleeping through quiet runs change no output:
    each trial run as is, and again with the next-event gate held shut and
    every animal kept awake (every step of every animal through the per-step
    loop), gives the same result."""

    def same_result(self, monkeypatch, cfg, hours, trial_ids):
        with_animals = slept = 0
        for trial_id in trial_ids:
            fast, jumped, _, sleeps = run_watched(monkeypatch, cfg, hours, trial_id)
            with monkeypatch.context() as m:
                m.setattr(wvcsim.engine, "_stretch_end", no_stretch)
                m.setattr(wvcsim.engine, "quiet_steps", no_sleep)
                stepped, shut, _, shut_sleeps = run_watched(m, cfg, hours, trial_id)
            assert fast == stepped
            assert jumped and not shut
            assert not shut_sleeps
            with_animals += sum(1 for _, _, animals, *_ in jumped if animals)
            slept += len(sleeps)
        assert with_animals  # some stretch opened with animals present
        assert slept  # and some animal slept

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_same_result_as_stepping_every_step(self, monkeypatch, mode, overrides):
        self.same_result(monkeypatch, fast_config(mode, **overrides), 0.25, range(2))

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.AWARE])
    def test_same_result_on_a_paper_length_trial(self, monkeypatch, mode):
        self.same_result(monkeypatch, fast_config(mode), 4.0, [0])

    @pytest.mark.parametrize("mode", [Mode.DETECTION, Mode.AWARE])
    def test_same_result_where_an_approach_step_passes_the_band_margin(
            self, monkeypatch, mode):
        # At 0.8 s steps an animal approaching from the spawn offset walks
        # 1.2 m a step, from outside ``_radar_band`` to inside a radar's
        # reach, past the band's 1 m margin: an undetected sleeper wakes
        # where phase 2 would try it, so phase 2 must skip it while it
        # sleeps.
        cfg = fast_config(mode, time_step=0.8, arrival_rate=60.0)
        lo, _ = wvcsim.engine._radar_band(build_corridor(cfg).radars,
                                          cfg.radar_range)
        y = cfg.geometry.spawn_offset
        while y < lo:
            y += cfg.behaviour.v_approach * cfg.time_step
        assert y > lo + 1.0
        self.same_result(monkeypatch, cfg, 1.0, range(2))

    def test_stretch_ends_where_the_arrival_spawns(self, monkeypatch):
        cfg = fast_config(Mode.CONTROL)
        schedule = make_arrival_schedule(cfg, 0.25, 0, 5)
        _, jumped, *_ = run_watched(monkeypatch, cfg, 0.25, 0)
        first_due = next(k for k in range(9000) if schedule[0].time <= k * cfg.time_step)
        assert jumped[0][:3] == (0, first_due, [])

    def test_overlap_raised_at_the_same_step(self, monkeypatch):
        # A follower at 30 m/s, 20 m behind a stopped leader, cannot stop in
        # time: both paths must name the same vehicles at the same time.
        def crash_world(config):
            world = build_corridor(config)
            follower = world.vehicles[0]
            leader = world.vehicles[follower.leader]
            follower.x = (leader.x - 25.0 * follower.direction) % config.road_length
            follower.v, leader.v = 30.0, 0.0
            return world

        monkeypatch.setattr(wvcsim.engine, "build_corridor", crash_world)
        cfg = fast_config(Mode.CONTROL, arrival_rate=0.0)
        with monkeypatch.context() as m:
            asks, *_ = watch_asks(m)
            with pytest.raises(EngineInvariantError) as fast:
                run_trial(cfg, 0.01, 0, 0)
        assert stretches(asks, cfg, 0.01)
        monkeypatch.setattr(wvcsim.engine, "_stretch_end", no_stretch)
        with pytest.raises(EngineInvariantError) as stepped:
            run_trial(cfg, 0.01, 0, 0)
        assert str(fast.value) == str(stepped.value)
        assert "overlap at t=" in str(fast.value)


def count_integration(monkeypatch):
    """Wrap the vehicle kernel, which takes every vehicle step, braking or
    not; returns a one-item counter of the vehicle-steps it integrates."""
    count = [0]
    advance = Fleet.advance

    def counted(fleet, n_steps, *args):
        count[0] += n_steps * len(fleet.vehicles)
        return advance(fleet, n_steps, *args)

    monkeypatch.setattr(Fleet, "advance", counted)
    return count


def record_desired_speeds(monkeypatch):
    """Wrap the vehicle kernel; returns the list of the desired speed of
    each call that took steps."""
    speeds = []
    advance = Fleet.advance

    def recorded(fleet, n_steps, v0, *args):
        if n_steps:
            speeds.append(v0)
        return advance(fleet, n_steps, v0, *args)

    monkeypatch.setattr(Fleet, "advance", recorded)
    return speeds


def require_compiled_kernel():
    if not wvcsim.vehicles.load_kernel():
        pytest.skip("no compiled vehicle kernel on this host")


# Every activity reads the vehicles: each awake animal's step settles them.
EAGER = frozenset(Activity)


class TestKernelMatchesPython:
    """The cruising vehicles' trajectory changes no output for the kernel
    that integrates it: each trial run on the compiled kernel, and again
    with it withheld (the Python body of ``Fleet.advance`` integrates every
    step), gives the same result and integrates as many vehicle-steps."""

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_same_result_as_integrating(self, monkeypatch, mode, overrides):
        require_compiled_kernel()
        cfg = fast_config(mode, **overrides)
        count = count_integration(monkeypatch)
        for trial_id in range(2):
            count[0] = 0
            compiled = dataclasses.asdict(run_trial(cfg, 0.25, trial_id, 5))
            stepped = count[0]
            count[0] = 0
            with monkeypatch.context() as m:
                m.setattr(wvcsim.vehicles, "_kernel", False)
                integrated = dataclasses.asdict(run_trial(cfg, 0.25, trial_id, 5))
            assert compiled == integrated
            assert stepped == count[0]
            if cfg.vehicles_per_direction == 0:
                assert stepped == 0
            else:
                assert stepped > 0

    def test_mid_trial_alert_same_on_both_kernels(self, monkeypatch):
        # A Control trial whose sign is lit from 300 s on: the vehicles cruise
        # until the drivers are alerted, then slow to the caution speed.
        require_compiled_kernel()
        monkeypatch.setattr(AwarenessState, "dms_active",
                            lambda self, animals, now: now >= 300.0)
        monkeypatch.setattr(wvcsim.engine, "_stretch_end", no_stretch)
        cfg = fast_config(Mode.CONTROL)
        speeds = record_desired_speeds(monkeypatch)
        compiled = dataclasses.asdict(run_trial(cfg, 0.25, 0, 5))
        assert speeds[0] == cfg.idm.v_cruise
        assert cfg.idm.v_caution in speeds
        monkeypatch.setattr(wvcsim.vehicles, "_kernel", False)
        assert dataclasses.asdict(run_trial(cfg, 0.25, 0, 5)) == compiled


class ReadLog:
    """The vehicles as ``step_animal`` sees them: each time the animal's step
    reads them, what it read goes on the log."""

    def __init__(self, vehicles, animal, seen):
        self.vehicles, self.animal, self.seen = vehicles, animal, seen

    def __iter__(self):
        self.seen.append(("step", self.animal.aid, self.animal.state,
                          vehicle_states(self.vehicles)))
        return iter(self.vehicles)


def vehicle_states(vehicles):
    return [(v.x, v.v, v.emergency_braking) for v in vehicles]


def record_vehicle_reads(monkeypatch):
    """Wrap every engine call that reads the vehicles; returns the list of
    what each one saw: the (x, v, emergency_braking) of every vehicle, and
    for a collision scan the pairs it found. An animal's step counts only
    when it does read them."""
    seen = []
    step_animal = wvcsim.engine.step_animal
    detect_collisions = wvcsim.engine.detect_collisions
    states = vehicle_states

    def stepped(animal, vehicles, *args):
        return step_animal(animal, ReadLog(vehicles, animal, seen), *args)

    def collided(vehicles, *args):
        pairs = detect_collisions(vehicles, *args)
        seen.append(("collide", states(vehicles), pairs))
        return pairs

    monkeypatch.setattr(wvcsim.engine, "step_animal", stepped)
    monkeypatch.setattr(wvcsim.engine, "detect_collisions", collided)
    return seen


class TestOwedSteps:
    """Owing the vehicle steps nothing reads changes no output and nothing
    any reader sees: each trial run as is, and again settling the debt before
    every animal's step, gives the same result and the same vehicle states
    at every read."""

    def same_as_eager(self, monkeypatch, cfg, hours):
        n_reads = 0
        for trial_id in range(2):
            with monkeypatch.context() as m:
                lazy_reads = record_vehicle_reads(m)
                lazy = dataclasses.asdict(run_trial(cfg, hours, trial_id, 5))
            with monkeypatch.context() as m:
                eager_reads = record_vehicle_reads(m)
                m.setattr(wvcsim.engine, "DANGEROUS_STATES", EAGER)
                eager = dataclasses.asdict(run_trial(cfg, hours, trial_id, 5))
            assert lazy == eager
            assert lazy_reads == eager_reads
            n_reads += len(lazy_reads)
        assert n_reads  # something did read the vehicles

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_same_as_settling_every_step(self, monkeypatch, mode, overrides):
        self.same_as_eager(monkeypatch, fast_config(mode, **overrides), 0.25)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    def test_same_as_settling_every_step_crowded(self, monkeypatch, mode):
        self.same_as_eager(monkeypatch, fast_config(mode, **CROWDED), 0.05)

    @pytest.mark.parametrize("mode, kernel", [
        pytest.param(mode, kernel,
                     id=mode.value if kernel == "compiled" else f"{mode.value}-python")
        for kernel in ("compiled", "python")
        for mode in (Mode.CONTROL, Mode.DETECTION, Mode.AWARE)
    ], indirect=["kernel"])
    @pytest.mark.parametrize("overrides", [
        {}, {"time_step": 0.05}, {"time_step": 0.2}, {"vehicles_per_direction": 1},
        {"arrival_rate": 60.0}, CROWDED,
    ], ids=["default", "dt0.05", "dt0.2", "free-vehicles", "rate60", "crowded"])
    def test_every_step_integrated_once(self, monkeypatch, mode, overrides, kernel):
        cfg = fast_config(mode, **overrides)
        count = count_integration(monkeypatch)
        hours = 0.1
        n_steps = round(hours * 3600.0 / cfg.time_step)
        n_vehicles = 2 * cfg.vehicles_per_direction
        for trial_id in range(2):
            count[0] = 0
            run_trial(cfg, hours, trial_id, 5)
            assert count[0] == n_steps * n_vehicles

    @pytest.mark.parametrize("r_det", [15.0, 1e6])
    def test_no_radar_covers_an_animal_outside_the_band(self, r_det):
        cfg = fast_config(Mode.DETECTION, radar_range=r_det)
        radars = build_corridor(cfg).radars
        lo, hi = wvcsim.engine._radar_band(radars, r_det)
        assert lo < min(node.y for node in radars) - r_det
        assert hi > max(node.y for node in radars) + r_det
        xs = [node.x for node in radars] + [0.5 * cfg.radar_spacing, cfg.road_length]
        for y in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            for x in xs:
                assert radars_in_range(x, y, radars, cfg.radar_spacing, r_det) == []


def old_braking_step(vehicles, candidates, v0, cfg, trial_id, now):
    """The engine's phase-4 loop for a braking step from before braking steps
    ran in the vehicle kernel, kept as an oracle: per vehicle the ring gap,
    the overlap check, ``idm_acceleration`` and the brake override, then
    ``step_vehicles``."""
    idm, geometry, L = cfg.idm, cfg.geometry, cfg.road_length
    veh_length = geometry.vehicle_length
    accels = [0.0] * len(vehicles)
    for i, v in enumerate(vehicles):
        if v.leader < 0:
            gap = FREE_ROAD_GAP
            dv = 0.0
        else:
            lead = vehicles[v.leader]
            gap = ((lead.x - v.x) * v.direction) % L - veh_length
            if gap <= 0.0:
                raise wvcsim.engine._overlap(trial_id, v, lead, now)
            dv = v.v - lead.v
        a_cmd = idm_acceleration(v.v, v0, dv, gap, idm)
        if emergency_brake_needed(v, candidates, geometry, idm, L):
            a_cmd = -idm.a_em
            v.emergency_braking = True
        else:
            v.emergency_braking = False
        accels[i] = a_cmd
    step_vehicles(vehicles, accels, cfg.time_step, L)


def bits(vehicles):
    return [(struct.pack("<2d", v.x, v.v), v.emergency_braking) for v in vehicles]


def copies(items):
    return [copy.copy(item) for item in items]


class TestBrakingStep:
    """A braking step is one step of the vehicle kernel with brake flags: it
    gives the bits, flags and errors of the per-step loop it replaced."""

    @pytest.mark.parametrize("kernel", ["compiled", "python"], indirect=True)
    def test_same_bits_as_the_old_loop(self, monkeypatch, kernel):
        cfg = fast_config(Mode.AWARE, **CROWDED)
        snapshots = []
        candidates = []
        brake = wvcsim.engine.emergency_brake_needed
        advance = Fleet.advance

        def braked_for(vehicle, animals, *args):
            candidates[:] = [animals]
            return brake(vehicle, animals, *args)

        def recorded(fleet, n_steps, v0, flags=None):
            if flags is not None:
                snapshots.append((copies(fleet.vehicles), copies(candidates[0]), v0))
            return advance(fleet, n_steps, v0, flags)

        with monkeypatch.context() as m:
            m.setattr(wvcsim.engine, "emergency_brake_needed", braked_for)
            m.setattr(Fleet, "advance", recorded)
            for trial_id in range(2):
                run_trial(cfg, 0.05, trial_id, 5)
        braked = 0
        for vehicles, animals, v0 in snapshots:
            old = copies(vehicles)
            old_braking_step(old, animals, v0, cfg, 0, 0.0)
            new = copies(vehicles)
            flags = [emergency_brake_needed(v, animals, cfg.geometry, cfg.idm,
                                            cfg.road_length) for v in new]
            Fleet(new, cfg.idm, cfg.time_step, cfg.road_length,
                  cfg.geometry.vehicle_length).advance(1, v0, flags)
            assert bits(new) == bits(old)
            braked += sum(flags)
        assert braked  # some driver did brake

    def test_overlap_raised_as_by_the_old_loop(self, monkeypatch):
        # Drivers alerted from 1.5 s on brake for an animal held still on the
        # carriageway just ahead of a stopped leader, which nothing hits; a
        # follower at 30 m/s, 40 m behind that leader, reaches it after the
        # alert, on a braking step.
        cfg = fast_config(Mode.CONTROL, arrival_rate=0.0)
        leader_x = 250.0
        animal = road_animal(leader_x + 8.0, GEO.lane_centre(0))

        def crash_world(config):
            world = build_corridor(config)
            follower = world.vehicles[0]
            leader = world.vehicles[follower.leader]
            assert (leader.x, leader.lane, leader.direction) == (leader_x, 0, 1)
            follower.x = leader_x - 40.0
            follower.v, leader.v = 30.0, 0.0
            return world

        clock = []
        expected = []
        advance = Fleet.advance

        def checked(fleet, n_steps, v0, flags=None):
            if flags is not None:
                try:
                    old_braking_step(copies(fleet.vehicles), [animal], v0, cfg, 0,
                                     clock[-1])
                except EngineInvariantError as exc:
                    expected.append(str(exc))
            return advance(fleet, n_steps, v0, flags)

        monkeypatch.setattr(AwarenessState, "dms_active",
                            lambda self, animals, now: clock.append(now) or True)
        monkeypatch.setattr(wvcsim.engine, "build_corridor", crash_world)
        # One arrival, due at t = 0, spawns as the animal on the carriageway.
        monkeypatch.setattr(wvcsim.engine, "sample_arrivals",
                            lambda *args: [Arrival(0.0, animal.x, animal.sigma)])
        monkeypatch.setattr(wvcsim.engine, "AnimalState", lambda **kw: animal)
        monkeypatch.setattr(wvcsim.engine, "step_animal", lambda *args: None)
        monkeypatch.setattr(wvcsim.engine, "detect_collisions", lambda *args: [])
        monkeypatch.setattr(Fleet, "advance", checked)
        with pytest.raises(EngineInvariantError) as exc:
            run_trial(cfg, 0.01, 0, 0)
        assert "overlap at t=" in str(exc.value)
        assert expected == [str(exc.value)]


WIDE_ANIMAL = dataclasses.replace(GEO, animal_radius=1.5)


class TestContactBand:
    """A vehicle meets an animal only on the carriageway, 0 < y <= road
    width, the one band every per-step road test gates on:
    ``detect_collisions`` pairs no animal off it, phase 6 finds what scanning
    every step finds and scans after exactly the steps that leave an animal
    on it, and drivers brake only for animals on it."""

    @pytest.mark.parametrize("geometry, edge_in_reach", [(GEO, False),
                                                         (WIDE_ANIMAL, True)],
                             ids=["default", "wide-animal"])
    def test_nothing_pairs_off_the_carriageway(self, geometry, edge_in_reach):
        rw = geometry.road_width
        # Vehicles every 0.5 m of a 1000 m ring, in every lane.
        fleet = [vehicle(0.5 * i, lane=lane, direction=1 - 2 * lane,
                         vid=2000 * lane + i)
                 for lane in range(geometry.n_lanes) for i in range(2000)]
        for y in (math.nextafter(0.0, -math.inf), 0.0, math.nextafter(rw, math.inf)):
            animals = [road_animal(x, y, aid=i)
                       for i, x in enumerate((0.0, 0.25, 500.1, 999.75))]
            assert detect_collisions(fleet, animals, geometry, 1000.0) == []
        # Where a vehicle's reach passes the edges, the carriageway test is
        # the filter: just inside either edge, an animal pairs.
        for y in (math.nextafter(0.0, math.inf), rw):
            pairs = detect_collisions(fleet, [road_animal(500.1, y)], geometry, 1000.0)
            assert bool(pairs) is edge_in_reach

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @pytest.mark.parametrize("overrides", [CROWDED, {"geometry": WIDE_ANIMAL}],
                             ids=["crowded", "wide-animal"])
    def test_same_as_scanning_every_step(self, monkeypatch, mode, overrides):
        # Both runs must end alike: with equal results, or with the same
        # invariant error should a trial break one.
        def outcome(cfg, hours, trial_id):
            try:
                return dataclasses.asdict(run_trial(cfg, hours, trial_id, 5))
            except EngineInvariantError as exc:
                return str(exc)

        cfg = fast_config(mode, **overrides)
        hours = 0.05 if overrides is CROWDED else 0.25
        geometry, L = cfg.geometry, cfg.road_length
        dms_active = AwarenessState.dms_active
        step_animal = wvcsim.engine.step_animal
        detect_collisions = wvcsim.engine.detect_collisions
        for trial_id in range(2):
            gated = outcome(cfg, hours, trial_id)
            # The scanning run settles the vehicles before every animal's
            # step, as the eager run of ``TestOwedSteps`` does, and scans every
            # stepped step's animals itself when the step ends: at the next
            # ``dms_active`` call or the trial's end, before anything moves an
            # animal or a vehicle. One entry per step or stretch: [the
            # vehicles, the animals phase 5 stepped, the pairs phase 6 found,
            # or None where it did not scan].
            steps = []
            every = []  # (phase 6's pairs, the scan's) per stepped step

            def close():
                if steps and steps[-1][1]:
                    vehicles, animals, pairs = steps[-1]
                    every.append((pairs, detect_collisions(vehicles, animals,
                                                           geometry, L)))

            def sign(self, animals, now):
                close()
                steps.append([None, [], None])
                return dms_active(self, animals, now)

            def stepped(animal, vehicles, *args):
                step_animal(animal, vehicles, *args)
                steps[-1][0] = vehicles
                steps[-1][1].append(animal)

            def scanned(*args):
                steps[-1][2] = detect_collisions(*args)
                return steps[-1][2]

            with monkeypatch.context() as m:
                m.setattr(wvcsim.engine, "DANGEROUS_STATES", EAGER)
                m.setattr(AwarenessState, "dms_active", sign)
                m.setattr(wvcsim.engine, "step_animal", stepped)
                m.setattr(wvcsim.engine, "detect_collisions", scanned)
                assert outcome(cfg, hours, trial_id) == gated
            close()
            # What phase 6 found is what scanning every step finds ...
            assert [pairs or [] for pairs, _ in every] == [found for _, found in every]
            # ... and the gate skipped scans.
            assert any(pairs is None for pairs, _ in every)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @pytest.mark.parametrize("overrides", [CROWDED, {"geometry": WIDE_ANIMAL}],
                             ids=["crowded", "wide-animal"])
    def test_scans_after_the_steps_leaving_an_animal_on_the_carriageway(
            self, monkeypatch, mode, overrides):
        cfg = fast_config(mode, **overrides)
        rw = cfg.geometry.road_width
        hours = 0.05 if overrides is CROWDED else 0.25
        dms_active = AwarenessState.dms_active
        step_animal = wvcsim.engine.step_animal
        detect_collisions = wvcsim.engine.detect_collisions
        # One entry per ``dms_active`` call, the start of a stepped step or
        # of a stretch: [the y of each animal after its phase-5 step, scans].
        steps = []

        def sign(self, animals, now):
            steps.append([[], 0])
            return dms_active(self, animals, now)

        def stepped(animal, *args):
            step_animal(animal, *args)
            steps[-1][0].append(animal.y)

        def scanned(*args):
            steps[-1][1] += 1
            return detect_collisions(*args)

        monkeypatch.setattr(AwarenessState, "dms_active", sign)
        monkeypatch.setattr(wvcsim.engine, "step_animal", stepped)
        monkeypatch.setattr(wvcsim.engine, "detect_collisions", scanned)
        for trial_id in range(2):
            run_trial(cfg, hours, trial_id, 5)
        on_road = [any(0.0 < y <= rw for y in ys) for ys, _ in steps]
        assert [scans for _, scans in steps] == [int(hit) for hit in on_road]
        assert any(on_road)
        # Some stepped step left animals, all off the carriageway.
        assert any(ys and not hit for (ys, _), hit in zip(steps, on_road))

    @pytest.mark.parametrize("mode", [Mode.DETECTION, Mode.AWARE])
    def test_brakes_only_for_carriageway_animals(self, monkeypatch, mode):
        lowest = []
        brake = wvcsim.engine.emergency_brake_needed

        def spied(vehicle, animals, *args):
            lowest.append(min(a.y for a in animals))
            return brake(vehicle, animals, *args)

        monkeypatch.setattr(wvcsim.engine, "emergency_brake_needed", spied)
        for trial_id in range(2):
            run_trial(fast_config(mode, **CROWDED), 0.05, trial_id, 5)
        assert lowest
        assert min(lowest) > 0.0

    @pytest.mark.parametrize("trial_id", range(3))
    def test_wide_animal_control_trials_complete(self, trial_id):
        # These trials hit animals waiting at the edge and failed their
        # invariant check with "collisions exceed road entries".
        r = run_trial(fast_config(Mode.CONTROL, geometry=WIDE_ANIMAL), 0.25,
                      trial_id, 5)
        assert r.collisions <= r.road_entries


class TestIdleGate:
    """The old idle gate's stretches, which opened only with the sign off,
    are a special case of the next-event gate: at every stretch that opens
    with the sign off the drivers are unalerted with no onset, the window is
    closed, and every vehicle step of it is owed at cruise speed."""

    def check(self, monkeypatch, cfg, hours):
        dt, v_cruise = cfg.time_step, cfg.idm.v_cruise
        seen = []
        for trial_id in range(2):
            _, jumped, speeds, _ = run_watched(monkeypatch, cfg, hours, trial_id)
            for k, m, _, window_end, lit, alert in jumped:
                if not lit:
                    seen.append(window_end)
                    assert not alert.alerted and alert.onset is None
                    assert k * dt >= window_end
                    assert set(speeds[k:k + m]) == {v_cruise}
        assert seen  # the gate did open with the sign off
        if cfg.mode is not Mode.CONTROL:
            # Some such stretch followed a lit sign.
            assert any(end > -math.inf for end in seen)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_sign_off_at_every_stretch(self, monkeypatch, mode, overrides):
        self.check(monkeypatch, fast_config(mode, **overrides), 0.25)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    def test_sign_off_at_every_stretch_crowded(self, monkeypatch, mode):
        self.check(monkeypatch, fast_config(mode, **CROWDED), 0.05)


class TestNextEventGate:
    """The sign, the drivers' alert and their desired speed hold across every
    stretch the gate jumps: ``dms_active`` and ``DriverAlert.update`` give at
    its last step what they gave at its first, and every vehicle step of it
    is owed at that speed. Its animals sleep through it, and each sleep's
    steps, taken one ``step_animal`` call at a time, are quiet
    (``check_sleeps``)."""

    def check(self, monkeypatch, cfg, hours):
        dt, idm = cfg.time_step, cfg.idm
        sign = AwarenessState(cfg, 0)
        lit_seen = animals_seen = sleeps_seen = 0
        for trial_id in range(2):
            _, jumped, speeds, sleeps = run_watched(monkeypatch, cfg, hours, trial_id)
            assert len(speeds) == _step_count(cfg, hours)
            sleeps_seen += check_sleeps(cfg, jumped, sleeps)
            for k, m, animals, window_end, lit, alert in jumped:
                sign.dms_active_until = window_end
                assert sign.dms_active(animals, k * dt) is lit
                last = (k + m - 1) * dt
                assert sign.dms_active(animals, last) is lit
                held = dataclasses.replace(alert)
                held.update(lit, last, idm)
                assert held == alert
                assert set(speeds[k:k + m]) == {alert.desired_speed(idm)}
                lit_seen += lit
                animals_seen += bool(animals)
        assert animals_seen  # some stretch opened with animals present
        assert sleeps_seen
        if cfg.mode is not Mode.CONTROL:
            assert lit_seen  # and some with the sign lit

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_sign_and_alert_hold_across_every_stretch(self, monkeypatch, mode,
                                                      overrides):
        self.check(monkeypatch, fast_config(mode, **overrides), 0.25)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_nothing_to_spawn_try_or_brake_for_in_a_stretch(self, monkeypatch, mode,
                                                           overrides):
        # What lets a stretch skip phases 1-3 and the brake tests at its first
        # step: no arrival spawns in it, and each of its animals sleeps
        # through it off the carriageway; each step of a sleep starts with
        # the animal detected or outside every radar's band
        # (``check_sleeps``).
        cfg = fast_config(mode, **overrides)
        dt, road_width = cfg.time_step, cfg.geometry.road_width
        animals_seen = 0
        for trial_id in range(2):
            spawns = spawn_steps(make_arrival_schedule(cfg, 0.25, trial_id, 5), dt)
            _, jumped, _, sleeps = run_watched(monkeypatch, cfg, 0.25, trial_id)
            check_sleeps(cfg, jumped, sleeps)
            for k, m, animals, *_ in jumped:
                assert not any(k <= j < k + m for j in spawns)
                for a in animals:
                    assert not 0.0 < a.y <= road_width
                animals_seen += bool(animals)
        assert animals_seen  # some stretch opened with animals present


def spawn_steps(schedule, dt):
    """The step at which phase 1 spawns each arrival, due at ``t``: the first
    step ``j`` with ``t <= j * dt``."""
    steps, j = [], 0
    for arrival in schedule:
        while not arrival.time <= j * dt:
            j += 1
        steps.append(j)
    return steps
