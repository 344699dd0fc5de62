import copy
import dataclasses
import math
import struct

import pytest

import wvcsim.engine
import wvcsim.vehicles
from wvcsim.animals import Activity, AnimalState
from wvcsim.awareness import AwarenessState
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, build_corridor,
                           replace_config)
from wvcsim.detection import radars_in_range
from wvcsim.engine import (EngineInvariantError, RngStreams, TrialResult,
                           detect_collisions, make_arrival_schedule, run_trial)
from wvcsim.vehicles import (FREE_ROAD_GAP, Fleet, VehicleState,
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


def count_idle_stretches(monkeypatch):
    """Wrap the engine's idle-stretch gate; returns the step count of every
    stretch it opened."""
    calls = []
    stretch_end = wvcsim.engine._stretch_end

    def counted(schedule, next_arrival, k, dt, n_steps):
        k_end = stretch_end(schedule, next_arrival, k, dt, n_steps)
        if k_end > k:
            calls.append(k_end - k)
        return k_end

    monkeypatch.setattr(wvcsim.engine, "_stretch_end", counted)
    return calls


def no_stretch(schedule, next_arrival, k, dt, n_steps):
    """A stand-in for ``_stretch_end`` that holds the idle gate shut."""
    return k


IDLE_OVERRIDES = pytest.mark.parametrize("overrides", [
    {}, {"time_step": 0.05}, {"time_step": 0.2},
    {"vehicles_per_direction": 0}, {"vehicles_per_direction": 1},
    {"arrival_rate": 60.0},
], ids=["default", "dt0.05", "dt0.2", "no-vehicles", "free-vehicles", "rate60"])


class TestIdleStretch:
    """Skipping idle stretches changes no output: each trial run with the
    idle gate, and again with the gate held shut (every step through the
    per-step loop), gives the same result."""

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_same_result_as_stepping_every_step(self, monkeypatch, mode, overrides):
        cfg = fast_config(mode, **overrides)
        stretches = count_idle_stretches(monkeypatch)
        for trial_id in range(2):
            fast = dataclasses.asdict(run_trial(cfg, 0.25, trial_id, 5))
            with monkeypatch.context() as m:
                m.setattr(wvcsim.engine, "_stretch_end", no_stretch)
                stepped = dataclasses.asdict(run_trial(cfg, 0.25, trial_id, 5))
            assert fast == stepped
        assert stretches  # the gate did open

    def test_stretch_ends_where_the_arrival_spawns(self, monkeypatch):
        cfg = fast_config(Mode.CONTROL)
        stretches = count_idle_stretches(monkeypatch)
        schedule = make_arrival_schedule(cfg, 0.25, 0, 5)
        run_trial(cfg, 0.25, 0, 5)
        first_due = next(k for k in range(9000) if schedule[0].time <= k * cfg.time_step)
        assert stretches[0] == first_due

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
        stretches = count_idle_stretches(monkeypatch)
        with pytest.raises(EngineInvariantError) as fast:
            run_trial(cfg, 0.01, 0, 0)
        assert stretches
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


class TestCruiseTable:
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


CROWDED = dict(arrival_rate=300.0, radar_spacing=5.0, kappa=0.3)


def record_vehicle_reads(monkeypatch):
    """Wrap every engine call that reads the vehicles; returns the list of
    what each one saw: the (x, v, emergency_braking) of every vehicle, and
    for a collision scan the pairs it found."""
    seen = []
    step_animal = wvcsim.engine.step_animal
    detect_collisions = wvcsim.engine.detect_collisions
    readers = (Activity.HESITATING, Activity.CROSSING, Activity.FROZEN)

    def states(vehicles):
        return [(v.x, v.v, v.emergency_braking) for v in vehicles]

    def stepped(animal, vehicles, *args):
        if animal.state in readers:
            seen.append(("step", animal.aid, animal.state, states(vehicles)))
        return step_animal(animal, vehicles, *args)

    def collided(vehicles, *args):
        pairs = detect_collisions(vehicles, *args)
        seen.append(("collide", states(vehicles), pairs))
        return pairs

    monkeypatch.setattr(wvcsim.engine, "step_animal", stepped)
    monkeypatch.setattr(wvcsim.engine, "detect_collisions", collided)
    return seen


class TestOwedSteps:
    """Owing the vehicle steps nothing reads changes no output and nothing
    any reader sees: each trial run as is, and again settling the debt on
    every stepped step, gives the same result and the same vehicle states
    at every read."""

    def same_as_eager(self, monkeypatch, cfg, hours):
        n_reads = 0
        for trial_id in range(2):
            with monkeypatch.context() as m:
                lazy_reads = record_vehicle_reads(m)
                lazy = dataclasses.asdict(run_trial(cfg, hours, trial_id, 5))
            with monkeypatch.context() as m:
                eager_reads = record_vehicle_reads(m)
                m.setattr(wvcsim.engine, "_reads_vehicles", lambda active: True)
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
            world.animals.append(animal)
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
        monkeypatch.setattr(wvcsim.engine, "step_animal", lambda *args: None)
        monkeypatch.setattr(wvcsim.engine, "detect_collisions", lambda *args: [])
        monkeypatch.setattr(Fleet, "advance", checked)
        with pytest.raises(EngineInvariantError) as exc:
            run_trial(cfg, 0.01, 0, 0)
        assert "overlap at t=" in str(exc.value)
        assert expected == [str(exc.value)]


WIDE_ANIMAL = dataclasses.replace(GEO, animal_radius=1.5)


class TestContactBand:
    """Phase 6 runs only with an animal inside ``_contact_band``; outside it
    ``detect_collisions`` pairs nothing, so skipping the scan changes no
    output and nothing any reader sees."""

    @pytest.mark.parametrize("geometry, edge_inside", [(GEO, False),
                                                       (WIDE_ANIMAL, True)],
                             ids=["default", "wide-animal"])
    def test_nothing_pairs_just_outside_the_band(self, geometry, edge_inside):
        lo, hi = wvcsim.engine._contact_band(geometry)
        assert (lo <= 0.0 <= hi) is edge_inside
        # Vehicles every 0.5 m of a 1000 m ring, in every lane.
        fleet = [vehicle(0.5 * i, lane=lane, direction=1 - 2 * lane,
                         vid=2000 * lane + i)
                 for lane in range(geometry.n_lanes) for i in range(2000)]
        for y in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            animals = [road_animal(x, y, aid=i)
                       for i, x in enumerate((0.0, 0.25, 500.1, 999.75))]
            assert detect_collisions(fleet, animals, geometry, 1000.0) == []
        # No wider than it must be: just inside either edge, an animal pairs.
        for y in (lo + 1e-5, hi - 1e-5):
            assert detect_collisions(fleet, [road_animal(500.1, y)], geometry,
                                     1000.0)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @pytest.mark.parametrize("overrides", [CROWDED, {"geometry": WIDE_ANIMAL}],
                             ids=["crowded", "wide-animal"])
    def test_same_as_scanning_every_step(self, monkeypatch, mode, overrides):
        # Every read but the scans that found nothing, which only the
        # ungated run makes.
        def found(reads):
            return [r for r in reads if r[0] == "step" or r[2]]

        # Both runs must end alike: with equal results, or with the same
        # invariant error should a trial break one.
        def outcome(cfg, hours, trial_id):
            try:
                return dataclasses.asdict(run_trial(cfg, hours, trial_id, 5))
            except EngineInvariantError as exc:
                return str(exc)

        cfg = fast_config(mode, **overrides)
        hours = 0.05 if overrides is CROWDED else 0.25
        for trial_id in range(2):
            with monkeypatch.context() as m:
                gated_reads = record_vehicle_reads(m)
                gated = outcome(cfg, hours, trial_id)
            with monkeypatch.context() as m:
                every_reads = record_vehicle_reads(m)
                m.setattr(wvcsim.engine, "_contact_band",
                          lambda geometry: (-math.inf, math.inf))
                every = outcome(cfg, hours, trial_id)
            assert gated == every
            assert found(gated_reads) == found(every_reads)
            assert len(gated_reads) < len(every_reads)  # the gate skipped scans

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


def watch_idle_gate(monkeypatch):
    """Wrap the idle gate; returns, for every stretch it opens, the drivers'
    (alerted, onset), the stretch's start time and the sign window's end."""
    seen = []
    alerts, signs = [], []
    make_alert = wvcsim.engine.DriverAlert
    make_sign = wvcsim.engine.AwarenessState
    stretch_end = wvcsim.engine._stretch_end

    def alert():
        alerts.append(make_alert())
        return alerts[-1]

    def sign(*args):
        signs.append(make_sign(*args))
        return signs[-1]

    def opened(schedule, next_arrival, k, dt, n_steps):
        k_end = stretch_end(schedule, next_arrival, k, dt, n_steps)
        if k_end > k:
            seen.append((alerts[-1].alerted, alerts[-1].onset, k * dt,
                         signs[-1].dms_active_until))
        return k_end

    monkeypatch.setattr(wvcsim.engine, "DriverAlert", alert)
    monkeypatch.setattr(wvcsim.engine, "AwarenessState", sign)
    monkeypatch.setattr(wvcsim.engine, "_stretch_end", opened)
    return seen


class TestIdleGate:
    """The idle gate opens only once a stepped step has found the sign off,
    so every stretch starts with the drivers unalerted and no live window:
    the gate has nothing to reset and owes its steps at cruise speed."""

    def check(self, monkeypatch, cfg, hours):
        seen = watch_idle_gate(monkeypatch)
        for trial_id in range(2):
            run_trial(cfg, hours, trial_id, 5)
        assert seen  # the gate did open
        for alerted, onset, now, window_end in seen:
            assert not alerted and onset is None
            assert now >= window_end
        if cfg.mode is not Mode.CONTROL:
            # Some stretch followed a lit sign.
            assert any(end > -math.inf for *_, end in seen)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_sign_off_at_every_stretch(self, monkeypatch, mode, overrides):
        self.check(monkeypatch, fast_config(mode, **overrides), 0.25)

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    def test_sign_off_at_every_stretch_crowded(self, monkeypatch, mode):
        self.check(monkeypatch, fast_config(mode, **CROWDED), 0.05)
