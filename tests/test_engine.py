import dataclasses

import pytest

import wvcsim.engine
import wvcsim.vehicles
from wvcsim.animals import Activity, AnimalState
from wvcsim.awareness import AwarenessState
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, build_corridor,
                           replace_config)
from wvcsim.engine import (EngineInvariantError, RngStreams, TrialResult,
                           detect_collisions, make_arrival_schedule, run_trial)
from wvcsim.vehicles import CruiseTable, VehicleState, cruise_key

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
    stretch it opened, whether the vehicles then read the cruise table or
    ran the kernel."""
    calls = []
    stretch_end = wvcsim.engine._stretch_end

    def counted(schedule, next_arrival, k, dt, n_steps):
        k_end = stretch_end(schedule, next_arrival, k, dt, n_steps)
        if k_end > k:
            calls.append(k_end - k)
        return k_end

    monkeypatch.setattr(wvcsim.engine, "_stretch_end", counted)
    return calls


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
                m.setattr(AwarenessState, "quiet", lambda self, now: False)
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
            leader = follower.leader
            follower.x = (leader.x - 25.0 * follower.direction) % config.road_length
            follower.v, leader.v = 30.0, 0.0
            return world

        monkeypatch.setattr(wvcsim.engine, "build_corridor", crash_world)
        cfg = fast_config(Mode.CONTROL, arrival_rate=0.0)
        stretches = count_idle_stretches(monkeypatch)
        with pytest.raises(EngineInvariantError) as fast:
            run_trial(cfg, 0.01, 0, 0)
        assert stretches
        monkeypatch.setattr(AwarenessState, "quiet", lambda self, now: False)
        with pytest.raises(EngineInvariantError) as stepped:
            run_trial(cfg, 0.01, 0, 0)
        assert str(fast.value) == str(stepped.value)
        assert "overlap at t=" in str(fast.value)


class RowZeroTable(CruiseTable):
    """A cruise table that never grows past its start row."""

    def grow(self, n_rows):
        pass


def count_integration(monkeypatch):
    """Wrap the engine's vehicle integrators; returns a one-item counter of
    the vehicle-steps they integrate."""
    count = [0]
    kernel = wvcsim.engine.advance_unalerted
    idm = wvcsim.engine.idm_acceleration

    def counted_kernel(vehicles, n_steps, *args):
        count[0] += n_steps * len(vehicles)
        return kernel(vehicles, n_steps, *args)

    def counted_idm(*args):
        count[0] += 1
        return idm(*args)

    monkeypatch.setattr(wvcsim.engine, "advance_unalerted", counted_kernel)
    monkeypatch.setattr(wvcsim.engine, "idm_acceleration", counted_idm)
    return count


class TestCruiseTable:
    """Reading the shared cruise trajectory changes no output: each trial run
    with the table, and again with it withheld (the vehicles integrate from
    the first step), gives the same result."""

    @pytest.mark.parametrize("mode", [Mode.CONTROL, Mode.DETECTION, Mode.AWARE])
    @IDLE_OVERRIDES
    def test_same_result_as_integrating(self, monkeypatch, mode, overrides):
        cfg = fast_config(mode, **overrides)
        count = count_integration(monkeypatch)
        for trial_id in range(2):
            count[0] = 0
            on_table = dataclasses.asdict(run_trial(cfg, 0.25, trial_id, 5))
            read = count[0]
            count[0] = 0
            with monkeypatch.context() as m:
                m.setattr(wvcsim.engine, "cruise_table",
                          lambda *args: RowZeroTable(cruise_key(*args)))
                integrated = dataclasses.asdict(run_trial(cfg, 0.25, trial_id, 5))
            assert on_table == integrated
            if cfg.vehicles_per_direction == 0:
                assert read == count[0] == 0
            elif mode is Mode.CONTROL:
                # The table stood in for all of the integration: no Control
                # driver is ever alerted.
                assert read == 0 < count[0]
            else:
                # Detection and Aware trials never read the table.
                assert read == count[0] > 0

    def test_first_alert_leaves_the_table(self, monkeypatch):
        # A Control trial whose sign is lit from 300 s on: the vehicles read
        # rows until the drivers are alerted, then integrate.
        monkeypatch.setattr(AwarenessState, "dms_active",
                            lambda self, animals, now: now >= 300.0)
        monkeypatch.setattr(AwarenessState, "quiet", lambda self, now: False)
        cfg = fast_config(Mode.CONTROL)
        count = count_integration(monkeypatch)
        on_table = dataclasses.asdict(run_trial(cfg, 0.25, 0, 5))
        read = count[0]
        count[0] = 0
        monkeypatch.setattr(wvcsim.engine, "cruise_table",
                            lambda *args: RowZeroTable(cruise_key(*args)))
        assert dataclasses.asdict(run_trial(cfg, 0.25, 0, 5)) == on_table
        assert 0 < read < count[0]

    def test_same_result_past_the_cap(self, monkeypatch):
        cfg = fast_config(Mode.CONTROL)
        expected = dataclasses.asdict(run_trial(cfg, 0.25, 0, 5))
        tables = []

        def fresh_table(*args):
            tables.append(CruiseTable(cruise_key(*args)))
            return tables[-1]

        # 1000 rows of the 9001 the trial needs.
        monkeypatch.setattr(wvcsim.vehicles, "CRUISE_TABLE_MAX_BYTES", 1000 * 16 * 8)
        monkeypatch.setattr(wvcsim.engine, "cruise_table", fresh_table)
        count = count_integration(monkeypatch)
        assert dataclasses.asdict(run_trial(cfg, 0.25, 0, 5)) == expected
        assert tables[0].n_rows == 1000
        assert count[0] > 0
