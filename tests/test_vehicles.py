import dataclasses
import math

import pytest

import wvcsim.engine
from wvcsim.awareness import AwarenessState
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, build_corridor,
                           replace_config)
from wvcsim.engine import run_trial
from wvcsim.vehicles import (FREE_ROAD_GAP, CruiseTable, DriverAlert, IdmParams,
                             VehicleOverlap, VehicleState, advance_unalerted,
                             cruise_key, cruise_table, desired_gap,
                             emergency_brake_needed, idm_acceleration,
                             link_ring_leaders, step_vehicles, stopping_envelope)
from wvcsim.animals import AnimalState

P = IdmParams()
GEO = GeometryParams()
REL = 1e-12


def make_vehicle(x=0.0, v=20.0, direction=1, lane=0):
    return VehicleState(vid=0, x=x, v=v, direction=direction, lane=lane)


def ring_gap(vehicle, road_length):
    """Bumper-to-bumper gap to the ring leader, as the engine computes it."""
    lead = vehicle.leader
    centre_gap = ((lead.x - vehicle.x) * vehicle.direction) % road_length
    return centre_gap - GEO.vehicle_length


class TestDesiredGap:
    def test_standstill_reduces_to_jam_distance(self):
        assert desired_gap(0.0, 0.0, P) == pytest.approx(5.0, rel=REL)

    def test_steady_following(self):
        assert desired_gap(20.0, 0.0, P) == pytest.approx(35.0, rel=REL)

    def test_closing_term(self):
        expected = 35.0 + 20.0 * 10.0 / (2.0 * math.sqrt(2.5 * 4.0))
        assert desired_gap(20.0, 10.0, P) == pytest.approx(expected, rel=REL)

    def test_clamped_at_zero_when_opening_fast(self):
        # Strongly negative dv drives the dynamic terms below zero.
        assert desired_gap(1.0, -1000.0, P) == 0.0


class TestIdmAcceleration:
    def test_free_road_launch(self):
        a = idm_acceleration(0.0, P.v_cruise, 0.0, FREE_ROAD_GAP, P)
        assert a == pytest.approx(2.5, abs=1e-9)

    def test_equilibrium_at_desired_speed(self):
        a = idm_acceleration(P.v_cruise, P.v_cruise, 0.0, FREE_ROAD_GAP, P)
        assert -0.01 <= a <= 0.0

    def test_following_at_desired_gap(self):
        s = desired_gap(20.0, 0.0, P)
        expected = 2.5 * (1.0 - (20.0 / 27.78) ** 4 - 1.0)
        assert idm_acceleration(20.0, 27.78, 0.0, s, P) == pytest.approx(
            expected, rel=REL)

    def test_clamped_at_emergency_deceleration(self):
        a = idm_acceleration(27.78, 8.33, 20.0, 6.0, P)
        assert a == -P.a_em

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(ValueError):
            idm_acceleration(10.0, 27.78, 0.0, 0.0, P)

    def test_monotone_decreasing_in_speed(self):
        accs = [idm_acceleration(v, 27.78, 0.0, 60.0, P)
                for v in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)]
        assert all(a > b for a, b in zip(accs, accs[1:]))

    def test_monotone_increasing_in_gap(self):
        accs = [idm_acceleration(20.0, 27.78, 0.0, s, P)
                for s in (10.0, 20.0, 40.0, 80.0, 160.0)]
        assert all(a < b for a, b in zip(accs, accs[1:]))


class TestStepVehicle:
    def test_coasting(self):
        v = make_vehicle(x=100.0, v=10.0)
        step_vehicles([v], [0.0], 0.1, 1000.0)
        assert v.v == 10.0
        assert v.x == pytest.approx(101.0, rel=REL)

    def test_speed_floors_at_zero(self):
        v = make_vehicle(v=0.5)
        step_vehicles([v], [-9.0], 0.1, 1000.0)
        assert v.v == 0.0
        assert v.x == 0.0

    def test_ring_wrap(self):
        v = make_vehicle(x=999.5, v=10.0)
        step_vehicles([v], [0.0], 0.1, 1000.0)
        assert v.x == pytest.approx(0.5, abs=1e-9)

    def test_negative_direction(self):
        v = make_vehicle(x=0.5, v=10.0, direction=-1)
        step_vehicles([v], [0.0], 0.1, 1000.0)
        assert v.x == pytest.approx(999.5, abs=1e-9)

    def test_speed_never_negative_under_random_braking(self):
        import random
        rnd = random.Random(4)
        v = make_vehicle(v=rnd.uniform(0, 30))
        for _ in range(2000):
            step_vehicles([v], [rnd.uniform(-9.0, 2.5)], 0.1, 1000.0)
            assert v.v >= 0.0

    def test_steps_every_vehicle_with_its_own_acceleration(self):
        vehicles = [make_vehicle(x=100.0, v=10.0),
                    make_vehicle(x=200.0, v=10.0, direction=-1, lane=1)]
        step_vehicles(vehicles, [1.0, -2.0], 0.1, 1000.0)
        assert [v.v for v in vehicles] == [10.0 + 1.0 * 0.1, 10.0 - 2.0 * 0.1]
        assert vehicles[0].x == (100.0 + (10.0 + 1.0 * 0.1) * 0.1) % 1000.0
        assert vehicles[1].x == (200.0 - (10.0 - 2.0 * 0.1) * 0.1) % 1000.0


class TestDriverAlert:
    def test_reaction_delay(self):
        alert = DriverAlert()
        for step in range(16):
            alert.update(True, step * 0.1, P)
        # 1.5 s since onset at t=0: state flips exactly at the threshold.
        assert alert.alerted
        assert alert.desired_speed(P) == P.v_caution

    def test_not_alerted_just_before_threshold(self):
        alert = DriverAlert()
        alert.update(True, 0.0, P)
        alert.update(True, 1.4, P)
        assert not alert.alerted
        assert alert.desired_speed(P) == P.v_cruise
        alert.update(True, 1.5, P)
        assert alert.alerted

    def test_never_active_stays_cruise(self):
        alert = DriverAlert()
        for step in range(100):
            alert.update(False, step * 0.1, P)
        assert not alert.alerted
        assert alert.onset is None
        assert alert.desired_speed(P) == P.v_cruise

    def test_release_is_immediate_and_complete(self):
        alert = DriverAlert()
        alert.update(True, 0.0, P)
        alert.update(True, 2.0, P)
        assert alert.alerted
        alert.update(False, 50.0, P)
        assert not alert.alerted
        assert alert.desired_speed(P) == P.v_cruise
        assert alert.onset is None

    def test_onset_holds_while_sign_stays_on(self):
        alert = DriverAlert()
        alert.update(True, 3.0, P)
        alert.update(True, 9.0, P)
        assert alert.onset == 3.0
        assert alert.alerted


def on_road_animal(x, y):
    return AnimalState(aid=0, x=x, y=y, sigma=1.0)


class TestEmergencyBrake:
    def test_no_animals(self):
        v = make_vehicle()
        assert not emergency_brake_needed(v, [], GEO, P, 1000.0)

    def test_envelope_at_caution_speed(self):
        # ~21.2 m envelope at 8.33 m/s: an animal 100 m out is no emergency.
        v = make_vehicle(x=0.0, v=8.33)
        animal = on_road_animal(100.0, GEO.lane_centre(0))
        assert stopping_envelope(8.33, P) == pytest.approx(
            8.33 ** 2 / 8.0 + 8.33 * 1.5, rel=REL)
        assert not emergency_brake_needed(v, [animal], GEO, P, 1000.0)

    def test_envelope_at_cruise_speed(self):
        v = make_vehicle(x=0.0, v=27.78)
        animal = on_road_animal(90.0, GEO.lane_centre(0))
        assert stopping_envelope(27.78, P) == pytest.approx(
            27.78 ** 2 / 8.0 + 27.78 * 1.5, rel=REL)
        assert emergency_brake_needed(v, [animal], GEO, P, 1000.0)

    def test_requires_alert(self, monkeypatch):
        # Control never lights the sign, so the engine never asks for braking,
        # even with animals on the road all the time.
        calls = []

        def counted(*args):
            calls.append(args)
            return emergency_brake_needed(*args)

        monkeypatch.setattr(wvcsim.engine, "emergency_brake_needed", counted)
        crowded = replace_config(CorridorConfig(), arrival_rate=300.0,
                                 radar_spacing=5.0, kappa=0.3)
        control = run_trial(crowded, 0.05, 0, 3)
        assert control.road_entries > 0
        assert calls == []
        # The same corridor with alerting does brake-check.
        run_trial(crowded.with_mode(Mode.AWARE), 0.05, 0, 3)
        assert calls

    def test_ignores_other_lane(self):
        v = make_vehicle(x=0.0, v=8.33, lane=0)
        animal = on_road_animal(10.0, GEO.lane_centre(1))
        assert not emergency_brake_needed(v, [animal], GEO, P, 1000.0)

    def test_ignores_animal_behind(self):
        v = make_vehicle(x=500.0, v=27.78)
        animal = on_road_animal(450.0, GEO.lane_centre(0))
        assert not emergency_brake_needed(v, [animal], GEO, P, 1000.0)

    def test_standstill_hold_zone(self):
        v = make_vehicle(x=0.0, v=0.0)
        animal = on_road_animal(6.0, GEO.lane_centre(0))
        assert emergency_brake_needed(v, [animal], GEO, P, 1000.0)


class TestRingTopology:
    def test_equilibrium_convergence_from_standstill(self):
        v = make_vehicle(v=0.0)
        for step in range(600):
            a = idm_acceleration(v.v, P.v_cruise, 0.0, FREE_ROAD_GAP, P)
            step_vehicles([v], [a], 0.1, 1000.0)
        assert abs(v.v - P.v_cruise) < 0.1

    def test_platoon_equilibrium(self):
        # Two vehicles on the default ring: the headway comfortably exceeds
        # the desired gap, so residual accelerations are negligible.
        vehicles = [VehicleState(vid=i, x=i * 500.0, v=P.v_cruise, direction=1,
                                 lane=0)
                    for i in range(2)]
        link_ring_leaders(vehicles, 1000.0)
        for v in vehicles:
            gap = ring_gap(v, 1000.0)
            assert gap > desired_gap(P.v_cruise, 0.0, P) + GEO.vehicle_length
            a = idm_acceleration(v.v, P.v_cruise, 0.0, gap, P)
            assert abs(a) < 0.05

    def test_ring_order_preserved_under_alert_cycles(self, monkeypatch):
        # Four vehicles per direction with the sign toggling 40 s on, 40 s off:
        # hard braking to caution speed and recovery must never close any gap
        # to zero. The engine raises EngineInvariantError if one does. With no
        # arrivals every step would be idle, so the idle gate is held shut to
        # let the toggled sign drive the per-step loop.
        monkeypatch.setattr(AwarenessState, "dms_active",
                            lambda self, animals, now: (now % 80.0) < 40.0)
        monkeypatch.setattr(AwarenessState, "quiet", lambda self, now: False)
        seen = []

        def recorded(v, v0, dv, s, p):
            seen.append((v, v0))
            return idm_acceleration(v, v0, dv, s, p)

        monkeypatch.setattr(wvcsim.engine, "idm_acceleration", recorded)
        cfg = replace_config(CorridorConfig(), arrival_rate=0.0)
        run_trial(cfg, 400.0 / 3600.0, 0, 0)
        assert {v0 for _v, v0 in seen} == {P.v_cruise, P.v_caution}
        assert min(v for v, _v0 in seen) >= 0.0
        assert min(v for v, _v0 in seen) < P.v_caution + 0.5

    def test_leaders_follow_travel_direction(self):
        vehicles = [VehicleState(vid=i, x=x, v=10.0, direction=-1, lane=1)
                    for i, x in enumerate((0.0, 250.0, 500.0, 750.0))]
        link_ring_leaders(vehicles, 1000.0)
        # For -x travel the leader is the next vehicle at smaller x.
        by_x = {v.x: v for v in vehicles}
        assert by_x[750.0].leader is by_x[500.0]
        assert by_x[0.0].leader is by_x[750.0]
        gap = ring_gap(by_x[750.0], 1000.0)
        assert gap == pytest.approx(250.0 - GEO.vehicle_length, rel=REL)


def reference_steps(vehicles, n_steps, v0, road_length, dt=0.1):
    """The per-step path: ``idm_acceleration`` for every vehicle from the
    pre-step snapshot, then ``step_vehicles``."""
    for _ in range(n_steps):
        accels = []
        for v in vehicles:
            lead = v.leader
            if lead is None:
                gap, dv = FREE_ROAD_GAP, 0.0
            else:
                gap = ((lead.x - v.x) * v.direction) % road_length - GEO.vehicle_length
                dv = v.v - lead.v
            accels.append(idm_acceleration(v.v, v0, dv, gap, P))
        step_vehicles(vehicles, accels, dt, road_length)


def snapshot(vehicles):
    return [(v.x, v.v) for v in vehicles]


class TestAdvanceUnalerted:
    """The idle-stretch kernel is the per-step IDM path, bit for bit."""

    L = CorridorConfig().road_length

    def default_pair(self, **kw):
        cfg = replace_config(CorridorConfig(), **kw)
        return build_corridor(cfg).vehicles, build_corridor(cfg).vehicles

    def test_matches_reference_from_default_state(self):
        fast, ref = self.default_pair()
        advance_unalerted(fast, 3000, P, 0.1, self.L, GEO.vehicle_length)
        reference_steps(ref, 3000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_after_an_alert(self):
        # 30 s at caution speed, then recovery at cruise: speeds and gaps are
        # far from equilibrium when the kernel takes over.
        fast, ref = self.default_pair()
        reference_steps(fast, 300, P.v_caution, self.L)
        reference_steps(ref, 300, P.v_caution, self.L)
        assert snapshot(fast) == snapshot(ref)
        advance_unalerted(fast, 2000, P, 0.1, self.L, GEO.vehicle_length)
        reference_steps(ref, 2000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_with_clamped_terms(self):
        # A slow follower behind a fast leader (s* clamped at zero) and a
        # fast follower close behind a stopped one (acceleration at -a_em).
        fast, ref = self.default_pair()
        for group in (fast, ref):
            for v, speed in zip(group, (2.0, 27.0, 0.0, 26.0, 27.78, 1.0, 15.0, 0.0)):
                v.v = speed
            stopped = group[2]
            follower = next(v for v in group if v.leader is stopped)
            follower.x = (stopped.x - 60.0 * stopped.direction) % self.L
            follower.v = 27.0
        advance_unalerted(fast, 500, P, 0.1, self.L, GEO.vehicle_length)
        reference_steps(ref, 500, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_for_a_free_vehicle(self):
        fast, ref = self.default_pair(vehicles_per_direction=1)
        assert all(v.leader is None for v in fast)
        advance_unalerted(fast, 1000, P, 0.1, self.L, GEO.vehicle_length)
        reference_steps(ref, 1000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_clears_emergency_braking(self):
        vehicles = build_corridor(CorridorConfig()).vehicles
        for v in vehicles:
            v.emergency_braking = True
        advance_unalerted(vehicles, 1, P, 0.1, self.L, GEO.vehicle_length)
        assert not any(v.emergency_braking for v in vehicles)

    def test_overlap_raised_at_the_same_step(self):
        # A follower at 30 m/s, 20 m behind a stopped leader, cannot stop in
        # time even at -a_em: the gap closes after a few seconds.
        def crash_course():
            vehicles = build_corridor(CorridorConfig()).vehicles
            follower, leader = vehicles[0], vehicles[0].leader
            follower.x = (leader.x - (20.0 + GEO.vehicle_length) * follower.direction) % self.L
            follower.v, leader.v = 30.0, 0.0
            return vehicles

        expected = 0
        ref = crash_course()
        with pytest.raises(ValueError, match="non-positive gap"):
            while True:
                reference_steps(ref, 1, P.v_cruise, self.L)
                expected += 1
        fast = crash_course()
        with pytest.raises(VehicleOverlap) as exc:
            advance_unalerted(fast, 1000, P, 0.1, self.L, GEO.vehicle_length)
        assert exc.value.step == expected > 0
        assert exc.value.follower is fast[0]
        assert exc.value.leader is fast[0].leader
        assert snapshot(fast) == snapshot(ref)


def crash_course(road_length):
    """A follower at 30 m/s, 20 m behind a stopped leader: it cannot stop in
    time even at -a_em, so the gap closes after a few seconds."""
    vehicles = build_corridor(CorridorConfig()).vehicles
    follower, leader = vehicles[0], vehicles[0].leader
    follower.x = (leader.x - (20.0 + GEO.vehicle_length) * follower.direction) % road_length
    follower.v, leader.v = 30.0, 0.0
    return vehicles


class TestCruiseTable:
    """Row r of the cruise table is r rounds of the per-step IDM path, bit
    for bit."""

    L = CorridorConfig().road_length

    def table(self, vehicles, p=P, dt=0.1):
        return CruiseTable(cruise_key(vehicles, p, dt, self.L, GEO.vehicle_length))

    def row(self, table, r, like):
        vehicles = [dataclasses.replace(v) for v in like]
        assert table.load(vehicles, r, r + 1)
        return snapshot(vehicles)

    @pytest.mark.parametrize("dt, overrides", [
        (0.1, {}), (0.05, {}), (0.2, {}), (0.1, {"vehicles_per_direction": 1}),
    ], ids=["default", "dt0.05", "dt0.2", "free-vehicles"])
    def test_rows_match_reference(self, dt, overrides):
        ref = build_corridor(replace_config(CorridorConfig(), **overrides)).vehicles
        table = self.table(ref, dt=dt)
        assert self.row(table, 0, ref) == snapshot(ref)
        done = 0
        for r in (1, 2, 17, 640, 3001):
            reference_steps(ref, r - done, P.v_cruise, self.L, dt)
            done = r
            assert self.row(table, r, ref) == snapshot(ref)

    def test_growing_in_two_calls_equals_one(self):
        vehicles = build_corridor(CorridorConfig()).vehicles
        twice = self.table(vehicles)
        twice.grow(100)
        assert twice.n_rows == 100
        twice.grow(200)
        once = self.table(vehicles)
        once.grow(200)
        assert twice.n_rows == once.n_rows == 200
        assert twice.rows == once.rows

    def test_load_reaches_no_further_than_asked(self):
        vehicles = build_corridor(CorridorConfig()).vehicles
        table = self.table(vehicles)
        assert not table.load(vehicles, 50, 50)
        assert table.n_rows == 50
        assert snapshot(vehicles) == self.row(table, 0, vehicles)

    def test_changed_v_cruise_rebuilds(self):
        vehicles = build_corridor(CorridorConfig()).vehicles
        args = (0.1, self.L, GEO.vehicle_length)
        first = cruise_table(vehicles, P, *args)
        assert cruise_table(vehicles, P, *args) is first
        slower = cruise_table(vehicles, dataclasses.replace(P, v_cruise=25.0), *args)
        assert slower is not first
        assert slower.key != first.key

    def test_overlap_row_recorded(self):
        expected = 0
        ref = crash_course(self.L)
        with pytest.raises(ValueError, match="non-positive gap"):
            while True:
                reference_steps(ref, 1, P.v_cruise, self.L)
                expected += 1
        vehicles = crash_course(self.L)
        table = self.table(vehicles)
        table.grow(1000)
        leader = vehicles.index(vehicles[0].leader)
        assert table.overlap == (expected, 0, leader)
        assert table.n_rows == expected + 1
        assert self.row(table, expected, vehicles) == snapshot(ref)
        table.grow(2000)
        assert table.n_rows == expected + 1
