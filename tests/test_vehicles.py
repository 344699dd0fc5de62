import ctypes
import dataclasses
import importlib.resources
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wvcsim.engine
import wvcsim.vehicles
from wvcsim.awareness import AwarenessState
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, build_corridor,
                           replace_config)
from wvcsim.engine import run_trial
from wvcsim.vehicles import (FREE_ROAD_GAP, DriverAlert, Fleet, IdmParams,
                             VehicleOverlap, VehicleState, desired_gap,
                             emergency_brake_needed, idm_acceleration,
                             link_ring_leaders, step_vehicles, stopping_envelope)
from wvcsim.animals import AnimalState

P = IdmParams()
GEO = GeometryParams()
REL = 1e-12


def make_vehicle(x=0.0, v=20.0, direction=1, lane=0):
    return VehicleState(vid=0, x=x, v=v, direction=direction, lane=lane)


def ring_gap(vehicles, vehicle, road_length):
    """Bumper-to-bumper gap to the ring leader, as the engine computes it."""
    lead = vehicles[vehicle.leader]
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

    @pytest.mark.parametrize("v, s", [(1e100, FREE_ROAD_GAP), (1e160, FREE_ROAD_GAP),
                                      (0.0, 1e-160)],
                             ids=["fourth-power", "speed-square", "gap-square"])
    def test_finite_base_whose_power_overflows_raises(self, v, s):
        # Where ** raised: (v/v0) ** 4 overflows in its last product at
        # 1e100 m/s and in its first at 1e160 m/s; (s*/s) ** 2 overflows at
        # s* = s0 and s = 1e-160 m.
        with pytest.raises(OverflowError):
            idm_acceleration(v, P.v_cruise, 0.0, s, P)

    @pytest.mark.parametrize("v", [math.inf, math.nan], ids=["inf", "nan"])
    def test_infinite_or_nan_speed_passes_through(self, v):
        # inf ** 4 and nan ** 4 raise nothing, and neither do their products:
        # the acceleration takes the emergency floor.
        assert idm_acceleration(v, P.v_cruise, 0.0, FREE_ROAD_GAP, P) == -P.a_em

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

    def test_failed_step_changes_nothing(self):
        # On a ring of length 0, x % road_length raises: the step leaves every
        # vehicle as it was, called directly and through Fleet.advance on both
        # kernels, whose Python body steps with step_vehicles.
        start = [make_vehicle(x=5.0, v=10.0)]
        vehicles = [dataclasses.replace(v) for v in start]
        with pytest.raises(ZeroDivisionError):
            step_vehicles(vehicles, [1.0], 0.1, 0.0)
        assert snapshot(vehicles) == snapshot(start)
        for kernel in (wvcsim.vehicles.load_kernel(), False):
            error, state = kernel_outcome(kernel, start, 1, P.v_cruise, P, 0.1,
                                          0.0, GEO.vehicle_length)
            assert error[0] == "ZeroDivisionError"
            assert state == kernel_outcome(kernel, start, 0, P.v_cruise, P, 0.1,
                                           0.0, GEO.vehicle_length)[1]


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
            gap = ring_gap(vehicles, v, 1000.0)
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
        monkeypatch.setattr(wvcsim.engine, "_stretch_end",
                            lambda schedule, next_arrival, k, dt, n_steps: k)
        seen = []
        advance = Fleet.advance

        def recorded(fleet, n_steps, v0, brake=None):
            # One step at a time, so that every step's speeds are seen.
            for _ in range(n_steps):
                seen.extend((v.v, v0) for v in fleet.vehicles)
                advance(fleet, 1, v0, brake)

        monkeypatch.setattr(Fleet, "advance", recorded)
        cfg = replace_config(CorridorConfig(), arrival_rate=0.0)
        run_trial(cfg, 400.0 / 3600.0, 0, 0)
        assert {v0 for _v, v0 in seen} == {P.v_cruise, P.v_caution}
        assert min(v for v, _v0 in seen) >= 0.0
        assert min(v for v, _v0 in seen) < P.v_caution + 0.5

    def test_leaders_follow_travel_direction(self):
        vehicles = [VehicleState(vid=i, x=x, v=10.0, direction=-1, lane=1)
                    for i, x in enumerate((0.0, 250.0, 500.0, 750.0))]
        link_ring_leaders(vehicles, 1000.0)
        # For -x travel the leader is the next vehicle at smaller x:
        # vehicle i sits at x = 250 i.
        assert [v.leader for v in vehicles] == [3, 0, 1, 2]
        gap = ring_gap(vehicles, vehicles[3], 1000.0)
        assert gap == pytest.approx(250.0 - GEO.vehicle_length, rel=REL)


def reference_steps(vehicles, n_steps, v0, road_length, dt=0.1):
    """The per-step path: ``idm_acceleration`` for every vehicle from the
    pre-step snapshot, then ``step_vehicles``."""
    for _ in range(n_steps):
        accels = []
        for v in vehicles:
            if v.leader < 0:
                gap, dv = FREE_ROAD_GAP, 0.0
            else:
                lead = vehicles[v.leader]
                gap = ((lead.x - v.x) * v.direction) % road_length - GEO.vehicle_length
                dv = v.v - lead.v
            accels.append(idm_acceleration(v.v, v0, dv, gap, P))
        step_vehicles(vehicles, accels, dt, road_length)


def snapshot(vehicles):
    return [(v.x, v.v) for v in vehicles]


class TestAdvanceIdm:
    """The vehicle kernel is the per-step IDM path, bit for bit."""

    L = CorridorConfig().road_length

    def default_pair(self, **kw):
        cfg = replace_config(CorridorConfig(), **kw)
        return build_corridor(cfg).vehicles, build_corridor(cfg).vehicles

    def test_matches_reference_from_default_state(self):
        fast, ref = self.default_pair()
        Fleet(fast, P, 0.1, self.L, GEO.vehicle_length).advance(3000, P.v_cruise)
        reference_steps(ref, 3000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_after_an_alert(self):
        # 30 s at caution speed, then recovery at cruise: speeds and gaps are
        # far from equilibrium when the kernel takes over.
        fast, ref = self.default_pair()
        reference_steps(fast, 300, P.v_caution, self.L)
        reference_steps(ref, 300, P.v_caution, self.L)
        assert snapshot(fast) == snapshot(ref)
        Fleet(fast, P, 0.1, self.L, GEO.vehicle_length).advance(2000, P.v_cruise)
        reference_steps(ref, 2000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_at_caution_speed(self):
        # Alerted drivers that brake for no animal: from cruise down to the
        # caution speed, through the -a_em clamp.
        fast, ref = self.default_pair()
        Fleet(fast, P, 0.1, self.L, GEO.vehicle_length).advance(2000, P.v_caution)
        reference_steps(ref, 2000, P.v_caution, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_with_clamped_terms(self):
        # A slow follower behind a fast leader (s* clamped at zero) and a
        # fast follower close behind a stopped one (acceleration at -a_em).
        fast, ref = self.default_pair()
        for group in (fast, ref):
            for v, speed in zip(group, (2.0, 27.0, 0.0, 26.0, 27.78, 1.0, 15.0, 0.0)):
                v.v = speed
            stopped = group[2]
            follower = next(v for v in group if v.leader == 2)
            follower.x = (stopped.x - 60.0 * stopped.direction) % self.L
            follower.v = 27.0
        Fleet(fast, P, 0.1, self.L, GEO.vehicle_length).advance(500, P.v_cruise)
        reference_steps(ref, 500, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_for_a_free_vehicle(self):
        fast, ref = self.default_pair(vehicles_per_direction=1)
        assert all(v.leader == -1 for v in fast)
        Fleet(fast, P, 0.1, self.L, GEO.vehicle_length).advance(1000, P.v_cruise)
        reference_steps(ref, 1000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_clears_emergency_braking(self):
        vehicles = build_corridor(CorridorConfig()).vehicles
        for v in vehicles:
            v.emergency_braking = True
        Fleet(vehicles, P, 0.1, self.L, GEO.vehicle_length).advance(1, P.v_cruise)
        assert not any(v.emergency_braking for v in vehicles)

    def test_overlap_raised_at_the_same_step(self):
        # A follower at 30 m/s, 20 m behind a stopped leader, cannot stop in
        # time even at -a_em: the gap closes after a few seconds.
        def crash_course():
            vehicles = build_corridor(CorridorConfig()).vehicles
            follower, leader = vehicles[0], vehicles[vehicles[0].leader]
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
            Fleet(fast, P, 0.1, self.L, GEO.vehicle_length).advance(1000, P.v_cruise)
        assert exc.value.step == expected > 0
        assert exc.value.follower is fast[0]
        assert exc.value.leader is fast[fast[0].leader]
        assert snapshot(fast) == snapshot(ref)


class TestKernelMatchesPython:
    """The state after r steps, taken through the compiled kernel in calls of
    any length, is r rounds of the per-step IDM path, bit for bit."""

    L = CorridorConfig().road_length

    @pytest.mark.parametrize("dt, overrides", [
        (0.1, {}), (0.05, {}), (0.2, {}), (0.1, {"vehicles_per_direction": 1}),
    ], ids=["default", "dt0.05", "dt0.2", "free-vehicles"])
    def test_rows_match_reference(self, dt, overrides):
        compiled_kernel()
        cfg = replace_config(CorridorConfig(), **overrides)
        fast, ref = build_corridor(cfg).vehicles, build_corridor(cfg).vehicles
        Fleet(fast, P, dt, self.L, GEO.vehicle_length).advance(0, P.v_cruise)
        assert snapshot(fast) == snapshot(ref)
        done = 0
        for r in (1, 2, 17, 640, 3001):
            Fleet(fast, P, dt, self.L, GEO.vehicle_length).advance(r - done, P.v_cruise)
            reference_steps(ref, r - done, P.v_cruise, self.L, dt)
            done = r
            assert snapshot(fast) == snapshot(ref)


def kernel_outcome(kernel, start, n_steps, v0, p, dt, road_length, vehicle_length,
                   brake=None):
    """``Fleet.advance`` with brake flags ``brake`` on a copy of ``start``,
    with the kernel slot set to ``kernel``: ``advance_outcome``."""
    vehicles = [dataclasses.replace(v) for v in start]
    fleet = fleet_on(kernel, vehicles, p, dt, road_length, vehicle_length)
    return advance_outcome(fleet, n_steps, v0, brake)


def fleet_on(kernel, *args):
    """``Fleet(*args)`` built with the kernel slot set to ``kernel``."""
    saved = wvcsim.vehicles._kernel
    wvcsim.vehicles._kernel = kernel
    try:
        return Fleet(*args)
    finally:
        wvcsim.vehicles._kernel = saved


def advance_outcome(fleet, n_steps, v0, brake=None):
    """``fleet.advance(n_steps, v0, brake)``: what it raised (an overlap by
    step and by the pair's indices, another error by its type and message),
    and every vehicle's (x, v) bits and ``emergency_braking``."""
    error = None
    try:
        fleet.advance(n_steps, v0, brake)
    except VehicleOverlap as exc:
        index = {id(v): i for i, v in enumerate(fleet.vehicles)}
        error = ("overlap", exc.step, index[id(exc.follower)], index[id(exc.leader)])
    except (OverflowError, ZeroDivisionError, IndexError) as exc:
        error = (type(exc).__name__, str(exc))
    return error, kernel_bits(fleet.vehicles)


def kernel_bits(vehicles):
    return [(struct.pack("<2d", v.x, v.v), v.emergency_braking) for v in vehicles]


@st.composite
def kernel_cases(draw):
    """A ring of 0-12 vehicles in both directions, some of them free, with
    random states, IDM parameters, time step, lengths, step count, one of
    the two desired speeds, and no brake flags or one per vehicle."""
    road_length = draw(st.floats(10.0, 2000.0))
    vehicle_length = draw(st.floats(0.0, 10.0))
    vehicles = [VehicleState(vid=i, x=draw(st.floats(0.0, road_length,
                                                     exclude_max=True)),
                             v=draw(st.floats(0.0, 40.0)), direction=d, lane=d < 0,
                             emergency_braking=draw(st.booleans()))
                for i, d in enumerate(draw(st.lists(st.sampled_from((1, -1)),
                                                    max_size=12)))]
    link_ring_leaders(vehicles, road_length)
    for v in vehicles:
        if draw(st.integers(0, 3)) == 0:
            v.leader = -1
    v_cruise = draw(st.floats(1.0, 40.0))
    p = IdmParams(s0=draw(st.floats(0.1, 10.0)), T=draw(st.floats(0.1, 3.0)),
                  a_max=draw(st.floats(0.1, 5.0)), b_conf=draw(st.floats(0.1, 10.0)),
                  delta=draw(st.sampled_from((4.0, 1.0)) | st.floats(0.5, 8.0)),
                  a_em=draw(st.floats(0.1, 20.0)), v_cruise=v_cruise,
                  v_caution=draw(st.floats(0.5, v_cruise)))
    v0 = draw(st.sampled_from((p.v_cruise, p.v_caution)))
    brake = draw(st.none() | st.lists(st.booleans(), min_size=len(vehicles),
                                      max_size=len(vehicles)))
    return (vehicles, draw(st.integers(0, 300)), v0, p,
            draw(st.floats(0.01, 1.0)), road_length, vehicle_length, brake)


@st.composite
def kernel_sequences(draw):
    """A ring, its parameters, time step and lengths from ``kernel_cases``,
    then 1-6 calls on one fleet: each a step count (0, 1 or 2-300), one of
    the two desired speeds, no brake flags or one per vehicle, and whether
    the kernel stops after one step and leaves the rest to the Python body."""
    vehicles, _, _, p, dt, road_length, vehicle_length, _ = draw(kernel_cases())
    n = len(vehicles)
    calls = draw(st.lists(st.tuples(
        st.sampled_from((0, 1)) | st.integers(2, 300),
        st.sampled_from((p.v_cruise, p.v_caution)),
        st.none() | st.lists(st.booleans(), min_size=n, max_size=n),
        st.booleans()), min_size=1, max_size=6))
    return vehicles, p, dt, road_length, vehicle_length, calls


# The default corridor cruising long enough for speeds and gaps to repeat
# their bits from step to step, then the caution speed, steps left to the
# Python body and the cruise speed again: any state the kernel kept from one
# call to the next, beyond x and v, would show as a wrong term after a switch.
SETTLED_CASE = (build_corridor(CorridorConfig()).vehicles, P, 0.1,
                CorridorConfig().road_length, GEO.vehicle_length,
                [(3000, P.v_cruise, None, False), (5, P.v_caution, None, False),
                 (3000, P.v_caution, None, True), (1, P.v_cruise, None, False)])


# Two vehicles 1e-160 m apart bumper to bumper: (s*/gap) ** 2 overflows, so
# the Python body raises OverflowError before the first step.
OVERFLOW_CASE = ([VehicleState(vid=0, x=0.0, v=0.0, direction=1, lane=0, leader=1),
                  VehicleState(vid=1, x=2e-160, v=0.0, direction=1, lane=0, leader=0)],
                 10, P.v_cruise, P, 0.1, 1000.0, 1e-160)


def free_case(v):
    """One free vehicle at speed ``v``, ten steps at the cruise speed."""
    return ([VehicleState(vid=0, x=0.0, v=v, direction=1, lane=0)], 10, P.v_cruise,
            P, 0.1, 1000.0, GEO.vehicle_length, None)


# The IDM powers' edges: a finite speed whose (v/v0) ** 4 overflows, in its
# last product (1e100 m/s) or its first (1e200 m/s), so the Python body
# raises OverflowError as for OVERFLOW_CASE's (s*/gap) ** 2; an infinite and
# a NaN speed, which ** and the products pass through without raising; and
# the default corridor slowing to the caution speed at a delta of 3.5, which
# takes libm pow.
POWER_EDGES = ([free_case(v) for v in (1e100, 1e200, math.inf, math.nan)]
               + [(build_corridor(CorridorConfig()).vehicles, 300, P.v_caution,
                   dataclasses.replace(P, delta=3.5), 0.1,
                   CorridorConfig().road_length, GEO.vehicle_length, None)])


# The ring length of the remainder edge cases.
EDGE_L = 1000.0


def ulps_from(x, ulps):
    """``x`` moved ``ulps`` ULPs up (or down, for ulps < 0)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def landing_case(target, ulps, direction, v):
    """One free vehicle at speed ``v``, one step: its position update
    ``x + nv * dt * direction`` lands exactly ``ulps`` ULPs from ``target``.
    At ``v`` 0 the vehicle brakes, so nv is 0 and the update adds a zero
    (of the direction's sign) to x."""
    dt = 0.1
    goal = ulps_from(target, ulps)
    brake = v == 0.0
    nv = 0.0 if brake else v + idm_acceleration(v, P.v_cruise, 0.0,
                                                 FREE_ROAD_GAP, P) * dt
    move = nv * dt * direction
    x = ulps_from(goal - move, -8)
    for _ in range(16):
        if x + move == goal:
            break
        x = math.nextafter(x, math.inf)
    else:
        raise AssertionError(f"no x lands on {goal!r}")
    vehicle = VehicleState(vid=0, x=x, v=v, direction=direction, lane=0)
    return [vehicle], 1, P.v_cruise, P, dt, EDGE_L, GEO.vehicle_length, [brake]


def gap_case(x_follower, x_leader, direction):
    """A follower at ``x_follower`` behind a leader at ``x_leader``: the gap's
    argument is ``(x_leader - x_follower) * direction``."""
    pair = [VehicleState(vid=0, x=x_follower, v=10.0, direction=direction, lane=0,
                         leader=1),
            VehicleState(vid=1, x=x_leader, v=10.0, direction=direction, lane=0,
                         leader=0)]
    return pair, 3, P.v_cruise, P, 0.1, EDGE_L, 0.0, None


# The edges of the kernel's exact remainder paths, taken for 0 < a < L,
# L <= a < 2L and -L < a < 0: positions landing on 0, L and 2L and one ULP
# either side, of a stopped vehicle and, where a step can land there
# exactly, of a moving one; gap arguments of +-0.0 and +-L; and vehicles
# moving a ring length or more per step, whose updates take fmod.
REMAINDER_EDGES = (
    [landing_case(t, u, d, 0.0) for t in (0.0, EDGE_L, 2 * EDGE_L)
     for u in (-1, 0, 1) for d in (1, -1)]
    + [landing_case(t, u, d, 20.0) for t in (EDGE_L, 2 * EDGE_L)
       for u in (-1, 0, 1) for d in (1, -1)]
    + [landing_case(0.0, 0, d, 20.0) for d in (1, -1)]
    + [gap_case(a, b, d) for a, b in ((0.0, 0.0), (0.0, EDGE_L), (EDGE_L, 0.0))
       for d in (1, -1)]
    + [([VehicleState(vid=0, x=3.0, v=40.0, direction=d, lane=0)], 5, P.v_cruise,
        P, 1.0, 10.0, GEO.vehicle_length, None) for d in (1, -1)])


def edge_examples(test):
    """``test`` with an ``@example`` for each case in ``REMAINDER_EDGES`` and
    ``POWER_EDGES``."""
    for case in REMAINDER_EDGES + POWER_EDGES:
        test = example(case=case)(test)
    return test


def compiled_kernel():
    kernel = wvcsim.vehicles.load_kernel()
    if not kernel:
        pytest.skip("no compiled vehicle kernel on this host")
    return kernel


class TestCompiledKernel:
    """The compiled kernel is the Python body of ``Fleet.advance``, bit for
    bit, down to the errors it raises and the state they leave."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(case=kernel_cases())
    @example(case=OVERFLOW_CASE)
    @edge_examples
    def test_same_bits_and_errors_as_python(self, case):
        kernel = compiled_kernel()
        compiled = kernel_outcome(kernel, *case)
        assert compiled == kernel_outcome(False, *case)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=kernel_sequences())
    @example(case=SETTLED_CASE)
    def test_one_fleet_through_a_sequence_of_calls(self, case):
        # Between calls the kernel keeps only x and v in a fleet's buffer,
        # reloaded after the Python body has stepped: one fleet stepped call
        # after call, sometimes by the Python body after a kernel that stops
        # after one step, gives the Python body's bits and errors after
        # every call.
        kernel = compiled_kernel()

        def one_step(n, n_steps, *args):
            return kernel(n, ctypes.c_long(min(n_steps.value, 1)), *args)

        start, p, dt, road_length, vehicle_length, calls = case
        fleets = [fleet_on(k, [dataclasses.replace(v) for v in start], p, dt,
                           road_length, vehicle_length) for k in (kernel, False)]
        for n_steps, v0, brake, stop in calls:
            fleets[0].kernel = one_step if stop else kernel
            outcomes = [advance_outcome(fleet, n_steps, v0, brake) for fleet in fleets]
            assert outcomes[0] == outcomes[1]

    def test_overflow_leaves_the_state_before_it(self):
        kernel = compiled_kernel()
        error, state = kernel_outcome(kernel, *OVERFLOW_CASE)
        assert error[0] == "OverflowError"
        assert state == kernel_outcome(kernel, OVERFLOW_CASE[0], 0,
                                       *OVERFLOW_CASE[2:])[1]

    @pytest.mark.parametrize("change", ["v0", "road_length", "b_conf", "leader"])
    def test_other_errors_raised_as_in_python(self, change):
        # Python raises ZeroDivisionError on a zero desired speed, ring length
        # or closing term (b_conf 0), and IndexError on a leader past the
        # list. The C arithmetic alone would step through the first two
        # (inf ** -1 is finite; free vehicles read no gap) and read past its
        # buffer on the last; a zero closing term also gives it a NaN s*.
        vehicles = build_corridor(CorridorConfig()).vehicles
        vehicles[0].v = 10.0
        case = dict(start=vehicles, n_steps=10, v0=P.v_cruise, p=P, dt=0.1,
                    road_length=CorridorConfig().road_length,
                    vehicle_length=GEO.vehicle_length)
        if change == "v0":
            case.update(v0=0.0, p=dataclasses.replace(P, delta=-1.0))
        elif change == "road_length":
            case["road_length"] = 0.0
            for v in vehicles:
                v.leader = -1
        elif change == "b_conf":
            case["p"] = dataclasses.replace(P, b_conf=0.0)
        else:
            vehicles[3].leader = len(vehicles)
        compiled = kernel_outcome(compiled_kernel(), **case)
        assert compiled[0][0] in ("ZeroDivisionError", "IndexError")
        assert compiled == kernel_outcome(False, **case)

    def test_parameters_differing_in_the_sign_of_a_zero(self):
        # -0.0 == 0.0, but a dt or speed of -0.0 must give Python's bits:
        # a step at dt -0.0 keeps a speed of -0.0 where one at 0.0 does not.
        kernel = compiled_kernel()
        start = [VehicleState(vid=0, x=5.0, v=-0.0, direction=1, lane=0)]
        for dt in (0.0, -0.0, 0.0):
            case = (start, 1, P.v_cruise, P, dt, 1000.0, GEO.vehicle_length)
            assert kernel_outcome(kernel, *case) == kernel_outcome(False, *case)

    def test_takes_the_steps_itself(self, monkeypatch):
        # The Python body is left no step of an ordinary stretch.
        kernel = compiled_kernel()
        taken = []

        def spied(*args):
            taken.append(kernel(*args))
            return taken[-1]

        monkeypatch.setattr(wvcsim.vehicles, "_kernel", spied)
        vehicles = build_corridor(CorridorConfig()).vehicles
        Fleet(vehicles, P, 0.1, CorridorConfig().road_length,
              GEO.vehicle_length).advance(3000, P.v_cruise)
        assert taken == [3000]

    def test_fleets_of_one_size_keep_their_own_buffers(self):
        # Two trials' fleets of 8 vehicles each, stepped in turn, give the
        # bits each gives when stepped alone.
        compiled_kernel()
        L = CorridorConfig().road_length
        calls = [(1, P.v_cruise), (17, P.v_caution), (1, P.v_caution, [True, False] * 4),
                 (40, P.v_cruise)]

        def groups():
            first = build_corridor(CorridorConfig()).vehicles
            second = build_corridor(CorridorConfig()).vehicles
            for v in second:
                v.v = 10.0
            return [first, second]

        alone = []
        for group in groups():
            fleet = Fleet(group, P, 0.1, L, GEO.vehicle_length)
            for call in calls:
                fleet.advance(*call)
            alone.append(kernel_bits(group))
        together = groups()
        fleets = [Fleet(group, P, 0.1, L, GEO.vehicle_length) for group in together]
        for call in calls:
            for fleet in fleets:
                fleet.advance(*call)
        assert [kernel_bits(group) for group in together] == alone
        assert alone[0] != alone[1]

    def test_python_steps_reload_the_buffer(self, monkeypatch):
        # A kernel that takes only the first step of each call leaves the
        # rest to the Python body: each next call starts from the vehicles'
        # state, not from the buffer's.
        kernel = compiled_kernel()
        taken = []

        def one_step(n, n_steps, *args):
            taken.append(kernel(n, ctypes.c_long(min(n_steps.value, 1)), *args))
            return taken[-1]

        monkeypatch.setattr(wvcsim.vehicles, "_kernel", one_step)
        L = CorridorConfig().road_length
        fast = build_corridor(CorridorConfig()).vehicles
        ref = build_corridor(CorridorConfig()).vehicles
        fleet = Fleet(fast, P, 0.1, L, GEO.vehicle_length)
        for n in (5, 1, 30, 2):
            fleet.advance(n, P.v_cruise)
            reference_steps(ref, n, P.v_cruise, L)
            assert kernel_bits(fast) == kernel_bits(ref)
        assert taken == [1, 1, 1, 1]

    def test_source_ships_with_the_package(self):
        source = importlib.resources.files("wvcsim").joinpath("advance_idm.c")
        assert "long advance_idm(" in source.read_text(encoding="utf-8")

    @pytest.mark.skipif(shutil.which(wvcsim.vehicles.CC[0]) is None,
                        reason="no C compiler on PATH")
    def test_builds_where_a_compiler_is_found(self, monkeypatch):
        monkeypatch.setattr(wvcsim.vehicles, "_kernel", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wvcsim.vehicles.load_kernel()

    @pytest.mark.skipif(shutil.which(wvcsim.vehicles.CC[0]) is None,
                        reason="no C compiler on PATH")
    def test_builds_without_warnings(self, tmp_path):
        source = importlib.resources.files("wvcsim").joinpath("advance_idm.c")
        built = subprocess.run([*wvcsim.vehicles.CC, "-Wall", "-Wextra", "-Werror",
                                "-o", str(tmp_path / "advance_idm.so"), str(source),
                                "-lm"], capture_output=True, text=True)
        assert built.returncode == 0, built.stderr

    def test_import_and_plan_build_nothing(self):
        # The kernel is built on the first call, never at import: importing
        # the package and building a plan runs no compiler.
        code = ("import subprocess\n"
                "def forbidden(*args, **kwargs):\n"
                "    raise AssertionError('a process was started')\n"
                "subprocess.Popen.__init__ = forbidden\n"
                "import wvcsim, wvcsim.vehicles\n"
                "from wvcsim.experiments import ExperimentPlan\n"
                "ExperimentPlan.headline(master_seed=1)\n"
                "wvcsim.build_corridor(wvcsim.CorridorConfig())\n"
                "print(wvcsim.vehicles._kernel)")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "None\n"
