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
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wvcsim.engine
import wvcsim.vehicles
from wvcsim.awareness import AwarenessState
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, build_corridor,
                           replace_config)
from wvcsim.engine import run_trial
from wvcsim.vehicles import (BRAKING_INTERACTION_DISTANCE, FREE_ROAD_GAP,
                             DriverAlert, Fleet, IdmParams, VehicleOverlap,
                             VehicleState, brake_zone, contact_zone,
                             crossing_dangers, desired_gap, detect_collisions,
                             emergency_brake_needed, idm_acceleration,
                             link_ring_leaders, step_vehicles, stopping_envelope,
                             threat_present)
from wvcsim.animals import Activity, AnimalState, BehaviourParams

P = IdmParams()
BEHAVIOUR = BehaviourParams()
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
                                          0.0, GEO)
            assert error[0] == "ZeroDivisionError"
            assert state == kernel_outcome(kernel, start, 0, P.v_cruise, P, 0.1,
                                           0.0, GEO)[1]


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
        advance = Fleet.advance

        def counted(fleet, n_steps, v0, animals=None):
            if animals is not None:
                calls.append(animals)
            return advance(fleet, n_steps, v0, animals)

        monkeypatch.setattr(Fleet, "advance", counted)
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

        def recorded(fleet, n_steps, v0, animals=None):
            # One step at a time, so that every step's speeds are seen; only
            # the last one brakes.
            for step in range(n_steps):
                seen.extend((v.v, v0) for v in fleet.snapshot())
                advance(fleet, 1, v0, animals if step == n_steps - 1 else None)

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


def advanced(vehicles, n_steps, v0, road_length, dt=0.1):
    """A fleet of ``vehicles`` after ``advance(n_steps, v0)``: its
    ``snapshot``."""
    fleet = Fleet(vehicles, P, dt, road_length, GEO, BEHAVIOUR)
    fleet.advance(n_steps, v0)
    return fleet.snapshot()


class TestAdvanceIdm:
    """The vehicle kernel is the per-step IDM path, bit for bit."""

    L = CorridorConfig().road_length

    def default_pair(self, **kw):
        cfg = replace_config(CorridorConfig(), **kw)
        return build_corridor(cfg).vehicles, build_corridor(cfg).vehicles

    def test_matches_reference_from_default_state(self):
        fast, ref = self.default_pair()
        fast = advanced(fast, 3000, P.v_cruise, self.L)
        reference_steps(ref, 3000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_after_an_alert(self):
        # 30 s at caution speed, then recovery at cruise: speeds and gaps are
        # far from equilibrium when the kernel takes over.
        fast, ref = self.default_pair()
        reference_steps(fast, 300, P.v_caution, self.L)
        reference_steps(ref, 300, P.v_caution, self.L)
        assert snapshot(fast) == snapshot(ref)
        fast = advanced(fast, 2000, P.v_cruise, self.L)
        reference_steps(ref, 2000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_at_caution_speed(self):
        # Alerted drivers that brake for no animal: from cruise down to the
        # caution speed, through the -a_em clamp.
        fast, ref = self.default_pair()
        fast = advanced(fast, 2000, P.v_caution, self.L)
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
        fast = advanced(fast, 500, P.v_cruise, self.L)
        reference_steps(ref, 500, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_matches_reference_for_a_free_vehicle(self):
        fast, ref = self.default_pair(vehicles_per_direction=1)
        assert all(v.leader == -1 for v in fast)
        fast = advanced(fast, 1000, P.v_cruise, self.L)
        reference_steps(ref, 1000, P.v_cruise, self.L)
        assert snapshot(fast) == snapshot(ref)

    def test_clears_emergency_braking(self):
        # The fleet takes the flags as they start, and a non-braking call
        # clears them.
        vehicles = build_corridor(CorridorConfig()).vehicles
        for v in vehicles:
            v.emergency_braking = True
        fleet = Fleet(vehicles, P, 0.1, self.L, GEO, BEHAVIOUR)
        assert all(v.emergency_braking for v in fleet.snapshot())
        fleet.advance(1, P.v_cruise)
        assert not any(v.emergency_braking for v in fleet.snapshot())

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
        fleet = Fleet(fast, P, 0.1, self.L, GEO, BEHAVIOUR)
        with pytest.raises(VehicleOverlap) as exc:
            fleet.advance(1000, P.v_cruise)
        assert exc.value.step == expected > 0
        assert (exc.value.follower, exc.value.leader) == (0, fast[0].leader)
        assert snapshot(fleet.snapshot()) == snapshot(ref)


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
        ref = build_corridor(cfg).vehicles
        fleet = Fleet(build_corridor(cfg).vehicles, P, dt, self.L, GEO, BEHAVIOUR)
        fleet.advance(0, P.v_cruise)
        assert snapshot(fleet.snapshot()) == snapshot(ref)
        done = 0
        for r in (1, 2, 17, 640, 3001):
            fleet.advance(r - done, P.v_cruise)
            reference_steps(ref, r - done, P.v_cruise, self.L, dt)
            done = r
            assert snapshot(fleet.snapshot()) == snapshot(ref)


def kernel_outcome(kernel, start, n_steps, v0, p, dt, road_length, geometry,
                   animals=None):
    """``Fleet.advance`` braking for ``animals`` on a fleet built from
    ``start``, with the kernel slot set to ``kernel``: ``advance_outcome``."""
    fleet = fleet_on(kernel, start, p, dt, road_length, geometry, BEHAVIOUR)
    return advance_outcome(fleet, n_steps, v0, animals)


def fleet_on(kernel, *args):
    """``Fleet(*args)`` built with the kernel slot set to ``kernel``."""
    saved = wvcsim.vehicles._kernel
    wvcsim.vehicles._kernel = kernel
    try:
        return Fleet(*args)
    finally:
        wvcsim.vehicles._kernel = saved


def advance_outcome(fleet, n_steps, v0, animals=None):
    """``fleet.advance(n_steps, v0, animals)``: what it raised (an overlap by
    step and by the pair's indices, another error by its type and message),
    and every vehicle's (x, v) bits and brake flag in its ``snapshot``."""
    error = None
    try:
        fleet.advance(n_steps, v0, animals)
    except VehicleOverlap as exc:
        error = ("overlap", exc.step, exc.follower, exc.leader)
    except (OverflowError, ZeroDivisionError, IndexError) as exc:
        error = (type(exc).__name__, str(exc))
    return error, kernel_bits(fleet.snapshot())


def kernel_bits(vehicles):
    return [(struct.pack("<2d", v.x, v.v), v.emergency_braking) for v in vehicles]


def one_step(kernel):
    """``kernel``, its advance taking only the first step of each call and
    leaving the rest, the braking step among them, to the Python body."""
    first = kernel.advance

    def advance(buf, lead, n_steps, v0, animals):
        return first(buf, lead, min(n_steps, 1), v0, animals if n_steps <= 1 else None)
    return SimpleNamespace(**vars(kernel) | {"advance": advance})


def solved(f, goal, guess):
    """A float within 8 ULPs of ``guess`` at which ``f`` gives ``goal``
    exactly, or None."""
    z = ulps_from(guess, -8)
    for _ in range(17):
        if f(z) == goal:
            return z
        z = math.nextafter(z, math.inf)
    return None


def reach(vehicle, p, geometry):
    """``emergency_brake_needed``'s reach for ``vehicle``: the stopping
    envelope, at least the hold zone."""
    envelope = stopping_envelope(vehicle.v, p)
    hold = brake_zone(geometry, p)[0]
    return hold if envelope < hold else envelope


def edge_y(vehicle, geometry, side, ulps):
    """A y on ``side`` (+1 or -1) of ``vehicle``'s lane centre whose
    distance from it is the lane band moved ``ulps`` ULPs, as
    ``emergency_brake_needed`` measures it; None where no y gives it."""
    centre = geometry.lane_centre(vehicle.lane)
    goal = ulps_from(brake_zone(geometry, P)[1], ulps)
    return solved(lambda y: abs(y - centre), goal, centre + side * goal)


def edge_x(vehicle, p, geometry, road_length, ulps):
    """An x ahead of ``vehicle`` by its reach, moved ``ulps`` ULPs, as
    ``emergency_brake_needed`` measures it; None where no x gives it."""
    goal = ulps_from(reach(vehicle, p, geometry), ulps)
    return solved(lambda x: ((x - vehicle.x) * vehicle.direction) % road_length,
                  goal, (vehicle.x + goal * vehicle.direction) % road_length)


def first(value, default):
    return default if value is None else value


@st.composite
def candidates(draw, vehicles, p, geometry, road_length):
    """0-4 animals on or near the carriageway: each x and y drawn at random
    or, for a vehicle of the ring, at the edge of its brake test, its reach
    ahead and its lane band, or one ULP either side; exact at the first
    step's snapshot."""
    animals = []
    for aid in range(draw(st.integers(0, 4))):
        x = draw(st.floats(0.0, road_length, exclude_max=True))
        y = draw(st.floats(-1.0, geometry.road_width + 1.0))
        if vehicles:
            vehicle = draw(st.sampled_from(vehicles))
            if draw(st.booleans()):
                x = first(edge_x(vehicle, p, geometry, road_length,
                                 draw(st.integers(-1, 1))), x)
            if draw(st.booleans()):
                y = first(edge_y(vehicle, geometry, draw(st.sampled_from((1, -1))),
                                 draw(st.integers(-1, 1))), y)
        animals.append(AnimalState(aid=aid, x=x, y=y, sigma=1.0))
    return animals


@st.composite
def kernel_cases(draw):
    """A ring of 0-12 vehicles in both directions, some of them free, with
    random states, IDM parameters, lane and body sizes, time step, ring
    length, step count (often one, so that the brake edges hold), one of the
    two desired speeds, and no animals or 0-4 candidates for a braking last
    step."""
    road_length = draw(st.floats(10.0, 2000.0))
    geometry = dataclasses.replace(GEO, vehicle_length=draw(st.floats(0.0, 10.0)),
                                   lane_width=draw(st.floats(0.5, 5.0)),
                                   animal_radius=draw(st.floats(0.0, 3.0)))
    vehicles = [VehicleState(vid=i, x=draw(st.floats(0.0, road_length,
                                                     exclude_max=True)),
                             v=draw(st.floats(0.0, 40.0) | st.floats(0.0, 2.0)),
                             direction=d, lane=d < 0,
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
                  v_caution=draw(st.floats(0.5, v_cruise)),
                  t_react=draw(st.floats(0.1, 3.0)))
    v0 = draw(st.sampled_from((p.v_cruise, p.v_caution)))
    animals = draw(st.none() | candidates(vehicles, p, geometry, road_length))
    return (vehicles, draw(st.just(1) | st.integers(0, 300)), v0, p,
            draw(st.floats(0.01, 1.0)), road_length, geometry, animals)


@st.composite
def kernel_sequences(draw):
    """A ring, its parameters, time step, ring length and geometry from
    ``kernel_cases``, then 1-6 calls on one fleet: each a step count (0, 1 or
    2-300), one of the two desired speeds, no animals or 0-4 candidates, and
    whether the kernel stops after one step and leaves the rest to the
    Python body."""
    vehicles, _, _, p, dt, road_length, geometry, _ = draw(kernel_cases())
    calls = draw(st.lists(st.tuples(
        st.sampled_from((0, 1)) | st.integers(2, 300),
        st.sampled_from((p.v_cruise, p.v_caution)),
        st.none() | candidates(vehicles, p, geometry, road_length),
        st.booleans()), min_size=1, max_size=6))
    return vehicles, p, dt, road_length, geometry, calls


# The default corridor cruising long enough for speeds and gaps to repeat
# their bits from step to step, then the caution speed, steps left to the
# Python body and the cruise speed again: any state the kernel kept from one
# call to the next, beyond x and v, would show as a wrong term after a switch.
SETTLED_CASE = (build_corridor(CorridorConfig()).vehicles, P, 0.1,
                CorridorConfig().road_length, GEO,
                [(3000, P.v_cruise, None, False), (5, P.v_caution, None, False),
                 (3000, P.v_caution, None, True), (1, P.v_cruise, None, False)])


# Two vehicles 1e-160 m apart bumper to bumper: (s*/gap) ** 2 overflows, so
# the Python body raises OverflowError before the first step.
OVERFLOW_CASE = ([VehicleState(vid=0, x=0.0, v=0.0, direction=1, lane=0, leader=1),
                  VehicleState(vid=1, x=2e-160, v=0.0, direction=1, lane=0, leader=0)],
                 10, P.v_cruise, P, 0.1, 1000.0,
                 dataclasses.replace(GEO, vehicle_length=1e-160))


def many_animals_case():
    """A braking step for 40 animals 10-49 m ahead of the default ring's
    vehicles, five to a vehicle, off the road but for the last four, in
    their vehicles' lanes: those four vehicles brake, the other four do
    not, so a kernel that reads fewer animals gives other flags."""
    vehicles = build_corridor(CorridorConfig()).vehicles
    L = CorridorConfig().road_length
    animals = []
    for i in range(40):
        v = vehicles[i % len(vehicles)]
        y = GEO.lane_centre(v.lane) if i >= 32 and i % 2 == 0 else -5.0
        animals.append(AnimalState(aid=i, x=(v.x + (10.0 + i) * v.direction) % L,
                                   y=y, sigma=1.0))
    return vehicles, 3, P.v_caution, P, 0.1, L, GEO, animals


def free_case(v):
    """One free vehicle at speed ``v``, ten steps at the cruise speed."""
    return ([VehicleState(vid=0, x=0.0, v=v, direction=1, lane=0)], 10, P.v_cruise,
            P, 0.1, 1000.0, GEO, None)


# The IDM powers' edges: a finite speed whose (v/v0) ** 4 overflows, in its
# last product (1e100 m/s) or its first (1e200 m/s), so the Python body
# raises OverflowError as for OVERFLOW_CASE's (s*/gap) ** 2; an infinite and
# a NaN speed, which ** and the products pass through without raising; and
# the default corridor slowing to the caution speed at a delta of 3.5, which
# takes libm pow.
POWER_EDGES = ([free_case(v) for v in (1e100, 1e200, math.inf, math.nan)]
               + [(build_corridor(CorridorConfig()).vehicles, 300, P.v_caution,
                   dataclasses.replace(P, delta=3.5), 0.1,
                   CorridorConfig().road_length, GEO, None)])


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
    At ``v`` 0 the vehicle brakes, for an animal 1 m ahead in its lane, so
    nv is 0 and the update adds a zero (of the direction's sign) to x."""
    dt = 0.1
    goal = ulps_from(target, ulps)
    brake = v == 0.0
    nv = 0.0 if brake else v + idm_acceleration(v, P.v_cruise, 0.0,
                                                 FREE_ROAD_GAP, P) * dt
    move = nv * dt * direction
    x = solved(lambda x: x + move, goal, goal - move)
    if x is None:
        raise AssertionError(f"no x lands on {goal!r}")
    vehicle = VehicleState(vid=0, x=x, v=v, direction=direction, lane=0)
    animals = None
    if brake:
        animals = [AnimalState(aid=0, x=(x + direction) % EDGE_L, y=GEO.lane_centre(0),
                               sigma=1.0)]
    return [vehicle], 1, P.v_cruise, P, dt, EDGE_L, GEO, animals


def gap_case(x_follower, x_leader, direction):
    """A follower at ``x_follower`` behind a leader at ``x_leader``: the gap's
    argument is ``(x_leader - x_follower) * direction``."""
    pair = [VehicleState(vid=0, x=x_follower, v=10.0, direction=direction, lane=0,
                         leader=1),
            VehicleState(vid=1, x=x_leader, v=10.0, direction=direction, lane=0,
                         leader=0)]
    return pair, 3, P.v_cruise, P, 0.1, EDGE_L, dataclasses.replace(
        GEO, vehicle_length=0.0), None


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
        P, 1.0, 10.0, GEO, None) for d in (1, -1)])


def brake_case(v, direction, x_ulps=None, side=None, y_ulps=0, x=None):
    """One free vehicle at speed ``v`` in its direction's lane, one braking
    step for one animal: ``x_ulps`` ULPs from the vehicle's reach ahead (or
    at ``x``), and ``y_ulps`` ULPs from its lane band's edge on ``side`` of
    the lane centre (or on the centre)."""
    lane = int(direction < 0)
    # Starts from which every x ahead within the reach is exactly x - start:
    # the reach at cruise speed lies in [128, 256), the hold zone in [4, 8).
    start = ((100.0, 250.0) if v > 2.0 else (0.125, 8.0))[lane]
    vehicle = VehicleState(vid=0, x=start, v=v, direction=direction, lane=lane)
    if x is None:
        x = edge_x(vehicle, P, GEO, EDGE_L, x_ulps)
    y = GEO.lane_centre(lane) if side is None else edge_y(vehicle, GEO, side, y_ulps)
    assert x is not None and y is not None
    return ([vehicle], 1, P.v_cruise, P, 0.1, EDGE_L, GEO,
            [AnimalState(aid=0, x=x, y=y, sigma=1.0)])


# The brake test's edges, where ``<`` decides: an animal at the vehicle's
# reach (no brake) and one ULP inside it (brake), at cruise speed, at 1 m/s
# and at a standstill, where the hold zone is the reach; and, 1 m ahead, an
# animal at the lane band's edge (no brake) and one ULP inside it (brake),
# on the centre's low side in either lane (on its high side, no y of the
# default geometry gives both distances; ``kernel_cases`` draws both sides).
BRAKE_EDGES = (
    [brake_case(v, d, x_ulps=u) for v in (P.v_cruise, 1.0, 0.0) for d in (1, -1)
     for u in (0, -1)]
    + [brake_case(P.v_cruise, d, side=-1, y_ulps=u, x=101.0 if d > 0 else 249.0)
       for d in (1, -1) for u in (0, -1)])


def edge_examples(test):
    """``test`` with an ``@example`` for each case in ``REMAINDER_EDGES``,
    ``POWER_EDGES`` and ``BRAKE_EDGES``."""
    for case in REMAINDER_EDGES + POWER_EDGES + BRAKE_EDGES:
        test = example(case=case)(test)
    return test


def compiled_kernel():
    kernel = wvcsim.vehicles.load_kernel()
    if not kernel:
        pytest.skip("no compiled vehicle kernel on this host")
    return kernel


class TestCompiledKernel:
    """The compiled kernel is the Python body of ``Fleet.advance``, bit for
    bit, down to the brake flags, the errors it raises and the state they
    leave."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(case=kernel_cases())
    @example(case=OVERFLOW_CASE)
    @example(case=many_animals_case())
    @edge_examples
    def test_same_bits_and_errors_as_python(self, case):
        kernel = compiled_kernel()
        compiled = kernel_outcome(kernel, *case)
        assert compiled == kernel_outcome(False, *case)

    def test_brake_edges_decide_as_stated(self):
        # Each BRAKE_EDGES pair straddles its edge: the animal at the edge is
        # not braked for, the one a ULP inside is.
        flags = [kernel_outcome(False, *case)[1][0][1] for case in BRAKE_EDGES]
        assert flags == [False, True] * (len(BRAKE_EDGES) // 2)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=kernel_sequences())
    @example(case=SETTLED_CASE)
    def test_one_fleet_through_a_sequence_of_calls(self, case):
        # Between calls a fleet keeps x, v and the brake flags in its buffer,
        # whichever body stepped them: one fleet stepped call after call,
        # sometimes by the Python body after a kernel that stops after one
        # step, gives the Python body's bits, flags and errors after every
        # call.
        kernel = compiled_kernel()
        start, p, dt, road_length, geometry, calls = case
        fleets = [fleet_on(k, start, p, dt, road_length, geometry, BEHAVIOUR)
                  for k in (kernel, False)]
        for n_steps, v0, animals, stop in calls:
            fleets[0].kernel = one_step(kernel) if stop else kernel
            outcomes = [advance_outcome(fleet, n_steps, v0, animals)
                        for fleet in fleets]
            assert outcomes[0] == outcomes[1]

    def test_overflow_leaves_the_state_before_it(self):
        kernel = compiled_kernel()
        error, state = kernel_outcome(kernel, *OVERFLOW_CASE)
        assert error[0] == "OverflowError"
        assert state == kernel_outcome(kernel, OVERFLOW_CASE[0], 0,
                                       *OVERFLOW_CASE[2:])[1]

    @pytest.mark.parametrize("change", ["v0", "road_length", "b_conf", "leader",
                                        "brake-b_conf"])
    def test_other_errors_raised_as_in_python(self, change):
        # Python raises ZeroDivisionError on a zero desired speed, ring length
        # or closing term (b_conf 0), on a braking step's stopping envelope
        # at 2 * b_conf 0, and IndexError on a leader past the list. The C
        # arithmetic alone would step through the first two (inf ** -1 is
        # finite; free vehicles read no gap) and read past its buffer on the
        # leader; a zero closing term also gives it a NaN s*.
        vehicles = build_corridor(CorridorConfig()).vehicles
        vehicles[0].v = 10.0
        case = dict(start=vehicles, n_steps=10, v0=P.v_cruise, p=P, dt=0.1,
                    road_length=CorridorConfig().road_length, geometry=GEO)
        if change == "v0":
            case.update(v0=0.0, p=dataclasses.replace(P, delta=-1.0))
        elif change == "road_length":
            case["road_length"] = 0.0
            for v in vehicles:
                v.leader = -1
        elif change == "b_conf":
            case["p"] = dataclasses.replace(P, b_conf=0.0)
        elif change == "brake-b_conf":
            # An infinite a_max makes the closing term NaN, not 0.0, so only
            # the braking step's envelope divides by zero.
            case.update(p=dataclasses.replace(P, a_max=math.inf, b_conf=0.0),
                        animals=[])
        else:
            vehicles[3].leader = len(vehicles)
        compiled = kernel_outcome(compiled_kernel(), **case)
        assert compiled[0][0] in ("ZeroDivisionError", "IndexError")
        assert compiled == kernel_outcome(False, **case)

    def test_animal_coordinates_that_are_not_floats(self):
        # An int y takes the Python body, whose arithmetic takes ints; a
        # missing x is read only for an animal in the band, so here the
        # Python body never reads it.
        vehicles = build_corridor(CorridorConfig()).vehicles
        L = CorridorConfig().road_length
        lane_animal = AnimalState(aid=0, x=vehicles[0].x + 10.0, y=2, sigma=1.0)
        far = SimpleNamespace(y=-30.0)
        for animals in ([lane_animal], [far]):
            case = (vehicles, 3, P.v_caution, P, 0.1, L, GEO, animals)
            assert kernel_outcome(compiled_kernel(), *case) == kernel_outcome(False,
                                                                             *case)
        assert kernel_outcome(False, vehicles, 1, P.v_caution, P, 0.1, L, GEO,
                              [lane_animal])[1][0][1]

    def test_parameters_differing_in_the_sign_of_a_zero(self):
        # -0.0 == 0.0, but a dt or speed of -0.0 must give Python's bits:
        # a step at dt -0.0 keeps a speed of -0.0 where one at 0.0 does not.
        kernel = compiled_kernel()
        start = [VehicleState(vid=0, x=5.0, v=-0.0, direction=1, lane=0)]
        for dt in (0.0, -0.0, 0.0):
            case = (start, 1, P.v_cruise, P, dt, 1000.0, GEO)
            assert kernel_outcome(kernel, *case) == kernel_outcome(False, *case)

    def test_takes_the_steps_itself(self, monkeypatch):
        # The Python body is left no step of an ordinary stretch, nor of one
        # ending in a braking step.
        kernel = compiled_kernel()
        taken = []
        advance = kernel.advance

        def spied(*args):
            taken.append(advance(*args))
            return taken[-1]

        monkeypatch.setattr(kernel, "advance", spied)
        vehicles = build_corridor(CorridorConfig()).vehicles
        fleet = Fleet(vehicles, P, 0.1, CorridorConfig().road_length, GEO, BEHAVIOUR)
        fleet.advance(3000, P.v_cruise)
        # 60 m ahead of the first vehicle, in its lane: still ahead of it,
        # and inside its reach, at the seventh step.
        lead = fleet.snapshot()[0]
        fleet.advance(7, P.v_caution, [AnimalState(
            aid=0, x=lead.x + 60.0 * lead.direction, y=GEO.lane_centre(lead.lane),
            sigma=1.0)])
        assert taken == [3000, 7]
        assert [v.emergency_braking for v in fleet.snapshot()] == [True] + [False] * 7

    def test_fleets_of_one_size_keep_their_own_buffers(self):
        # Two trials' fleets of 8 vehicles each, stepped in turn, give the
        # bits each gives when stepped alone.
        compiled_kernel()
        L = CorridorConfig().road_length
        ahead = [AnimalState(aid=0, x=260.0, y=GEO.lane_centre(0), sigma=1.0)]
        calls = [(1, P.v_cruise), (17, P.v_caution), (1, P.v_caution, ahead),
                 (40, P.v_cruise)]

        def groups():
            first = build_corridor(CorridorConfig()).vehicles
            second = build_corridor(CorridorConfig()).vehicles
            for v in second:
                v.v = 10.0
            return [first, second]

        alone = []
        for group in groups():
            fleet = Fleet(group, P, 0.1, L, GEO, BEHAVIOUR)
            for call in calls:
                fleet.advance(*call)
            alone.append(kernel_bits(fleet.snapshot()))
        fleets = [Fleet(group, P, 0.1, L, GEO, BEHAVIOUR) for group in groups()]
        for call in calls:
            for fleet in fleets:
                fleet.advance(*call)
        assert [kernel_bits(fleet.snapshot()) for fleet in fleets] == alone
        assert alone[0] != alone[1]

    def test_python_steps_reload_the_buffer(self):
        # A kernel that takes only the first step of each call hands the
        # rest, a braking step among them, to the Python body, which steps
        # the buffer itself, so each next call starts from the buffer the
        # last one left: after every call the fleet's snapshot has the bits
        # and flags of an all-kernel fleet and of an all-Python one.
        kernel = compiled_kernel()
        L = CorridorConfig().road_length
        taken = []
        handing = one_step(kernel)
        first_only = handing.advance

        def spied(*args):
            taken.append(first_only(*args))
            return taken[-1]

        handing.advance = spied
        fleets = [fleet_on(k, build_corridor(CorridorConfig()).vehicles, P, 0.1, L, GEO,
                           BEHAVIOUR) for k in (handing, kernel, False)]
        braked = False
        for n, v0, ahead in ((5, P.v_cruise, None), (1, P.v_cruise, None),
                             (30, P.v_caution, None), (3, P.v_caution, 15.0),
                             (2, P.v_cruise, None)):
            animals = None
            if ahead is not None:
                lead = fleets[2].snapshot()[0]
                animals = [AnimalState(aid=0, x=(lead.x + ahead * lead.direction) % L,
                                       y=GEO.lane_centre(lead.lane), sigma=1.0)]
            for fleet in fleets:
                fleet.advance(n, v0, animals)
            state = fleets[0].snapshot()
            assert kernel_bits(state) == kernel_bits(fleets[1].snapshot()) \
                == kernel_bits(fleets[2].snapshot())
            braked = braked or any(v.emergency_braking for v in state)
        assert taken == [1, 1, 1, 1, 1]
        assert braked

    @pytest.mark.parametrize("args, error", [
        ((), TypeError),
        (("buf", "lead", 1, 27.78, None, None, None), TypeError),
        (("buf", "lead", 1.0, 27.78, None), TypeError),
        (("buf", "lead", 1, "fast", None), TypeError),
        (("buf", "lead", 1, 27.78, ()), TypeError),
        ((bytearray(8), "lead", 1, 27.78, None), TypeError),
        (("lead", "lead", 1, 27.78, None), TypeError),
        (("buf", "buf", 1, 27.78, None), TypeError),
        (("buf", "lead[:-1]", 1, 27.78, None), ValueError),
    ], ids=["none", "seven", "float-steps", "str-v0", "tuple-animals", "bytearray-buf",
            "long-buf", "double-lead", "short-lead"])
    def test_wrong_arguments_raise(self, args, error):
        # The extension checks its arguments' number, types and sizes before
        # it reads a buffer: a bad call raises, and the fleet still steps.
        kernel = compiled_kernel()
        fleet = Fleet(build_corridor(CorridorConfig()).vehicles, P, 0.1,
                      CorridorConfig().road_length, GEO, BEHAVIOUR)
        named = {"buf": fleet.buf, "lead": fleet.lead, "lead[:-1]": fleet.lead[:-1]}
        with pytest.raises(error):
            kernel.advance(*(named.get(a, a) if isinstance(a, str) else a
                             for a in args))
        fleet.advance(10, P.v_cruise)
        ref = build_corridor(CorridorConfig()).vehicles
        reference_steps(ref, 10, P.v_cruise, CorridorConfig().road_length)
        assert kernel_bits(fleet.snapshot()) == kernel_bits(ref)

    def test_source_ships_with_the_package(self):
        source = importlib.resources.files("wvcsim").joinpath("advance_idm.c")
        assert "PyInit_advance_idm(" in source.read_text(encoding="utf-8")

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
        # The loader's own command, include directory and all.
        source = importlib.resources.files("wvcsim").joinpath("advance_idm.c")
        command = wvcsim.vehicles.build_command(str(source),
                                                str(tmp_path / "advance_idm.so"))
        built = subprocess.run([*command, "-Wall", "-Wextra", "-Werror"],
                               capture_output=True, text=True)
        assert built.returncode == 0, built.stderr

    @pytest.mark.skipif(shutil.which(wvcsim.vehicles.CC[0]) is None,
                        reason="no C compiler on PATH")
    def test_missing_numpy_header_falls_back_loudly(self, monkeypatch, tmp_path):
        # With numpy's include directory empty, bitgen.h is not found: the
        # first load warns with the compiler's message and the next is
        # silent; a trial then gives the compiled kernel's result.
        compiled_kernel()
        config = replace_config(CorridorConfig(), mode=Mode.AWARE, arrival_rate=300.0,
                                radar_spacing=5.0, kappa=0.3)
        compiled = dataclasses.asdict(run_trial(config, 0.05, 0, 3))
        assert compiled["detected"]
        monkeypatch.setattr(numpy, "get_include", lambda: str(tmp_path))
        monkeypatch.setattr(wvcsim.vehicles, "_kernel", None)
        with pytest.warns(RuntimeWarning, match="numpy/random/bitgen.h"):
            assert wvcsim.vehicles.load_kernel() is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert wvcsim.vehicles.load_kernel() is False
            assert dataclasses.asdict(run_trial(config, 0.05, 0, 3)) == compiled

    def test_macos_links_against_the_loading_interpreter(self, monkeypatch):
        # Apple's linker rejects the C-API symbols, undefined until the
        # interpreter loads the module, unless told to leave them.
        monkeypatch.setattr(sys, "platform", "darwin")
        command = wvcsim.vehicles.build_command("advance_idm.c", "advance_idm.so")
        assert command[len(wvcsim.vehicles.CC):][:2] == ["-undefined", "dynamic_lookup"]

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



def scan_measures(vehicle, behaviour, geometry, road_length):
    """Each edge of the scans for ``vehicle``, as (what the reference
    measures for an animal at x, the edge it compares that with, an x near
    it): the threat horizon ahead, the near-pass distance behind, the
    braking interaction distance and the contact half-width along the
    road."""
    vx, d, L = vehicle.x, vehicle.direction, road_length

    def ahead(x):
        return ((x - vx) * d) % L

    def ring(x):
        dx = abs(vx - x)
        return min(dx, L - dx)

    horizon = behaviour.t_threat * vehicle.v
    near = behaviour.near_pass_distance
    reach = contact_zone(geometry)[0]
    return [(ahead, horizon, (vx + horizon * d) % L),
            (lambda x: L - ahead(x), near, (vx - near * d) % L),
            (ring, BRAKING_INTERACTION_DISTANCE, (vx + BRAKING_INTERACTION_DISTANCE) % L),
            (ring, reach, (vx + reach) % L)]


def next_apart(measure, x, side):
    """The float nearest ``x`` below it (``side`` -1) or above it (+1) that
    ``measure`` tells apart from ``x``: the measures here are monotone,
    with plateaus many ULPs wide where the ring's wrap rounds."""
    goal = measure(x)
    step = math.ulp(x)
    far = x + side * step
    while measure(far) == goal:
        step *= 2.0
        far = x + side * step
    near = x
    while math.nextafter(near, far) != far:
        mid = (near + far) / 2.0
        if measure(mid) == goal:
            near = mid
        else:
            far = mid
    return far


def scan_edges(vehicle, behaviour, geometry, road_length, side):
    """For each edge of ``vehicle``'s scans, an x the reference measures
    exactly at the edge (``side`` 0), or the nearest x below (-1) or above
    (+1) that one which it measures otherwise (``next_apart``); edges no x
    near the guess measures exactly are left out."""
    xs = []
    for measure, edge, guess in scan_measures(vehicle, behaviour, geometry,
                                              road_length):
        x = solved(measure, edge, guess)
        if x is not None:
            xs.append(next_apart(measure, x, side) if side else x)
    return xs


# The contact band of an animal 1.5 m in radius reaches the road width
# from the far lane's centre.
WIDE_ANIMAL = dataclasses.replace(GEO, animal_radius=1.5)


def band_edges(vehicle, geometry):
    """The y's at which the contact test measures ``abs(y - centre)`` as its
    half-width across the road exactly, either side of ``vehicle``'s lane
    centre; sides no y near the guess gives are left out."""
    centre, half = geometry.lane_centre(vehicle.lane), contact_zone(geometry)[1]
    ys = [solved(lambda y: abs(y - centre), half, centre + side * half)
          for side in (1, -1)]
    return [y for y in ys if y is not None]


def brakers(vehicles, braking, road_length, geometry):
    """An animal 1 m ahead of each vehicle of ``braking`` (indices), on its
    lane centre: inside the hold zone, so a braking step brakes it."""
    return [AnimalState(aid=100 + i, x=(vehicles[i].x + vehicles[i].direction)
                        % road_length, y=geometry.lane_centre(vehicles[i].lane),
                        sigma=1.0)
            for i in braking]


class ScanCase(NamedTuple):
    """A scan case: the fleet, the indices of the vehicles a braking step
    brakes, whether the compiled kernel leaves that step to the Python body
    (``one_step``), the steps of a non-braking call after it (None for no
    call), the thresholds, the geometry, the ring length and the animals."""

    vehicles: list
    braking: list
    stop: bool
    then: Optional[int]
    behaviour: BehaviourParams
    geometry: GeometryParams
    road_length: float
    animals: list


@st.composite
def scan_cases(draw):
    """0-4 vehicles, each at a random x or within 1 m of either end of the
    ring, at a random speed, at the threat speed floor or one ULP above it,
    braking or not; the thresholds at their defaults or drawn; the default
    geometry or a wide animal; then 0-5 animals, each at a random x or, for
    a drawn vehicle, at an edge of its scans or next to it either side
    (``scan_edges``), and at y = 0, the road width, a lane centre, the edge
    of a drawn vehicle's contact band (``band_edges``) or a random y."""
    road_length = draw(st.just(1000.0) | st.floats(60.0, 2000.0))
    behaviour = BehaviourParams(
        t_threat=draw(st.just(5.0) | st.floats(0.1, 20.0)),
        v_threat=draw(st.just(10.0) | st.floats(0.0, 30.0)),
        near_pass_distance=draw(st.just(20.0) | st.floats(0.0, 50.0)))
    geometry = draw(st.sampled_from((GEO, WIDE_ANIMAL)))
    v_floor = behaviour.v_threat
    vehicles = []
    for i, d in enumerate(draw(st.lists(st.sampled_from((1, -1)), max_size=4))):
        x = draw(st.floats(0.0, road_length, exclude_max=True)
                 | st.floats(0.0, 1.0)
                 | st.floats(road_length - 1.0, road_length, exclude_max=True))
        v = draw(st.floats(0.0, 40.0)
                 | st.sampled_from((v_floor, math.nextafter(v_floor, math.inf))))
        vehicles.append(VehicleState(vid=i, x=x, v=v, direction=d, lane=d < 0))
    braking = [i for i in range(len(vehicles)) if draw(st.booleans())]
    animals = []
    for aid in range(draw(st.integers(0, 5))):
        x = draw(st.floats(0.0, road_length, exclude_max=True))
        if vehicles and draw(st.booleans()):
            edges = scan_edges(draw(st.sampled_from(vehicles)), behaviour, geometry,
                               road_length, draw(st.sampled_from((0, -1, 1))))
            x = draw(st.sampled_from(edges)) if edges else x
        ys = [0.0, geometry.road_width, geometry.lane_centre(0), geometry.lane_centre(1)]
        if vehicles:
            ys += band_edges(draw(st.sampled_from(vehicles)), geometry)
        y = draw(st.sampled_from(ys) | st.floats(-1.0, geometry.road_width + 1.0))
        animals.append(AnimalState(aid=aid, x=x, y=y, sigma=1.0,
                                   state=Activity.CROSSING))
    return ScanCase(vehicles, braking, draw(st.booleans()),
                     draw(st.none() | st.sampled_from((0, 1))), behaviour, geometry,
                     road_length, animals)


def one_vehicle_edges(direction, x, braking, stop=False, then=None, geometry=GEO):
    """One vehicle at ``x`` at 12 m/s, braking or not, and an animal at
    each edge of its scans and next to it either side, at y = 0, the road
    width, its lane centre and the edges of its contact band; ``stop`` and
    ``then`` as in ``ScanCase``."""
    vehicle = VehicleState(vid=0, x=x, v=12.0, direction=direction, lane=direction < 0)
    xs = [ax for side in (-1, 0, 1)
          for ax in scan_edges(vehicle, BEHAVIOUR, geometry, 1000.0, side)]
    ys = [0.0, geometry.road_width, geometry.lane_centre(vehicle.lane),
          *band_edges(vehicle, geometry)]
    animals = [AnimalState(aid=i, x=ax, y=y, sigma=1.0, state=Activity.CROSSING)
               for i, (ax, y) in enumerate((ax, y) for ax in xs for y in ys)]
    return ScanCase([vehicle], [0] if braking else [], stop, then, BEHAVIOUR,
                     geometry, 1000.0, animals)


# Fixed cases: an empty fleet, for animals at y = 0 and the road width; one
# vehicle at either end of the ring in each direction, braking or not, with
# animals on each edge of its scans, for the default animal and a wide one,
# whose contact band reaches the road width; the braking one after a non-braking
# call, which clears the flag, and braked by the Python body, which leaves
# the flag the kernel's scans then read (set at the near-pass edge behind,
# where only a braking vehicle is a danger); and two vehicles at the threat
# speed floor and one ULP above it.
SCAN_EDGES = (
    [ScanCase([], [], False, None, BEHAVIOUR, GEO, 1000.0,
               [AnimalState(aid=0, x=0.0, y=y, sigma=1.0) for y in
                (0.0, GEO.road_width)])]
    + [one_vehicle_edges(d, x, b, geometry=g) for d in (1, -1) for x in (0.0, 999.5)
       for b in (False, True) for g in (GEO, WIDE_ANIMAL)]
    + [one_vehicle_edges(d, 999.5, True, then=1) for d in (1, -1)]
    + [one_vehicle_edges(d, 999.5, True, stop=True) for d in (1, -1)]
    + [ScanCase([VehicleState(vid=i, x=100.0 * i, v=v, direction=1, lane=0)
                  for i, v in enumerate((10.0, math.nextafter(10.0, math.inf)))],
                 [], False, None, BEHAVIOUR, GEO, 1000.0,
                 [AnimalState(aid=0, x=120.0, y=1.0, sigma=1.0)])])


def scan_examples(test):
    """``test`` with an ``@example`` for each case in ``SCAN_EDGES``."""
    for case in SCAN_EDGES:
        test = example(case=case)(test)
    return test


class TestCompiledScans:
    """A fleet's scans, answered from the compiled kernel's buffer where it
    holds the vehicles, are the reference functions' answers for the
    fleet's vehicles, one for one."""

    @pytest.mark.parametrize("kernel", ["compiled", "python"], indirect=True)
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=scan_cases())
    @scan_examples
    def test_same_answers_as_the_reference(self, kernel, case):
        start, braking, stop, then, behaviour, geometry, road_length, animals = case
        # At dt 0 a step moves nothing: the vehicles keep the drawn x and v,
        # and the braking step sets the flags of the drawn vehicles.
        fleet = Fleet(start, P, 0.0, road_length, geometry, behaviour)
        if stop and fleet.kernel:
            fleet.kernel = one_step(fleet.kernel)
        fleet.advance(2, P.v_caution, brakers(start, braking, road_length, geometry))
        state = fleet.snapshot()
        assert all(state[i].emergency_braking for i in braking)
        if then is not None:
            fleet.advance(then, P.v_cruise)
            state = fleet.snapshot()
            assert not any(v.emergency_braking for v in state)
        assert snapshot(state) == snapshot(start)
        for a in animals:
            assert fleet.threat_present(a) is threat_present(a, state, behaviour,
                                                              road_length)
            assert fleet.crossing_dangers(a) == crossing_dangers(a, state, behaviour,
                                                                 road_length)
        assert fleet.detect_collisions(animals) == detect_collisions(
            state, animals, geometry, road_length)

    @pytest.mark.parametrize("scan, args, error", [
        ("threat_present", ("buf",), TypeError),
        ("threat_present", ("buf", 1.0, None), TypeError),
        ("threat_present", ("lead", 1.0), TypeError),
        ("threat_present", ("buf[:-1]", 1.0), ValueError),
        ("crossing_dangers", ("buf", 1.0, None), TypeError),
        ("detect_collisions", ("buf", ()), TypeError),
        ("detect_collisions", (bytearray(8), []), TypeError),
    ], ids=["one", "three", "long-buf", "short-buf", "dangers-three", "tuple-animals",
            "bytearray-buf"])
    def test_wrong_arguments_raise(self, scan, args, error):
        # Each scan checks its arguments' number, types and sizes before it
        # reads the buffer.
        kernel = compiled_kernel()
        fleet = Fleet(build_corridor(CorridorConfig()).vehicles, P, 0.1,
                      CorridorConfig().road_length, GEO, BEHAVIOUR)
        named = {"buf": fleet.buf, "buf[:-1]": fleet.buf[:-1], "lead": fleet.lead}
        with pytest.raises(error):
            getattr(kernel, scan)(*(named.get(a, a) if isinstance(a, str) else a
                                    for a in args))

    @pytest.mark.parametrize("kernel", ["compiled", "python"], indirect=True)
    def test_vehicles_are_named_by_index(self, kernel):
        # A vehicle's index in the fleet's list names it, whatever its vid:
        # here the second vehicle threatens the animal and touches it.
        vehicles = [VehicleState(vid=10 + i, x=x, v=20.0, direction=1, lane=0)
                    for i, x in enumerate((300.0, 500.0))]
        a = AnimalState(aid=3, x=500.0, y=GEO.lane_centre(0), sigma=1.0)
        fleet = Fleet(vehicles, P, 0.1, 1000.0, GEO, BEHAVIOUR)
        assert crossing_dangers(a, vehicles, BEHAVIOUR, 1000.0) == [1] \
            == fleet.crossing_dangers(a)
        assert detect_collisions(vehicles, [a], GEO, 1000.0) == [(1, 3)] \
            == fleet.detect_collisions([a])

    def test_a_stale_buffer_is_left_to_the_reference(self):
        # No buffer is left stale: where the Python body takes over from a
        # kernel that takes only the first step of each call, it steps the
        # buffer, and the kernel's scans, reading what it left there, answer
        # as the references do about the fleet's snapshot. The vehicle's
        # first step alone would leave it 5 m ahead of the animal behind,
        # a threat and a danger to it, and clear of the animal under it.
        kernel = compiled_kernel()
        vehicles = [VehicleState(vid=0, x=100.0, v=20.0, direction=1, lane=0)]
        fleet = Fleet(vehicles, P, 1.0, 1000.0, GEO, BEHAVIOUR)
        fleet.kernel = one_step(kernel)
        fleet.advance(2, 20.0)
        state = fleet.snapshot()
        assert state[0].x > 120.0
        behind = AnimalState(aid=0, x=state[0].x - 25.0, y=1.0, sigma=1.0)
        under = AnimalState(aid=1, x=state[0].x, y=1.0, sigma=1.0)
        answers = (kernel.threat_present(fleet.buf, behind.x),
                   kernel.crossing_dangers(fleet.buf, behind.x),
                   kernel.detect_collisions(fleet.buf, [under]))
        assert answers == (threat_present(behind, state, BEHAVIOUR, 1000.0),
                           crossing_dangers(behind, state, BEHAVIOUR, 1000.0),
                           detect_collisions(state, [under], GEO, 1000.0)) \
            == (False, [], [(0, 1)])

        # Through a corridor's handovers, a braking step among them, the
        # kernel's scans of the buffer agree with the references about the
        # snapshot for animals behind, at and ahead of every vehicle.
        L = CorridorConfig().road_length
        fleet = fleet_on(one_step(kernel), build_corridor(CorridorConfig()).vehicles,
                         P, 0.1, L, GEO, BEHAVIOUR)
        for n, v0, ahead in ((5, P.v_cruise, None), (30, P.v_caution, None),
                             (3, P.v_caution, 15.0), (2, P.v_cruise, None)):
            animals = None
            if ahead is not None:
                lead = fleet.snapshot()[0]
                animals = [AnimalState(aid=0, x=(lead.x + ahead * lead.direction) % L,
                                       y=GEO.lane_centre(lead.lane), sigma=1.0)]
            fleet.advance(n, v0, animals)
            state = fleet.snapshot()
            probes = [AnimalState(aid=i, x=(v.x + dx) % L, y=GEO.lane_centre(v.lane),
                                  sigma=1.0)
                      for i, (v, dx) in enumerate((v, dx) for v in state
                                                  for dx in (-30.0, -2.0, 0.0, 45.0))]
            for a in probes:
                assert kernel.threat_present(fleet.buf, a.x) is threat_present(
                    a, state, BEHAVIOUR, L)
                assert kernel.crossing_dangers(fleet.buf, a.x) == crossing_dangers(
                    a, state, BEHAVIOUR, L)
            assert kernel.detect_collisions(fleet.buf, probes) == detect_collisions(
                state, probes, GEO, L) != []

    def test_edges_decide_as_stated(self):
        # Each edge straddles in the reference, for a vehicle near the ring's
        # end whose edges ahead wrap past 0: the animal at the threat
        # horizon, the braking distance or the contact half-width is not
        # met, the one just inside (below) is; the one at the near-pass
        # distance behind is not threatened, the one just inside (above)
        # is. A vehicle at the speed floor threatens nobody, one a ULP
        # above it does.
        vehicle = VehicleState(vid=0, x=999.5, v=12.0, direction=1, lane=0)
        braking = dataclasses.replace(vehicle, emergency_braking=True)

        def met(x):
            a = AnimalState(aid=0, x=x, y=GEO.lane_centre(0), sigma=1.0)
            return (threat_present(a, [vehicle], BEHAVIOUR, 1000.0),
                    bool(crossing_dangers(a, [braking], BEHAVIOUR, 1000.0)),
                    bool(detect_collisions([vehicle], [a], GEO, 1000.0)))

        edges = [scan_edges(vehicle, BEHAVIOUR, GEO, 1000.0, side)
                 for side in (-1, 0, 1)]
        assert [len(xs) for xs in edges] == [4, 4, 4]
        assert max(edges[1][::2]) < 60.0  # wrapped past 0
        below, at, above = ([met(x) for x in xs] for xs in edges)
        assert [m[0] for m in below[:2] + at[:2] + above[:2]] == [
            True, False, False, False, False, True]
        assert [m[1] for m in (below[2], at[2], above[2])] == [True, False, False]
        assert [m[2] for m in (below[3], at[3], above[3])] == [True, False, False]
        a = AnimalState(aid=0, x=120.0, y=1.0, sigma=1.0)
        assert [threat_present(a, [dataclasses.replace(vehicle, x=100.0, v=v)],
                               BEHAVIOUR, 1000.0)
                for v in (10.0, math.nextafter(10.0, math.inf))] == [False, True]
