import copy
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wvcsim.animals
import wvcsim.detection
import wvcsim.vehicles
from conftest import trial_arguments
from test_vehicles import SCAN_EDGES
from wvcsim.animals import (_DWELL_EPS, Activity, AnimalState, BehaviourParams, Herd,
                            quiet_steps, sample_arrivals, sample_sigma, step_animal,
                            take_quiet_steps)
from wvcsim.awareness import DANGEROUS_STATES
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, config_from_dict,
                           config_to_dict, replace_config)
from wvcsim.engine import run_trial
from wvcsim.vehicles import (Fleet, IdmParams, VehicleState, threat_present,
                             vehicle_is_threat)

PARAMS = BehaviourParams()
GEO = GeometryParams()
L = 1000.0
DT = 0.1


def rng(seed=0):
    return np.random.default_rng(seed)


def cruise_vehicle(x, v=27.78, direction=1, vid=0):
    return VehicleState(vid=vid, x=x, v=v, direction=direction, lane=0)


def traffic(*vehicles):
    """A fleet of ``vehicles``, which ``step_animal`` reads."""
    return Fleet(list(vehicles), IdmParams(), DT, L, GEO, PARAMS)


def animal(state, x=500.0, y=0.0, dwell=1.0, **kw):
    a = AnimalState(aid=0, x=x, y=y, sigma=1.0, state=state,
                    dwell_remaining=dwell, **kw)
    return a


class TestArrivals:
    def test_zero_rate(self):
        assert sample_arrivals(0.0, 4.0, L, 1.0, PARAMS, rng()) == []

    def test_sorted_and_in_bounds(self):
        arr = sample_arrivals(15.0, 4.0, L, 1.0, PARAMS, rng(1))
        times = [a.time for a in arr]
        assert times == sorted(times)
        assert all(0.0 < t <= 4 * 3600.0 for t in times)
        assert all(0.0 <= a.x <= L for a in arr)

    def test_expected_count(self):
        counts = [len(sample_arrivals(15.0, 4.0, L, 1.0, PARAMS, rng(s)))
                  for s in range(200)]
        mean = sum(counts) / len(counts)
        # rate * duration = 60; 3-sigma band for the mean of 200 trials.
        assert abs(mean - 60.0) < 3.0 * math.sqrt(60.0 / 200.0)

    def test_poisson_dispersion(self):
        g = rng(7)
        counts = [len(sample_arrivals(15.0, 2.0, L, 1.0, PARAMS, g))
                  for _ in range(500)]
        arr = np.asarray(counts, dtype=float)
        dispersion = arr.var(ddof=1) / arr.mean()
        assert 0.9 <= dispersion <= 1.1

    @pytest.mark.parametrize("rate, hours, message", [
        (math.nan, 4.0, "arrival rate"), (math.inf, 4.0, "arrival rate"),
        (-1.0, 4.0, "arrival rate"), (15.0, math.nan, "duration"),
        (15.0, math.inf, "duration"), (15.0, 0.0, "duration"),
    ])
    def test_nonfinite_or_negative_input_rejected(self, rate, hours, message):
        # NaN used to return no arrivals, and an infinite duration never
        # returned at all.
        with pytest.raises(ValueError, match=message):
            sample_arrivals(rate, hours, L, 1.0, PARAMS, rng())

    def test_size_scale_multiplies_sigma_only(self):
        a1 = sample_arrivals(15.0, 1.0, L, 1.0, PARAMS, rng(3))
        a2 = sample_arrivals(15.0, 1.0, L, 2.0, PARAMS, rng(3))
        assert [(a.time, a.x) for a in a1] == [(a.time, a.x) for a in a2]
        for one, two in zip(a1, a2):
            assert two.sigma == pytest.approx(2.0 * one.sigma, rel=1e-12)


class TestSizeMixture:
    def test_mixture_mean_matches_analytic(self):
        g = rng(11)
        draws = [sample_sigma(PARAMS.size_mixture, g) for _ in range(100_000)]
        analytic = 0.15 * 0.40 + 0.60 * 0.95 + 0.25 * 1.85
        assert analytic == pytest.approx(1.0925, abs=1e-12)
        assert sum(draws) / len(draws) == pytest.approx(analytic, abs=0.01)

    def test_class_frequencies(self):
        g = rng(13)
        n = 10_000
        draws = [sample_sigma(PARAMS.size_mixture, g) for _ in range(n)]
        small = sum(1 for s in draws if s <= 0.55)
        medium = sum(1 for s in draws if 0.7 <= s <= 1.2)
        large = sum(1 for s in draws if s >= 1.4)
        assert small + medium + large == n  # class ranges are disjoint
        for observed, p in ((small, 0.15), (medium, 0.60), (large, 0.25)):
            assert abs(observed / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)


class TestThreatPredicate:
    def test_no_vehicles(self):
        a = animal(Activity.HESITATING)
        assert not threat_present(a, [], PARAMS, L)

    def test_caution_speed_never_threatens(self):
        a = animal(Activity.HESITATING, x=500.0)
        for x in (495.0, 460.0, 200.0):
            v = cruise_vehicle(x, v=8.33)
            assert not vehicle_is_threat(a.x, v, PARAMS, L)

    def test_cruise_vehicle_within_horizon(self):
        a = animal(Activity.HESITATING, x=500.0)
        v = cruise_vehicle(400.0, v=27.78)  # 100 m away, TTA 3.6 s
        assert vehicle_is_threat(a.x, v, PARAMS, L)

    def test_cruise_vehicle_beyond_horizon(self):
        a = animal(Activity.HESITATING, x=500.0)
        v = cruise_vehicle(340.0, v=27.78)  # 160 m away, TTA 5.76 s
        assert not vehicle_is_threat(a.x, v, PARAMS, L)

    def test_near_pass_window_behind(self):
        a = animal(Activity.HESITATING, x=500.0)
        just_past = cruise_vehicle(510.0, v=27.78)   # 10 m past, receding
        long_gone = cruise_vehicle(530.0, v=27.78)   # 30 m past
        assert vehicle_is_threat(a.x, just_past, PARAMS, L)
        assert not vehicle_is_threat(a.x, long_gone, PARAMS, L)

    def test_opposite_direction_symmetry(self):
        a = animal(Activity.HESITATING, x=500.0)
        v = VehicleState(vid=1, x=600.0, v=27.78, direction=-1, lane=1)
        assert vehicle_is_threat(a.x, v, PARAMS, L)


class TestStateMachine:
    def test_foraging_holds_until_dwell_expires(self):
        a = animal(Activity.FORAGING, y=GEO.spawn_offset, dwell=5.0)
        g = rng()
        for step in range(49):
            step_animal(a, traffic(), DT, PARAMS, GEO, g)
            assert a.state is Activity.FORAGING
            assert a.y == GEO.spawn_offset
        step_animal(a, traffic(), DT, PARAMS, GEO, g)
        assert a.state is Activity.APPROACHING
        assert a.left_foraging

    def test_approach_reaches_edge_and_hesitates(self):
        a = animal(Activity.APPROACHING, y=GEO.spawn_offset)
        g = rng()
        ys = []
        for _ in range(2000):
            if a.state is not Activity.APPROACHING:
                break
            prev = a.y
            step_animal(a, traffic(), DT, PARAMS, GEO, g)
            ys.append((prev, a.y))
        assert a.state is Activity.HESITATING
        assert a.y == 0.0
        assert PARAMS.hesitate_dwell[0] <= a.dwell_remaining <= PARAMS.hesitate_dwell[1]
        assert all(after > before for before, after in ys)

    def test_hesitating_branches_without_threat(self):
        g = rng(17)
        n = 10_000
        outcomes = {Activity.CROSSING: 0, Activity.HESITATING: 0}
        for _ in range(n):
            a = animal(Activity.HESITATING, dwell=DT)
            step_animal(a, traffic(), DT, PARAMS, GEO, g)
            outcomes[a.state] += 1
        for state, p in ((Activity.CROSSING, 0.80), (Activity.HESITATING, 0.20)):
            bound = 3.0 * math.sqrt(p * (1 - p) / n)
            assert abs(outcomes[state] / n - p) <= bound

    def test_hesitating_branches_with_threat(self):
        g = rng(19)
        n = 10_000
        threat = traffic(cruise_vehicle(400.0))
        outcomes = {Activity.FROZEN: 0, Activity.FLEEING: 0,
                    Activity.HESITATING: 0, Activity.CROSSING: 0}
        for _ in range(n):
            a = animal(Activity.HESITATING, x=500.0, dwell=DT)
            step_animal(a, threat, DT, PARAMS, GEO, g)
            outcomes[a.state] += 1
        assert outcomes[Activity.CROSSING] == 0
        for state, p in ((Activity.FROZEN, 0.10), (Activity.FLEEING, 0.20),
                         (Activity.HESITATING, 0.70)):
            bound = 3.0 * math.sqrt(p * (1 - p) / n)
            assert abs(outcomes[state] / n - p) <= bound

    def test_crossing_duration(self):
        a = animal(Activity.CROSSING, y=0.0)
        g = rng()
        steps = 0
        while not a.crossed:
            step_animal(a, traffic(), DT, PARAMS, GEO, g)
            steps += 1
        assert 18 <= steps <= 20  # 7.4 m at 4.0 m/s

    def test_crossing_sets_entry_and_exit(self):
        a = animal(Activity.CROSSING, y=0.0)
        g = rng()
        for _ in range(500):
            if a.state is Activity.MOVED_AWAY:
                break
            step_animal(a, traffic(), DT, PARAMS, GEO, g)
        assert a.entered_road
        assert a.crossed
        assert a.state is Activity.MOVED_AWAY
        assert a.y >= GEO.road_width + GEO.exit_offset

    def test_crossing_freeze_roll_once_per_vehicle(self):
        # Braking vehicle within 50 m: the roll happens exactly once per pair.
        g = rng(23)
        n = 10_000
        frozen = 0
        for i in range(n):
            a = animal(Activity.CROSSING, x=500.0, y=2.0)
            veh = cruise_vehicle(520.0, v=5.0)
            veh.emergency_braking = True
            step_animal(a, traffic(veh), DT, PARAMS, GEO, g)
            assert veh.vid in a.interacted_vehicles
            if a.state is Activity.FROZEN:
                frozen += 1
            else:
                before = a.y
                step_animal(a, traffic(veh), DT, PARAMS, GEO, g)
                assert a.state is Activity.CROSSING  # no second roll
                assert a.y > before
        p = PARAMS.p_freeze_crossing
        assert abs(frozen / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_braking_vehicle_beyond_50m_not_dangerous(self):
        a = animal(Activity.CROSSING, x=500.0, y=2.0)
        veh = cruise_vehicle(560.0, v=5.0)
        veh.emergency_braking = True
        step_animal(a, traffic(veh), DT, PARAMS, GEO, rng())
        assert veh.vid not in a.interacted_vehicles

    def test_frozen_released_to_prior_activity(self):
        threat = traffic(cruise_vehicle(400.0, v=27.78))
        a = animal(Activity.FROZEN, x=500.0, y=3.0, dwell=PARAMS.frozen_max_dwell)
        a.frozen_from = Activity.CROSSING
        g = rng()
        step_animal(a, threat, DT, PARAMS, GEO, g)
        assert a.state is Activity.FROZEN  # threat still present
        step_animal(a, traffic(), DT, PARAMS, GEO, g)
        assert a.state is Activity.CROSSING

        b = animal(Activity.FROZEN, x=500.0, y=0.0, dwell=PARAMS.frozen_max_dwell)
        b.frozen_from = Activity.HESITATING
        step_animal(b, traffic(), DT, PARAMS, GEO, g)
        assert b.state is Activity.HESITATING

    def test_frozen_max_dwell_forces_release(self):
        threat = traffic(cruise_vehicle(400.0))
        a = animal(Activity.FROZEN, x=500.0, y=3.0, dwell=PARAMS.frozen_max_dwell)
        a.frozen_from = Activity.CROSSING
        g = rng()
        steps = 0
        while a.state is Activity.FROZEN:
            # Keep the threat at constant range so only the cap can release.
            step_animal(a, threat, DT, PARAMS, GEO, g)
            steps += 1
        assert steps == pytest.approx(PARAMS.frozen_max_dwell / DT, abs=1)

    def test_fleeing_leaves_corridor(self):
        a = animal(Activity.FLEEING, y=0.0)
        g = rng()
        ys = []
        while a.state is Activity.FLEEING:
            prev = a.y
            step_animal(a, traffic(), DT, PARAMS, GEO, g)
            ys.append((prev, a.y))
        assert a.state is Activity.MOVED_AWAY
        assert a.y <= GEO.spawn_offset
        assert all(after < before for before, after in ys)

    def test_stepping_departed_animal_is_error(self):
        a = animal(Activity.MOVED_AWAY)
        with pytest.raises(ValueError):
            step_animal(a, traffic(), DT, PARAMS, GEO, rng())


ALLOWED = {
    Activity.FORAGING: {Activity.FORAGING, Activity.APPROACHING},
    Activity.APPROACHING: {Activity.APPROACHING, Activity.HESITATING},
    Activity.HESITATING: {Activity.HESITATING, Activity.CROSSING,
                          Activity.FROZEN, Activity.FLEEING},
    Activity.CROSSING: {Activity.CROSSING, Activity.FROZEN, Activity.MOVED_AWAY},
    Activity.FROZEN: {Activity.FROZEN, Activity.HESITATING, Activity.CROSSING},
    Activity.FLEEING: {Activity.FLEEING, Activity.MOVED_AWAY},
}


def test_transition_audit():
    """Drive many animals through full lifecycles under live traffic and
    verify no off-model transition ever occurs."""
    g = rng(29)
    vehicles = [cruise_vehicle(x, direction=1, vid=i)
                for i, x in enumerate((0.0, 250.0, 500.0, 750.0))]
    vehicles += [VehicleState(vid=4 + i, x=x, v=27.78, direction=-1, lane=1)
                 for i, x in enumerate((100.0, 350.0, 600.0, 850.0))]
    fleet = traffic(*vehicles)
    seen = set()
    for i in range(400):
        a = AnimalState(aid=i, x=float(g.uniform(0, L)), y=GEO.spawn_offset,
                        sigma=1.0, dwell_remaining=float(g.uniform(2, 10)))
        for _ in range(3000):
            if a.state is Activity.MOVED_AWAY:
                break
            prev = a.state
            step_animal(a, fleet, DT, PARAMS, GEO, g)
            seen.add((prev, a.state))
            fleet.advance(1, 27.78)
    for prev, nxt in seen:
        assert nxt in ALLOWED[prev], f"off-model transition {prev} -> {nxt}"
    # The audit actually reached the road: core transitions all observed.
    assert (Activity.HESITATING, Activity.CROSSING) in seen
    assert (Activity.HESITATING, Activity.FLEEING) in seen
    assert (Activity.HESITATING, Activity.FROZEN) in seen


def test_y_monotonicity_by_state():
    g = rng(31)
    a = AnimalState(aid=0, x=500.0, y=GEO.spawn_offset, sigma=1.0,
                    dwell_remaining=2.0)
    prev_y, prev_state = a.y, a.state
    for _ in range(5000):
        if a.state is Activity.MOVED_AWAY:
            break
        step_animal(a, traffic(), DT, PARAMS, GEO, g)
        if prev_state is Activity.APPROACHING and a.state is Activity.APPROACHING:
            assert a.y > prev_y
        elif prev_state is Activity.CROSSING and a.state is Activity.CROSSING:
            assert a.y > prev_y
        elif prev_state in (Activity.FORAGING, Activity.HESITATING,
                            Activity.FROZEN):
            assert a.y == prev_y
        prev_y, prev_state = a.y, a.state


class Drew(Exception):
    pass


class Read(Exception):
    pass


class NoDraws:
    def random(self, *args):
        raise Drew

    uniform = random


class NoVehicles:
    def threat_present(self, animal):
        raise Read

    crossing_dangers = threat_present


WIDE_ANIMAL = dataclasses.replace(GEO, animal_radius=1.5)
NO_BAND = (math.inf, -math.inf)


def quiet_oracle(animal, limit, dt, geometry, radar_band):
    """Step a copy of the animal with ``step_animal`` while its steps are
    quiet, up to ``limit`` of them; returns (steps, the copy, visits to a new
    activity). A quiet step draws nothing, reads no vehicle and does not
    prune the animal; it starts detected or outside ``radar_band``, and
    starts and ends off the carriageway (0 < y <= road width). A frozen
    animal's step is never quiet. A quiet step changes neither whether the
    animal holds the sign (its activity in ``DANGEROUS_STATES``) nor
    ``detected``: the engine lets the sign read a sleeping animal's state
    from the end of its sleep."""
    lo, hi = radar_band
    rw = geometry.road_width
    a = copy.deepcopy(animal)
    n = visits = 0
    while n < limit:
        y = a.y
        if (a.state is Activity.FROZEN or 0.0 < y <= rw
                or (not a.detected and lo <= y <= hi)):
            break
        nxt = copy.deepcopy(a)
        try:
            step_animal(nxt, NoVehicles(), dt, PARAMS, geometry, NoDraws())
        except (Drew, Read):
            break
        if nxt.state is Activity.MOVED_AWAY or 0.0 < nxt.y <= rw:
            break
        assert (nxt.state in DANGEROUS_STATES) is (a.state in DANGEROUS_STATES)
        assert nxt.detected is a.detected
        visits += nxt.state is not a.state
        a, n = nxt, n + 1
    return n, a, visits


@st.composite
def quiet_cases(draw):
    """(animal, limit, dt, geometry, radar band): an animal in any activity
    but MOVED_AWAY, where that activity puts it."""
    geometry = draw(st.sampled_from([GEO, WIDE_ANIMAL]))
    rw, spawn = geometry.road_width, geometry.spawn_offset
    state = draw(st.sampled_from([s for s in Activity if s is not Activity.MOVED_AWAY]))
    y = draw({
        Activity.FORAGING: st.just(spawn),
        Activity.APPROACHING: st.floats(spawn, 0.0, exclude_max=True),
        Activity.HESITATING: st.just(0.0),
        Activity.CROSSING: st.one_of(st.just(rw), st.floats(
            0.0, rw + geometry.exit_offset, exclude_max=True)),
        Activity.FROZEN: st.floats(0.0, rw, exclude_max=True),
        Activity.FLEEING: st.floats(spawn, 0.0, exclude_min=True),
    }[state])
    a = AnimalState(
        aid=0, x=500.0, y=y, sigma=1.0, state=state,
        dwell_remaining=draw(st.floats(-0.1, 12.0)),
        detected=draw(st.booleans()), entered_road=draw(st.booleans()),
        crossed=draw(st.booleans()), left_foraging=state is not Activity.FORAGING,
        frozen_from=(draw(st.sampled_from([Activity.CROSSING, Activity.HESITATING]))
                     if state is Activity.FROZEN else None))
    band = draw(st.one_of(st.just(NO_BAND), st.tuples(
        st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)).map(sorted).map(tuple)))
    return (a, draw(st.integers(1, 300)), draw(st.sampled_from([0.05, 0.1, 0.2])),
            geometry, band)


def bits(animal):
    """Every field of the animal; repr tells apart every two floats."""
    return repr(dataclasses.astuple(animal))


def edge_case(state, y, dwell, limit=300, detected=False, geometry=GEO, band=NO_BAND):
    a = AnimalState(aid=0, x=500.0, y=y, sigma=1.0, state=state,
                    dwell_remaining=dwell, detected=detected,
                    left_foraging=state is not Activity.FORAGING)
    return a, limit, DT, geometry, band


class TestQuietSteps:
    """``quiet_steps`` counts, and ``take_quiet_steps`` takes, exactly the
    steps that ``step_animal`` would take quietly, bit for bit."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(case=quiet_cases())
    @example(case=edge_case(Activity.FORAGING, GEO.spawn_offset, 0.2))
    # Steps landing exactly on the edge, the spawn offset and the exit.
    @example(case=edge_case(Activity.APPROACHING, -PARAMS.v_approach * DT, 0.0))
    @example(case=edge_case(Activity.FLEEING, GEO.spawn_offset + PARAMS.v_flee * DT,
                            0.0))
    @example(case=edge_case(Activity.CROSSING, GEO.road_width + GEO.exit_offset
                            - PARAMS.v_cross * DT, 0.0))
    @example(case=edge_case(Activity.APPROACHING, -24.0, 0.0, band=(-16.5, 25.0)))
    @example(case=edge_case(Activity.HESITATING, 0.0, 0.3))
    @example(case=edge_case(Activity.HESITATING, 0.0, 3.0, geometry=WIDE_ANIMAL))
    @example(case=edge_case(Activity.CROSSING, GEO.road_width, 0.0))
    @example(case=edge_case(Activity.CROSSING, GEO.road_width + 1e-9, 0.0,
                            detected=True, band=(-16.5, 25.0)))
    @example(case=edge_case(Activity.FLEEING, 0.0, 0.0))
    @example(case=edge_case(Activity.FROZEN, 0.0, 0.0))
    def test_same_as_step_animal_calls(self, case):
        animal, limit, dt, geometry, band = case
        n, stepped, visits = quiet_oracle(animal, limit, dt, geometry, band)
        walk = quiet_steps(animal, limit, dt, PARAMS, geometry, band)
        assert walk[0] == n
        took = copy.deepcopy(animal)
        assert take_quiet_steps(took, walk) is bool(visits)
        assert bits(took) == bits(stepped)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=quiet_cases(), cut=st.integers(0, 300))
    @example(case=edge_case(Activity.FORAGING, GEO.spawn_offset, 0.2), cut=1)
    @example(case=edge_case(Activity.APPROACHING, -24.0, 0.0, band=(-16.5, 25.0)),
             cut=3)
    def test_a_kept_walk_takes_the_same_steps(self, case, cut):
        # The engine limits each walk to the steps left in the trial: a walk
        # limited to ``n`` steps, where a longer walk counts more, counts
        # ``n`` and gives the bits of the longer walk's first ``n`` steps.
        animal, limit, dt, geometry, band = case
        longer = quiet_steps(animal, limit, dt, PARAMS, geometry, band)[0]
        n = min(cut, longer)
        walk = quiet_steps(animal, n, dt, PARAMS, geometry, band)
        assert walk[0] == n
        _, stepped, visits = quiet_oracle(animal, n, dt, geometry, band)
        took = copy.deepcopy(animal)
        assert take_quiet_steps(took, walk) is bool(visits)
        assert bits(took) == bits(stepped)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=quiet_cases())
    def test_none_where_the_next_step_draws_reads_or_prunes(self, case):
        animal, _, dt, geometry, _ = case
        nxt = copy.deepcopy(animal)
        try:
            step_animal(nxt, NoVehicles(), dt, PARAMS, geometry, NoDraws())
            busy = nxt.state is Activity.MOVED_AWAY
        except (Drew, Read):
            busy = True
        # Besides those, a step is never quiet for a frozen animal, or where a
        # vehicle could meet the animal: a start or an end on the carriageway
        # (0 < y <= road width), where drivers brake and vehicles hit.
        rw = geometry.road_width
        met = (animal.state is Activity.FROZEN
               or 0.0 < animal.y <= rw or 0.0 < nxt.y <= rw)
        quiet = quiet_steps(animal, 1, dt, PARAMS, geometry, NO_BAND)[0]
        assert (quiet == 0) is (busy or met)

    def test_detected_wide_animal_hesitating_at_the_edge_is_quiet(self):
        # At y = 0 an animal is off the carriageway whatever its radius: no
        # driver brakes for it and no vehicle can hit it, so a hesitating
        # step with dwell left is quiet even where a vehicle's reach plus
        # the animal's radius passes the road edge.
        assert WIDE_ANIMAL.vehicle_width / 2.0 + WIDE_ANIMAL.animal_radius \
            > WIDE_ANIMAL.lane_width / 2.0
        a = animal(Activity.HESITATING, y=0.0, dwell=3.0, detected=True,
                   left_foraging=True)
        n, state, _, y = quiet_steps(a, 10, DT, PARAMS, WIDE_ANIMAL, (-16.5, 25.0))
        assert (n, state, y) == (10, Activity.HESITATING, 0.0)


def compiled_kernel():
    kernel = wvcsim.vehicles.load_kernel()
    if not kernel:
        pytest.skip("no compiled vehicle kernel on this host")
    return kernel


def behave_case(animals, vehicles=(), behaviour=PARAMS, geometry=GEO, dt=DT,
                road_length=L, band=NO_BAND, sleeping=None, k=1, n_steps=400,
                next_wake=400, frozen_time=0.0, seed=1):
    """One call of ``Herd.behave``: its config, fleet (vehicles on a ring of
    ``road_length``), radar band, animals and sleepers, the step ``k`` and
    trial length, the first wake and frozen time so far, and the behaviour
    stream's seed."""
    config = replace_config(CorridorConfig(), time_step=dt, behaviour=behaviour,
                            geometry=geometry, road_length=road_length)
    return SimpleNamespace(config=config, vehicles=list(vehicles), band=band,
                           animals=list(animals), sleeping=dict(sleeping or {}), k=k,
                           n_steps=n_steps, next_wake=next_wake,
                           frozen_time=frozen_time, seed=seed)


def behave_outcome(case):
    """``Herd.behave`` on copies of ``case``'s animals, vehicles and
    sleepers: what it raised (type and message) or returned (the first
    wake, whether an animal left, the aids on the carriageway), each
    animal's fields and the frozen time by repr (which tells every two
    floats apart), the visits, the sleepers in order, the generator's state
    after it; and the animals."""
    config = case.config
    animals = copy.deepcopy(case.animals)
    sleeping = dict(case.sleeping)
    fleet = Fleet(copy.deepcopy(case.vehicles), config.idm, config.time_step,
                  config.road_length, config.geometry, config.behaviour)
    rng = np.random.Generator(np.random.PCG64(case.seed))
    herd = Herd(config, case.band, rng, fleet, case.n_steps)
    herd.frozen_time = case.frozen_time
    visits = {a.value: 0 for a in Activity}
    error = out = None
    try:
        wake, pruned, on_road = herd.behave(animals, sleeping, case.k, case.next_wake,
                                            visits)
        out = (wake, pruned, [a.aid for a in on_road])
    except Exception as exc:
        error = (type(exc).__name__, str(exc))
    return (error, out, [bits(a) for a in animals], visits, repr(herd.frozen_time),
            list(sleeping.items()), rng.bit_generator.state), animals


# A road 7 m wide, whose edges, like the steps of a 0.5 s frame (0.75, 2 and
# 3 m), are exact in binary: a walk can land on an edge exactly.
BINARY_GEO = dataclasses.replace(GEO, lane_width=3.5)
# A frame of one ULP of ``_DWELL_EPS``: ``_DWELL_EPS`` plus a few frames is
# exact, so a dwell can count down onto it exactly.
EPS_FRAME = math.ulp(_DWELL_EPS)


def hesitating(aid=0, **kw):
    """A hesitating animal at the edge whose dwell ends on its next step."""
    return AnimalState(aid=aid, x=500.0, y=0.0, sigma=1.0, state=Activity.HESITATING,
                       dwell_remaining=0.05, left_foraging=True, **kw)


# A cruising vehicle 20 m behind x = 500 threatens it; a braking one 10 m
# ahead is dangerous to a crossing animal there.
CRUISING = VehicleState(vid=0, x=480.0, v=27.78, direction=1, lane=0)
BRAKING = VehicleState(vid=0, x=510.0, v=5.0, direction=1, lane=0,
                       emergency_braking=True)
# MOVED_AWAY raises the reference's ValueError after the draws of the
# animal before it; the animal after it is never stepped.
MOVED_AWAY = behave_case([hesitating(), AnimalState(aid=1, x=0.0, y=40.0, sigma=1.0,
                                                    state=Activity.MOVED_AWAY),
                          hesitating(aid=2)])
# An int y and a state that is not an Activity are left to the reference:
# the first steps there, the second raises its AssertionError.
INT_Y = behave_case([hesitating(), AnimalState(aid=1, x=0.0, y=-20, sigma=1.0,
                                               state=Activity.APPROACHING),
                     hesitating(aid=2)])
NOT_AN_ACTIVITY = behave_case([hesitating(), AnimalState(aid=1, x=0.0, y=-25.0,
                                                         sigma=1.0, state="Foraging")])
# A threatened animal freezes with an int frozen dwell, which both write as a
# float; a crossing one freezes for a braking vehicle.
INT_FROZEN_DWELL = behave_case([hesitating()], [CRUISING], dataclasses.replace(
    PARAMS, p_frozen_threat=1.0, p_flee_threat=0.0, frozen_max_dwell=8))
CROSSING_FREEZE = behave_case([AnimalState(aid=0, x=500.0, y=1.0, sigma=1.0,
                                           state=Activity.CROSSING, left_foraging=True),
                               AnimalState(aid=1, x=500.0, y=2.0, sigma=1.0,
                                           state=Activity.CROSSING, left_foraging=True,
                                           interacted_vehicles={0})],
                              [BRAKING],
                              dataclasses.replace(PARAMS, p_freeze_crossing=1.0))
# A hesitate range numpy rejects, and interacted vehicles in a list: the
# reference raises, after the draws before it.
NEGATIVE_ZERO_RANGE = behave_case(
    [AnimalState(aid=0, x=0.0, y=-0.1, sigma=1.0, state=Activity.APPROACHING)],
    behaviour=dataclasses.replace(PARAMS, hesitate_dwell=(0.0, -0.0)))
LIST_INTERACTED = behave_case([hesitating(), AnimalState(
    aid=1, x=500.0, y=1.0, sigma=1.0, state=Activity.CROSSING, interacted_vehicles=[])],
    [BRAKING])
# On a ring of length 0 the threat test raises ZeroDivisionError after the
# hesitating animal's draw.
NO_RING = behave_case([hesitating()], [CRUISING], road_length=0.0)
# Steps that land on the edge, the exit and the spawn offset exactly, a
# detected animal that walks out to the exit, and a walk cut at the
# trial's end.
LANDINGS = behave_case([
    AnimalState(aid=0, x=0.0, y=-PARAMS.v_approach * DT, sigma=1.0,
                state=Activity.APPROACHING),
    AnimalState(aid=1, x=0.0, y=GEO.road_width + GEO.exit_offset - PARAMS.v_cross * DT,
                sigma=1.0, state=Activity.CROSSING),
    AnimalState(aid=2, x=0.0, y=GEO.spawn_offset + PARAMS.v_flee * DT, sigma=1.0,
                state=Activity.FLEEING),
    AnimalState(aid=3, x=0.0, y=GEO.road_width, sigma=1.0, state=Activity.CROSSING,
                detected=True),
    AnimalState(aid=4, x=0.0, y=GEO.spawn_offset, sigma=1.0, dwell_remaining=30.0)],
    k=300, band=(-16.5, 25.0))

# With ``BINARY_GEO`` and 0.5 s frames, walks that stop a frame short of
# the edge, the exit and the spawn offset, which they would reach exactly;
# a crossing animal that steps onto y = 0 exactly, which has not entered
# the road; and a frozen one beyond the road, released to cross on, whose
# walk out sets the road flags.
WALK_LANDINGS = behave_case([
    AnimalState(aid=0, x=0.0, y=-3.0, sigma=1.0, state=Activity.APPROACHING),
    AnimalState(aid=1, x=0.0, y=24.0, sigma=1.0, state=Activity.CROSSING, detected=True),
    AnimalState(aid=2, x=0.0, y=-13.0, sigma=1.0, state=Activity.FLEEING),
    AnimalState(aid=3, x=0.0, y=-2.0, sigma=1.0, state=Activity.CROSSING),
    AnimalState(aid=4, x=0.0, y=8.0, sigma=1.0, state=Activity.FROZEN,
                frozen_from=Activity.CROSSING)],
    geometry=BINARY_GEO, dt=0.5)
# Behaviour under which each threat and danger test decides a step: a
# hesitating animal whose dwell ends freezes where it is threatened and
# crosses where it is not; a crossing one freezes for its first dangerous
# vehicle.
DECIDING = dict(p_frozen_threat=1.0, p_flee_threat=0.0, p_cross_no_threat=1.0,
                p_freeze_crossing=1.0)


def scan_edge_case(vehicles, braking, behaviour, geometry, road_length, xs):
    """A fleet of ``vehicles``, those of ``braking`` (indices) braking, and
    at each x of ``xs`` a hesitating animal whose dwell ends and a crossing
    one on the road, under ``DECIDING`` behaviour."""
    animals = []
    for x in xs:
        animals += [AnimalState(aid=len(animals), x=x, y=0.0, sigma=1.0,
                                state=Activity.HESITATING, dwell_remaining=0.05,
                                left_foraging=True),
                    AnimalState(aid=len(animals) + 1, x=x, y=1.0, sigma=1.0,
                                state=Activity.CROSSING, left_foraging=True)]
    return behave_case(animals, [dataclasses.replace(v, emergency_braking=i in braking)
                                 for i, v in enumerate(vehicles)],
                       dataclasses.replace(behaviour, **DECIDING), geometry,
                       road_length=road_length)


# The fleet scans' edge cases (``SCAN_EDGES``), the braking flags as each
# leaves them: animals at the threat horizon, the near-pass distance and
# the braking interaction distance of a vehicle, and a ULP either side; and
# a vehicle at the threat speed floor and one a ULP above it, each alone.
BEHAVE_SCAN_EDGES = [
    scan_edge_case(c.vehicles, c.braking if c.then is None else [], c.behaviour,
                   c.geometry, c.road_length, sorted({a.x for a in c.animals}))
    for c in SCAN_EDGES] + [
    scan_edge_case([VehicleState(vid=0, x=100.0, v=v, direction=1, lane=0)], [],
                   PARAMS, GEO, L, [120.0])
    for v in (10.0, math.nextafter(10.0, math.inf))]


# With frames of ``EPS_FRAME``, dwells that count down onto ``_DWELL_EPS``
# exactly: on the step (a forager leaves, a hesitating animal draws) and on
# the walk (a forager leaves, a hesitating animal stops short).
EPS_LANDINGS = behave_case([
    AnimalState(aid=0, x=0.0, y=-25.0, sigma=1.0, dwell_remaining=_DWELL_EPS + EPS_FRAME),
    AnimalState(aid=1, x=500.0, y=0.0, sigma=1.0, state=Activity.HESITATING,
                dwell_remaining=_DWELL_EPS + EPS_FRAME),
    AnimalState(aid=2, x=0.0, y=-25.0, sigma=1.0,
                dwell_remaining=_DWELL_EPS + 3 * EPS_FRAME),
    AnimalState(aid=3, x=500.0, y=0.0, sigma=1.0, state=Activity.HESITATING,
                dwell_remaining=_DWELL_EPS + 3 * EPS_FRAME)],
    dt=EPS_FRAME)


class TestCompiledBehaviour:
    """``Herd``'s Python loop over ``step_animal`` and the quiet walks, on
    the cases that pinned the compiled behaviour to it: the returns, animal
    fields, visits, errors and draws each states. The compiled trial's
    behaviour is checked against the Python loop by ``TestCompiledTrial``
    (``tests/test_trial.py``)."""

    def test_examples_decide_as_stated(self):
        outcome = {name: behave_outcome(case) for name, case in (
            ("moved", MOVED_AWAY), ("int-y", INT_Y), ("not", NOT_AN_ACTIVITY),
            ("int-dwell", INT_FROZEN_DWELL), ("freeze", CROSSING_FREEZE),
            ("range", NEGATIVE_ZERO_RANGE), ("list", LIST_INTERACTED),
            ("ring", NO_RING), ("landings", LANDINGS), ("walks", WALK_LANDINGS),
            ("eps", EPS_LANDINGS))}
        errors = {name: (o[0][0] or ("",))[0] for name, o in outcome.items()}
        assert outcome["moved"][0][0] == ("ValueError",
                                          "animal 1 stepped after it left the corridor")
        assert outcome["range"][0][0] == ("ValueError", "high - low < 0")
        assert errors == {"moved": "ValueError", "int-y": "", "not": "AssertionError",
                          "int-dwell": "", "freeze": "", "range": "ValueError",
                          "list": "AttributeError", "ring": "ZeroDivisionError",
                          "landings": "", "walks": "", "eps": ""}
        # The animal before the departed one drew; the one after it is not
        # stepped. The int y is stepped in Python; the int frozen dwell is
        # written as a float.
        moved = outcome["moved"][1]
        assert outcome["moved"][0][-1] != np.random.PCG64(1).state
        assert bits(moved[2]) == bits(hesitating(aid=2))
        assert type(outcome["int-y"][1][1].y) is float
        assert repr(outcome["int-dwell"][1][0].dwell_remaining) == "8.0"
        # The first crosser freezes for the braking vehicle; the second has
        # met it already and crosses on.
        first, second = outcome["freeze"][1]
        assert first.state is Activity.FROZEN and first.interacted_vehicles == {0}
        assert second.state is Activity.CROSSING and second.y == 2.4
        # Approaching to y = 0 hesitates; the exit and the spawn offset are
        # reached and left; the detected animal at the far edge walks out
        # and sleeps, as does the forager, whose walk the trial's end cuts
        # short.
        (_, (wake, pruned, on_road), _, visits, _, sleeping, _), animals = \
            outcome["landings"]
        assert pruned and on_road == [] and animals[0].y == 0.0
        assert animals[0].state is Activity.HESITATING
        assert visits["MovedAway"] == 2 and visits["Hesitating"] == 1
        assert [aid for aid, _ in sleeping] == [3, 4]
        assert wake == dict(sleeping)[3] < dict(sleeping)[4] == 400
        # Each walk stops a frame short of the edge, the exit and the spawn
        # offset; the crosser on y = 0 has not entered the road; the
        # released one walks out and sets the road flags.
        animals = outcome["walks"][1]
        assert [a.y for a in animals] == [-0.75, 30.0, -22.0, 0.0, 30.0]
        assert not animals[3].entered_road
        assert animals[4].entered_road and animals[4].crossed
        # Foragers leave on the step and on the walk; the hesitating animal
        # with one frame left draws, the one with three stops a frame short.
        animals = outcome["eps"][1]
        assert [a.state for a in animals] == [Activity.APPROACHING, Activity.CROSSING,
                                              Activity.APPROACHING, Activity.HESITATING]
        assert animals[3].dwell_remaining == _DWELL_EPS + EPS_FRAME

    def test_scan_edges_decide_both_ways(self):
        # Across the scan-edge examples some hesitating animal freezes and
        # some crosses, and some crossing one freezes and some crosses on:
        # their steps turn on the threat and danger tests.
        ends = set()
        for case in BEHAVE_SCAN_EDGES:
            ends |= {(before.state, after.state) for before, after
                     in zip(case.animals, behave_outcome(case)[1])}
        assert ends == {(s, t) for s in (Activity.HESITATING, Activity.CROSSING)
                        for t in (Activity.FROZEN, Activity.CROSSING)}

    def test_an_int_json_config_stays_in_the_kernel(self, monkeypatch):
        # A JSON config keeps an int as an int. With an int spawn offset and
        # frozen dwell, animals still spawn with a float y and freeze with a
        # float dwell; with an int time step, each step's time is still a
        # float. So the kernel steps and tries every animal, and each
        # trial's result has the float config's repr.
        compiled_kernel()
        crowded = config_to_dict(replace_config(
            CorridorConfig(), arrival_rate=300.0, radar_spacing=5.0, kappa=0.3))
        stepped, tried = [], []
        step_animal, try_detect = wvcsim.animals.step_animal, wvcsim.detection.try_detect
        monkeypatch.setattr(wvcsim.animals, "step_animal",
                            lambda *args: stepped.append(args[0].aid) or step_animal(*args))
        monkeypatch.setattr(wvcsim.detection, "try_detect",
                            lambda *args: tried.append(args[0].aid) or try_detect(*args))
        results = {}
        for case, edits in {
                "spawn and dwell": (("geometry", "spawn_offset", -25),
                                    ("behaviour", "frozen_max_dwell", 8)),
                "time step": ((None, "time_step", 1),)}.items():
            configs = []
            for cast in (int, float):
                data = copy.deepcopy(crowded)
                for section, name, value in edits:
                    (data[section] if section else data)[name] = cast(value)
                configs.append(config_from_dict(data))
            ints, floats = configs
            assert all(type(getattr(getattr(ints, section) if section else ints, name))
                       is int for section, name, _ in edits)
            pair = [[dataclasses.asdict(run_trial(config.with_mode(mode), 0.125, 0, 1))
                     for mode in Mode] for config in (ints, floats)]
            assert repr(pair[0]) == repr(pair[1]), case
            assert stepped == tried == [], case
            results[case] = pair[0]
        # Animals froze, so their frozen dwell was read, and radars detected
        # animals (Control has none), so the time was.
        assert all(r["state_visit_counts"]["Frozen"] for r in results["spawn and dwell"])
        assert all(r["detected"] for r in results["time step"][1:])

    @pytest.mark.parametrize("changes, error", [
        ({"mode": 1.0}, TypeError),
        ({"behaviour": None}, ValueError),
        ({"herd": "fleet"}, ValueError),
        ({"fleet": "herd"}, ValueError),
        ({"herd": bytearray(120)}, TypeError),
        ({"herd": "herd[:-1]"}, ValueError),
    ], ids=["float-k", "no-capsule", "fleet-as-herd", "herd-as-fleet", "bytearray",
            "short-constants"])
    def test_wrong_arguments_raise(self, changes, error):
        # The compiled trial checks its herd's arguments: a float for an
        # int, a behaviour stream that is not a capsule, the fleet's buffer
        # for the herd's and the herd's for the fleet's, a bytearray, and a
        # herd buffer one constant short.
        kernel = compiled_kernel()
        config = CorridorConfig()
        rng = np.random.default_rng(0)
        fleet = Fleet([CRUISING], config.idm, config.time_step, config.road_length,
                      config.geometry, config.behaviour)
        args = trial_arguments(fleet, 10, config.idm.v_cruise, rng)
        named = {"herd": args["herd"], "fleet": fleet.buf, "herd[:-1]": args["herd"][:-1]}
        args.update({k: named.get(v, v) if isinstance(v, str) else v
                     for k, v in changes.items()})
        with pytest.raises(error):
            kernel.trial(*args.values())
