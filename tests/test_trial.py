"""The compiled trial loop, the kernel's ``trial``, is ``run_trial``'s Python
loop, bit for bit: the same results, the same end state of every animal and
of the fleet, and, where the Python loop raises, a declined trial and the
same error."""

import dataclasses
import functools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wvcsim.engine
import wvcsim.vehicles
from test_engine import GRID, MODES, cells, fast_config, played
from wvcsim.animals import _DWELL_EPS, Activity, Arrival, BehaviourParams
from wvcsim.config import (CorridorConfig, GeometryParams, IdmParams, Mode, World,
                           _build_radars, _build_vehicles, build_corridor,
                           replace_config)
from wvcsim.vehicles import Fleet, brake_zone, stopping_envelope

GEO = GeometryParams()
# A road 7 m wide and a spawn offset of -24 m: with 0.5 s or 0.25 s steps,
# approach, crossing and flight steps (0.75, 1.75 and 3 m, or half those)
# land on the road's edges, the exit and the spawn offset exactly.
BINARY_GEO = dataclasses.replace(GEO, lane_width=3.5, spawn_offset=-24.0)
BINARY = BehaviourParams(v_cross=3.5)
WIDE_ANIMAL = dataclasses.replace(GEO, animal_radius=1.5)
# A frame of one ULP of ``_DWELL_EPS``: ``_DWELL_EPS`` plus a few frames is
# exact, so a dwell can count down onto it exactly.
EPS_FRAME = math.ulp(_DWELL_EPS)


def compiled_kernel():
    kernel = wvcsim.vehicles.load_kernel()
    if not kernel:
        pytest.skip("no compiled vehicle kernel on this host")
    return kernel


def outcome(cfg, hours, seed):
    """``played`` for trial 0, or what it raised (type and message)."""
    try:
        return played(cfg, hours, 0, seed)
    except Exception as exc:  # every error must be the Python loop's
        return type(exc).__name__, str(exc)


def both(cfg, hours, seed=5, arrivals=None, validate=True):
    """One trial run compiled and in the Python loop (``outcome``), and
    whether the kernel's ``trial`` took it (False where it declined).
    ``arrivals`` replaces the Poisson schedule; without ``validate`` the
    world is built from a config that fails validation."""
    kernel = compiled_kernel()
    taken = []
    trial = kernel.trial

    def spied(*args):
        out = trial(*args)
        taken.append(out is not None)
        return out

    with pytest.MonkeyPatch.context() as m:
        if arrivals is not None:
            m.setattr(wvcsim.engine, "sample_arrivals", lambda *args: list(arrivals))
        if not validate:
            m.setattr(wvcsim.engine, "build_corridor",
                      lambda c: World(c, _build_radars(c), _build_vehicles(c)))
        m.setattr(kernel, "trial", spied)
        compiled = outcome(cfg, hours, seed)
        m.setattr(wvcsim.vehicles, "_kernel", False)
        python = outcome(cfg, hours, seed)
    assert len(taken) == 1
    return compiled, taken[0], python


def hours(n_steps, dt):
    """A duration of ``n_steps`` steps of ``dt``."""
    return n_steps * dt / 3600.0


@functools.cache
def grid_pair(name, mode):
    """Each trial of a grid cell, compiled and in the Python loop."""
    overrides, duration, trials = GRID[name]
    cfg = fast_config(mode, **overrides)
    return [both(cfg, duration, seed=5 + trial_id) for trial_id in trials]


@st.composite
def trial_cases(draw):
    """A config, a step count of 1-240 and an arrival schedule. The frame,
    geometry and speeds are drawn so that walks land on the road's edges,
    the exit and the spawn offset exactly (``BINARY_GEO``), or anywhere;
    dwells, probabilities (0 and 1 too), traffic (none to dense), radars,
    kappa, boost, persistence, awareness range and reaction time are drawn;
    arrivals come at step times or anywhere, at a radar's x or anywhere."""
    dt = draw(st.sampled_from((0.5, 0.25)) | st.sampled_from((0.1, 0.8))
              | st.floats(0.05, 1.0))
    geometry = draw(st.sampled_from((BINARY_GEO, GEO, WIDE_ANIMAL)))
    if geometry is BINARY_GEO:
        geometry = dataclasses.replace(geometry, exit_offset=draw(
            st.sampled_from((3.5, 7.0, 25.0))))
    p_frozen = draw(st.sampled_from((0.1, 0.0, 1.0)) | st.floats(0.0, 1.0))
    behaviour = dataclasses.replace(
        BINARY if geometry.lane_width == 3.5 else BehaviourParams(),
        forage_dwell=draw(st.sampled_from(((2.0, 10.0), (0.5, 0.5), (1.0, 3.0)))),
        hesitate_dwell=draw(st.sampled_from(((0.5, 3.0), (0.5, 0.5), (0.0, 0.0)))),
        p_cross_no_threat=draw(st.sampled_from((0.8, 0.0, 1.0)) | st.floats(0.0, 1.0)),
        p_frozen_threat=p_frozen,
        p_flee_threat=draw(st.sampled_from((0.0, 1.0 - p_frozen))
                           | st.floats(0.0, 1.0 - p_frozen)),
        p_freeze_crossing=draw(st.sampled_from((0.15, 0.0, 1.0))),
        frozen_max_dwell=draw(st.sampled_from((8.0, 1.5, 0.5))))
    idm = IdmParams(t_react=draw(st.sampled_from((1.5, 1.0, 0.5)) | st.floats(0.05, 3.0)))
    cfg = replace_config(
        CorridorConfig(), time_step=dt, geometry=geometry, behaviour=behaviour, idm=idm,
        mode=draw(st.sampled_from(MODES)),
        vehicles_per_direction=draw(st.sampled_from((4, 0, 1, 8)) | st.integers(0, 12)),
        radar_spacing=draw(st.sampled_from((15.0, 5.0, 7.5))),
        radar_range=draw(st.sampled_from((15.0, 16.0, 15.25)) | st.floats(1.0, 30.0)),
        kappa=draw(st.sampled_from((3.0, 0.3, 1e3)) | st.floats(0.0, 10.0)),
        boost_factor=draw(st.sampled_from((1.8, 1e6)) | st.floats(1.0, 10.0)),
        persistence_window=draw(st.sampled_from((30.0, 3.0, 1.0)) | st.floats(0.1, 40.0)),
        awareness_range=draw(st.sampled_from((1500.0, 20.0)) | st.floats(1.0, 600.0)))
    n_steps = draw(st.integers(1, 240))
    spacing = cfg.radar_spacing
    arrivals = sorted(
        Arrival(draw(st.integers(0, n_steps) | st.just(0)) * dt
                if draw(st.booleans()) else draw(st.floats(0.0, n_steps * dt)),
                draw(st.integers(0, 66)) * spacing % cfg.road_length
                if draw(st.booleans()) else draw(st.floats(0.0, cfg.road_length,
                                                           exclude_max=True)),
                draw(st.sampled_from((1.0, 0.3, 2.5)) | st.floats(0.05, 3.0)))
        for _ in range(draw(st.integers(0, 12))))
    return cfg, hours(n_steps, dt), arrivals, draw(st.integers(0, 2 ** 32))


def lone_animal(overrides, behaviour):
    """A Detection corridor, but for ``overrides``, on ``BINARY_GEO`` with
    an exit 3.5 m past the far edge, 0.5 s steps and one arrival at t = 0
    at x = 500 that forages 0.5 s and hesitates 0.5 s, with ``behaviour``'s
    changes: the config and the schedule."""
    behaviour = dataclasses.replace(BINARY, forage_dwell=(0.5, 0.5),
                                    hesitate_dwell=(0.5, 0.5), **behaviour)
    cfg = replace_config(CorridorConfig(), time_step=0.5,
                         geometry=dataclasses.replace(BINARY_GEO, exit_offset=3.5),
                         behaviour=behaviour, **{"mode": Mode.DETECTION, **overrides})
    return cfg, [Arrival(0.0, 500.0, 1.0)]


# A lone animal that crosses an empty road, one that flees dense traffic
# where no sign lights, and one that freezes at its edge, then crosses once
# the alerted drivers slow below the threat speed floor: each walk lands on
# an edge, the exit or the spawn offset exactly, and the reaction time, the
# sign's window and the boost clocks end on step times; the window closes
# once while the drivers are alerted.
LONE_ANIMALS = {
    "crossing": lone_animal({"vehicles_per_direction": 0, "persistence_window": 3.0},
                            {"p_cross_no_threat": 1.0}),
    "fleeing": lone_animal({"vehicles_per_direction": 8, "mode": Mode.CONTROL},
                           {"p_frozen_threat": 0.0, "p_flee_threat": 1.0}),
    "frozen": lone_animal({"vehicles_per_direction": 8, "mode": Mode.AWARE,
                           "persistence_window": 3.0},
                          {"p_frozen_threat": 1.0, "p_flee_threat": 0.0,
                           "p_cross_no_threat": 1.0, "frozen_max_dwell": 1.5}),
}


def brake_edge(ulps):
    """A Detection corridor whose one animal spawns on lane 0's centre at
    t = 0 and forages there for 1.55 s, to the end of a 16-step trial,
    detected at once (so the sign stays lit and the drivers are alerted
    from step 15 on, 1.5 s): at step 15 it is exactly the reach of the
    first vehicle ahead of it, moved ``ulps`` ULPs. The config, which fails
    validation (a spawn offset on the road), and the schedule."""
    cfg = replace_config(CorridorConfig(), mode=Mode.DETECTION, kappa=1e3,
                         persistence_window=1e6,
                         behaviour=BehaviourParams(forage_dwell=(1.55, 1.55)),
                         geometry=dataclasses.replace(GEO, spawn_offset=GEO.lane_centre(0)))
    fleet = Fleet(build_corridor(CorridorConfig()).vehicles, cfg.idm, cfg.time_step,
                  cfg.road_length, cfg.geometry, cfg.behaviour)
    fleet.advance(15, cfg.idm.v_cruise)
    v = fleet.snapshot()[0]
    reach = max(stopping_envelope(v.v, cfg.idm), brake_zone(cfg.geometry, cfg.idm)[0])
    goal = reach
    for _ in range(abs(ulps)):
        goal = math.nextafter(goal, math.copysign(math.inf, ulps))
    x = v.x + goal
    assert (x - v.x) % cfg.road_length == goal
    return cfg, [Arrival(0.0, x, 1.0)]


def eps_landings():
    """A frame of ``EPS_FRAME`` and dwells ``_DWELL_EPS`` plus three frames:
    the forager leaves, the animal hesitating at the edge decides and the
    frozen one is released as its dwell counts down onto ``_DWELL_EPS``. It
    spawns one approach step short of the edge, beside a threatening
    vehicle, and freezes. The config and the schedule."""
    dwell = _DWELL_EPS + 3 * EPS_FRAME
    behaviour = BehaviourParams(forage_dwell=(dwell, dwell), hesitate_dwell=(dwell, dwell),
                                p_frozen_threat=1.0, p_flee_threat=0.0,
                                frozen_max_dwell=dwell)
    geometry = dataclasses.replace(GEO, spawn_offset=-behaviour.v_approach * EPS_FRAME)
    cfg = replace_config(CorridorConfig(), time_step=EPS_FRAME, behaviour=behaviour,
                         geometry=geometry)
    return cfg, [Arrival(0.0, 500.0, 1.0)]


def ends(result):
    """Each animal's activity and y in a ``played`` result, read from its
    end state's repr."""
    return [(Activity[re.search(r"state=<Activity\.(\w+):", text).group(1)],
             float(re.search(r"\by=([^,]+),", text).group(1)))
            for text in result[1][0]]


class TestCompiledTrial:
    """The compiled trial is the Python loop: each grid cell, drawn
    configs and schedules, and trials ended at every step of crafted walks
    give the same result and end states; a trial the Python loop raises on
    or treats apart is declined, and ``run_trial`` raises the Python loop's
    error."""

    @pytest.mark.parametrize("name, mode", cells(list(GRID)))
    def test_same_as_the_python_loop(self, name, mode):
        for compiled, taken, python in grid_pair(name, mode):
            assert taken and compiled == python

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=trial_cases())
    @example(case=(replace_config(CorridorConfig(), mode=Mode.DETECTION, time_step=0.5,
                                  geometry=BINARY_GEO, behaviour=BINARY,
                                  radar_range=16.0, kappa=1e3),
                   hours(40, 0.5), [Arrival(3.0, 300.0, 1.0)], 1))
    def test_same_as_the_python_loop_on_drawn_trials(self, case):
        cfg, duration, arrivals, seed = case
        compiled, taken, python = both(cfg, duration, seed, arrivals)
        assert compiled == python
        assert taken or isinstance(python[0], str)

    @pytest.mark.parametrize("name", list(LONE_ANIMALS))
    def test_trials_ended_at_every_step_of_a_walk(self, name):
        cfg, arrivals = LONE_ANIMALS[name]
        states = set()
        for n_steps in range(1, 90):
            compiled, taken, python = both(cfg, hours(n_steps, 0.5), 1, arrivals)
            assert taken and compiled == python
            states |= set(ends(compiled))
        # The walks land on the edges, the exit and the spawn offset.
        landed = {"crossing": {(Activity.HESITATING, 0.0), (Activity.CROSSING, 7.0),
                               (Activity.MOVED_AWAY, 10.5)},
                  "fleeing": {(Activity.HESITATING, 0.0), (Activity.MOVED_AWAY, -24.0)},
                  "frozen": {(Activity.FROZEN, 0.0), (Activity.CROSSING, 7.0)}}[name]
        assert landed <= states

    def test_dwells_counting_down_onto_the_epsilon(self):
        cfg, arrivals = eps_landings()
        seen = []
        for n_steps in range(1, 16):
            compiled, taken, python = both(cfg, hours(n_steps, EPS_FRAME), 1, arrivals)
            assert taken and compiled == python
            seen.append(ends(compiled)[0][0])
        # Three frames each: foraging, then one approach step, hesitating
        # and frozen, released into hesitating.
        assert seen[:11] == [Activity.FORAGING] * 2 + [Activity.APPROACHING] \
            + [Activity.HESITATING] * 3 + [Activity.FROZEN] * 3 + [Activity.HESITATING] * 2

    def test_brake_edges_decide_as_stated(self):
        # At the reach the first vehicle does not brake on step 15, the
        # trial's last, and a ULP inside it it does.
        flags = []
        for ulps in (0, -1):
            cfg, arrivals = brake_edge(ulps)
            compiled, taken, python = both(cfg, hours(16, cfg.time_step), 1, arrivals,
                                           validate=False)
            assert taken and compiled == python
            flags.append([flag for _, _, flag in compiled[1][1]])
        assert flags == [[False] * 8, [True] + [False] * 7]

    def test_overlap_declined_and_raised_as_in_python(self, monkeypatch):
        # A follower at 30 m/s, 25 m behind a stopped leader, cannot stop in
        # time.
        def crash_world(config):
            world = build_corridor(config)
            follower = world.vehicles[0]
            leader = world.vehicles[follower.leader]
            follower.x = (leader.x - 25.0 * follower.direction) % config.road_length
            follower.v, leader.v = 30.0, 0.0
            return world

        monkeypatch.setattr(wvcsim.engine, "build_corridor", crash_world)
        compiled, taken, python = both(fast_config(Mode.AWARE), 0.01)
        assert not taken
        assert compiled == python and "overlap at t=" in python[0]

    @pytest.mark.parametrize("change, error", [
        ("ring", "ZeroDivisionError"),
        ("hesitate", "ValueError"),
        ("negative-base", "TypeError"),
    ])
    def test_declined_and_raised_as_in_python(self, monkeypatch, change, error):
        # A ring of length 0, a hesitate range numpy's uniform rejects and,
        # at a delta of 2.5, a vehicle at a negative speed: the trial is
        # declined, and the Python loop raises.
        cfg = fast_config(Mode.DETECTION, arrival_rate=300.0)
        if change == "ring":
            cfg = replace_config(cfg, road_length=0.0)
        elif change == "hesitate":
            cfg = replace_config(cfg, behaviour=BehaviourParams(hesitate_dwell=(3.0, 0.5)))
        else:
            cfg = replace_config(cfg, idm=IdmParams(delta=2.5))
            build = wvcsim.engine.build_corridor

            def backwards(config):
                world = build(config)
                world.vehicles[0].v = -1.0
                return world

            monkeypatch.setattr(wvcsim.engine, "build_corridor", backwards)
        compiled, taken, python = both(cfg, 0.1, validate=change == "negative-base")
        assert not taken
        assert compiled == python and python[0] == error

    def test_boost_expiry_decides_as_stated(self):
        # One animal's detection boosts every radar until t1 + P; a second,
        # much smaller one is first covered at step (t1 + P) / dt exactly,
        # where the boost has expired (``beta_for``'s ``>``): its first try
        # draws unboosted. A window one frame longer boosts that try, which
        # then succeeds at once.
        cfg = replace_config(CorridorConfig(), mode=Mode.AWARE, time_step=0.5,
                             vehicles_per_direction=0, kappa=0.05, boost_factor=1e6,
                             geometry=BINARY_GEO,
                             behaviour=dataclasses.replace(BINARY, forage_dwell=(0.5, 0.5)))
        big, small = Arrival(0.0, 500.0, 2.7), Arrival(0.0, 100.0, 1e-4)

        def times(arrivals, persistence, n_steps=400):
            trial = replace_config(cfg, persistence_window=persistence)
            compiled, taken, python = both(trial, hours(n_steps, 0.5), 3, arrivals)
            assert taken and compiled == python
            return [tuple(float(v) if v != "None" else None for v in re.search(
                r"first_in_range_at=(\S+), detected_at=(\S+),", text).groups())
                    for text in compiled[1][0]]

        (first_in, t1), = times([big], 30.0)
        (covered, _), = times([small._replace(time=100.0)], 30.0)
        persistence = 20.0
        due = t1 + persistence - (covered - 100.0)
        assert t1 is not None and due > t1
        arrivals = [big, small._replace(time=due)]
        (_, t1_again), (edge_in, edge_at) = times(arrivals, persistence)
        assert t1_again == t1 and edge_in == t1 + persistence
        (_, _), (late_in, late_at) = times(arrivals, persistence + 0.5)
        assert late_in == late_at == t1 + persistence != edge_at
