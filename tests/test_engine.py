import collections
import copy
import dataclasses
import functools
import math
import struct
from types import SimpleNamespace

import pytest

import wvcsim.animals
import wvcsim.detection
import wvcsim.engine
import wvcsim.vehicles
from wvcsim.animals import Activity, AnimalState, Arrival, Herd, step_animal
from wvcsim.awareness import AwarenessState
from wvcsim.config import (CorridorConfig, GeometryParams, Mode, build_corridor,
                           replace_config)
from wvcsim.detection import radars_in_range
from wvcsim.engine import (EngineInvariantError, RngStreams, TrialResult,
                           _step_count, make_arrival_schedule, run_trial)
from wvcsim.vehicles import (FREE_ROAD_GAP, DriverAlert, Fleet, VehicleState,
                             detect_collisions, emergency_brake_needed,
                             idm_acceleration, step_vehicles)

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
        # A ceiling: a step that does not divide the duration still covers it.
        assert _step_count(fast_config(), 0.25) == 9000
        assert _step_count(fast_config(), 4.0) == 144000
        assert _step_count(fast_config(time_step=0.7), 0.25) == 1286

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
        last_now = (_step_count(config, hours) - 1) * config.time_step
        assert schedule[-1].time <= last_now


class TestTrialResultInvariantCheck:
    @pytest.mark.parametrize("fields, problem", [
        (dict(road_entries=0, collisions=1, active_at_end=0),
         "collisions exceed road entries"),
        (dict(road_entries=0, crossing_successes=1),
         "crossing successes exceed road entries"),
        (dict(detected=2, detectable=1), "detected/detectable/arrivals ordering"),
        (dict(detectable=2), "detected/detectable/arrivals ordering"),
        (dict(active_at_end=0), "animal conservation broken"),
        (dict(mode=Mode.CONTROL, detected=1, detectable=1),
         "detections in Control mode"),
    ], ids=["collisions", "crossings", "detected", "detectable", "conservation",
            "control-detections"])
    def test_breach_raises(self, fields, problem):
        # One arrival, on the road and still active: every check holds ...
        r = TrialResult(trial_id=0, mode=Mode.DETECTION, seed=0, sim_hours=1.0,
                        arrivals=1, road_entries=1, active_at_end=1)
        r.check_invariants()
        # ... until one field breaks exactly one of them.
        r = dataclasses.replace(r, **fields)
        with pytest.raises(EngineInvariantError, match=problem) as exc:
            r.check_invariants()
        assert ";" not in str(exc.value)


class TestRadarBand:
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


class NoVehicles:
    def threat_present(self, animal):
        pytest.fail("a quiet step read the vehicles")

    crossing_dangers = threat_present


class NoDraws:
    def random(self, *args):
        pytest.fail("a quiet step drew a random number")

    uniform = random


def check_sleeps(cfg, log):
    """Each walk of a trial's Python loop, replayed one ``step_animal`` call
    at a time, takes quiet steps only: each starts with the animal detected
    or outside ``_radar_band``, starts and ends off the carriageway, draws
    nothing, reads no vehicle and leaves the animal in the corridor; the
    replay ends on the bits the walk applied and at the wake it was put to
    sleep until. Every animal present at a stretch sleeps through it."""
    dt, rw = cfg.time_step, cfg.geometry.road_width
    lo, hi = wvcsim.engine._radar_band(build_corridor(cfg).radars, cfg.radar_range)
    asleep = {}
    for aid, start, end in log.naps:
        asleep.setdefault(aid, []).append((start, end))
    for k, before, walk, left, after in log.walks:
        a = copy.copy(before)
        for _ in range(walk[0]):
            assert a.detected or not lo <= a.y <= hi
            assert not 0.0 < a.y <= rw
            step_animal(a, NoVehicles(), dt, cfg.behaviour, cfg.geometry, NoDraws())
            assert a.state is not Activity.MOVED_AWAY
            assert not 0.0 < a.y <= rw
        assert repr(a) == repr(after)  # repr tells apart every two floats
        assert left is (a.state is not before.state)
        assert (k + 1, k + 1 + walk[0]) in asleep[before.aid]
    for k, n, _, _, aids, _, _ in log.steps:
        for aid in aids if n > 1 else ():
            assert any(s <= k and k + n <= e for s, e in asleep[aid])


def run_observed(cfg, hours, trial_id, reference=False):
    """One trial of the Python loop and its log. The reference run shuts
    off every fast path: no stretch and no sleep.

    ``vehicle_steps`` has the desired speed and the brake flags of every
    vehicle step. ``steps`` has an entry per ``dms_active`` call, the start of a stepped
    step or of a stretch: [k, steps spanned, sign, (onset, alerted), aids
    present, reads, pairs]. A read is one of the fleet's scans for an
    animal's step (``Fleet.threat_present`` or ``Fleet.crossing_dangers``):
    the aid, the scan, its answer (vehicle indices, for the dangers) and
    every vehicle's (x, v, emergency_braking) in the fleet's snapshot as the
    scan read it. The
    pairs are phase 6's, or in the reference an ungated scan of the step's
    animals as the step closes; there, steps with no read and no pair merge
    with an equal neighbour, as a stretch's steps do. ``naps`` has each
    sleep phase 5 began, (aid, first step asleep, wake), and ``walks`` each
    quiet walk taken. ``result`` is the result, or the invariant error's
    text; ``ends`` the animals' and the fleet's end states (``end_states``).

    Checked as the trial runs: phase 5, each read and each scan see the
    vehicles at the current row (k + 1 vehicle steps taken), phase 5 returns
    the animals it leaves on the carriageway, and phase 6 scans after
    exactly the steps where there are some."""
    dt, geometry = cfg.time_step, cfg.geometry
    log = SimpleNamespace(steps=[], vehicle_steps=[], naps=[], walks=[], asks=0, taken=0,
                          scans=0, skipped_scans=0, fleet=None)
    steps = log.steps
    stepped, on_road, scans = [], False, 0  # in the open step
    dms_active, update = AwarenessState.dms_active, DriverAlert.update
    advance, behave = Fleet.advance, Herd.behave
    detect_collisions = wvcsim.engine.detect_collisions
    take_quiet_steps = wvcsim.animals.take_quiet_steps

    def close(end):
        nonlocal stepped, on_road, scans
        entry = steps[-1]
        entry[1] = end - entry[0]
        if stepped or scans:
            assert scans == on_road, f"phase 6 gate at step {entry[0]}"
            if reference:
                pairs = detect_collisions(log.fleet, stepped)
                entry[6] = tuple(pairs)
            log.scans += scans
            log.skipped_scans += not scans
            stepped, on_road, scans = [], False, 0
        if reference and len(steps) > 1 and not (entry[5] or entry[6]) \
                and entry[2:] == steps[-2][2:]:
            steps[-2][1] += steps.pop()[1]

    def sign(self, animals, now):
        k = round(now / dt)
        if steps:
            close(k)
        log.asks += 1
        lit = dms_active(self, animals, now)
        steps.append([k, None, lit, None, [a.aid for a in animals], [], ()])
        return lit

    def alert(self, lit, now, p):
        update(self, lit, now, p)
        steps[-1][3] = (self.onset, self.alerted)

    def reader(scan, answer):
        def read(fleet, animal):
            assert log.taken == steps[-1][0] + 1, "a read of a past row"
            found = scan(fleet, animal)
            steps[-1][5].append((animal.aid, scan.__name__, answer(found),
                                 [(v.x, v.v, v.emergency_braking)
                                  for v in fleet.snapshot()]))
            return found
        return read

    def behaved(herd, animals, sleeping, k, next_wake, visits):
        nonlocal stepped, on_road
        assert log.taken == k, "phase 5 on a past row"
        stepped = [a for a in animals if a.aid not in sleeping]
        asleep = set(sleeping)
        out = behave(herd, animals, sleeping, k, next_wake, visits)
        road = [a for a in stepped if 0.0 < a.y <= geometry.road_width]
        assert [id(a) for a in out[2]] == [id(a) for a in road]
        on_road = bool(road)
        log.naps += [(aid, k, sleeping[aid]) for aid in sleeping if aid not in asleep]
        return out

    def scan(*args):
        nonlocal scans
        assert log.taken == steps[-1][0] + 1, "a scan of a past row"
        scans += 1
        pairs = detect_collisions(*args)
        if not reference:
            steps[-1][6] = tuple(pairs)
        return pairs

    def advanced(fleet, n_steps, v0, animals=None):
        # Only a call's last step brakes, so its earlier steps brake nobody;
        # the last one leaves its flags on the vehicles.
        advance(fleet, n_steps, v0, animals)
        log.fleet = fleet
        log.taken += n_steps
        flags = tuple(v.emergency_braking for v in fleet.snapshot())
        log.vehicle_steps += [((v0, (False,) * len(flags)), n_steps - 1),
                              ((v0, flags), 1)]

    def walk(animal, quiet):
        before = copy.copy(animal)
        left = take_quiet_steps(animal, quiet)
        log.walks.append((steps[-1][0], before, quiet, left, copy.copy(animal)))
        return left

    with pytest.MonkeyPatch.context() as m:
        m.setattr(wvcsim.vehicles, "_kernel", False)
        if reference:
            m.setattr(wvcsim.engine, "_stretch_end", lambda schedule, i, k, *args: k)
            m.setattr(wvcsim.animals, "quiet_steps",
                      lambda a, *args: (0, a.state, a.dwell_remaining, a.y))
        m.setattr(AwarenessState, "dms_active", sign)
        m.setattr(DriverAlert, "update", alert)
        m.setattr(Fleet, "advance", advanced)
        m.setattr(Fleet, "threat_present", reader(Fleet.threat_present, bool))
        m.setattr(Fleet, "crossing_dangers", reader(Fleet.crossing_dangers, list))
        m.setattr(Herd, "behave", behaved)
        m.setattr(wvcsim.engine, "detect_collisions", scan)
        m.setattr(wvcsim.animals, "take_quiet_steps", walk)
        log.result, log.ends = played(cfg, hours, trial_id)
        if not isinstance(log.result, str):
            close(_step_count(cfg, hours))
    return log


def end_states(animals, fleet):
    """Every animal's end state, by repr (which tells every two floats
    apart; the interacted vehicles sorted), and the fleet's x, v and brake
    flags."""
    return ([repr(dataclasses.replace(a, interacted_vehicles=sorted(a.interacted_vehicles)))
             for a in animals],
            [(v.x.hex(), v.v.hex(), v.emergency_braking) for v in fleet.snapshot()])


def played(cfg, hours, trial_id, seed=5):
    """``engine._play`` of one trial, as the kernel slot stands: the result
    as a dict, or the invariant error's text, and the end states."""
    try:
        result, animals, fleet = wvcsim.engine._play(cfg, hours, trial_id, seed)
    except EngineInvariantError as exc:
        return str(exc), None
    return dataclasses.asdict(result), end_states(animals, fleet)


def runs(items):
    """(value, n) items as [value, n] runs, equal neighbours merged."""
    out = []
    for value, n in items:
        if out and out[-1][0] == value:
            out[-1][1] += n
        elif n:
            out.append([value, n])
    return out


ASPECTS = ("result", "sign", "alert", "animals", "reads", "pairs", "vehicle_steps")


def observables(log):
    """The log's observables (``ASPECTS``), each as runs over the trial's
    steps: across a stretch the sign, the alert and the animals present
    hold, and there is no read and no pair. A run that raised gives its
    error's text for each."""
    if isinstance(log.result, str):
        return dict.fromkeys(ASPECTS, log.result)
    out = {"result": log.result, "vehicle_steps": runs(log.vehicle_steps)}
    for i, aspect in enumerate(ASPECTS[1:6], 2):
        items = []
        for entry in log.steps:
            if i < 5:  # the sign, the alert and the animals hold
                items.append((entry[i], entry[1]))
            else:  # a read or a pair is at the entry's first step only
                items += [(tuple(entry[i]), 1), ((), entry[1] - 1)]
        out[aspect] = runs(items)
    return out


CROWDED = dict(arrival_rate=300.0, radar_spacing=5.0, kappa=0.3)
WIDE_ANIMAL = dataclasses.replace(GEO, animal_radius=1.5)
MODES = (Mode.CONTROL, Mode.DETECTION, Mode.AWARE)

# The grid: name -> (overrides, hours, trials). "wide-radar": every radar's
# band reaches past the spawn offset, so an animal foraging undetected is
# never quiet. "band-margin": at 0.8 s steps an animal approaching from the
# spawn offset walks 1.2 m a step, past the 1 m margin of ``_radar_band``,
# so an undetected sleeper wakes where phase 2 would try it.
GRID = {
    "default": ({}, 0.25, (0, 1)),
    "dt0.05": ({"time_step": 0.05}, 0.25, (0, 1)),
    "dt0.2": ({"time_step": 0.2}, 0.25, (0, 1)),
    "no-vehicles": ({"vehicles_per_direction": 0}, 0.25, (0, 1)),
    "free-vehicles": ({"vehicles_per_direction": 1}, 0.25, (0, 1)),
    "rate60": ({"arrival_rate": 60.0}, 0.25, (0, 1)),
    "wide-radar": ({"radar_range": 30.0}, 0.25, (0, 1)),
    "crowded": (CROWDED, 0.25, (0, 1)),
    "wide-animal": ({"geometry": WIDE_ANIMAL}, 0.25, (0, 1)),
    "band-margin": ({"time_step": 0.8, "arrival_rate": 60.0}, 1.0, (0, 1)),
    "paper-length": ({}, 4.0, (0,)),
}
BASE = list(GRID)[:8]  # the configs most of the replaced tests ran


def cells(names, modes=MODES, named=True):
    """The grid cells ``names`` x ``modes`` as parameters "name, mode", each
    with the id "name-mode", or "mode" unless ``named``."""
    return [pytest.param(name, mode, id=f"{name}-{mode.value}" if named else mode.value)
            for name in names for mode in modes]


@functools.cache
def reference_pair(name, mode):
    """Each trial of a grid cell run in the Python loop, as is and as the
    reference: per trial the observables of both, and what the run as is
    took. Checks each sleep (``check_sleeps``) and, in the reference, that
    no step was jumped, no animal slept and each vehicle step's v0 is the
    drivers' desired speed. A run that raised is compared by its error
    alone. Where the kernel loads, the compiled run of each trial is checked
    against the Python loop's: the same result and end states."""
    overrides, hours, trials = GRID[name]
    cfg = fast_config(mode, **overrides)
    idm = cfg.idm
    out = []
    for trial_id in trials:
        fast, ref = (run_observed(cfg, hours, trial_id, reference)
                     for reference in (False, True))
        assert (ref.result, ref.ends) == (fast.result, fast.ends)
        if wvcsim.vehicles.load_kernel():
            assert played(cfg, hours, trial_id) == (fast.result, fast.ends)
        took = {}
        if not isinstance(fast.result, str):
            check_sleeps(cfg, fast)
            jumped = [e for e in fast.steps if e[1] > 1]
            first_lit = next((e[0] for e in fast.steps if e[2]), math.inf)
            took = dict(reads=sum(len(e[5]) for e in fast.steps), scans=fast.scans,
                        skipped_scans=fast.skipped_scans, sleeps=len(fast.naps),
                        walks=len(fast.walks),
                        lit_stretches=sum(e[2] for e in jumped),
                        dark_stretches_after_lit=sum(not e[2] and e[0] > first_lit
                                                     for e in jumped),
                        stretches_with_animals=sum(bool(e[4]) for e in jumped))
        if not isinstance(ref.result, str):
            assert ref.asks == _step_count(cfg, hours) and not ref.naps
            speeds = runs((idm.v_caution if e[3][1] else idm.v_cruise, e[1])
                          for e in ref.steps)
            assert speeds == runs((v0, n) for (v0, _), n in ref.vehicle_steps)
        out.append((observables(fast), observables(ref), took))
    return out


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
                raise wvcsim.engine._overlap(trial_id, i, v.leader, now)
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
    """In the Python loop a braking step is a one-step ``Fleet.advance``
    call: it gives the bits, flags and errors of the per-step loop it
    replaced."""

    @pytest.mark.parametrize("kernel", ["compiled", "python"], indirect=True)
    def test_same_bits_as_the_old_loop(self, monkeypatch, kernel):
        # The compiled trial, which takes its braking steps itself, ends
        # with the Python loop's animals and fleet.
        cfg = fast_config(Mode.AWARE, **CROWDED)
        calls, ends = [], []
        advance = Fleet.advance

        def recorded(fleet, n_steps, v0, animals=None):
            if animals is not None:
                calls.append((fleet.snapshot(), n_steps, v0, copies(animals)))
            return advance(fleet, n_steps, v0, animals)

        with monkeypatch.context() as m:
            m.setattr(Fleet, "advance", recorded)
            m.setattr(wvcsim.vehicles, "_kernel", False)
            for trial_id in range(2):
                ends.append(played(cfg, 0.05, trial_id))
        if kernel == "compiled":
            assert [played(cfg, 0.05, trial_id) for trial_id in range(2)] == ends
        braked = 0
        for vehicles, n_steps, v0, animals in calls:
            assert n_steps == 1
            old = copies(vehicles)
            old_braking_step(old, animals, v0, cfg, 0, 0.0)
            fleet = Fleet(vehicles, cfg.idm, cfg.time_step, cfg.road_length,
                          cfg.geometry, cfg.behaviour)
            fleet.advance(n_steps, v0, animals)
            new = fleet.snapshot()
            assert bits(new) == bits(old)
            braked += sum(v.emergency_braking for v in new)
        assert braked  # some driver did brake

    def test_one_advance_call_per_braking_step(self, monkeypatch):
        # Each dms_active call, at a stepped step or a stretch, is followed by
        # one Fleet.advance call that spans its steps. It passes the animals
        # on the carriageway when the drivers are alerted and there are any
        # (in a stretch there are none), and None otherwise.
        cfg = fast_config(Mode.AWARE, **CROWDED)
        dt, rw = cfg.time_step, cfg.geometry.road_width
        steps = []
        dms_active, update, advance = (AwarenessState.dms_active, DriverAlert.update,
                                       Fleet.advance)

        def sign(self, animals, now):
            steps.append(dict(k=round(now / dt), calls=[],
                              road=[a for a in animals if 0.0 < a.y <= rw]))
            return dms_active(self, animals, now)

        def alert(self, lit, now, p):
            update(self, lit, now, p)
            steps[-1]["alerted"] = self.alerted
            steps[-1]["v0"] = self.desired_speed(p)

        def recorded(fleet, n_steps, v0, animals=None):
            steps[-1]["calls"].append((n_steps, v0, animals))
            return advance(fleet, n_steps, v0, animals)

        monkeypatch.setattr(wvcsim.vehicles, "_kernel", False)
        monkeypatch.setattr(AwarenessState, "dms_active", sign)
        monkeypatch.setattr(DriverAlert, "update", alert)
        monkeypatch.setattr(Fleet, "advance", recorded)
        braking = 0
        for trial_id in range(2):
            steps.clear()
            run_trial(cfg, 0.05, trial_id, 5)
            ends = [step["k"] for step in steps[1:]] + [_step_count(cfg, 0.05)]
            for step, end in zip(steps, ends):
                animals = step["road"] if step["alerted"] and step["road"] else None
                assert step["calls"] == [(end - step["k"], step["v0"], animals)]
                braking += animals is not None
        assert braking

    def test_overlap_raised_as_by_the_old_loop(self, monkeypatch):
        # Drivers alerted from 1.5 s on brake for an animal held still on the
        # carriageway just ahead of a stopped leader, which nothing hits; a
        # follower at 30 m/s, 40 m behind that leader, reaches it after the
        # alert, on a braking step. From the alert on every step brakes.
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

        def checked(fleet, n_steps, v0, animals=None):
            if animals is not None:
                assert n_steps == 1 and animals == [animal]
                try:
                    old_braking_step(fleet.snapshot(), animals, v0, cfg, 0, clock[-1])
                except EngineInvariantError as exc:
                    expected.append(str(exc))
            return advance(fleet, n_steps, v0, animals)

        monkeypatch.setattr(wvcsim.vehicles, "_kernel", False)
        monkeypatch.setattr(AwarenessState, "dms_active",
                            lambda self, animals, now: clock.append(now) or True)
        monkeypatch.setattr(wvcsim.engine, "build_corridor", crash_world)
        # One arrival, due at t = 0, spawns as the animal on the carriageway.
        monkeypatch.setattr(wvcsim.engine, "sample_arrivals",
                            lambda *args: [Arrival(0.0, animal.x, animal.sigma)])
        monkeypatch.setattr(wvcsim.engine, "AnimalState", lambda **kw: animal)
        # Phase 5 holds the animal still and leaves it on the carriageway.
        monkeypatch.setattr(Herd, "behave", lambda self, animals, sleeping, k, next_wake,
                            visits: (next_wake, False, list(animals)))
        monkeypatch.setattr(wvcsim.engine, "detect_collisions", lambda *args: [])
        monkeypatch.setattr(Fleet, "advance", checked)
        with pytest.raises(EngineInvariantError) as exc:
            run_trial(cfg, 0.01, 0, 0)
        assert "overlap at t=" in str(exc.value)
        assert expected == [str(exc.value)]


class TestReferenceRun:
    """The Python loop's fast paths (stretches, sleep and the gated scans)
    change no output and nothing a reader sees: each grid cell, run as is
    and as the reference (``run_observed``), ends alike, takes the same
    vehicle steps and shows the same observables at every step, and both
    runs pass the structural checks (``run_observed``, ``reference_pair``).
    The compiled run gives the same result and end states."""

    @pytest.mark.parametrize("name, mode", cells(list(GRID)[:-1])
                             + cells(["paper-length"], (Mode.CONTROL, Mode.AWARE)))
    def test_same_as_the_reference_run(self, name, mode):
        took = collections.Counter()
        for fast, ref, fast_took in reference_pair(name, mode):
            for aspect in ASPECTS:
                assert fast[aspect] == ref[aspect], aspect
            took.update(fast_took)
        # Some stretch opened with animals present, some animal slept, some
        # walk was replayed, some animal read the vehicles and the gate
        # skipped some scans; where there is a sign, some stretch opened with
        # it lit and some with it dark again.
        assert took["stretches_with_animals"] and took["sleeps"] and took["reads"]
        assert took["skipped_scans"] and took["walks"]
        if mode is not Mode.CONTROL:
            assert took["lit_stretches"] and took["dark_stretches_after_lit"]


# The classes below keep the ids of the tests that ``TestReferenceRun``
# replaced; each of those ids now checks one observable of the reference run
# on the cells it covered. ``TestIdleGate``, ``TestContactBand`` and
# ``TestOwedSteps`` are named after mechanisms the engine no longer has.
def same(aspect, params):
    """A test that one observable of the cells ``params`` is the reference's."""
    @pytest.mark.parametrize("name, mode", params)
    def test(self, name, mode):
        for fast, ref, _ in reference_pair(name, mode):
            assert fast[aspect] == ref[aspect]
    return test


class TestIdleStretch:
    test_same_result_as_stepping_every_step = same("result", cells(BASE))
    test_same_result_on_a_paper_length_trial = same(
        "result", cells(["paper-length"], (Mode.CONTROL, Mode.AWARE), named=False))
    test_same_result_where_an_approach_step_passes_the_band_margin = same(
        "result", cells(["band-margin"], (Mode.DETECTION, Mode.AWARE), named=False))

    def test_the_band_margin_cell_passes_the_margin(self):
        cfg = fast_config(**GRID["band-margin"][0])
        lo, _ = wvcsim.engine._radar_band(build_corridor(cfg).radars, cfg.radar_range)
        y = cfg.geometry.spawn_offset
        while y < lo:
            y += cfg.behaviour.v_approach * cfg.time_step
        assert y > lo + 1.0

    def test_stretch_ends_where_the_arrival_spawns(self):
        cfg = fast_config(Mode.CONTROL)
        schedule = make_arrival_schedule(cfg, 0.25, 0, 5)
        steps = run_observed(cfg, 0.25, 0).steps
        first_due = next(k for k in range(9000) if schedule[0].time <= k * cfg.time_step)
        assert (steps[0][0], steps[0][1], steps[0][4]) == (0, first_due, [])

    def test_overlap_raised_at_the_same_step(self, monkeypatch):
        # A follower at 30 m/s, 25 m behind a stopped leader, cannot stop in
        # time: both runs must name the same vehicles at the same time.
        def crash_world(config):
            world = build_corridor(config)
            follower = world.vehicles[0]
            leader = world.vehicles[follower.leader]
            follower.x = (leader.x - 25.0 * follower.direction) % config.road_length
            follower.v, leader.v = 30.0, 0.0
            return world

        monkeypatch.setattr(wvcsim.engine, "build_corridor", crash_world)
        cfg = fast_config(Mode.CONTROL, arrival_rate=0.0)
        fast, ref = (run_observed(cfg, 0.01, 0, reference)
                     for reference in (False, True))
        assert len(fast.steps) == 1  # one stretch
        assert fast.result == ref.result
        assert "overlap at t=" in fast.result


class TestKernelMatchesPython:
    test_same_result_as_integrating = same("vehicle_steps", cells(BASE))

    def test_mid_trial_alert_same_on_both_kernels(self):
        # The Python body steps the vehicles at cruise, then at the caution
        # speed once the drivers are alerted, as the compiled kernel does.
        idm = CorridorConfig().idm
        fast, ref, _ = reference_pair("default", Mode.AWARE)[0]
        assert fast["vehicle_steps"] == ref["vehicle_steps"]
        speeds = [v0 for (v0, _), _ in ref["vehicle_steps"]]
        assert speeds[0] == idm.v_cruise and idm.v_caution in speeds


    def test_every_scan_answered_from_the_buffer(self, monkeypatch):
        # On the compiled kernel a crowded trial asks the Python loop for
        # nothing: the kernel's ``trial`` steps the vehicles and the
        # animals, and answers every threat, brake and contact scan from
        # the fleet's buffer.
        kernel = wvcsim.vehicles.load_kernel()
        if not kernel:
            pytest.skip("no compiled vehicle kernel on this host")

        def refused(*args):
            pytest.fail("a compiled trial called the Python loop")

        for owner, name in ((Fleet, "advance"), (Fleet, "threat_present"),
                            (Fleet, "crossing_dangers"), (Fleet, "detect_collisions"),
                            (Herd, "behave"), (AwarenessState, "dms_active"),
                            (wvcsim.detection.Detector, "detect"),
                            (wvcsim.engine, "detect_collisions")):
            monkeypatch.setattr(owner, name, refused)
        for mode in MODES:
            result = run_trial(fast_config(mode, **CROWDED), 0.05, 0, 5)
            assert result.road_entries and (result.detected or mode is Mode.CONTROL)


class TestOwedSteps:
    test_same_as_settling_every_step = same("reads", cells(BASE))
    test_same_as_settling_every_step_crowded = same(
        "reads", cells(["crowded"], named=False))

    @pytest.mark.parametrize("name, mode, run", [
        pytest.param(name, mode, run, id=f"{name}-{mode.value}{suffix}")
        for run, suffix in ((0, ""), (1, "-python"))
        for name in ("default", "dt0.05", "dt0.2", "free-vehicles", "rate60", "crowded")
        for mode in MODES])
    def test_every_step_integrated_once(self, name, mode, run):
        # The compiled kernel in the fast run, or the Python body in the
        # reference, takes each vehicle step once.
        n_steps = _step_count(fast_config(**GRID[name][0]), GRID[name][1])
        for observed in reference_pair(name, mode):
            assert sum(n for _, n in observed[run]["vehicle_steps"]) == n_steps


class TestIdleGate:
    test_sign_off_at_every_stretch = same("sign", cells(BASE))
    test_sign_off_at_every_stretch_crowded = same(
        "sign", cells(["crowded"], named=False))


class TestNextEventGate:
    test_sign_and_alert_hold_across_every_stretch = same("alert", cells(BASE))
    test_nothing_to_spawn_try_or_brake_for_in_a_stretch = same("animals", cells(BASE))


class TestContactBand:
    """A vehicle meets an animal only on the carriageway, 0 < y <= road
    width, the one band every per-step road test gates on:
    ``detect_collisions`` pairs no animal off it, phase 6 finds what scanning
    every step finds and scans after exactly the steps that leave an animal
    on it (``run_observed``), and drivers brake only for animals on it."""

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

    test_same_as_scanning_every_step = same("pairs", cells(["crowded", "wide-animal"]))

    @pytest.mark.parametrize("name, mode", cells(["crowded", "wide-animal"]))
    def test_scans_after_the_steps_leaving_an_animal_on_the_carriageway(self, name,
                                                                        mode):
        # ``run_observed`` checks the gate at every step: some steps scanned,
        # and some stepped step left animals, all off the carriageway.
        took = collections.Counter()
        for *_, trial_took in reference_pair(name, mode):
            took.update(trial_took)
        assert took["scans"] and took["skipped_scans"]

    @pytest.mark.parametrize("mode", [Mode.DETECTION, Mode.AWARE])
    def test_brakes_only_for_carriageway_animals(self, monkeypatch, mode):
        cfg = fast_config(mode, **CROWDED)
        ys = []
        advance = Fleet.advance

        def spied(fleet, n_steps, v0, animals=None):
            if animals is not None:
                ys.extend(a.y for a in animals)
            return advance(fleet, n_steps, v0, animals)

        monkeypatch.setattr(wvcsim.vehicles, "_kernel", False)
        monkeypatch.setattr(Fleet, "advance", spied)
        for trial_id in range(2):
            run_trial(cfg, 0.05, trial_id, 5)
        assert ys
        assert all(0.0 < y <= cfg.geometry.road_width for y in ys)

    @pytest.mark.parametrize("trial_id", range(3))
    def test_wide_animal_control_trials_complete(self, trial_id):
        # These trials hit animals waiting at the edge and failed their
        # invariant check with "collisions exceed road entries".
        r = run_trial(fast_config(Mode.CONTROL, geometry=WIDE_ANIMAL), 0.25,
                      trial_id, 5)
        assert r.collisions <= r.road_entries
