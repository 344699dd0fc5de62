import copy
import math

import numpy as np
import pytest

import wvcsim.engine
import wvcsim.vehicles
from conftest import trial_arguments
from wvcsim.animals import AnimalState
from wvcsim.awareness import AwarenessState
from wvcsim.config import CorridorConfig, Mode, build_corridor, replace_config
from wvcsim.vehicles import Fleet
from wvcsim.detection import (DetectionParams, Detector, detection_probability,
                              f_size, radars_in_range, try_detect)

REL = 1e-12
DT = 0.1
NO_BOOST = lambda rid, now: 1.0


def make_animal(x=500.0, y=-0.5, sigma=1.0, aid=0):
    return AnimalState(aid=aid, x=x, y=y, sigma=sigma)


@pytest.fixture(scope="module")
def radar_world():
    return build_corridor(CorridorConfig(mode=Mode.DETECTION))


class TestFSize:
    def test_reference_target(self):
        assert f_size(1.0) == pytest.approx(1.0, rel=REL)

    def test_cap(self):
        assert f_size(3.0) == pytest.approx(2.0, rel=REL)

    def test_small_target(self):
        assert f_size(0.25) == pytest.approx(0.55, rel=REL)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f_size(0.0)


class TestDetectionProbability:
    def test_baseline(self):
        assert detection_probability(3.0, 1.0, 1.0, 0.1) == pytest.approx(
            1.0 - math.exp(-0.3), rel=REL)

    def test_boosted(self):
        assert detection_probability(3.0, 1.0, 1.8, 0.1) == pytest.approx(
            1.0 - math.exp(-0.54), rel=REL)

    def test_zero_width_frame(self):
        assert detection_probability(3.0, 1.0, 1.8, 0.0) == 0.0

    def test_monotone_in_each_argument(self):
        base = (3.0, 1.0, 1.0, 0.1)
        p0 = detection_probability(*base)
        for i, bumped in enumerate((6.0, 2.0, 1.8, 0.2)):
            args = list(base)
            args[i] = bumped
            assert detection_probability(*args) >= p0

    def test_frame_product_matches_continuous_saturation(self):
        # Non-detection over n frames compounds to exp(-kappa * t) exactly.
        p = detection_probability(3.0, 1.0, 1.0, DT)
        survival = (1.0 - p) ** 10
        assert survival == pytest.approx(math.exp(-3.0 * 1.0), rel=1e-9)
        assert abs((1.0 - math.exp(-3.0)) - 0.950) < 5e-4


class TestTryDetect:
    def test_out_of_range_records_nothing(self, radar_world):
        params = DetectionParams(kappa=3.0, r_det=15.0)
        a = make_animal(x=500.0, y=-25.0)  # >= 24.5 m from every radar
        g = np.random.default_rng(0)
        assert try_detect(a, radar_world.radars, 15.0, NO_BOOST, 0.0, DT,
                          params, g) is None
        assert a.first_in_range_at is None
        assert not a.detected

    def test_hard_cutoff_boundary(self, radar_world):
        params = DetectionParams(kappa=3.0, r_det=15.0)
        g = np.random.default_rng(0)
        # Radar 34 sits at x=510 on the near shoulder (y=-0.5).
        inside = make_animal(x=510.0, y=-15.49)
        outside = make_animal(x=510.0, y=-15.51, aid=1)
        try_detect(inside, radar_world.radars, 15.0, NO_BOOST, 0.0, DT, params, g)
        try_detect(outside, radar_world.radars, 15.0, NO_BOOST, 0.0, DT, params, g)
        assert inside.first_in_range_at == 0.0
        assert outside.first_in_range_at is None

    def test_sticky_detection(self, radar_world):
        params = DetectionParams(kappa=1000.0, r_det=15.0)  # certain detection
        a = make_animal(x=510.0, y=-0.5)
        g = np.random.default_rng(1)
        ev = try_detect(a, radar_world.radars, 15.0, NO_BOOST, 1.0, DT, params, g)
        assert ev is not None
        assert a.detected
        assert a.detected_at == 1.0
        for step in range(200):
            assert try_detect(a, radar_world.radars, 15.0, NO_BOOST,
                              1.0 + step * DT, DT, params, g) is None
        assert a.detected  # never reverts

    def test_same_frame_detection_has_zero_latency(self, radar_world):
        params = DetectionParams(kappa=1e9, r_det=15.0)
        a = make_animal(x=510.0, y=-0.5)
        g = np.random.default_rng(2)
        ev = try_detect(a, radar_world.radars, 15.0, NO_BOOST, 5.0, DT, params, g)
        assert ev is not None
        assert a.detected_at - a.first_in_range_at == 0.0

    def test_geometric_latency_oracle(self):
        # Single covering radar, kappa=3, sigma=1, no boost: the number of
        # frames to detection is geometric starting at zero, so the mean
        # latency is dt * (1 - p) / p.
        cfg = CorridorConfig(mode=Mode.DETECTION, road_length=10.0,
                             radar_spacing=1000.0)
        world = build_corridor(cfg)
        assert len(world.radars) == 1
        params = DetectionParams(kappa=3.0, r_det=15.0)
        g = np.random.default_rng(3)
        n = 10_000
        total = 0.0
        for i in range(n):
            a = make_animal(x=0.0, y=-0.5, aid=i)
            t = 0.0
            while not a.detected:
                try_detect(a, world.radars, 1000.0, NO_BOOST, t, DT, params, g)
                t += DT
            total += a.detected_at - a.first_in_range_at
        p = detection_probability(3.0, 1.0, 1.0, DT)
        expected = DT * (1.0 - p) / p
        sd = DT * math.sqrt(1.0 - p) / p
        assert abs(total / n - expected) <= 3.0 * sd / math.sqrt(n)

    def test_saturation_monte_carlo(self):
        # Survival over a 1 s single-radar exposure stays within 3 sigma of
        # exp(-kappa * t).
        cfg = CorridorConfig(mode=Mode.DETECTION, road_length=10.0,
                             radar_spacing=1000.0)
        world = build_corridor(cfg)
        params = DetectionParams(kappa=3.0, r_det=15.0)
        g = np.random.default_rng(5)
        n = 10_000
        survived = 0
        for i in range(n):
            a = make_animal(x=0.0, y=-0.5, aid=i)
            for k in range(10):
                try_detect(a, world.radars, 1000.0, NO_BOOST, k * DT, DT,
                           params, g)
            survived += not a.detected
        expected = math.exp(-3.0)
        bound = 3.0 * math.sqrt(expected * (1.0 - expected) / n)
        assert abs(survived / n - expected) <= bound


class TestRadarsInRange:
    def test_window_excludes_distant_grid_points(self, radar_world):
        hits = radars_in_range(500.0, -0.5, radar_world.radars, 15.0, 15.0)
        assert hits
        for node in hits:
            assert (node.x - 500.0) ** 2 + (node.y + 0.5) ** 2 <= 15.0 ** 2

    def test_multi_radar_overlap_at_dense_spacing(self):
        cfg = CorridorConfig(mode=Mode.DETECTION, radar_spacing=5.0)
        world = build_corridor(cfg)
        hits = radars_in_range(500.0, 0.0, world.radars, 5.0, 15.0)
        assert len(hits) >= 3


def detect_config(**overrides):
    return replace_config(CorridorConfig(), mode=Mode.AWARE, **overrides)


def compiled_kernel():
    kernel = wvcsim.vehicles.load_kernel()
    if not kernel:
        pytest.skip("no compiled vehicle kernel on this host")
    return kernel


def detect_outcome(case):
    """``Detector.detect`` on a copy of ``case``'s animals: what it raised
    (type and message), its events, each animal's ``detected``,
    ``detected_at`` and ``first_in_range_at`` (floats by repr, which tells
    every two apart), and the generator's state after it."""
    overrides, animals, sleeping, clocks, now, seed = case
    config = detect_config(**overrides)
    radars = build_corridor(config).radars
    band = wvcsim.engine._radar_band(radars, config.radar_range)
    rng = np.random.Generator(np.random.PCG64(seed))
    awareness = AwarenessState(config, len(radars))
    for rid, clock in clocks.items():
        awareness.boost_until[rid] = clock
    animals = copy.deepcopy(animals)
    detector = Detector(config, radars, band, rng)
    error = events = None
    try:
        events = detector.detect(animals, sleeping, awareness, now)
    except ValueError as exc:
        error = (type(exc).__name__, str(exc))
    fields = [(a.detected, repr(a.detected_at), repr(a.first_in_range_at))
              for a in animals]
    return error, events, fields, rng.bit_generator.state


def animal(x, y, sigma=1.0, aid=0):
    return AnimalState(aid=aid, x=x, y=y, sigma=sigma)


NEAR_Y = CorridorConfig().radar_shoulder_near
LO, HI = wvcsim.engine._radar_band(build_corridor(detect_config()).radars, 15.0)
# Radar 0 sits at x = 0 on the near shoulder, radar 1 at x = 15.
AT_RADIUS = ({}, [animal(15.0, NEAR_Y)], {}, {}, 0.0, 1)
# Radars 0 and 1 cover the animal. Unboosted each draws with p = 0.095, and
# seed 2's two draws, 0.26 and 0.30, miss; boosted, p is 1. A clock at now
# does not boost.
BOOST_AT_NOW = ({"kappa": 1.0, "boost_factor": 1e6}, [animal(7.0, NEAR_Y)], {},
                {0: 12.5, 1: 12.5}, 12.5, 2)
BOOST_PAST_NOW = BOOST_AT_NOW[:3] + ({0: math.nextafter(12.5, math.inf)},) \
    + BOOST_AT_NOW[4:]
UNEVEN_GRID = ({"radar_spacing": 7.0}, [animal(994.0, NEAR_Y), animal(999.5, NEAR_Y, aid=1)],
               {}, {}, 3.0, 3)
SLEEPER = ({"kappa": 1e9}, [animal(30.0, NEAR_Y), animal(45.0, NEAR_Y, aid=1)], {0: 7},
           {}, 1.0, 4)
# y at each edge of the radar band, which is tried, and a ULP outside it,
# which is not: no radar covers either.
BAND_EDGES = ({}, [animal(300.0, y, aid=i) for i, y in enumerate(
    (LO, HI, math.nextafter(LO, -math.inf), math.nextafter(HI, math.inf)))],
    {}, {}, 2.0, 5)
# An int x is left to the reference, after a hit in the kernel and before
# an animal the reference tries again.
INT_X = ({"kappa": 1e9}, [animal(15.0, NEAR_Y), animal(30, NEAR_Y, aid=1),
                          animal(45.0, NEAR_Y, aid=2)], {}, {}, 0.5, 6)
# sigma <= 0 raises the reference's ValueError after the draws of the
# animals before it.
ZERO_SIGMA = ({}, [animal(15.0, NEAR_Y), animal(30.0, NEAR_Y, sigma=0.0, aid=1)],
              {}, {}, 0.5, 7)
NEGATIVE_SIGMA = ({}, [animal(15.0, NEAR_Y, sigma=-1.0)], {}, {}, 0.5, 8)
# An int boost clock, which boosts radar 0, and an int time are left to the
# reference too.
INT_CLOCK = BOOST_AT_NOW[:3] + ({0: 13},) + BOOST_AT_NOW[4:]
INT_NOW = ({}, [animal(15.0, NEAR_Y)], {}, {}, 2, 9)


class TestCompiledDetect:
    """``Detector``'s Python loop over ``try_detect``, on the cases that
    pinned the compiled detection to it: the events, animal fields and
    errors each states. The compiled trial's detection is checked against
    the Python loop by ``TestCompiledTrial`` (``tests/test_trial.py``)."""

    def test_examples_decide_as_stated(self):
        outcome = {name: detect_outcome(case)
                   for name, case in (("radius", AT_RADIUS), ("at-now", BOOST_AT_NOW),
                                      ("past-now", BOOST_PAST_NOW), ("sleeper", SLEEPER),
                                      ("edges", BAND_EDGES), ("int", INT_X),
                                      ("zero", ZERO_SIGMA), ("negative", NEGATIVE_SIGMA),
                                      ("int-clock", INT_CLOCK), ("int-now", INT_NOW))}
        assert outcome["radius"][2][0][2] == "0.0"  # covered at r_det
        assert [outcome[name][2][0][0] for name in ("at-now", "past-now")] \
            == [False, True]
        # The sleeper is not tried; the animal beside it is detected.
        assert [f[0] for f in outcome["sleeper"][2]] == [False, True]
        assert outcome["edges"][2] == [(False, "None", "None")] * 4
        assert [ev.animal_id for ev in outcome["int"][1]] == [0, 1, 2]
        assert outcome["int-clock"][2][0][0]
        for name in ("zero", "negative"):
            error, _, fields, _ = outcome[name]
            assert error == ("ValueError", "sigma must be positive")
            assert fields[-1][2] == "0.5"

    @pytest.mark.parametrize("changes, error", [
        ({"detection": None}, ValueError),
        ({"radars": bytearray(80)}, TypeError),
        ({"radars": "radars[:-1]"}, ValueError),
        ({"radars": "radars[:4]"}, ValueError),
        ({"mode": 5}, ValueError),
        ({"persistence": (30.0,)}, TypeError),
    ], ids=["no-capsule", "bytearray", "short", "shorter-than-the-parameters", "five",
            "tuple-clocks"])
    def test_wrong_arguments_raise(self, changes, error):
        # The compiled trial checks its radars' arguments: a detection
        # stream that is not a capsule, a bytearray, a radar buffer one slot
        # short and one shorter than its parameters, a mode that is none of
        # Control, Detection and Aware, and a tuple for the boost clocks'
        # persistence.
        kernel = compiled_kernel()
        config = detect_config()
        rng = np.random.default_rng(0)
        detector = Detector(config, build_corridor(config).radars, (LO, HI), rng)
        fleet = Fleet([], config.idm, config.time_step, config.road_length,
                      config.geometry, config.behaviour)
        args = trial_arguments(fleet, 10, config.idm.v_cruise, rng)
        named = {"radars[:-1]": detector.buf[:-1], "radars[:4]": detector.buf[:4]}
        args.update(radars=detector.buf, mode=1)
        assert kernel.trial(*args.values()) is not None
        args.update({k: named.get(v, v) if isinstance(v, str) else v
                     for k, v in changes.items()})
        with pytest.raises(error):
            kernel.trial(*args.values())
