import math

import pytest

from wvcsim.animals import Activity, AnimalState
from wvcsim.awareness import DANGEROUS_STATES, AwarenessState
from wvcsim.config import CorridorConfig, Mode, build_corridor
from wvcsim.detection import DetectionEvent


def make_world(mode):
    return build_corridor(CorridorConfig(mode=mode))


def make_awareness(mode):
    world = make_world(mode)
    return world, AwarenessState(world.config, len(world.radars))


def detected_animal(state):
    a = AnimalState(aid=0, x=500.0, y=2.0, sigma=1.0, state=state)
    a.detected = True
    return a


class TestOnDetection:
    def test_aware_boosts_every_radar_on_short_corridor(self):
        world, aw = make_awareness(Mode.AWARE)
        aw.on_detection(DetectionEvent(time=100.0, radar_id=0, animal_id=0),
                        world.radars)
        assert all(b == 130.0 for b in aw.boost_until)
        assert aw.dms_active_until == 130.0

    def test_detection_mode_never_boosts(self):
        world, aw = make_awareness(Mode.DETECTION)
        aw.on_detection(DetectionEvent(time=100.0, radar_id=5, animal_id=0),
                        world.radars)
        assert all(b == -math.inf for b in aw.boost_until)
        assert aw.dms_active_until == 130.0

    def test_latest_window_wins(self):
        world, aw = make_awareness(Mode.DETECTION)
        aw.on_detection(DetectionEvent(time=10.0, radar_id=0, animal_id=0),
                        world.radars)
        aw.on_detection(DetectionEvent(time=25.0, radar_id=1, animal_id=1),
                        world.radars)
        assert aw.dms_active_until == 55.0

    def test_earlier_event_never_rolls_clocks_back(self):
        world, aw = make_awareness(Mode.AWARE)
        aw.on_detection(DetectionEvent(time=25.0, radar_id=0, animal_id=0),
                        world.radars)
        aw.on_detection(DetectionEvent(time=10.0, radar_id=1, animal_id=1),
                        world.radars)
        assert aw.dms_active_until == 55.0
        assert all(b == 55.0 for b in aw.boost_until)

    def test_awareness_range_limits_boost_on_long_corridor(self):
        cfg = CorridorConfig(mode=Mode.AWARE, road_length=4000.0)
        world = build_corridor(cfg)
        aw = AwarenessState(cfg, len(world.radars))
        aw.on_detection(DetectionEvent(time=0.0, radar_id=0, animal_id=0),
                        world.radars)
        for node in world.radars:
            ring = min(node.x, 4000.0 - node.x)
            if ring <= 1500.0:
                assert aw.boost_until[node.rid] == 30.0
            else:
                assert aw.boost_until[node.rid] == -math.inf

    @pytest.mark.parametrize("road_length, spacing, reach", [
        (1000.0, 5.0, 300.0), (4000.0, 15.0, 1500.0), (1000.0, 5.0, 500.0),
        (1000.0, 15.0, 1500.0)],
        ids=["short-reach-radar-at-L", "short-reach", "half-ring", "full-reach"])
    def test_same_clocks_as_a_loop_over_every_radar(self, road_length, spacing, reach):
        # Broadcasts from both ends of the ring (at spacing 5 m a radar sits
        # at x = L, where the one at x = 0 is) and from inside it, out of
        # time order, set the clocks that testing every radar's ring
        # distance at each broadcast sets.
        cfg = CorridorConfig(mode=Mode.AWARE, road_length=road_length,
                             radar_spacing=spacing, awareness_range=reach)
        radars = build_corridor(cfg).radars
        aw = AwarenessState(cfg, len(radars))
        clocks = [-math.inf] * len(radars)
        last = len(radars) - 1
        partial = False
        for t, source in ((10.0, 0), (5.0, last), (12.0, last // 2), (40.0, 1),
                          (41.0, last - 1), (39.0, 0), (100.0, last)):
            aw.on_detection(DetectionEvent(time=t, radar_id=source, animal_id=0), radars)
            expiry = t + cfg.persistence_window
            reached = 0
            for node in radars:
                d = abs(node.x - radars[source].x)
                if min(d, road_length - d) <= reach:
                    reached += 1
                    if expiry > clocks[node.rid]:
                        clocks[node.rid] = expiry
            partial = partial or reached < len(radars)
            assert aw.boost_until == clocks
        # Below half the ring some broadcast misses some radar; from half
        # the ring on every broadcast reaches every radar.
        assert partial is (reach < road_length / 2.0)


class TestBetaFor:
    def test_boost_window_is_exclusive_at_expiry(self):
        world, aw = make_awareness(Mode.AWARE)
        aw.on_detection(DetectionEvent(time=10.0, radar_id=0, animal_id=0),
                        world.radars)
        assert aw.beta_for(0, 39.9) == pytest.approx(1.8)
        assert aw.beta_for(0, 40.0) == 1.0

    def test_detection_mode_always_baseline(self):
        world, aw = make_awareness(Mode.DETECTION)
        aw.on_detection(DetectionEvent(time=10.0, radar_id=0, animal_id=0),
                        world.radars)
        assert all(aw.beta_for(n.rid, 20.0) == 1.0 for n in world.radars)


class TestDmsActive:
    def test_control_mode_always_inactive(self):
        _, aw = make_awareness(Mode.CONTROL)
        assert not aw.dms_active([detected_animal(Activity.FROZEN)], 0.0)

    def test_live_window_with_no_animals(self):
        world, aw = make_awareness(Mode.DETECTION)
        aw.on_detection(DetectionEvent(time=0.0, radar_id=0, animal_id=0),
                        world.radars)
        assert aw.dms_active([], 29.9)
        assert not aw.dms_active([], 30.0)

    def test_dangerous_state_holds_after_window(self):
        world, aw = make_awareness(Mode.DETECTION)
        aw.on_detection(DetectionEvent(time=0.0, radar_id=0, animal_id=0),
                        world.radars)
        frozen = detected_animal(Activity.FROZEN)
        assert aw.dms_active([frozen], 100.0)

    def test_departed_animals_release_the_sign(self):
        world, aw = make_awareness(Mode.DETECTION)
        aw.on_detection(DetectionEvent(time=0.0, radar_id=0, animal_id=0),
                        world.radars)
        gone = detected_animal(Activity.MOVED_AWAY)
        assert not aw.dms_active([gone], 100.0)

    def test_undetected_animals_never_hold(self):
        _, aw = make_awareness(Mode.DETECTION)
        lurking = AnimalState(aid=1, x=0.0, y=2.0, sigma=1.0,
                              state=Activity.CROSSING)
        assert not aw.dms_active([lurking], 100.0)

    def test_dangerous_set(self):
        assert DANGEROUS_STATES == {Activity.HESITATING, Activity.CROSSING,
                                    Activity.FROZEN}
