import dataclasses
import json
import math
import re

import pytest

from wvcsim.cli import main
from wvcsim.config import (CorridorConfig, Mode, build_corridor,
                           config_from_dict, config_to_dict, coverage_ok,
                           load_config, replace_config, validate_config)
from wvcsim.engine import run_trial


class TestCoverage:
    def test_dense_spacing_covers(self):
        assert coverage_ok(5.0, 10.0, 15.0)

    def test_sparse_spacing_gaps(self):
        assert not coverage_ok(40.0, 10.0, 15.0)

    def test_degenerate_limit(self):
        assert coverage_ok(1e-9, 1e-9, 0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            coverage_ok(0.0, 10.0, 15.0)


def with_each_number(value, x, path=""):
    """Yield ``(path, copy)`` for every number in a config value, its
    sections and its tuples, the copy holding ``x`` in that number's place."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            name = f"{path}.{f.name}" if path else f.name
            for p, new in with_each_number(getattr(value, f.name), x, name):
                yield p, dataclasses.replace(value, **{f.name: new})
    elif isinstance(value, tuple):
        for i, member in enumerate(value):
            for p, new in with_each_number(member, x, f"{path}[{i}]"):
                yield p, value[:i] + (new,) + value[i + 1:]
    elif type(value) in (int, float):
        yield path, x


def with_every_number(value, x):
    """A copy of a config value, its sections and its tuples holding ``x``
    in place of every number."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: with_every_number(getattr(value, f.name), x)
            for f in dataclasses.fields(value)})
    if isinstance(value, tuple):
        return tuple(with_every_number(member, x) for member in value)
    return x if type(value) in (int, float) else value


class TestValidate:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_every_nonfinite_number_named(self, x):
        cases = list(with_each_number(CorridorConfig(), x))
        # 11 top-level numbers, 9 IDM, 24 behaviour (dwell pairs and the
        # three size classes counted member by member) and 7 geometry.
        assert len(cases) == 51
        assert "behaviour.size_mixture[2][1]" in dict(cases)
        for path, cfg in cases:
            assert f"{path}: must be finite" in validate_config(cfg)
            with pytest.raises(ValueError, match=re.escape(path)):
                build_corridor(cfg)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_nonfinite_numbers_named_in_field_order(self, x):
        # Every number at once: one message each, in the order of the
        # fields, sections and tuple members.
        cfg = with_every_number(CorridorConfig(), x)
        named = [p for p in validate_config(cfg) if p.endswith(": must be finite")]
        assert named == [f"{path}: must be finite"
                         for path, _ in with_each_number(CorridorConfig(), x)]

    def test_nan_kappa_fails_before_any_step(self):
        # A NaN kappa used to run and detect nothing.
        with pytest.raises(ValueError, match="kappa: must be finite"):
            run_trial(replace_config(CorridorConfig(), kappa=math.nan,
                                     mode=Mode.DETECTION), 0.01, 0, 0)

    def test_default_config_is_valid(self):
        assert validate_config(CorridorConfig()) == []

    def test_zero_time_step(self):
        problems = validate_config(replace_config(CorridorConfig(), time_step=0.0))
        assert any("time_step" in p for p in problems)

    def test_boost_below_one(self):
        problems = validate_config(replace_config(CorridorConfig(),
                                                  boost_factor=0.5))
        assert any("boost_factor" in p for p in problems)

    def test_build_rejects_invalid(self):
        with pytest.raises(ValueError):
            build_corridor(replace_config(CorridorConfig(), road_length=-1.0))

    @pytest.mark.parametrize("data, problems", [
        ({"size_scale": 0}, ["size_scale: must be positive"]),
        ({"size_scale": -1.0}, ["size_scale: must be positive"]),
        ({"behaviour": {"size_mixture": [[1.0, 0.0, 0.0]]}},
         ["behaviour.size_mixture[0]: need 0 < lo <= hi"]),
        ({"behaviour": {"size_mixture": [[1.0, -1.0, -0.5]]}},
         ["behaviour.size_mixture[0]: need 0 < lo <= hi"]),
        ({"behaviour": {"size_mixture": [[1.0, 2.0, 1.0]]}},
         ["behaviour.size_mixture[0]: need 0 < lo <= hi"]),
        ({"behaviour": {"size_mixture": [[0.5, 0.5, 1.0], [1.5, 1.0, 1.0],
                                         [-1.0, 1.0, 2.0]]}},
         ["behaviour.size_mixture[1]: weight must be in [0, 1]",
          "behaviour.size_mixture[2]: weight must be in [0, 1]"]),
    ])
    def test_body_sizes_checked_when_loaded(self, data, problems):
        # Each of these used to pass and then fail mid-trial in a sensor mode.
        assert validate_config(config_from_dict(data)) == problems

    def test_zero_size_scale_exits_1_before_any_trial(self, tmp_path, capsys):
        cfg = tmp_path / "size.json"
        cfg.write_text('{"size_scale": 0}')
        code = main(["run", "--config", str(cfg), "--hours", "0.01",
                     "--mode", "Detection"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: invalid config:\n  size_scale: must be positive\n")


class TestTopology:
    def test_radar_count_at_default_spacing(self):
        world = build_corridor(CorridorConfig(mode=Mode.DETECTION))
        assert len(world.radars) == 67
        assert [r.rid for r in world.radars] == list(range(67))
        assert world.radars[0].x == 0.0
        assert world.radars[-1].x == 990.0

    def test_radar_count_at_20m(self):
        world = build_corridor(CorridorConfig(mode=Mode.DETECTION,
                                              radar_spacing=20.0))
        assert len(world.radars) == 51

    def test_control_mode_has_no_radars(self):
        world = build_corridor(CorridorConfig(mode=Mode.CONTROL))
        assert world.radars == []

    def test_positions_form_exact_grid(self):
        world = build_corridor(CorridorConfig(mode=Mode.AWARE))
        xs = [r.x for r in world.radars]
        assert xs == sorted(xs)
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert all(g == pytest.approx(15.0, rel=1e-12) for g in gaps)
        assert all(0.0 <= x <= 1000.0 for x in xs)

    def test_sides_alternate(self):
        world = build_corridor(CorridorConfig(mode=Mode.AWARE))
        for a, b in zip(world.radars, world.radars[1:]):
            assert a.side != b.side
            assert a.y != b.y

    def test_shoulder_offsets(self):
        world = build_corridor(CorridorConfig(mode=Mode.AWARE))
        near = {r.y for r in world.radars if r.side == "Near"}
        far = {r.y for r in world.radars if r.side == "Far"}
        assert near == {-0.5}
        assert far == {7.4 + 0.5}

    def test_vehicle_layout(self):
        world = build_corridor(CorridorConfig())
        assert len(world.vehicles) == 8
        for direction, lane in ((1, 0), (-1, 1)):
            group = [v for v in world.vehicles if v.direction == direction]
            assert len(group) == 4
            assert {v.lane for v in group} == {lane}
            xs = sorted(v.x for v in group)
            assert xs == [0.0, 250.0, 500.0, 750.0]
            assert all(v.v == world.config.idm.v_cruise for v in group)

    def test_deterministic_construction(self):
        a = build_corridor(CorridorConfig(mode=Mode.AWARE))
        b = build_corridor(CorridorConfig(mode=Mode.AWARE))
        assert [(r.rid, r.x, r.side, r.y) for r in a.radars] == \
               [(r.rid, r.x, r.side, r.y) for r in b.radars]
        assert [(v.vid, v.x, v.lane) for v in a.vehicles] == \
               [(v.vid, v.x, v.lane) for v in b.vehicles]


class TestJsonConfig:
    def test_round_trip(self):
        cfg = replace_config(CorridorConfig(), mode=Mode.AWARE,
                             radar_spacing=20.0, kappa=0.5)
        data = json.loads(json.dumps(config_to_dict(cfg)))
        assert config_from_dict(data) == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="radar_spcing"):
            config_from_dict({"radar_spcing": 10.0})

    def test_removed_key_is_unknown(self):
        with pytest.raises(ValueError, match="magnetometer_spacing"):
            config_from_dict({"magnetometer_spacing": 200.0})

    def test_unknown_nested_key(self):
        with pytest.raises(ValueError, match="idm.smax"):
            config_from_dict({"idm": {"smax": 1.0}})

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            config_from_dict({"mode": "Stealth"})

    @pytest.mark.parametrize("data, message", [
        ([1, 2], "config: expected a JSON object, got [1, 2]"),
        ({"idm": 5}, "idm: expected a JSON object, got 5"),
        ({"road_length": "abc"}, 'road_length: expected a finite number, got "abc"'),
        ({"arrival_rate": True}, "arrival_rate: expected a finite number, got true"),
        ({"kappa": float("nan")}, "kappa: expected a finite number, got NaN"),
        ({"idm": {"s0": float("inf")}},
         "idm.s0: expected a finite number, got Infinity"),
        ({"vehicles_per_direction": 2.5},
         "vehicles_per_direction: expected an integer, got 2.5"),
        ({"geometry": {"n_lanes": True}},
         "geometry.n_lanes: expected an integer, got true"),
        ({"behaviour": {"forage_dwell": [1, "x"]}},
         "behaviour.forage_dwell: expected a list of 2 finite numbers"),
        ({"behaviour": {"hesitate_dwell": 2.0}},
         "behaviour.hesitate_dwell: expected a list of 2 finite numbers"),
        ({"behaviour": {"size_mixture": [[1.0, 0.5]]}},
         "behaviour.size_mixture: expected a list of [weight, lo, hi] lists"),
    ])
    def test_wrong_type_named(self, data, message):
        with pytest.raises(ValueError) as exc:
            config_from_dict(data)
        assert str(exc.value).startswith(message)

    def test_numbers_kept_as_given(self):
        cfg = config_from_dict({"radar_spacing": 20, "kappa": 0.5,
                                "behaviour": {"forage_dwell": [1, 3],
                                              "size_mixture": [[1, 0.5, 1.5]]}})
        assert type(cfg.radar_spacing) is int
        assert cfg.behaviour.forage_dwell == (1, 3)
        assert cfg.behaviour.size_mixture == ((1, 0.5, 1.5),)
        assert validate_config(cfg) == []

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "Aware", "radar_spacing": 20.0}))
        cfg = load_config(str(path))
        assert cfg.mode is Mode.AWARE
        assert cfg.radar_spacing == 20.0
        assert cfg.road_length == 1000.0  # defaults fill the rest
