"""Corridor topology and the sensor-coverage geometry check.

Builds the default world, shows where the radar nodes sit,
and tabulates the worst-case coverage test across candidate radar spacings.
"""

from wvcsim import CorridorConfig, Mode, build_corridor, coverage_ok, replace_config

world = build_corridor(CorridorConfig(mode=Mode.AWARE))
cfg = world.config

print(f"corridor: {cfg.road_length:.0f} m, {cfg.geometry.n_lanes} lanes of "
      f"{cfg.geometry.lane_width} m, time step {cfg.time_step} s")
print(f"radars: {len(world.radars)} nodes at {cfg.radar_spacing:.0f} m spacing, "
      f"range {cfg.radar_range:.0f} m, alternating shoulders")
for node in world.radars[:6]:
    print(f"  radar {node.rid:2d}  x={node.x:6.1f}  side={node.side:<4}  y={node.y:+.1f}")
print("  ...")
print(f"vehicles: {len(world.vehicles)} total, "
      f"{cfg.vehicles_per_direction} per direction, evenly spaced")

print("\nworst-case coverage of a 10 m roadside strip "
      "(needs range >= sqrt(spacing^2 + depth^2)):")
for spacing in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0):
    ok = coverage_ok(spacing, 10.0, cfg.radar_range)
    print(f"  spacing {spacing:4.0f} m -> {'covered' if ok else 'gaps'}")

control = build_corridor(replace_config(cfg, mode=Mode.CONTROL))
print(f"\nControl mode instantiates {len(control.radars)} radars "
      f"(sensors absent by design)")
