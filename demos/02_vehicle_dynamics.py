"""Car-following behaviour: free-road launch, an alert slowdown episode, and
the emergency stop for an animal on the lane.
"""

from wvcsim import DriverAlert, GeometryParams, IdmParams, VehicleState
from wvcsim.animals import AnimalState
from wvcsim.vehicles import (FREE_ROAD_GAP, emergency_brake_needed,
                             idm_acceleration, step_vehicles)

p = IdmParams()
geo = GeometryParams()
dt = 0.1

print("free-road launch from standstill (speed every 5 s):")
v = VehicleState(vid=0, x=0.0, v=0.0, direction=1, lane=0)
for step in range(601):
    if step % 50 == 0:
        print(f"  t={step * dt:5.1f} s  v={v.v:6.2f} m/s")
    a = idm_acceleration(v.v, p.v_cruise, 0.0, FREE_ROAD_GAP, p)
    step_vehicles([v], [a], dt, 1000.0)

print("\nmessage sign activates at t=0; the driver reacts after "
      f"{p.t_react} s and tracks the caution setpoint ({p.v_caution} m/s):")
v = VehicleState(vid=0, x=0.0, v=p.v_cruise, direction=1, lane=0)
alert = DriverAlert()
for step in range(61):
    now = step * dt
    alert.update(True, now, p)
    if step % 10 == 0:
        print(f"  t={now:4.1f} s  alerted={str(alert.alerted):<5}  v={v.v:6.2f} m/s")
    a = idm_acceleration(v.v, alert.desired_speed(p), 0.0, FREE_ROAD_GAP, p)
    step_vehicles([v], [a], dt, 1000.0)

print("\nalerted driver, animal standing on the lane 60 m ahead:")
v = VehicleState(vid=0, x=0.0, v=p.v_caution, direction=1, lane=0)
animal = AnimalState(aid=0, x=60.0, y=geo.lane_centre(0), sigma=1.0)
for step in range(101):
    now = step * dt
    braking = emergency_brake_needed(v, [animal], geo, p, 1000.0)
    a = -p.a_em if braking else idm_acceleration(v.v, p.v_caution, 0.0,
                                                 FREE_ROAD_GAP, p)
    if step % 10 == 0:
        print(f"  t={now:4.1f} s  x={v.x:6.1f} m  v={v.v:5.2f} m/s  "
              f"{'BRAKING' if braking else ''}")
    step_vehicles([v], [a], dt, 1000.0)
print(f"  stopped {animal.x - v.x:.1f} m short of the animal")
