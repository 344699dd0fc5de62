"""The six-state behavioural model: one annotated lifecycle, then the decision
branch frequencies with and without a vehicle threat.
"""

import numpy as np

from wvcsim import BehaviourParams, Fleet, GeometryParams, IdmParams, VehicleState
from wvcsim.animals import Activity, AnimalState, step_animal

params = BehaviourParams()
geo = GeometryParams()
dt = 0.1
rng = np.random.default_rng(8)


def traffic(*vehicles):
    """The vehicles as a trial's fleet, which the animals read."""
    return Fleet(list(vehicles), IdmParams(), dt, 1000.0, geo, params)


print("one animal, quiet road (state changes only):")
animal = AnimalState(aid=0, x=500.0, y=geo.spawn_offset, sigma=0.9,
                     dwell_remaining=3.0)
state = animal.state
print(f"  t= 0.0 s  {state.value:<12} y={animal.y:+6.1f}")
for step in range(1, 4000):
    if animal.state is Activity.MOVED_AWAY:
        break
    step_animal(animal, traffic(), dt, params, geo, rng)
    if animal.state is not state:
        state = animal.state
        print(f"  t={step * dt:5.1f} s  {state.value:<12} y={animal.y:+6.1f}")

print("\nhesitation branch frequencies over 20000 decisions:")
threat = traffic(VehicleState(vid=0, x=400.0, v=27.78, direction=1, lane=0))
for label, vehicles in (("no threat", traffic()), ("threat 100 m out", threat)):
    outcomes = {}
    for _ in range(20_000):
        a = AnimalState(aid=0, x=500.0, y=0.0, sigma=1.0,
                        state=Activity.HESITATING, dwell_remaining=dt)
        step_animal(a, vehicles, dt, params, geo, rng)
        outcomes[a.state.value] = outcomes.get(a.state.value, 0) + 1
    shares = ", ".join(f"{k} {v / 20_000:.3f}" for k, v in sorted(outcomes.items()))
    print(f"  {label:<18} -> {shares}")
print("\n(expected: cross 0.80 / re-hesitate 0.20 without threat; "
      "freeze 0.10 / flee 0.20 / re-hesitate 0.70 with threat)")
