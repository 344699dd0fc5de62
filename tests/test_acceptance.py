"""Acceptance suite: every numbered criterion runs at its stated tolerance and
prints one PASS line (run with ``pytest tests/test_acceptance.py -s``).

The experiment fixtures run the full-size trial counts (headline: 20 trials of
4 h per mode; sweeps: 15 trials of 2 h per point) and take several minutes in
total on two cores. All runs are deterministic for the frozen master seed.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from wvcsim.animals import Activity, AnimalState, BehaviourParams, sample_arrivals
from wvcsim.config import CorridorConfig, GeometryParams, Mode, replace_config
from wvcsim.detection import DetectionParams, detection_probability, f_size, try_detect
from wvcsim.engine import make_arrival_schedule, run_trial
from wvcsim.experiments import ExperimentPlan, run_headline, run_sweep
from wvcsim.stats import welch_t
from wvcsim.vehicles import (Fleet, IdmParams, VehicleState, desired_gap,
                             idm_acceleration, step_vehicles)
from wvcsim.config import build_corridor

MASTER_SEED = 101
WORKERS = 2
REL = 1e-12

IDM = IdmParams()
GEO = GeometryParams()


def metric(records, mode, name, value=None):
    return [getattr(r, name) for r in records
            if r.mode == mode and (value is None or r.sweep_value == value)
            and getattr(r, name) is not None]


def mean(xs):
    return sum(xs) / len(xs)


@pytest.fixture(scope="module")
def headline():
    plan = ExperimentPlan.headline(master_seed=MASTER_SEED)
    return run_headline(plan, workers=WORKERS)


@pytest.fixture(scope="module")
def spacing_cells():
    plan = ExperimentPlan.sweep("spacing", master_seed=MASTER_SEED,
                                values=(5.0, 10.0, 15.0, 20.0, 40.0),
                                modes=(Mode.CONTROL, Mode.DETECTION))
    return run_sweep(plan, workers=WORKERS)


@pytest.fixture(scope="module")
def size_cells():
    plan = ExperimentPlan.sweep("size", master_seed=MASTER_SEED,
                                modes=(Mode.DETECTION,))
    return run_sweep(plan, workers=WORKERS)


@pytest.fixture(scope="module")
def kappa_cells():
    plan = ExperimentPlan.sweep("kappa", master_seed=MASTER_SEED, values=(0.3,))
    return run_sweep(plan, workers=WORKERS)


def test_criterion_01_analytic_unit_suite():
    """Car-following, detection, and size-scaling formulas at 1e-12."""
    assert desired_gap(0.0, 0.0, IDM) == pytest.approx(5.0, rel=REL)
    assert desired_gap(20.0, 0.0, IDM) == pytest.approx(35.0, rel=REL)
    assert desired_gap(20.0, 10.0, IDM) == pytest.approx(
        35.0 + 200.0 / (2.0 * math.sqrt(10.0)), rel=REL)

    s_star = desired_gap(20.0, 0.0, IDM)
    assert idm_acceleration(20.0, 27.78, 0.0, s_star, IDM) == pytest.approx(
        2.5 * (1.0 - (20.0 / 27.78) ** 4 - 1.0), rel=REL)

    assert f_size(1.0) == pytest.approx(1.0, rel=REL)
    assert f_size(3.0) == pytest.approx(2.0, rel=REL)
    assert f_size(0.25) == pytest.approx(0.55, rel=REL)

    assert detection_probability(3.0, 1.0, 1.0, 0.1) == pytest.approx(
        1.0 - math.exp(-0.3), rel=1e-9)
    assert detection_probability(3.0, 1.0, 1.8, 0.1) == pytest.approx(
        1.0 - math.exp(-0.54), rel=1e-9)

    # Exposure saturation: per-frame survival compounds to exp(-kappa*t),
    # and at kappa*t = 3 cumulative detection is 95.0%.
    p = detection_probability(3.0, 1.0, 1.0, 0.1)
    assert (1.0 - p) ** 10 == pytest.approx(math.exp(-3.0), rel=1e-9)
    assert abs((1.0 - math.exp(-3.0)) - 0.950) < 5e-4
    print("\nACCEPTANCE 1: PASS - analytic formulas exact to 1e-12, "
          "saturation 1-e^-3 = 95.0%")


def test_criterion_02_headline_direction_and_significance(headline):
    ctl = metric(headline, "Control", "collision_rate_per_entry_pct")
    aware = metric(headline, "Aware", "collision_rate_per_entry_pct")
    assert len(ctl) == len(aware) == 20
    reduction = 100.0 * (mean(ctl) - mean(aware)) / mean(ctl)
    w = welch_t(ctl, aware)
    assert mean(ctl) > mean(aware)
    assert 30.0 <= reduction <= 65.0
    assert w.p < 0.05
    print(f"\nACCEPTANCE 2: PASS - collision rate/entry Control {mean(ctl):.2f}% "
          f"-> Aware {mean(aware):.2f}%, reduction {reduction:.1f}% in [30, 65], "
          f"Welch t={w.t:.2f}, p={w.p:.4f} < 0.05")


def test_criterion_03_road_entry_throughput(headline):
    ctl = mean(metric(headline, "Control", "road_entries"))
    det = mean(metric(headline, "Detection", "road_entries"))
    aware = mean(metric(headline, "Aware", "road_entries"))
    assert det >= 1.4 * ctl
    assert aware >= 1.4 * ctl
    print(f"\nACCEPTANCE 3: PASS - road entries/trial Control {ctl:.1f}, "
          f"Detection {det:.1f} ({det / ctl:.2f}x), Aware {aware:.1f} "
          f"({aware / ctl:.2f}x), both >= 1.4x")


def test_criterion_04_detection_rate(headline):
    det = mean(metric(headline, "Detection", "detection_rate_pct"))
    aware = mean(metric(headline, "Aware", "detection_rate_pct"))
    assert det >= 95.0
    assert aware >= 95.0
    print(f"\nACCEPTANCE 4: PASS - detection rate Detection {det:.2f}%, "
          f"Aware {aware:.2f}%, both >= 95%")


def test_criterion_05_latency_band_and_size_monotonicity(headline, size_cells):
    lat_det = mean(metric(headline, "Detection", "mean_in_range_latency"))
    lat_aware = mean(metric(headline, "Aware", "mean_in_range_latency"))
    assert 0.15 <= lat_det <= 0.45
    assert 0.15 <= lat_aware <= 0.45
    lats = [mean(metric(size_cells, "Detection", "mean_in_range_latency", v))
            for v in (0.25, 1.0, 3.0)]
    assert lats[0] > lats[1] > lats[2]
    print(f"\nACCEPTANCE 5: PASS - latency Detection {lat_det:.3f} s, Aware "
          f"{lat_aware:.3f} s in [0.15, 0.45]; size sweep latency "
          f"{lats[0]:.3f} > {lats[1]:.3f} > {lats[2]:.3f} s across "
          f"sigma_scale 0.25 / 1.0 / 3.0")


def test_criterion_06_frozen_time_reduction(headline):
    ctl = mean(metric(headline, "Control", "frozen_on_road_time"))
    aware = mean(metric(headline, "Aware", "frozen_on_road_time"))
    reduction = 100.0 * (ctl - aware) / ctl
    assert reduction >= 70.0
    print(f"\nACCEPTANCE 6: PASS - frozen-on-road time Control {ctl:.1f} s -> "
          f"Aware {aware:.2f} s, reduction {reduction:.1f}% >= 70%")


def test_criterion_07_spacing_sweep_shape(spacing_cells):
    details = []
    for value in (5.0, 10.0, 15.0, 20.0):
        ctl = metric(spacing_cells, "Control", "collision_rate_per_entry_pct",
                     value)
        det = metric(spacing_cells, "Detection", "collision_rate_per_entry_pct",
                     value)
        w = welch_t(ctl, det)
        assert w.p < 0.05, f"spacing {value}: p={w.p:.4f}"
        assert mean(ctl) > mean(det)
        details.append(f"{value:g} m p={w.p:.4f}")
    det5 = mean(metric(spacing_cells, "Detection", "detection_rate_pct", 5.0))
    det40 = mean(metric(spacing_cells, "Detection", "detection_rate_pct", 40.0))
    assert det40 <= det5 - 20.0
    print("\nACCEPTANCE 7: PASS - Control-vs-Detection significant at "
          + ", ".join(details)
          + f"; detection rate {det5:.1f}% at 5 m vs {det40:.1f}% at 40 m "
          f"(gap {det5 - det40:.1f} >= 20 points)")


def test_criterion_08_size_sweep_detection(size_cells):
    rates = {v: mean(metric(size_cells, "Detection", "detection_rate_pct", v))
             for v in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)}
    assert all(rate >= 95.0 for rate in rates.values())
    lo = min(rates.values())
    print(f"\nACCEPTANCE 8: PASS - size sweep detection rate >= 95% at every "
          f"sigma_scale point (minimum {lo:.2f}%)")


def test_criterion_09_kappa_robustness(kappa_cells):
    det_rate = mean(metric(kappa_cells, "Detection", "detection_rate_pct", 0.3))
    aware_rate = mean(metric(kappa_cells, "Aware", "detection_rate_pct", 0.3))
    ctl = mean(metric(kappa_cells, "Control", "collision_rate_per_entry_pct", 0.3))
    aware = mean(metric(kappa_cells, "Aware", "collision_rate_per_entry_pct", 0.3))
    reduction = 100.0 * (ctl - aware) / ctl
    assert det_rate >= 90.0
    assert aware_rate >= 90.0
    assert reduction > 0.0
    print(f"\nACCEPTANCE 9: PASS - at kappa=0.3/s detection rate "
          f"{det_rate:.1f}% >= 90%, Control-vs-Aware reduction "
          f"{reduction:.1f}% > 0")


def test_criterion_10_property_suite(headline):
    # Common random numbers: arrival schedules identical across modes.
    base = CorridorConfig()
    schedules = [make_arrival_schedule(replace_config(base, mode=m), 1.0, 3,
                                       MASTER_SEED)
                 for m in (Mode.CONTROL, Mode.DETECTION, Mode.AWARE)]
    assert schedules[0] == schedules[1] == schedules[2]

    # Determinism: bit-identical reruns.
    a = run_trial(replace_config(base, mode=Mode.AWARE), 0.2, 1, MASTER_SEED)
    b = run_trial(replace_config(base, mode=Mode.AWARE), 0.2, 1, MASTER_SEED)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)

    # Speed non-negativity under arbitrary braking.
    rnd = random.Random(MASTER_SEED)
    veh = VehicleState(vid=0, x=0.0, v=25.0, direction=1, lane=0)
    for _ in range(5000):
        step_vehicles([veh], [rnd.uniform(-9.0, 2.5)], 0.1, 1000.0)
        assert veh.v >= 0.0

    # Sticky detection: once detected, no further events, never reverts.
    world = build_corridor(replace_config(base, mode=Mode.DETECTION))
    params = DetectionParams(kappa=50.0, r_det=15.0)
    g = np.random.default_rng(MASTER_SEED)
    animal = AnimalState(aid=0, x=510.0, y=-0.5, sigma=1.0)
    t = 0.0
    while not animal.detected:
        try_detect(animal, world.radars, 15.0, lambda rid, now: 1.0, t, 0.1,
                   params, g)
        t += 0.1
    for k in range(300):
        assert try_detect(animal, world.radars, 15.0, lambda rid, now: 1.0,
                          t + k * 0.1, 0.1, params, g) is None
        assert animal.detected

    # Markov branch frequencies within 3-sigma binomial bounds at n = 1e4.
    behaviour = BehaviourParams()
    n = 10_000
    no_threat, threat = (Fleet(vehicles, IdmParams(), 0.1, 1000.0, GEO, behaviour)
                         for vehicles in ([], [VehicleState(vid=0, x=400.0, v=27.78,
                                                            direction=1, lane=0)]))
    from wvcsim.animals import step_animal
    outcomes_nt = {Activity.CROSSING: 0, Activity.HESITATING: 0}
    outcomes_t = {Activity.FROZEN: 0, Activity.FLEEING: 0,
                  Activity.HESITATING: 0}
    for _ in range(n):
        an = AnimalState(aid=0, x=500.0, y=0.0, sigma=1.0,
                         state=Activity.HESITATING, dwell_remaining=0.1)
        step_animal(an, no_threat, 0.1, behaviour, GEO, g)
        outcomes_nt[an.state] += 1
        an = AnimalState(aid=0, x=500.0, y=0.0, sigma=1.0,
                         state=Activity.HESITATING, dwell_remaining=0.1)
        step_animal(an, threat, 0.1, behaviour, GEO, g)
        outcomes_t[an.state] += 1
    checks = [(outcomes_nt[Activity.CROSSING], 0.80),
              (outcomes_nt[Activity.HESITATING], 0.20),
              (outcomes_t[Activity.FROZEN], 0.10),
              (outcomes_t[Activity.FLEEING], 0.20),
              (outcomes_t[Activity.HESITATING], 0.70)]
    for observed, p in checks:
        assert abs(observed / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    # Poisson dispersion index in [0.9, 1.1] over 500 schedules.
    counts = np.array([len(sample_arrivals(15.0, 2.0, 1000.0, 1.0, behaviour, g))
                       for _ in range(500)], dtype=float)
    dispersion = counts.var(ddof=1) / counts.mean()
    assert 0.9 <= dispersion <= 1.1

    # Welch antisymmetry and pooled-t reduction.
    xs = [3.0, 4.5, 2.2, 5.1, 3.8]
    ys = [6.0, 7.2, 5.5, 6.8]
    fw, bw = welch_t(xs, ys), welch_t(ys, xs)
    assert fw.t == pytest.approx(-bw.t, rel=REL)
    assert fw.p == pytest.approx(bw.p, rel=REL)
    balanced = welch_t([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert balanced.df == pytest.approx(4.0, rel=REL)

    # Conservation on the full headline runs.
    for rec in headline:
        assert rec.exits_clean + rec.collisions + rec.active_at_end == rec.arrivals

    print("\nACCEPTANCE 10: PASS - CRN arrival identity, determinism, speed "
          "non-negativity, sticky detection, Markov branch bounds, Poisson "
          f"dispersion {dispersion:.3f}, Welch properties, conservation")


def test_criterion_11_statistics_oracle():
    def t_density(x, df):
        log_norm = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                    - 0.5 * math.log(df * math.pi))
        return math.exp(log_norm - (df + 1.0) / 2.0 * math.log1p(x * x / df))

    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(20):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3),
                       size=rng.integers(5, 40))
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3),
                       size=rng.integers(5, 40))
        w = welch_t(list(a), list(b))
        tail, _ = quad(t_density, abs(w.t), math.inf, args=(w.df,),
                       epsabs=1e-12, epsrel=1e-12)
        worst = max(worst, abs(w.p - 2.0 * tail))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 11: PASS - Welch p agrees with quadrature oracle on "
          f"20 random sample pairs (worst |diff| = {worst:.2e} <= 1e-6)")
