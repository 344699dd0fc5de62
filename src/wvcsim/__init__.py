"""Monte Carlo simulator for a radar-instrumented road corridor.

A discrete-time agent simulation of animals crossing a two-lane rural road
monitored by an alternating-side radar line, with sensitivity-boost awareness
propagation between radars and driver-facing message signs, plus the
experiment harness that compares operating modes and runs sensitivity sweeps.
"""

from .animals import (Activity, AnimalState, Arrival, BehaviourParams,
                      sample_arrivals, step_animal)
from .awareness import DANGEROUS_STATES, AwarenessState
from .config import (CorridorConfig, GeometryParams, Mode, RadarNode, World,
                     build_corridor, config_from_dict, config_to_dict,
                     coverage_ok, load_config, replace_config, validate_config)
from .detection import (DetectionEvent, DetectionParams, detection_probability,
                        f_size, try_detect)
from .engine import (EngineInvariantError, RngStreams, TrialResult,
                     make_arrival_schedule, run_trial)
from .experiments import (ALL_MODES, KAPPA_GRID, SIZE_GRID, SPACING_GRID,
                          ComparisonStat, ExperimentPlan, TrialError,
                          emit_plot_data, run_headline, run_sweep, summarize,
                          sweep_config)
from .records import (TrialRecord, read_trials_csv, record_from_result,
                      write_csv, write_trials_csv)
from .stats import WelchResult, mean_sd, significance_stars, welch_t
from .vehicles import (DriverAlert, Fleet, IdmParams, VehicleOverlap, VehicleState,
                       desired_gap, detect_collisions, emergency_brake_needed,
                       idm_acceleration, step_vehicles, threat_present)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
