"""Privacy-preserving fusion estimation over lossy, eavesdropped channels.

Simulation stack: a linear multi-sensor plant, independent Bernoulli
erasure/wiretap channels, an encoding-based privacy mechanism built on
probabilistic uniform quantization, and a centralized fusion filter shared by
the legitimate user and the eavesdropper. Analysis stack: distortion-rate
bounds, a lossy-channel Riccati map whose iterates bound the expected
prediction-error covariance, capacity/entropy and PBH solvability conditions,
and empirical secrecy verdicts.
"""

from .analysis import (BoundParams, BoundSequence, capacity_condition,
                       check_stability_inequality, default_distortion_rate,
                       default_eta, gain_floor, hadamard_weight, iterate_bound,
                       mahler_entropy, noise_domination_check,
                       noise_inflation_matrix, pbh_unit_circle, retention_scalar,
                       riccati_map)
from .channel import (ChannelModel, OutcomeTrace, channel_capacity, erase,
                      sample_outcomes, total_capacity)
from .codec import (CodecOverflowError, CodecParams, CodecState, EncodedPacket,
                    ack, bootstrap_state, decode, eavesdrop_decode, encode, quantize)
from .estimator import ConditioningError, FusionFilter, run_filter
from .harness import (BlockResult, RunResult, Scenario, build_worst_case,
                      compute_bound, detect_critical_events, load_scenario,
                      run_block, run_monte_carlo, scenario_from_dict,
                      scenario_preset, secrecy_report, write_events_csv,
                      write_mse_csv)
from .model import (SensorModel, SystemModel, Trajectory, from_config, measure,
                    simulate_plant, simulate_plants, step_state,
                    three_tank_preset)
from .rng import substream

__version__ = "0.1.0"
