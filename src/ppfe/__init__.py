"""Privacy-preserving fusion estimation over lossy, eavesdropped channels.

Simulation stack: a linear multi-sensor plant, independent Bernoulli
erasure/wiretap channels, an encoding-based privacy mechanism built on
probabilistic uniform quantization, and a centralized fusion filter shared by
the legitimate user and the eavesdropper. Analysis stack: distortion-rate
bounds, a lossy-channel Riccati map whose iterates bound the expected
prediction-error covariance, capacity/entropy and PBH solvability conditions,
and empirical secrecy verdicts.
"""
# before numpy loads: an idle OpenBLAS worker spins for about 60 ms of CPU per command
import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (BoundParams, BoundSequence, capacity_condition, distortion_rates,
                       gain_floor, hadamard_weight, inflation_diag, iterate_bound,
                       mahler_entropy, noise_domination_check, pbh_unit_circle,
                       retention_scalar, riccati_map)
from .channel import channel_capacity, sample_outcomes, total_capacity
from .codec import (CodecOverflowError, CodecParams, CodecState, EncodedPacket,
                    ack, bootstrap_state, decode, eavesdrop_decode, encode, quantize)
from .estimator import FusionFilter, run_filter
from .harness import (BlockResult, RunResult, Scenario, build_worst_case,
                      compute_bound, detect_critical_events, run_block,
                      run_monte_carlo, scenario_from_dict, scenario_preset,
                      secrecy_report, write_events_csv, write_mse_csv)
from .model import (SensorModel, SystemModel, Trajectory, from_config, simulate_plant,
                    simulate_plants, three_tank_preset)
from .rng import substream

__version__ = "0.1.0"
