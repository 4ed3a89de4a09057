"""Subspace-projection channel estimation for OFDM uplink: simulation library
and experiment CLI."""
from .config import (ConfigBundle, ConfigError, EstimatorConfig, PilotPattern,
                     ScenarioConfig, SystemConfig, build_pilot_pattern, desk_config,
                     load_config, noise_variance_for_snr, validate_config)
from .channel import assemble_channel, average_gain_from_responses, channel_covariance
from .experiments import (Environment, ExperimentPlan, build_environment, emit_csv,
                          emit_ecdf_csv, measure_projection_floor, run_ecdf,
                          run_nmse_sweep, run_pilot_sweep, run_se_sweep, validate_plan)
from .metrics import MetricsRecord, NmseBreakdown, analytic_nmse, ecdf
from .propagation import (PathSet, dt_truncate, frequency_response, generate_paths,
                          load_paths_csv, pulse_response, save_paths_csv,
                          steering_matrix)
from .streams import complex_normal, substream
from .subspaces import ProjectorPair, bml_subspace, denoise_subspace, dt_subspace

__version__ = "0.1.0"

__all__ = [
    "ConfigBundle", "ConfigError", "Environment",
    "EstimatorConfig", "ExperimentPlan", "MetricsRecord", "NmseBreakdown",
    "PathSet", "PilotPattern", "ProjectorPair", "ScenarioConfig", "SystemConfig",
    "analytic_nmse", "assemble_channel", "average_gain_from_responses",
    "bml_subspace", "build_environment", "build_pilot_pattern", "channel_covariance",
    "complex_normal", "denoise_subspace", "desk_config", "dt_subspace", "dt_truncate",
    "ecdf", "emit_csv", "emit_ecdf_csv", "frequency_response", "generate_paths",
    "load_config", "load_paths_csv", "measure_projection_floor",
    "noise_variance_for_snr", "pulse_response", "run_ecdf", "run_nmse_sweep",
    "run_pilot_sweep", "run_se_sweep", "save_paths_csv", "steering_matrix",
    "substream", "validate_config", "validate_plan",
]
