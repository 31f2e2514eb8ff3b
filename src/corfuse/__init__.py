"""Correntropy-weighted adaptive Kalman fusion for pose estimation.

The package combines three ingredients into one online estimator:

* an error-state Kalman filter on position / velocity / attitude,
* a correntropy-weighted measurement update that soft-gates outliers,
* two interchangeable noise adaptation schemes (variational smoothing
  window, residual averaging window) that track slowly changing
  sensor statistics.

See :mod:`corfuse.eskf` for the fusion engine and :mod:`corfuse.cli`
for the command-line interface.
"""
from .adapt_residual import ResidualNoiseAdapter, check_identity_gamma
from .adapt_vb import VbNoiseAdapter, WishartNoiseState, backward_smooth
from .dataset import ingest_dataset, read_truth, write_events, write_truth
from .errors import (
    AdaptationNotReady,
    ConfigError,
    CorfuseError,
    DataError,
    MeasurementRejected,
    PropagationError,
)
from .eskf import (
    EngineConfig,
    FusionEngine,
    ImuSample,
    NominalState,
    OdometrySample,
    VARIANTS,
)
from .experiments import RunConfig, bench, compare, run_experiment
from .filter_core import (
    GaussianBelief,
    InnovationRecord,
    correntropy_weights,
    kf_update,
    mcckf_update,
    predict,
)
from .kernel_bandwidth import BandwidthState, adapt_bandwidth
from .sim import NoiseSpec, ScenarioSpec, SensorSpec, generate_truth, sample_sensors

__version__ = "0.1.0"

__all__ = [
    "AdaptationNotReady",
    "BandwidthState",
    "ConfigError",
    "CorfuseError",
    "DataError",
    "EngineConfig",
    "FusionEngine",
    "GaussianBelief",
    "ImuSample",
    "InnovationRecord",
    "MeasurementRejected",
    "NoiseSpec",
    "NominalState",
    "OdometrySample",
    "PropagationError",
    "ResidualNoiseAdapter",
    "RunConfig",
    "ScenarioSpec",
    "SensorSpec",
    "VARIANTS",
    "VbNoiseAdapter",
    "WishartNoiseState",
    "adapt_bandwidth",
    "backward_smooth",
    "bench",
    "check_identity_gamma",
    "compare",
    "correntropy_weights",
    "generate_truth",
    "ingest_dataset",
    "kf_update",
    "mcckf_update",
    "predict",
    "read_truth",
    "run_experiment",
    "sample_sensors",
    "write_events",
    "write_truth",
]
