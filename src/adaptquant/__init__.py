"""Adaptive estimation of a scalar parameter from quantized noisy observations."""

__version__ = "0.1.0"

from .noise import Family, NoiseModel, gg, st
from .quantizer import (
    DesignError,
    QuantizerDesign,
    QuantizerSpec,
    build_design,
    design_uniform,
    optimize_cdelta,
    quantize,
)
from .estimator import EstimatorState, GainSchedule, ScheduleKind, SignalKind, gain
from .simulator import (
    ExperimentConfig,
    ExperimentResult,
    SignalModel,
    run_continuous_reference,
    run_experiment,
)

__all__ = [
    "Family", "NoiseModel", "gg", "st",
    "DesignError", "QuantizerDesign", "QuantizerSpec",
    "build_design", "design_uniform", "optimize_cdelta", "quantize",
    "EstimatorState", "GainSchedule", "ScheduleKind", "gain",
    "ExperimentConfig", "ExperimentResult", "SignalKind", "SignalModel",
    "run_continuous_reference", "run_experiment",
]
