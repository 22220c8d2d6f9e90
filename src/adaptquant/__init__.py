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
)
from .estimator import EstimatorState, GainSchedule, SignalKind, gain
from .simulator import ExperimentConfig, ExperimentResult, SignalModel, run_experiment

__all__ = [
    "Family", "NoiseModel", "gg", "st",
    "DesignError", "QuantizerDesign", "QuantizerSpec",
    "build_design", "design_uniform", "optimize_cdelta",
    "EstimatorState", "GainSchedule", "gain",
    "ExperimentConfig", "ExperimentResult", "SignalKind", "SignalModel",
    "run_experiment",
]
