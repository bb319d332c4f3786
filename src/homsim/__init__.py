"""Simulation and analysis of two-photon interference between dissimilar
single-photon sources with exponential temporal envelopes."""

from .analysis import (
    AccidentalEstimate,
    CoincidenceHistogram,
    DipPoint,
    PairingResult,
    VisibilityResult,
    dip_curve,
    estimate_accidentals,
    histogram,
    pair_events,
    visibility,
)
from .errors import ConfigError, DataFormatError, HomsimError, InsufficientStatisticsError
from .interference import (
    Envelope,
    SourcePair,
    amplitude,
    coincidence_density,
    coincidence_probability,
    dip_ratio,
    expected_histogram,
    sample_emission_time,
    visibility_closed_form,
)
from .io import read_events, write_events
from .montecarlo import ExperimentConfig, simulate, simulate_frames, simulate_histograms

__version__ = "0.6.0"

__all__ = [
    "AccidentalEstimate",
    "CoincidenceHistogram",
    "ConfigError",
    "DataFormatError",
    "DipPoint",
    "Envelope",
    "ExperimentConfig",
    "HomsimError",
    "InsufficientStatisticsError",
    "PairingResult",
    "SourcePair",
    "VisibilityResult",
    "amplitude",
    "coincidence_density",
    "coincidence_probability",
    "dip_curve",
    "dip_ratio",
    "estimate_accidentals",
    "expected_histogram",
    "histogram",
    "pair_events",
    "read_events",
    "sample_emission_time",
    "simulate",
    "simulate_frames",
    "simulate_histograms",
    "visibility",
    "visibility_closed_form",
    "write_events",
]
