"""Carrier-phase ranging simulator for 5G-style indoor positioning.

Builds OFDM positioning streams (conventional or phase-continuous), runs them
through stochastic indoor-factory channels, and measures range by time of
arrival, single-window carrier phase, or window-swept carrier phase, with
integer-ambiguity resolution and a reproducible Monte-Carlo harness.
"""

from .ambiguity import (CarrierRange, InterferometerConfig, aoa_from_phase_diff, double_difference,
                        ia_search, phase_diff_for_angle, phase_to_fraction, virtual_wavelength,
                        widelane_resolve)
from .channel import (ChannelRealization, Geometry, ScenarioProfile, add_awgn, apply_channel,
                      doppler_ppm, draw_channel, profile_preset)
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NoSignalError
from .harness import (CdfResult, ScenarioConfig, TrialResult, compute_cdf, emit_results,
                      load_config, run_scenario, run_trial)
from .receiver import PhaseMeasurement, ToaMeasurement, ccp_measure, estimate_toa, wrap_phase
from .waveform import (CONTINUOUS, CONVENTIONAL, NumerologyConfig, PrsConfig, generate_prs_column,
                       make_numerology, middle_subcarrier, ofdm_modulate)

__version__ = "0.1.0"

__all__ = [
    "CONTINUOUS", "CONVENTIONAL", "CarrierRange",
    "CdfResult", "ChannelRealization", "ConfigError", "Geometry",
    "InterferometerConfig", "NoSignalError", "NumerologyConfig",
    "PhaseMeasurement", "PrsConfig", "ScenarioConfig", "ScenarioProfile",
    "SPEED_OF_LIGHT", "ToaMeasurement", "TrialResult",
    "add_awgn", "aoa_from_phase_diff", "apply_channel", "ccp_measure", "compute_cdf",
    "doppler_ppm", "double_difference", "draw_channel", "emit_results",
    "estimate_toa", "generate_prs_column", "ia_search", "load_config", "make_numerology",
    "middle_subcarrier", "ofdm_modulate", "phase_diff_for_angle",
    "phase_to_fraction", "profile_preset", "run_scenario", "run_trial",
    "virtual_wavelength", "widelane_resolve", "wrap_phase",
]
