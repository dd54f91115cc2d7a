"""The rules every trial's outcomes keep, whatever the config: one checker for any caller.

``trial_problem(result, cfg)`` says which rule a ``TrialResult`` of ``cfg`` breaks, or
returns None.  The rules:

- the result holds one outcome per method of ``cfg``, in its order;
- a kept error is finite, and a kept phase error (cp, ccp) lies within half the longest
  carrier wavelength the phase methods measure at, in every IA mode;
- every failure reason is one of ``FAILURE_REASONS``;
- ``no_candidate`` occurs only under widelane;
- the oracle gives neither ``wrong_integer`` nor ``no_candidate``.

It needs only the package, so a script outside pytest can import it too.
"""

import math

from phasepos import SPEED_OF_LIGHT, PrsConfig, make_numerology, middle_subcarrier
from phasepos.harness import FAILURE_REASONS

PHASE_METHODS = ("cp", "ccp")


def half_wavelength_m(cfg) -> float:
    """Half the longest wavelength a phase method's range sits on: the measured subcarrier's,
    on the band carrier or, under widelane, on the second carrier."""
    num = make_numerology(cfg.band)
    k = middle_subcarrier(PrsConfig(cfg.comb_size, cfg.comb_offset,
                                    sequence_seed=cfg.prs_seed), num)
    carriers = (num.carrier_frequency_hz, cfg.widelane_second_fc_hz or num.carrier_frequency_hz)
    return max(SPEED_OF_LIGHT / (fc + k * num.scs_hz) for fc in carriers) / 2.0


def trial_problem(result, cfg) -> str | None:
    """Which rule of this module's docstring ``result``, a trial of ``cfg``, breaks, or None."""
    if list(result.outcomes) != list(cfg.methods):
        return f"outcomes for {list(result.outcomes)}, not for {list(cfg.methods)}"
    half_wave_m = half_wavelength_m(cfg)
    for method, outcome in result.outcomes.items():
        error, reason = outcome.error_m, outcome.failure
        if reason is None:
            if error is None or not math.isfinite(error):
                return f"{method}: kept error {error!r} is not finite"
            if method in PHASE_METHODS and abs(error) > half_wave_m:
                return f"{method}: kept |error| {abs(error)!r} m is past {half_wave_m!r} m"
        elif reason not in FAILURE_REASONS:
            return f"{method}: unknown failure reason {reason!r}"
        elif reason == "no_candidate" and cfg.ambiguity != "widelane":
            return f"{method}: no_candidate under {cfg.ambiguity}"
        elif reason == "wrong_integer" and cfg.ambiguity == "oracle":
            return f"{method}: wrong_integer under the oracle"
    return None
