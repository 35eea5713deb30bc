"""CSPConfig refuses values that would break a solve."""

import math

import pytest

from repro.csp import CSPConfig

BAD_VALUES = {
    # The sequential reference divides by it; the batched drive took phase 0.
    "anneal_period-0": {"anneal_period": 0},
    # A window below one step used to run silently as one.
    "decode_window-0": {"decode_window": 0},
    # Outside the DCU's nmdec selectors 1..9: a KeyError at the first step.
    "tau_select-10": {"tau_select": 10},
    "tau_select-0": {"tau_select": 0},
    # nmldh selects 0.5 ms (1) or 0.125 ms (3); -1 was a negative shift.
    "h_shift--1": {"h_shift": -1},
    "h_shift-2": {"h_shift": 2},
    # A NaN drive was cast to int64 and solved on garbage.
    "noise_sigma-nan": {"noise_sigma": math.nan},
    "free_bias-inf": {"free_bias": math.inf},
    "inhibition_weight--inf": {"inhibition_weight": -math.inf},
}


@pytest.mark.parametrize("changes", list(BAD_VALUES.values()), ids=list(BAD_VALUES))
def test_bad_values_raise_value_error(changes):
    with pytest.raises(ValueError, match=next(iter(changes))):
        CSPConfig(**changes)
    with pytest.raises(ValueError):
        CSPConfig().with_updates(**changes)


def test_the_defaults_and_the_fine_timestep_are_valid():
    assert CSPConfig().with_updates(h_shift=3, tau_select=9, decode_window=1).h_shift == 3
