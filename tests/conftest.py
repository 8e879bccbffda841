import numpy as np
import pytest

from bandit_debias import policies


@pytest.fixture
def zero_propensities(monkeypatch):
    """``zero(t, logs)`` zeroes every propensity of round t (1-based) of the stacked logs
    ``logs`` (a slice) in each block of prefix states that ``policies.propensity_batch`` serves.

    A block holds one row at round t per log, in log order, if it holds round t; a slice past
    a block's logs zeroes nothing there, as in a stack of one.
    """
    def zero(t: int, logs: slice) -> None:
        real = policies.propensity_batch

        def zeroed(spec, state):
            props = real(spec, state)
            props[np.flatnonzero(state.t == t)[logs]] = 0.0
            return props

        monkeypatch.setattr(policies, "propensity_batch", zeroed)

    return zero
