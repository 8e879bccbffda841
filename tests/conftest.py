import math

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


@pytest.fixture
def tail_expectation_asymptotic():
    """``asymptotic(profile, m)`` is ``(J_m, limit)`` for a ``theory.LDProfile`` at threshold mu2.

    J_m(mu2) = -zeta^2 sqrt(2 pi m eta'') m exp(m Lambda*) normalizes the tail
    expectation E[(mu2 - Xbar_m) 1{Xbar_m >= mu2}], and ``limit`` is the
    normalized value's limit as m grows: 1 off a lattice, and
    zd e^-zd / (1 - e^-zd) on one, where zd is zeta times the span of the
    lattice that also holds mu2 (the law's own span where none does).
    """
    def asymptotic(profile, m: int) -> tuple[float, float]:
        normalizer = -profile.zeta**2 * math.sqrt(2.0 * math.pi * m * profile.eta_second) * m * math.exp(m * profile.rate)
        if not profile.lattice:
            return normalizer, 1.0
        span = profile.threshold_span if profile.threshold_span is not None else profile.span
        zd = profile.zeta * span
        return normalizer, zd * math.exp(-zd) / (1.0 - math.exp(-zd))

    return asymptotic
