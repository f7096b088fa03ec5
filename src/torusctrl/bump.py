"""Smooth mollified-step profiles built from exp(-1/x)."""

from __future__ import annotations

import numpy as np


def _psi(x):
    """exp(-1/x) for x > 0, zero otherwise (C-infinity)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, monotone in between."""
    t = np.asarray(t, dtype=float)
    a = _psi(t)
    b = _psi(1.0 - t)
    return a / (a + b + np.finfo(float).tiny)


def plateau_profile(t, one_until, zero_from):
    """1 for t <= one_until, 0 for t >= zero_from, smooth in between."""
    if not zero_from > one_until:
        raise ValueError("zero_from must exceed one_until")
    return smooth_step((zero_from - np.asarray(t, dtype=float)) / (zero_from - one_until))


def chi_plateau(T):
    """chi_T(t) = chi_1(t/T): 1 for t <= T/2, 0 for t >= 3T/4, smooth."""
    def chi(t):
        return plateau_profile(np.asarray(t, dtype=float) / T, 0.5, 0.75)
    return chi
