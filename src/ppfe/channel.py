"""Bernoulli erasure/wiretap channels and channel-capacity computations."""
from __future__ import annotations

import math

import numpy as np


def sample_outcomes(gamma_bar, gamma_bar_eve, horizon: int, rngs) -> np.ndarray:
    """i.i.d. Bernoulli receptions of a block, one generator per trial: a bool array
    (2, B, M, horizon) of authorized, then wiretap receptions, with per-channel
    probabilities `gamma_bar` and `gamma_bar_eve`. Each trial's generator spawns one
    stream per link, which draws its (M, horizon) uniforms in one call."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    probs = [np.asarray(p, dtype=float)[:, None] for p in (gamma_bar, gamma_bar_eve)]
    out = np.empty((2, len(rngs), len(probs[0]), horizon), dtype=bool)
    for t, rng in enumerate(rngs):
        for link, stream, p in zip(out, rng.spawn(2), probs):
            np.less(stream.random(link.shape[1:]), p, out=link[t])
    return out


def channel_capacity(gamma_bar_i: float) -> float:
    """Per-channel capacity -0.5 ln(1 - gamma); +inf at gamma = 1 (lossless link)."""
    g = float(gamma_bar_i)
    if not 0.0 < g <= 1.0:
        raise ValueError(f"reception probability must lie in (0, 1], got {g}")
    if g == 1.0:
        return math.inf
    return -0.5 * math.log1p(-g)


def total_capacity(gamma_bar) -> float:
    """Sum of per-channel capacities."""
    return float(sum(channel_capacity(g) for g in np.atleast_1d(gamma_bar)))
