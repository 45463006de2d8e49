"""Bernoulli erasure/wiretap channels and channel-capacity computations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelModel:
    """Per-channel reception probabilities for the authorized and wiretap links."""

    gamma_bar: np.ndarray
    gamma_bar_eve: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gamma_bar, dtype=float))
        ge = np.atleast_1d(np.asarray(self.gamma_bar_eve, dtype=float))
        if g.size < 1 or g.shape != ge.shape:
            raise ValueError("need one authorized and one wiretap probability per channel")
        for name, p in (("gamma_bar", g), ("gamma_bar_eve", ge)):
            if not np.all((p > 0.0) & (p <= 1.0)):
                raise ValueError(f"{name} entries must lie in (0, 1]")
        g.setflags(write=False)
        ge.setflags(write=False)
        object.__setattr__(self, "gamma_bar", g)
        object.__setattr__(self, "gamma_bar_eve", ge)

    @property
    def n_channels(self) -> int:
        return self.gamma_bar.size


@dataclass(frozen=True)
class OutcomeTrace:
    """Realized per-step reception bits: auth[i, k] and wire[i, k] in {0, 1}."""

    auth: np.ndarray
    wire: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.auth)
        w = np.asarray(self.wire)
        if a.ndim != 2 or a.shape != w.shape:
            raise ValueError("auth and wire must be matching (M, horizon) matrices")
        for name, m in (("auth", a), ("wire", w)):
            if not np.isin(m, (0, 1)).all():
                raise ValueError(f"{name} entries must be 0 or 1")
        a = a.astype(np.uint8)
        w = w.astype(np.uint8)
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "auth", a)
        object.__setattr__(self, "wire", w)

    @property
    def n_channels(self) -> int:
        return self.auth.shape[0]

    @property
    def horizon(self) -> int:
        return self.auth.shape[1]


def sample_outcomes(chan: ChannelModel, horizon: int, rng: np.random.Generator) -> OutcomeTrace:
    """i.i.d. Bernoulli outcomes, all streams mutually independent, seed-deterministic."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    r_auth, r_wire = rng.spawn(2)
    m = chan.n_channels
    auth = (r_auth.random((m, horizon)) < chan.gamma_bar[:, None]).astype(np.uint8)
    wire = (r_wire.random((m, horizon)) < chan.gamma_bar_eve[:, None]).astype(np.uint8)
    return OutcomeTrace(auth=auth, wire=wire)


def erase(outcome: int, payload: np.ndarray):
    """Channel output: the payload on success, None on a drop.

    Absence is a marker, never the value 0, so a genuine zero-valued packet
    stays distinguishable from an erasure.
    """
    return payload if outcome else None


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


def trace_to_csv(trace: OutcomeTrace, path) -> None:
    """Debug export: columns k, auth_1..auth_M, wire_1..wire_M."""
    m = trace.n_channels
    header = ["k"] + [f"auth_{i + 1}" for i in range(m)] + [f"wire_{i + 1}" for i in range(m)]
    lines = [",".join(header)]
    for k in range(trace.horizon):
        row = [str(k)] + [str(int(b)) for b in trace.auth[:, k]] + [str(int(b)) for b in trace.wire[:, k]]
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
