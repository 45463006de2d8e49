import math

import numpy as np
import pytest

from ppfe.channel import channel_capacity, sample_outcomes, total_capacity
from ppfe.harness import Scenario
from ppfe.model import SensorModel, SystemModel
from ppfe.rng import substream


def one_trial(gamma_bar, gamma_bar_eve, horizon, seed, trial=0):
    """One trial's (authorized, wiretap) receptions, each (M, horizon)."""
    return sample_outcomes(gamma_bar, gamma_bar_eve, horizon,
                           [substream(seed, "channel", trial)])[:, 0]


def test_all_ones_probability_gives_all_ones_trace():
    auth, wire = one_trial([1.0, 1.0], [1.0, 1.0], 50, 0)
    assert auth.all() and wire.all()


def test_empirical_means_match_nominal():
    n = 10 ** 5
    g = np.array([0.9, 0.95, 0.85])
    ge = np.array([0.9, 0.85, 0.95])
    auth, wire = one_trial(g, ge, n, 1)
    for i, p in enumerate(g):
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(auth[i].mean() - p) < tol
    for i, p in enumerate(ge):
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(wire[i].mean() - p) < tol


def test_outcome_determinism():
    a = one_trial([0.5], [0.5], 100, 9, trial=3)
    b = one_trial([0.5], [0.5], 100, 9, trial=3)
    assert a.tobytes() == b.tobytes()


def test_block_outcomes_equal_per_trial_draws():
    # each trial spawns one stream per link from its own substream and draws its
    # (M, horizon) uniforms in one call, whatever block it is drawn in
    g, ge = np.array([0.9, 0.5, 0.2]), np.array([0.3, 0.6, 0.95])
    block = sample_outcomes(g, ge, 40, [substream(4, "channel", t) for t in range(5)])
    assert block.shape == (2, 5, 3, 40) and block.dtype == bool
    for t in range(5):
        r_auth, r_wire = substream(4, "channel", t).spawn(2)
        assert np.array_equal(block[0, t], r_auth.random((3, 40)) < g[:, None])
        assert np.array_equal(block[1, t], r_wire.random((3, 40)) < ge[:, None])
        assert np.array_equal(block[:, t], one_trial(g, ge, 40, 4, trial=t))


def test_outcome_streams_uncorrelated():
    n = 10 ** 5
    auth, wire = one_trial([0.7, 0.7], [0.7, 0.7], n, 2)
    streams = [auth[0], auth[1], wire[0], wire[1]]
    for i in range(4):
        for j in range(i + 1, 4):
            rho = np.corrcoef(streams[i], streams[j])[0, 1]
            assert abs(rho) < 0.02


def one_channel_scenario(**kw):
    """A scalar one-channel Scenario, the type that checks the channel parameters."""
    base = dict(model=SystemModel(A=[[0.9]], Q=[[0.04]], x0_mean=[0.0], P0=[[1.0]]),
                sensors=(SensorModel(C=[[1.0]], R=[[0.09]]),), gamma_bar=[0.5],
                gamma_bar_eve=[0.5], a=[2.0], delta=[0.01], s=1.0, horizon=30,
                trials=1, seed=0)
    base.update(kw)
    return Scenario(**base)


def test_channel_model_validation():
    with pytest.raises(ValueError, match=r"gamma_bar entries must lie in \(0, 1\]"):
        one_channel_scenario(gamma_bar=[0.0])
    with pytest.raises(ValueError, match=r"gamma_bar_eve must have one entry per channel"):
        one_channel_scenario(gamma_bar_eve=[0.5, 0.5])
    with pytest.raises(ValueError, match=r"gamma_bar_eve entries must lie in \(0, 1\]"):
        one_channel_scenario(gamma_bar_eve=[float("nan")])
    with pytest.raises(ValueError, match="outcome_override .* an entry other than 0 or 1"):
        one_channel_scenario(outcome_override=([[0, 2] * 15], [[0, 1] * 15]))


def test_capacity_inverse_point():
    assert abs(channel_capacity(1.0 - math.exp(-2.0)) - 1.0) < 1e-12


def test_capacity_value_at_0p9():
    # high-precision evaluation of -0.5 ln(0.1)
    assert abs(channel_capacity(0.9) - 1.1512925464970228) < 1e-12


def test_capacity_limits_and_errors():
    assert channel_capacity(1.0) == math.inf
    assert channel_capacity(1e-12) < 1e-11
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            channel_capacity(bad)


def test_capacity_monotone():
    grid = np.linspace(0.05, 0.95, 19)
    caps = [channel_capacity(g) for g in grid]
    assert all(a < b for a, b in zip(caps, caps[1:]))


def test_total_capacity_three_tank_value():
    got = total_capacity([0.9, 0.95, 0.85])
    expected = -0.5 * (math.log(0.1) + math.log(0.05) + math.log(0.15))
    assert abs(got - expected) < 1e-12
    assert abs(got - 3.5977) < 1e-3


def test_total_capacity_additive():
    l1 = [0.3, 0.6]
    l2 = [0.9, 0.2, 0.5]
    assert abs(total_capacity(l1 + l2) - (total_capacity(l1) + total_capacity(l2))) < 1e-12


def test_total_capacity_two_identical_inverse_points():
    g = 1.0 - math.exp(-2.0)
    assert abs(total_capacity([g, g]) - 2.0) < 1e-12


def test_single_channel_total_equals_channel():
    assert total_capacity([0.44]) == channel_capacity(0.44)

