import math

import numpy as np
import pytest

from ppfe.channel import (ChannelModel, OutcomeTrace, channel_capacity, erase,
                          sample_outcomes, total_capacity, trace_to_csv)
from ppfe.rng import substream


def test_all_ones_probability_gives_all_ones_trace():
    chan = ChannelModel(gamma_bar=[1.0, 1.0], gamma_bar_eve=[1.0, 1.0])
    trace = sample_outcomes(chan, 50, substream(0, "channel", 0))
    assert trace.auth.all() and trace.wire.all()


def test_empirical_means_match_nominal():
    n = 10 ** 5
    g = np.array([0.9, 0.95, 0.85])
    chan = ChannelModel(gamma_bar=g, gamma_bar_eve=[0.9, 0.85, 0.95])
    trace = sample_outcomes(chan, n, substream(1, "channel", 0))
    for i, p in enumerate(g):
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(trace.auth[i].mean() - p) < tol
    for i, p in enumerate(chan.gamma_bar_eve):
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(trace.wire[i].mean() - p) < tol


def test_outcome_determinism():
    chan = ChannelModel(gamma_bar=[0.5], gamma_bar_eve=[0.5])
    a = sample_outcomes(chan, 100, substream(9, "channel", 3))
    b = sample_outcomes(chan, 100, substream(9, "channel", 3))
    assert a.auth.tobytes() == b.auth.tobytes()
    assert a.wire.tobytes() == b.wire.tobytes()


def test_outcome_streams_uncorrelated():
    n = 10 ** 5
    chan = ChannelModel(gamma_bar=[0.7, 0.7], gamma_bar_eve=[0.7, 0.7])
    trace = sample_outcomes(chan, n, substream(2, "channel", 0))
    streams = [trace.auth[0], trace.auth[1], trace.wire[0], trace.wire[1]]
    for i in range(4):
        for j in range(i + 1, 4):
            rho = np.corrcoef(streams[i], streams[j])[0, 1]
            assert abs(rho) < 0.02


def test_erase_passes_payload_and_marks_absence():
    z = np.array([1.0, -2.0])
    assert erase(1, z) is z
    assert erase(0, z) is None
    zero = np.zeros(2)
    got = erase(1, zero)
    assert got is not None and np.array_equal(got, zero)


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


def test_trace_csv_roundtrip(tmp_path):
    trace = OutcomeTrace(auth=[[1, 0, 1]], wire=[[0, 1, 1]])
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,auth_1,wire_1"
    assert lines[1] == "0,1,0"
    assert lines[3] == "2,1,1"


def test_channel_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(gamma_bar=[0.0], gamma_bar_eve=[0.5])
    with pytest.raises(ValueError):
        ChannelModel(gamma_bar=[0.5, 0.5], gamma_bar_eve=[0.5])
    with pytest.raises(ValueError):
        ChannelModel(gamma_bar=[0.5], gamma_bar_eve=[float("nan")])
    with pytest.raises(ValueError):
        OutcomeTrace(auth=[[0, 2]], wire=[[0, 1]])
