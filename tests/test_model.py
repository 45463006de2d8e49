from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppfe.analysis import BoundParams, hadamard_weight, inflation_diag
from ppfe.codec import CodecParams
from ppfe.estimator import FusionFilter, decoding_noise, run_filter
from ppfe.model import (SensorModel, SystemModel, from_config, simulate_plant, simulate_plants,
                        three_tank_preset, whitened_stack)
from ppfe.rng import substream


def matmul_oracle(m, v):
    """Loop-based matrix-vector product, independent of numpy's matmul."""
    out = []
    for row in m:
        acc = 0.0
        for a, b in zip(row, v):
            acc += float(a) * float(b)
        out.append(acc)
    return np.array(out)


def test_sensor_requires_full_row_rank():
    with pytest.raises(ValueError):
        SensorModel(C=[[1.0, 0.0], [2.0, 0.0]], R=np.eye(2))


def test_sensor_requires_positive_definite_R():
    with pytest.raises(ValueError):
        SensorModel(C=np.eye(2), R=np.zeros((2, 2)))


def test_model_rejects_non_psd_covariance():
    with pytest.raises(ValueError):
        SystemModel(A=np.eye(2), Q=-np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))


def test_simulate_noiseless_follows_deterministic_recursion():
    model = SystemModel(A=[[0.5, 0.1], [0.0, 0.9]], B=[[1.0], [0.0]],
                        Q=np.zeros((2, 2)), x0_mean=[1.0, -1.0], P0=np.zeros((2, 2)),
                        u=[0.25])
    sensors = [SensorModel(C=np.eye(2), R=np.eye(2) * 1e-12)]
    # zero R is rejected (PD required); drive noiselessness through a zero factor
    traj = simulate_plant(model, sensors, 10, substream(3, "plant", 0))
    x = np.array([1.0, -1.0])
    for k in range(10):
        x = model.A @ x + model.B @ np.array([0.25])
        assert np.allclose(traj.states[k + 1], x, atol=1e-9)
    # one noiseless three-tank step against loop products independent of numpy's matmul
    tank, tank_sensors = three_tank_preset()
    model = SystemModel(A=tank.A, B=tank.B, D=tank.D, Q=np.zeros((2, 2)), x0_mean=tank.x0_mean,
                        P0=np.zeros((3, 3)), u=tank.u)
    sensors = [SensorModel(C=s.C, R=1e-24 * np.eye(2)) for s in tank_sensors]
    traj = simulate_plant(model, sensors, 1, substream(3, "plant", 1))
    x0 = np.array([0.3, 0.1, 0.2])
    expected = matmul_oracle(model.A, x0) + matmul_oracle(model.B, [3.0e-5, 2.0e-5])
    assert np.allclose(traj.states[1], expected, rtol=0, atol=1e-15)
    # measurements are C_i x_k; the first sensor selects states 1 and 3
    for s, y in zip(sensors, traj.measurements):
        assert np.allclose(y, traj.states[:1] @ s.C.T, rtol=0, atol=1e-9)
    assert np.allclose(traj.measurements[0][0], [0.3, 0.2], rtol=0, atol=1e-9)


def test_simulate_seed_determinism_bytewise():
    model, sensors = three_tank_preset()
    t1 = simulate_plant(model, sensors, 25, substream(11, "plant", 4))
    t2 = simulate_plant(model, sensors, 25, substream(11, "plant", 4))
    assert t1.states.tobytes() == t2.states.tobytes()
    for a, b in zip(t1.measurements, t2.measurements):
        assert a.tobytes() == b.tobytes()


def test_simulate_different_trials_differ():
    model, sensors = three_tank_preset()
    t1 = simulate_plant(model, sensors, 10, substream(11, "plant", 0))
    t2 = simulate_plant(model, sensors, 10, substream(11, "plant", 1))
    assert not np.array_equal(t1.states, t2.states)


def windowed_plants(model, sensors, horizon, window):
    """Window lengths, states and measurements of eight trials, windows joined."""
    lengths, states, meas = [], [], []
    for lo, s, m in simulate_plants(model, sensors, horizon,
                                    [substream(5, "plant", t) for t in range(8)], window):
        lengths.append(m.shape[1])
        states.append(s[:, :-1].copy())
        meas.append(m.copy())
    states.append(s[:, -1:])
    return lengths, np.concatenate(states, axis=1), np.concatenate(meas, axis=1)


@pytest.mark.parametrize("horizon", [1, 2, 9, 15, 22])
def test_plant_windows_do_not_change_the_draws(horizon):
    # each child stream is drawn window by window, so the states and measurements
    # are byte-equal to one window's at every window length; the windows have
    # `window` steps and the last takes the rest, a one-step rest joining the
    # window before it (9 in windows of 2, 15 and 22 in windows of 7, 9 in 8).
    # The entries are dense, so that a one-step window would round differently
    rng = np.random.default_rng(horizon)
    r = rng.normal(size=(3, 3))
    model = SystemModel(A=0.3 * rng.normal(size=(3, 3)), B=rng.normal(size=(3, 1)),
                        D=rng.normal(size=(3, 2)), Q=[[0.2, 0.05], [0.05, 0.1]],
                        x0_mean=rng.normal(size=3), P0=np.eye(3),
                        u=np.linspace(-1.0, 1.0, horizon)[:, None])
    sensors = [SensorModel(C=rng.normal(size=(2, 3)), E=rng.normal(size=(2, 3)),
                           R=r @ r.T + 0.1 * np.eye(3)),
               SensorModel(C=rng.normal(size=(1, 3)), R=[[0.05]])]
    [whole], states, meas = windowed_plants(model, sensors, horizon, None)
    assert whole == horizon and states.shape == (8, horizon + 1, 3) and meas.shape == (8, horizon, 3)
    for window in {2, 7, horizon - 1, horizon, horizon + 1} - {0, 1}:
        lengths, got_states, got_meas = windowed_plants(model, sensors, horizon, window)
        assert got_states.tobytes() == states.tobytes(), window
        assert got_meas.tobytes() == meas.tobytes(), window
        assert sum(lengths) == horizon and set(lengths[:-1]) <= {window}, (window, lengths)
        assert min(horizon, 2) <= lengths[-1] <= window + 1, (window, lengths)
    with pytest.raises(ValueError, match="window"):
        next(simulate_plants(model, sensors, horizon, [substream(5, "plant", 0)], 1))


def test_simulate_state_sample_covariance_matches_Q():
    # memoryless plant: x_{k+1} = w_k, so states are i.i.d. N(0, I)
    n = 10 ** 5
    model = SystemModel(A=np.zeros((2, 2)), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    sensors = [SensorModel(C=np.eye(2), R=np.eye(2))]
    traj = simulate_plant(model, sensors, n, substream(5, "plant", 0))
    x = traj.states[1:]
    cov = x.T @ x / n
    se_diag = np.sqrt(2.0 / n)
    se_off = np.sqrt(1.0 / n)
    assert abs(cov[0, 0] - 1) < 3 * se_diag and abs(cov[1, 1] - 1) < 3 * se_diag
    assert abs(cov[0, 1]) < 3 * se_off


def test_simulate_noise_whiteness_lag1():
    n = 10 ** 5
    model = SystemModel(A=np.zeros((2, 2)), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    sensors = [SensorModel(C=np.eye(2), R=np.eye(2))]
    traj = simulate_plant(model, sensors, n, substream(6, "plant", 0))
    w = traj.states[1:]  # equals the process noise sequence
    for j in range(2):
        series = w[:, j]
        rho = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert abs(rho) < 0.02


def test_three_tank_preset_values():
    model, sensors = three_tank_preset()
    assert model.A[0, 0] == 0.9889
    assert np.array_equal(model.B, model.D)
    # process noise enters through D = B (d_x x 2), so Q is the 2x2 1e-10 I
    assert np.array_equal(model.Q, 1e-10 * np.eye(2))
    assert np.array_equal(model.x0_mean, [0.3, 0.1, 0.2])
    assert np.array_equal(model.P0, np.eye(3))
    assert np.array_equal(model.input_at(0), [3.0e-5, 2.0e-5])
    assert len(sensors) == 3
    for s in sensors:
        assert np.array_equal(s.R, 1e-4 * np.eye(2))
        assert np.array_equal(s.E, np.eye(2))


def test_qeff_is_DQDt():
    model, _ = three_tank_preset()
    assert np.allclose(model.qeff, model.D @ model.Q @ model.D.T)


def test_from_config_preset_and_explicit_roundtrip():
    m1, s1 = from_config({"preset": "three-tank"})
    assert np.array_equal(m1.A, three_tank_preset()[0].A)
    cfg = {
        "A": [[0.9, 0.1], [0.0, 0.8]],
        "Q": [[0.01, 0.0], [0.0, 0.01]],
        "x0_mean": [0.0, 0.0],
        "P0": [[1.0, 0.0], [0.0, 1.0]],
        "sensors": [{"C": [[1.0, 0.0]], "R": [[0.04]]}],
    }
    m2, s2 = from_config(cfg)
    assert m2.d_x == 2 and s2[0].d_y == 1
    with pytest.raises(ValueError):
        from_config({"preset": "no-such-plant"})


def test_input_sequence_per_step():
    u_seq = np.array([[1.0], [2.0], [3.0]])
    model = SystemModel(A=np.eye(1), B=np.eye(1), Q=np.zeros((1, 1)),
                        x0_mean=np.zeros(1), P0=np.zeros((1, 1)), u=u_seq)
    assert model.input_at(2)[0] == 3.0
    with pytest.raises(IndexError):
        model.input_at(3)


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_layout_matches_per_sensor_references(dims, seed):
    # every user of the stacked layout indexes by the row -> sensor map of
    # stack_sensors; each must equal the per-sensor construction, byte for byte
    rng = np.random.default_rng(seed)
    d_x, n, s = 3, len(dims), 1.5
    cols = np.cumsum([0, *dims])
    sensors = []
    for d_y in dims:
        m = rng.normal(size=(d_y, d_y))
        sensors.append(SensorModel(C=rng.normal(size=(d_y, d_x)), R=m @ m.T + 0.1 * np.eye(d_y)))
    model = SystemModel(A=0.9 * np.eye(d_x), Q=np.eye(d_x), x0_mean=np.zeros(d_x), P0=np.eye(d_x))
    gamma, rates = rng.uniform(0.1, 0.99, n), rng.uniform(0.01, 0.9, n)
    codecs = [CodecParams(a=2.0, delta=float(d), s=s) for d in rng.uniform(1e-3, 0.1, n)]

    def blocks(mats, fill=0.0):
        out = np.full((cols[-1], cols[-1]), fill)
        for i, m in enumerate(mats):
            out[cols[i]:cols[i + 1], cols[i]:cols[i + 1]] = m
        return out

    c_ref, r_ref = np.vstack([sn.C for sn in sensors]), blocks([sn.r_eff for sn in sensors])
    fusion = FusionFilter(model, sensors)
    params = BoundParams(A=model.A, qeff=model.qeff, sensors=sensors, gamma_bar=gamma, s=s,
                         distortion_rates=rates)
    assert params.c_stack.tobytes() == c_ref.tobytes()
    assert params.r_block.tobytes() == r_ref.tobytes()
    # the filter's whitened rows R_i^{-1/2} C_i and its block-diagonal R^{-1/2}
    per_sensor = [whitened_stack([sn]) for sn in sensors]
    cw_ref = np.vstack([cw for cw, _ in per_sensor])
    assert fusion.cw.tobytes() == params.whitened.tobytes() == cw_ref.tobytes()
    assert fusion.white_t.T.tobytes() == blocks([root for _, root in per_sensor]).tobytes()
    channel = fusion.channel
    assert channel.tolist() == params.channel.tolist() == [i for i, m in enumerate(dims)
                                                            for _ in range(m)]
    weight_ref = blocks([np.full((m, m), 1.0 / g) for g, m in zip(gamma, dims)], fill=1.0)
    assert hadamard_weight(gamma, channel).tobytes() == params.weight.tobytes() == weight_ref.tobytes()
    per_sensor = inflation_diag(rates, s, np.arange(n))
    assert inflation_diag(rates, s, channel).tobytes() == np.repeat(per_sensor, dims).tobytes()
    rdec_ref = np.concatenate([np.full(m, c.s ** 2 * c.delta ** 2 / 4.0)
                               for m, c in zip(dims, codecs)])
    assert decoding_noise(codecs, channel).tobytes() == rdec_ref.tobytes()

    # run_filter places sensor i's decoded vector and realized-q variance on its rows
    h = 3
    outcomes = rng.integers(0, 2, (n, h))
    decoded = [[rng.normal(size=m) if outcomes[i, k] else None for i, m in enumerate(dims)]
               for k in range(h)]
    q_values = [[rng.uniform(size=m) if outcomes[i, k] and rng.random() < 0.5 else None
                 for i, m in enumerate(dims)] for k in range(h)]
    y_ref, q_ref = np.zeros((h, cols[-1])), np.tile(rdec_ref, (h, 1))
    for k in range(h):
        for i in np.flatnonzero(outcomes[:, k]):
            y_ref[k, cols[i]:cols[i + 1]] = decoded[k][i]
            if q_values[k][i] is not None:
                q = q_values[k][i]
                q_ref[k, cols[i]:cols[i + 1]] = s ** 2 * q * (1.0 - q) * codecs[i].delta ** 2
    seen, update = [], FusionFilter.update

    def spy(self, x, P, y, received, rdec):
        seen.append((y[0].copy(), rdec.copy()))
        return update(self, x, P, y, received, rdec)

    with mock.patch.object(FusionFilter, "update", spy):
        run_filter(model, sensors, codecs, outcomes, decoded, q_values)
    assert np.stack([y for y, _ in seen]).tobytes() == y_ref.tobytes()
    assert np.stack([r for _, r in seen]).tobytes() == q_ref.tobytes()

    # simulate_plant hands sensor i its own columns of the stacked measurements
    traj = simulate_plant(model, sensors, h, np.random.default_rng(seed))
    [(_, _, meas)] = simulate_plants(model, sensors, h, [np.random.default_rng(seed)])
    meas = meas[0]
    for i in range(n):
        assert traj.measurements[i].tobytes() == meas[:, cols[i]:cols[i + 1]].tobytes()
