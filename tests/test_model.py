import numpy as np
import pytest

from ppfe.model import SensorModel, SystemModel, from_config, simulate_plant, three_tank_preset
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
