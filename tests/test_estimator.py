import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppfe.codec import CodecParams
from ppfe.estimator import (ConditioningError, FusionFilter, decoding_noise,
                            filter_trace_csv, run_filter)
from ppfe.model import SensorModel, SystemModel, three_tank_preset


def scalar_model(a=1.0, q=1.0, p0=1.0):
    return SystemModel(A=[[a]], Q=[[q]], x0_mean=[0.0], P0=[[p0]])


def scalar_sensor(r=1.0):
    return SensorModel(C=[[1.0]], R=[[r]])


def unit_codec(delta=1e-9, s=1.0):
    return CodecParams(a=2.0, delta=delta, s=s)


def one(x, P):
    """A one-row block from a single estimate and covariance."""
    return np.asarray(x, dtype=float)[None], np.asarray(P, dtype=float)[None]


def test_predict_trivial():
    model = SystemModel(A=np.eye(2), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    x, P = FusionFilter(model, [SensorModel(C=np.eye(2), R=np.eye(2))]).predict(
        *one([0.0, 0.0], np.zeros((2, 2))), np.zeros(2))
    assert np.array_equal(x[0], [0.0, 0.0])
    assert np.array_equal(P[0], np.eye(2))


def test_predict_scalar_doubling():
    x, P = FusionFilter(scalar_model(a=2.0, q=1.0), [scalar_sensor()]).predict(
        *one([1.0], [[1.0]]), np.zeros(1))
    assert P[0, 0, 0] == 5.0  # 4 + 1


def test_predict_three_tank_matches_loop_oracle():
    model, sensors = three_tank_preset()
    _, P = FusionFilter(model, sensors).predict(*one(model.x0_mean, np.eye(3)),
                                                model.B @ model.input_at(0))
    a, qeff = model.A, model.qeff
    expected = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for r in range(3):
                for c in range(3):
                    acc += a[i, r] * 1.0 * (r == c) * a[j, c]
            expected[i, j] = acc + qeff[i, j]
    assert np.allclose(P[0], expected, atol=1e-12)


def scalar_update(rdec, received=True, x=0.0, p=1.0, y=1.0):
    fusion = FusionFilter(scalar_model(), [scalar_sensor(r=1.0)])
    return fusion.update(*one([x], [[p]]), np.array([[y]]), np.array([[received]]),
                         np.array([rdec]))


def test_update_scalar_textbook():
    x, P = scalar_update(rdec=0.0)
    assert abs(P[0, 0, 0] - 0.5) < 1e-15
    assert abs(x[0, 0] - 0.5) < 1e-15


def test_update_scalar_with_decoding_noise():
    _, P = scalar_update(rdec=0.04)
    assert abs(P[0, 0, 0] - 0.51) < 1e-15  # 0.5 + 0.25 * 0.04


def test_update_empty_augmentation_is_identity():
    # no channel received: the row keeps its estimate and covariance exactly
    x, P = scalar_update(rdec=0.04, received=False, x=3.0, p=2.0)
    assert x[0, 0] == 3.0 and P[0, 0, 0] == 2.0


def test_build_augmented_reduced_stack_three_tank():
    # the stacked measurement model the masked update runs on
    _, sensors = three_tank_preset()
    fusion = FusionFilter(three_tank_preset()[0], sensors)
    assert fusion.C.shape == (6, 3)
    assert np.array_equal(fusion.C[:2], sensors[0].C)
    assert np.array_equal(fusion.C[4:], sensors[2].C)
    assert np.allclose(fusion.R, np.diag([1e-4] * 6))
    assert np.array_equal(fusion.channel, [0, 0, 1, 1, 2, 2])
    codecs = [CodecParams(a=5.0, delta=0.01, s=1.0)] * 3
    # bound-mode decoding variance: s^2 delta^2 / 4 per component
    assert np.allclose(decoding_noise(sensors, codecs), [2.5e-5] * 6)
    assert np.array_equal(decoding_noise(sensors, codecs, transparent=True), np.zeros(6))


def test_build_augmented_realized_q():
    # realized q = 0.5 gives q(1-q) delta^2 s^2 = 2.5e-5 per component
    model = SystemModel(A=np.eye(2), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    sensor = SensorModel(C=np.eye(2), R=np.eye(2))
    codecs = [CodecParams(a=2.0, delta=0.01, s=1.0)]
    states = run_filter(model, [sensor], codecs, np.ones((1, 1)), [[np.zeros(2)]],
                        q_values=[[np.array([0.5, 0.5])]])
    # S = 2 I, K = I/2: P = 1 - 1/2 + 2.5e-5 / 4 on the diagonal
    assert np.allclose(states[1].P, np.diag([0.5 + 6.25e-6] * 2), rtol=0, atol=1e-15)


def test_build_augmented_missing_decode_raises():
    with pytest.raises(ValueError, match="no decoded value"):
        run_filter(scalar_model(), [scalar_sensor()], [unit_codec()], np.ones((1, 1)), [[None]])


def test_run_filter_prediction_covariance_converges_to_golden_ratio():
    model = scalar_model(a=1.0, q=1.0, p0=1.0)
    sensors = [scalar_sensor(r=1.0)]
    codecs = [unit_codec()]
    h = 100
    outcomes = np.ones((1, h), dtype=int)
    decoded = [[np.array([0.0])] for _ in range(h)]
    q_values = [[np.zeros(1)] for _ in range(h)]
    states = run_filter(model, sensors, codecs, outcomes, decoded, q_values)
    p_pred = states[-2].P[0, 0]
    assert abs(p_pred - (1 + np.sqrt(5)) / 2) < 1e-12


def test_run_filter_matches_textbook_kalman_reference():
    # independent dense implementation, stacked sensors, no drops, no encoding
    rng = np.random.default_rng(0)
    for trial in range(5):
        d = int(rng.integers(1, 4))
        a = rng.normal(0, 0.6, (d, d))
        q = rng.normal(0, 1, (d, d))
        q = q @ q.T / d + 0.1 * np.eye(d)
        p0 = np.eye(d)
        model = SystemModel(A=a, Q=q, x0_mean=np.zeros(d), P0=p0)
        n_sensors = int(rng.integers(1, 3))
        sensors = []
        for _ in range(n_sensors):
            c = rng.normal(0, 1, (1, d))
            sensors.append(SensorModel(C=c, R=[[0.5]]))
        codecs = [unit_codec()] * n_sensors
        h = 30
        outcomes = np.ones((n_sensors, h), dtype=int)
        ys = [[rng.normal(0, 1, 1) for _ in range(n_sensors)] for _ in range(h)]
        q_values = [[np.zeros(1)] * n_sensors for _ in range(h)]
        states = run_filter(model, sensors, codecs, outcomes, ys, q_values)

        # oracle
        c_stack = np.vstack([s.C for s in sensors])
        r_stack = 0.5 * np.eye(n_sensors)
        x, p = np.zeros(d), p0.copy()
        for k in range(h):
            if k > 0:
                x = a @ x
                p = a @ p @ a.T + q
            y = np.concatenate(ys[k])
            s_mat = c_stack @ p @ c_stack.T + r_stack
            k_gain = p @ c_stack.T @ np.linalg.inv(s_mat)
            x = x + k_gain @ (y - c_stack @ x)
            p = p - k_gain @ s_mat @ k_gain.T
            upd = states[2 * k + 1]
            assert np.allclose(upd.x, x, rtol=1e-9, atol=1e-12)
            assert np.allclose(upd.P, p, rtol=1e-9, atol=1e-12)


def test_reduced_form_equals_gamma_weighted_full_stack():
    # zero rows removed vs outcome-weighted stacking with pseudo-inverse
    rng = np.random.default_rng(1)
    for trial in range(25):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sensors = []
        for _ in range(m):
            dy = int(rng.integers(1, min(3, d + 1)))
            c = rng.normal(0, 1, (dy, d))
            while np.linalg.matrix_rank(c) < dy:
                c = rng.normal(0, 1, (dy, d))
            r = rng.normal(0, 1, (dy, dy))
            sensors.append(SensorModel(C=c, R=r @ r.T + 0.2 * np.eye(dy)))
        codecs = [unit_codec()] * m
        outcomes = rng.integers(0, 2, m)
        if not outcomes.any():
            continue
        p = rng.normal(0, 1, (d, d))
        p = p @ p.T + 0.3 * np.eye(d)
        x0 = rng.normal(0, 1, d)
        decoded = [rng.normal(0, 1, s.d_y) if g else None
                   for s, g in zip(sensors, outcomes)]
        fusion = FusionFilter(
            SystemModel(A=np.eye(d), Q=np.eye(d), x0_mean=np.zeros(d), P0=np.eye(d)), sensors)
        y = np.concatenate([v if v is not None else np.zeros(s.d_y)
                            for v, s in zip(decoded, sensors)])
        rx, rp = fusion.update(*one(x0, p), y[None], outcomes[None].astype(bool),
                               decoding_noise(sensors, codecs))

        # full stack with outcome-weighted rows and pinv for the singular blocks
        c_full = np.vstack([g * s.C for s, g in zip(sensors, outcomes)])
        y_full = np.concatenate([
            g * (decoded[i] if decoded[i] is not None else np.zeros(sensors[i].d_y))
            for i, (g, _s) in enumerate(zip(outcomes, sensors))])
        r_full = np.zeros((c_full.shape[0], c_full.shape[0]))
        pos = 0
        for s, g in zip(sensors, outcomes):
            r_full[pos:pos + s.d_y, pos:pos + s.d_y] = (g ** 2) * s.R
            pos += s.d_y
        s_mat = c_full @ p @ c_full.T + r_full
        k_gain = p @ c_full.T @ np.linalg.pinv(s_mat)
        x_full = x0 + k_gain @ (y_full - c_full @ x0)
        p_full = p - k_gain @ s_mat @ k_gain.T
        rdec_full = np.zeros_like(r_full)
        pos = 0
        for i, (s, g) in enumerate(zip(sensors, outcomes)):
            rdec_full[pos:pos + s.d_y, pos:pos + s.d_y] = \
                (g ** 2) * np.eye(s.d_y) * (codecs[i].s ** 2 * codecs[i].delta ** 2 / 4)
            pos += s.d_y
        p_full = p_full + k_gain @ rdec_full @ k_gain.T
        assert np.allclose(rx[0], x_full, rtol=1e-9, atol=1e-9)
        assert np.allclose(rp[0], 0.5 * (p_full + p_full.T), rtol=1e-9, atol=1e-9)


def test_covariance_stays_psd_through_random_runs():
    rng = np.random.default_rng(2)
    model = SystemModel(A=[[1.05, 0.1], [0.0, 0.9]], Q=0.1 * np.eye(2),
                        x0_mean=np.zeros(2), P0=np.eye(2))
    sensors = [SensorModel(C=[[1.0, 0.0]], R=[[0.2]]),
               SensorModel(C=[[0.0, 1.0]], R=[[0.3]])]
    codecs = [CodecParams(a=2.0, delta=0.05, s=1.0)] * 2
    h = 60
    outcomes = rng.integers(0, 2, (2, h))
    decoded = [[rng.normal(0, 1, 1) if outcomes[i, k] else None for i in range(2)]
               for k in range(h)]
    states = run_filter(model, sensors, codecs, outcomes, decoded)
    for st in states:
        eig = np.linalg.eigvalsh(st.P)
        assert eig[0] >= -1e-9 * max(1.0, np.trace(st.P))


def test_more_channels_never_increase_posterior_covariance():
    rng = np.random.default_rng(3)
    model = SystemModel(A=np.eye(3), Q=np.eye(3), x0_mean=np.zeros(3), P0=np.eye(3))
    for _ in range(30):
        d = 3
        p = rng.normal(0, 1, (d, d))
        p = p @ p.T + 0.2 * np.eye(d)
        s1 = SensorModel(C=rng.normal(0, 1, (1, d)), R=[[0.4]])
        s2 = SensorModel(C=rng.normal(0, 1, (1, d)), R=[[0.6]])
        fusion = FusionFilter(model, [s1, s2])
        y = rng.normal(0, 1, (1, 2))
        # both masks in one block: row 0 hears channel 0 only, row 1 hears both
        x2, p2 = np.zeros((2, d)), np.stack([p, p])
        _, post = fusion.update(x2, p2, np.vstack([y, y]),
                                np.array([[True, False], [True, True]]), np.zeros(2))
        eig = np.linalg.eigvalsh(post[0] - post[1])
        assert eig[0] >= -1e-9


def test_eavesdropper_run_identical_streams_identical_estimates():
    model = scalar_model(a=0.9, q=0.2)
    sensors = [scalar_sensor(r=0.5)]
    codecs = [CodecParams(a=3.0, delta=0.02, s=1.0)]
    rng = np.random.default_rng(4)
    h = 40
    outcomes = rng.integers(0, 2, (1, h))
    decoded = [[rng.normal(0, 1, 1) if outcomes[0, k] else None] for k in range(h)]
    a_states = run_filter(model, sensors, codecs, outcomes, decoded)
    b_states = run_filter(model, sensors, codecs, outcomes, decoded)
    for sa, sb in zip(a_states, b_states):
        assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.P, sb.P)


def test_ill_conditioned_innovation_raises_with_channels():
    # two channels observing the same row with vanishing noise
    model = SystemModel(A=np.eye(2), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    dup = SensorModel(C=[[1.0, 0.0]], R=[[1e-15]])
    fusion = FusionFilter(model, [dup, dup])
    # row 1 of the block is the ill-conditioned one; row 0 hears nothing
    x, P = np.zeros((2, 2)), np.stack([np.eye(2)] * 2)
    received = np.array([[False, False], [True, True]])
    with pytest.raises(ValueError, match=r"channels \(0, 1\)") as info:
        fusion.update(x, P, np.full((2, 2), 0.1), received, np.zeros(2))
    assert isinstance(info.value, ConditioningError) and info.value.row == 1


def test_conditioning_check_ignores_dropped_channels():
    # a dropped channel's R never enters the update, so it is not checked:
    # one tiny-R duplicate heard next to a dropped one, and a row that hears
    # nothing while the R values are 1e14 apart, both pass unchanged
    model = SystemModel(A=np.eye(2), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    dup = SensorModel(C=[[1.0, 0.0]], R=[[1e-15]])
    far = SensorModel(C=[[0.0, 1.0]], R=[[10.0]])
    fusion = FusionFilter(model, [dup, dup, far])
    x, P = np.zeros((2, 2)), np.stack([np.eye(2)] * 2)
    y = np.full((2, 3), 0.1)
    received = np.array([[True, False, False], [False, False, False]])
    bx, bP = fusion.update(x, P, y, received, np.zeros(3))
    rx, rp = reduced_form_update(x[0], P[0], y[0], received[0], [dup, dup, far],
                                 np.zeros(3))
    assert np.allclose(bx[0], rx) and np.allclose(bP[0], rp)
    assert np.array_equal(bx[1], x[1]) and np.array_equal(bP[1], P[1])


def test_singular_noise_sensor_dropped_on_some_steps():
    # E is 2x1, so E R E^T is singular; the sensor is fine where received
    # (S = C P C^T + E R E^T > 0) and must not trip the check where dropped
    model = SystemModel(A=[[0.9, 0.1], [0.0, 0.8]], Q=0.1 * np.eye(2),
                        x0_mean=np.zeros(2), P0=np.eye(2))
    sensors = [SensorModel(C=np.eye(2), R=[[0.5]], E=[[1.0], [1.0]]),
               SensorModel(C=[[1.0, 0.0]], R=[[0.2]])]
    codecs = [unit_codec()] * 2
    rng = np.random.default_rng(8)
    h = 30
    outcomes = rng.integers(0, 2, (2, h))
    outcomes[0, :3] = [0, 1, 0]
    decoded = [[rng.normal(0, 1, s.d_y) if outcomes[i, k] else None
                for i, s in enumerate(sensors)] for k in range(h)]
    states = run_filter(model, sensors, codecs, outcomes, decoded)
    rdec = decoding_noise(sensors, codecs)
    fusion = FusionFilter(model, sensors)
    x, p = model.x0_mean, model.P0
    for k in range(h):
        if k > 0:
            x = model.A @ x + model.B @ model.input_at(k - 1)
            p = model.A @ p @ model.A.T + model.qeff
        y = np.concatenate([decoded[k][i] if outcomes[i, k] else np.zeros(s.d_y)
                            for i, s in enumerate(sensors)])
        x, p = reduced_form_update(x, p, y, outcomes[:, k], sensors, rdec)
        assert np.allclose(states[2 * k + 1].x, x, rtol=1e-9, atol=1e-12)
        assert np.allclose(states[2 * k + 1].P, p, rtol=1e-9, atol=1e-12)
    assert fusion.R.shape == (3, 3) and np.linalg.matrix_rank(fusion.R[:2, :2]) == 1


def test_filter_trace_csv(tmp_path):
    model = scalar_model()
    sensors = [scalar_sensor()]
    codecs = [unit_codec()]
    outcomes = np.ones((1, 3), dtype=int)
    decoded = [[np.array([0.1])], [np.array([0.2])], [np.array([0.3])]]
    states = run_filter(model, sensors, codecs, outcomes, decoded)
    path = tmp_path / "trace.csv"
    filter_trace_csv(states, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,xhat_1,P_11,trace_P"
    assert len(lines) == 4


def reduced_form_update(x, p, y, received, sensors, rdec):
    """Reference: stack only the received channels, then the textbook update."""
    cols = np.cumsum([0, *(s.d_y for s in sensors)])
    keep = [i for i in range(len(sensors)) if received[i]]
    if not keep:
        return x, p
    idx = np.concatenate([np.arange(cols[i], cols[i + 1]) for i in keep])
    c = np.vstack([sensors[i].C for i in keep])
    r = np.zeros((idx.size, idx.size))
    pos = 0
    for i in keep:
        r[pos:pos + sensors[i].d_y, pos:pos + sensors[i].d_y] = sensors[i].r_eff
        pos += sensors[i].d_y
    s_mat = c @ p @ c.T + r
    gain = p @ c.T @ np.linalg.inv(s_mat)
    x = x + gain @ (y[idx] - c @ x)
    p = p - gain @ s_mat @ gain.T + gain @ np.diag(rdec[idx]) @ gain.T
    return x, 0.5 * (p + p.T)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), m=st.integers(1, 4),
       rows=st.integers(1, 5))
def test_masked_batched_update_equals_reduced_form(seed, d, m, rows):
    rng = np.random.default_rng(seed)
    sensors = []
    for _ in range(m):
        dy = int(rng.integers(1, d + 1))
        c = rng.normal(0, 1, (dy, d))
        r = rng.normal(0, 1, (dy, dy))
        sensors.append(SensorModel(C=c, R=r @ r.T + 0.3 * np.eye(dy)))
    n = sum(s.d_y for s in sensors)
    model = SystemModel(A=np.eye(d), Q=np.eye(d), x0_mean=np.zeros(d), P0=np.eye(d))
    x = rng.normal(0, 1, (rows, d))
    g = rng.normal(0, 1, (rows, d, d))
    P = g @ np.swapaxes(g, 1, 2) + 0.3 * np.eye(d)
    y = rng.normal(0, 1, (rows, n))
    received = rng.random((rows, m)) < 0.5
    rdec = rng.uniform(0, 0.1, n)
    bx, bP = FusionFilter(model, sensors).update(x, P, y, received, rdec)
    for j in range(rows):
        rx, rp = reduced_form_update(x[j], P[j], y[j], received[j], sensors, rdec)
        scale = max(1.0, float(np.abs(rp).max()))
        assert np.allclose(bx[j], rx, rtol=1e-9, atol=1e-9 * scale)
        assert np.allclose(bP[j], rp, rtol=1e-9, atol=1e-9 * scale)
