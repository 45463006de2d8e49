import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ppfe.analysis import BoundParams
from ppfe.codec import CodecParams
from ppfe.estimator import FusionFilter, decoding_noise, run_filter
from ppfe.harness import run_block, scenario_from_dict
from ppfe.model import SensorModel, SystemModel, three_tank_preset, whitened_stack


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
    # each sensor's rows R_i^{-1/2} C_i, in sensor order; R_i = 1e-4 I whitens to 100 C_i
    assert fusion.cw.shape == (6, 3)
    assert np.array_equal(fusion.cw[:2], whitened_stack(sensors[:1])[0])
    assert np.array_equal(fusion.cw[4:], whitened_stack(sensors[2:])[0])
    assert np.allclose(fusion.cw, 100.0 * np.vstack([sn.C for sn in sensors]))
    assert np.array_equal(fusion.channel, [0, 0, 1, 1, 2, 2])
    codecs = [CodecParams(a=5.0, delta=0.01, s=1.0)] * 3
    # bound-mode decoding variance: s^2 delta^2 / 4 per component
    assert np.allclose(decoding_noise(codecs, fusion.channel), [2.5e-5] * 6)
    assert np.array_equal(decoding_noise(codecs, fusion.channel, transparent=True), np.zeros(6))


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
                               decoding_noise(codecs, fusion.channel))

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


def test_near_duplicate_sensors_update_to_finite_symmetric_covariance():
    # two channels observe the same state with R = 1e-15 each: together one
    # measurement of variance r / 2, so the posterior of that state is known in
    # closed form; the whitened scalar steps have innovation variances >= 1 and
    # need no conditioning check
    r = 1e-15
    model = SystemModel(A=np.eye(2), Q=np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    dup = SensorModel(C=[[1.0, 0.0]], R=[[r]])
    fusion = FusionFilter(model, [dup, dup])
    # row 1 of the block hears both channels; row 0 hears nothing
    x, P = np.zeros((2, 2)), np.stack([np.eye(2)] * 2)
    received = np.array([[False, False], [True, True]])
    bx, bP = fusion.update(x, P, np.full((2, 2), 0.1), received, np.zeros(2))
    assert np.isfinite(bP).all() and np.array_equal(bP, np.swapaxes(bP, 1, 2))
    p00 = 1.0 / (1.0 + 2.0 / r)
    # the reference: x_0 = p00 (2 * 0.1 / r), P = diag(p00, 1); the update is exact
    # up to rounding at the scale of the prior, |P| = 1
    np.testing.assert_allclose(bP[1], np.diag([p00, 1.0]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(bx[1], [p00 * 0.2 / r, 0.0], rtol=1e-12, atol=0)
    assert np.array_equal(bx[0], x[0]) and np.array_equal(bP[0], P[0])


def test_conditioning_check_ignores_dropped_channels():
    # a dropped channel's rows get zero gain, so its R never enters the update:
    # one tiny-R duplicate heard next to a dropped one matches the reduced form,
    # and a row that hears nothing while the R values are 1e16 apart passes
    # unchanged
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


def assert_cannot_whiten(sensor):
    """With `sensor` as sensor 1, building the filter, running it and building the
    bound's parameters fail and name the sensor, whether or not a step would
    receive it."""
    model = SystemModel(A=[[0.9, 0.1], [0.0, 0.8]], Q=0.1 * np.eye(2),
                        x0_mean=np.zeros(2), P0=np.eye(2))
    sensors = [SensorModel(C=[[1.0, 0.0]], R=[[0.2]]), sensor]
    want = re.escape("sensor 1: effective noise E R E^T must be positive definite")
    with pytest.raises(ValueError, match=want):
        FusionFilter(model, sensors)
    h = 5
    outcomes = np.array([[1] * h, [0, 1, 0, 0, 0]])
    decoded = [[np.zeros(s.d_y) if outcomes[i, k] else None for i, s in enumerate(sensors)]
               for k in range(h)]
    with pytest.raises(ValueError, match=want):
        run_filter(model, sensors, [unit_codec()] * 2, outcomes, decoded)
    with pytest.raises(ValueError, match=want):
        BoundParams(A=model.A, qeff=model.qeff, sensors=sensors, gamma_bar=[0.9, 0.9], s=1.0,
                    delta=[0.01, 0.01])


def test_singular_noise_sensor_dropped_on_some_steps():
    # E is 2x1, so E R E^T has rank 1 and cannot be whitened: a fault when the
    # filter is built, even though the sensor is dropped on most steps
    assert_cannot_whiten(SensorModel(C=np.eye(2), R=[[0.5]], E=[[1.0], [1.0]]))


def test_noise_free_sensor_is_a_construction_fault():
    # E = 0: E R E^T is the zero matrix
    assert_cannot_whiten(SensorModel(C=[[1.0, 0.0]], R=[[1.0]], E=[[0.0]]))


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




def whitened_scales(sensors, P, x, y, received):
    """Over the received sensors r, with C~ = R_r^{-1/2} C_r the whitened stack
    and S~ = C~ P C~^T + I the whitened innovation covariance: lambda, the
    largest eigenvalue of S~ (its least is at least 1), and
    ||P||_2 ||C~||_F sqrt(e^T S~^-1 e), e = R_r^{-1/2} y_r - C~ x the whitened
    innovation; (1, 0) when none is received."""
    heard = np.flatnonzero(received)
    if not heard.size:
        return 1.0, 0.0
    cw, white = whitened_stack([sensors[i] for i in heard])
    cols = np.cumsum([0, *(s.d_y for s in sensors)])
    e = white @ np.concatenate([y[cols[i]:cols[i + 1]] for i in heard]) - cw @ x
    mu, v = np.linalg.eigh(cw @ P @ cw.T)
    chi2 = np.sum((v.T @ e) ** 2 / (1.0 + np.maximum(mu, 0.0)))
    return 1.0 + float(mu[-1]), float(np.linalg.norm(P, 2) * np.linalg.norm(cw) * np.sqrt(chi2))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), m=st.integers(1, 4),
       rows=st.integers(1, 5), r_scale=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12, 1e-15]),
       p_scale=st.sampled_from([1e-6, 1.0, 1e6]))
@example(seed=651, d=2, m=2, rows=2, r_scale=1.0, p_scale=1e6)
def test_sequential_update_matches_covariance_form_at_any_scale(seed, d, m, rows, r_scale,
                                                               p_scale):
    # positive-definite sensors at noise scales down to 1e-15, priors singular
    # before the prediction: every row updates to a finite, exactly symmetric P.
    # Rounding of the whitened steps, to first order in eps: step j (row c_j,
    # with the prior P_j <= P of the steps before it) subtracts k pc^T, which
    # lies between 0 and P_j, so it leaves an error of about eps ||P|| in P.
    # The steps after it carry that into x as dP c_j n_j / a_j, with
    # n_j = y~_j - c_j^T x_j the step's innovation and a_j = c_j^T P_j c_j + 1
    # >= 1 its variance. By Cauchy-Schwarz, and sum_j n_j^2 / a_j = e^T S~^-1 e
    # (the steps factor S~), the sum over the steps is at most
    # eps ||P||_2 ||C~||_F sqrt(e^T S~^-1 e). The cancellation in P -= k pc^T
    # adds eps lambda of the estimate's scale (lambda: the prior against the
    # noise). The covariance form K = P C^T S^-1 carries the same P C^T into the
    # same innovation, so a row with lambda <= 1e8 matches it within 5e-14 of
    # the sum of the two scales (measured on 26 828 random rows: at most
    # 4.3 eps = 9.5e-16 of it). Row 1 of the pinned example has P of 6.2e6
    # along a direction its one heard sensor barely sees (lambda = 756). Exact
    # rational arithmetic puts the filter's x off by 1.05e-9 and the covariance
    # form's by 3.2e-10, 1.3 and 0.4 eps of the sum, where eps lambda of the
    # estimate's scale alone is 2.7e-12
    rng = np.random.default_rng(seed)
    sensors = []
    for _ in range(m):
        dy = int(rng.integers(1, d + 1))
        r = rng.normal(0, 1, (dy, dy))
        sensors.append(SensorModel(C=rng.normal(0, 1, (dy, d)),
                                   R=r_scale * (r @ r.T + 0.1 * np.eye(dy))))
    model = SystemModel(A=rng.normal(0, 1, (d, d)), Q=np.eye(d), x0_mean=np.zeros(d),
                        P0=np.eye(d))
    g = rng.normal(0, 1, (rows, d, int(rng.integers(1, d + 1))))   # P may be singular
    P = p_scale * g @ np.swapaxes(g, 1, 2)
    x = rng.normal(0, 1, (rows, d))
    n = sum(s.d_y for s in sensors)
    y, rdec = rng.normal(0, 1, (rows, n)), rng.uniform(0, 0.1, n)
    received = rng.random((rows, m)) < 0.6
    fusion = FusionFilter(model, sensors)
    x, P = fusion.predict(x, P, np.zeros(d))
    bx, bP = fusion.update(x, P, y, received, rdec)
    assert np.isfinite(bx).all() and np.isfinite(bP).all()
    assert np.array_equal(bP, np.swapaxes(bP, 1, 2))
    for j in range(rows):
        peak, carried = whitened_scales(sensors, P[j], x[j], y[j], received[j])
        if peak > 1e8:
            continue
        rx, rp = reduced_form_update(x[j], P[j], y[j], received[j], sensors, rdec)
        tol = 5e-14 * peak
        assert np.abs(bP[j] - rp).max() <= tol * max(np.abs(P[j]).max(), np.abs(rp).max())
        assert np.abs(bx[j] - rx).max() <= \
            5e-14 * (peak * (np.abs(x[j]).max() + np.abs(rx).max()) + carried)


def random_plant(rng, d, m):
    """A random plant with `m` positive-definite sensors of up to three outputs, each
    with noise entering through a random E of full row rank."""
    a = rng.normal(0, 1, (d, d))
    a *= rng.uniform(0.5, 1.1) / max(np.abs(np.linalg.eigvals(a)).max(), 1e-9)
    q = rng.normal(0, 1, (d, d))
    sensors = []
    for _ in range(m):
        dy = int(rng.integers(1, min(d, 3) + 1))
        dv = dy + int(rng.integers(0, 2))
        r = rng.normal(0, 1, (dv, dv))
        e = np.eye(dy, dv) + 0.3 * rng.normal(0, 1, (dy, dv))
        sensors.append(SensorModel(C=rng.normal(0, 1, (dy, d)), E=e, R=r @ r.T + 0.2 * np.eye(dv)))
    model = SystemModel(A=a, Q=q @ q.T / d + 0.05 * np.eye(d), x0_mean=rng.normal(0, 1, d),
                        P0=np.eye(d))
    return model, sensors


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), m=st.integers(1, 4))
def test_sequential_filter_tracks_covariance_form_on_random_plants(seed, d, m):
    # 25 steps of predict and update on 4 rows of a random plant, with random
    # receptions and a random decoding-noise variance per row and output: every
    # step matches the covariance-form recursion, K = P C^T S^-1, within 1e-9 of
    # the scale of the estimate and of the covariance
    rng = np.random.default_rng(seed)
    model, sensors = random_plant(rng, d, m)
    fusion = FusionFilter(model, sensors)
    rows, n = 4, sum(s.d_y for s in sensors)
    rdec = rng.uniform(0, 0.1, (rows, n))
    x, P = np.repeat(model.x0_mean[None], rows, axis=0), np.repeat(model.P0[None], rows, axis=0)
    ref = [(model.x0_mean, model.P0)] * rows
    for k in range(25):
        if k > 0:
            x, P = fusion.predict(x, P, np.zeros(d))
            ref = [(model.A @ rx, model.A @ rp @ model.A.T + model.qeff) for rx, rp in ref]
            for j, (rx, rp) in enumerate(ref):
                assert np.allclose(P[j], rp, rtol=0, atol=1e-9 * np.abs(rp).max())
        y = rng.normal(0, 1, (rows, n))
        received = rng.random((rows, m)) < 0.7
        x, P = fusion.update(x, P, y, received, rdec)
        ref = [reduced_form_update(rx, rp, y[j], received[j], sensors, rdec[j])
               for j, (rx, rp) in enumerate(ref)]
        for j, (rx, rp) in enumerate(ref):
            assert np.allclose(x[j], rx, rtol=0, atol=1e-9 * max(1.0, np.abs(rx).max()))
            assert np.allclose(P[j], rp, rtol=0, atol=1e-9 * np.abs(rp).max())


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), m=st.integers(1, 4),
       shared=st.booleans())
def test_update_and_predict_do_not_depend_on_the_stack(seed, d, m, shared):
    # every row's update and prediction is byte-equal whether its stack holds 42
    # rows or 2, 3 or 7. The whitening and the prediction are 2-d matmuls over the
    # stack, which BLAS computes in tiles whose edge kernels could round
    # differently, and outputs that are byte-identical at any --workers rest on this
    rng = np.random.default_rng(seed)
    model, sensors = random_plant(rng, d, m)
    fusion = FusionFilter(model, sensors)
    rows, n = 42, sum(s.d_y for s in sensors)
    x = rng.normal(0, 1, (rows, d))
    g = rng.normal(0, 1, (rows, d, d))
    P = g @ np.swapaxes(g, 1, 2) + 0.1 * np.eye(d)
    y = rng.normal(0, 1, (rows, n))
    received = rng.random((rows, m)) < 0.7
    rdec = rng.uniform(0, 0.1, n if shared else (rows, n))
    bu = rng.normal(0, 1, d)
    whole = (*fusion.update(x, P, y, received, rdec), *fusion.predict(x, P, bu))
    for size in (2, 3, 7):
        parts = [(*fusion.update(x[lo:lo + size], P[lo:lo + size], y[lo:lo + size],
                                 received[lo:lo + size], rdec if shared else rdec[lo:lo + size]),
                  *fusion.predict(x[lo:lo + size], P[lo:lo + size], bu))
                 for lo in range(0, rows, size)]
        for name, want, got in zip(("x", "P", "x_pred", "P_pred"), whole, zip(*parts)):
            assert np.concatenate(got).tobytes() == want.tobytes(), (size, name)


@pytest.mark.parametrize("cfg", [
    {"preset": "three-tank-groupA1"},
    json.loads((Path(__file__).parents[1] / "perfbench/scenarios/nogrowth.json").read_text()),
], ids=["A1", "nogrowth"])
def test_preset_blocks_need_no_eigenvalues(monkeypatch, cfg):
    # once built, the filter calls no np.linalg function: its steps of these runs
    # take no eigenvalues, no solve and no factorization
    calls, inside, steps = [], [], []

    def watch(name, fn):
        def spy(*args, **kwargs):
            if inside:
                calls.append(name)
            return fn(*args, **kwargs)
        return spy

    def step(method):
        def spy(self, *args):
            inside.append(method.__name__)
            steps.append(method.__name__)
            try:
                return method(self, *args)
            finally:
                inside.pop()
        return spy

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, watch(name, fn))
    for method in (FusionFilter.predict, FusionFilter.update):
        monkeypatch.setattr(FusionFilter, method.__name__, step(method))
    sc = scenario_from_dict({**cfg, "trials": 16, "seed": 3, "horizon": 50})
    run_block(sc, 0, 16)
    assert calls == []
    assert steps.count("update") == 50 and steps.count("predict") == 49
