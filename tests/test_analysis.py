import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ppfe import analysis
from ppfe.analysis import (DIVERGENCE_TRACE, BoundParams, cap_gamma, capacity_condition,
                           distortion_rates, hadamard_weight, inflation_diag, iterate_bound,
                           gain_floor, noise_domination_check, mahler_entropy, riccati_map,
                           pbh_unit_circle, retention_scalar)
from ppfe.codec import CodecParams
from ppfe.harness import compute_bound, scenario_preset
from ppfe.model import SensorModel, symmetrize, three_tank_preset


def scalar_params(gamma, s=1.0, delta=None, distortion_rates=None, a=2.0):
    sensor = SensorModel(C=[[1.0]], R=[[1.0]])
    return BoundParams(A=[[a]], qeff=[[1.0]], sensors=(sensor,),
                       gamma_bar=[gamma], s=s, delta=delta, distortion_rates=distortion_rates)


def scalar_rate(sensor, sigma, delta, s):
    params = BoundParams(A=np.eye(1), qeff=np.eye(1), sensors=(sensor,),
                         gamma_bar=[0.9], s=s, delta=[delta])
    return distortion_rates(np.asarray(sigma, dtype=float), params.groups, params.delta, s)[0]


def scalar_inflation(rate, s=1.0):
    return inflation_diag(np.array([rate]), s, np.array([0]))[0]


def classical_scalar_g(x, a, q, gamma):
    return a * a * x + q - gamma * a * a * x * x / (x + 1.0)


# ---------------------------------------------------------------- distortion rate

def test_distortion_rate_vanishes_with_step():
    sensor = SensorModel(C=[[1.0]], R=[[1.0]])
    rates = [scalar_rate(sensor, np.eye(1), d, 1.0)
             for d in (0.1, 0.01, 0.001)]
    assert rates[0] > rates[1] > rates[2]
    assert rates[2] == pytest.approx(1.25e-7)


def test_distortion_rate_scalar_formula():
    sensor = SensorModel(C=[[1.0]], R=[[1.0]])
    # s^2 (delta^2/4) / lambda_min(C Sigma C^T + R) = 0.01 / 2
    assert scalar_rate(sensor, np.eye(1), 0.2, 1.0) == pytest.approx(0.005)


def test_distortion_rate_quadratic_in_s():
    sensor = SensorModel(C=[[1.0]], R=[[1.0]])
    r1 = scalar_rate(sensor, np.eye(1), 0.1, 1.0)
    r2 = scalar_rate(sensor, np.eye(1), 0.1, 2.0)
    assert r2 == pytest.approx(4.0 * r1)


def test_distortion_rate_capped_below_one():
    sensor = SensorModel(C=[[1.0]], R=[[1e-8]])
    assert scalar_rate(sensor, np.zeros((1, 1)), 1.0, 1.0) == 1.0 - 1e-6


def test_distortion_rates_group_sensors_by_output_dimension():
    # d_y 1, 2, 1: the two one-output sensors share a group but are not adjacent
    sensors = (SensorModel(C=[[1.0, 0.5, 0.0]], R=[[0.3]]),
               SensorModel(C=[[0.0, 1.0, 0.2], [0.4, 0.0, 1.0]], R=[[0.5, 0.1], [0.1, 0.4]]),
               SensorModel(C=[[0.2, 0.0, 1.0]], R=[[0.7]]))
    s = 2.0
    params = BoundParams(A=np.eye(3), qeff=np.eye(3), sensors=sensors, gamma_bar=[0.9] * 3,
                         s=s, delta=[0.3, 0.05, 0.1])
    assert [grp[0].tolist() for grp in params.groups] == [[0, 2], [1]]
    m = np.random.default_rng(11).normal(0, 1, (3, 3))
    sigma = m @ m.T + np.eye(3)

    want = [min(1.0 - 1e-6, (s * s) * (d * d / 4.0)
                / float(np.linalg.eigvalsh(sn.C @ sigma @ sn.C.T + sn.r_eff)[0]))
            for sn, d in zip(sensors, params.delta)]
    got = distortion_rates(sigma, params.groups, params.delta, s)
    assert got.tolist() == want
    assert len(set(want)) == 3

    entries = [math.sqrt(s * s * d + abs(s) * (math.sqrt(d) / abs(s))
                         + d / (abs(s) * (math.sqrt(d) / abs(s)))) for d in want]
    v = inflation_diag(got, s, params.channel)
    assert v.tolist() == [entries[0], entries[1], entries[1], entries[2]]


def test_distortion_rate_underflow_raises():
    sensor = SensorModel(C=[[1.0]], R=[[1.0]])
    with pytest.raises(ValueError, match="distortion rate must be positive"):
        scalar_rate(sensor, np.eye(1), 1e-170, 1.0)


# ---------------------------------------------------------------- V matrix

def test_v_matrix_vanishes_with_distortion():
    # with the default eta the block is sqrt(d + 2 sqrt(d)): slow but monotone to 0
    blocks = [scalar_inflation(d) for d in (1e-4, 1e-8, 1e-16)]
    assert blocks[0] > blocks[1] > blocks[2]
    assert blocks[2] < 1e-3


def test_v_matrix_block_value():
    # s=1, distortion rate 0.04, eta = sqrt(0.04)/1 = 0.2: sqrt(0.04 + 0.2 + 0.2)
    assert scalar_inflation(0.04) == pytest.approx(math.sqrt(0.44))


def test_v_matrix_equal_channels_equal_blocks():
    s1 = SensorModel(C=[[1.0, 0.0]], R=[[1.0]])
    s2 = SensorModel(C=[[0.0, 1.0]], R=[[1.0]])
    params = BoundParams(A=np.eye(2), qeff=np.eye(2), sensors=(s1, s2),
                         gamma_bar=[0.8, 0.8], s=1.0, distortion_rates=[0.04, 0.04])
    v = inflation_diag(params.distortion_rates, params.s, params.channel)
    assert v.shape == (2,) and v[0] == v[1]


def test_v_matrix_even_in_s():
    assert scalar_inflation(0.04, s=1.0) == pytest.approx(scalar_inflation(0.04, s=-1.0))


# ---------------------------------------------------------------- w scalar

def test_w_scalar_zero_v():
    c = np.array([[1.0, 0.0], [0.0, 2.0]])
    r = 0.5 * np.eye(2)
    sigma = np.eye(2)
    s_mat = c @ sigma @ c.T + r
    expect = math.sqrt(np.linalg.eigvalsh(s_mat)[0] / np.linalg.eigvalsh(s_mat)[-1])
    assert retention_scalar(sigma, c, r, np.zeros(2)) == pytest.approx(expect)


def test_w_scalar_isotropic_S_gives_one():
    assert retention_scalar(np.eye(2), np.eye(2), np.eye(2), np.zeros(2)) == pytest.approx(1.0)


def test_w_scalar_uniform_v_closed_form():
    c = np.array([[1.0, 0.3], [0.0, 1.5]])
    r = 0.2 * np.eye(2)
    sigma = np.array([[1.0, 0.1], [0.1, 0.5]])
    s_mat = c @ sigma @ c.T + r
    v = 0.6
    got = retention_scalar(sigma, c, r, np.full(2, v))
    lam = np.linalg.eigvalsh(s_mat)
    assert got == pytest.approx(math.sqrt((1 - v * v) * lam[0] / lam[-1]))


def test_w_scalar_degenerate_warns_and_returns_zero():
    # degenerate steps are counted by iterate_bound, not warned about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = retention_scalar(np.eye(1), np.eye(1), np.eye(1), np.array([1.5]))
    assert got == 0.0


# ---------------------------------------------------------------- MARE map

def test_riccati_map_at_zero_is_qeff():
    params = scalar_params(0.9)
    assert riccati_map(np.zeros((1, 1)), params, w=1.0)[0, 0] == pytest.approx(1.0)


def test_riccati_map_scalar_matches_hand_formula():
    # single channel, C=R=1, w=1: g(X) = a^2 X + Q - gamma a^2 X^2 / (X+1)
    for gamma in (0.3, 0.75, 0.9):
        params = scalar_params(gamma)
        for x in (0.0, 0.5, 1.0, 4.0, 25.0):
            got = riccati_map(np.array([[x]]), params, w=1.0)[0, 0]
            assert got == pytest.approx(classical_scalar_g(x, 2.0, 1.0, gamma), rel=1e-12)


def test_riccati_map_lossless_limit_matches_standard_riccati():
    rng = np.random.default_rng(0)
    a = np.array([[1.2, 0.1], [0.0, 0.7]])
    q = 0.3 * np.eye(2)
    s1 = SensorModel(C=[[1.0, 0.0]], R=[[0.5]])
    s2 = SensorModel(C=[[0.0, 1.0]], R=[[0.25]])
    params = BoundParams(A=a, qeff=q, sensors=(s1, s2),
                         gamma_bar=[1.0 - 1e-9, 1.0 - 1e-9], s=1.0)
    c = np.vstack([s1.C, s2.C])
    r = np.diag([0.5, 0.25])
    for _ in range(5):
        m = rng.normal(0, 1, (2, 2))
        x = m @ m.T
        got = riccati_map(x, params, w=1.0)
        s_mat = c @ x @ c.T + r
        kal = a @ x @ c.T @ np.linalg.inv(s_mat) @ c @ x @ a.T
        std = a @ x @ a.T + q - kal
        assert np.allclose(got, std, atol=1e-6)


def test_riccati_map_monotone_on_psd_order():
    rng = np.random.default_rng(1)
    s1 = SensorModel(C=rng.normal(0, 1, (2, 3)), R=np.eye(2) * 0.4)
    s2 = SensorModel(C=rng.normal(0, 1, (1, 3)), R=[[0.7]])
    params = BoundParams(A=rng.normal(0, 0.6, (3, 3)), qeff=0.2 * np.eye(3),
                         sensors=(s1, s2), gamma_bar=[0.6, 0.85], s=1.0)
    for _ in range(100):
        m = rng.normal(0, 1, (3, 3))
        x = m @ m.T
        inc = rng.normal(0, 1, (3, 3))
        y = x + inc @ inc.T
        diff = riccati_map(y, params, 0.8) - riccati_map(x, params, 0.8)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-9 * max(1.0, np.trace(y))


def test_riccati_map_concave_along_lines():
    rng = np.random.default_rng(2)
    s1 = SensorModel(C=rng.normal(0, 1, (2, 3)), R=np.eye(2) * 0.3)
    params = BoundParams(A=rng.normal(0, 0.5, (3, 3)), qeff=0.1 * np.eye(3),
                         sensors=(s1,), gamma_bar=[0.7], s=1.0)
    for _ in range(60):
        mx = rng.normal(0, 1, (3, 3))
        my = rng.normal(0, 1, (3, 3))
        x, y = mx @ mx.T, my @ my.T
        for alpha in (0.25, 0.5, 0.75):
            mid = riccati_map(alpha * x + (1 - alpha) * y, params, 0.9)
            chord = alpha * riccati_map(x, params, 0.9) + (1 - alpha) * riccati_map(y, params, 0.9)
            assert np.linalg.eigvalsh(mid - chord)[0] >= -1e-9 * max(1.0, np.trace(x + y))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
       gammas=st.lists(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=4),
       w=st.floats(0.0, 1.0))
def test_riccati_map_random_plants_match_formula(seed, d, gammas, w):
    # A X A^T + Q - A X H^T [M ∘ (H X H^T + I)]^{-1} H X A^T, with H and M
    # built here from the sensors and gamma, not read from BoundParams
    rng = np.random.default_rng(seed)
    sensors = []
    for _ in gammas:
        dy = int(rng.integers(1, min(d, 2) + 1))
        r = rng.normal(0, 1, (dy, dy))
        sensors.append(SensorModel(C=rng.normal(0, 1, (dy, d)), R=r @ r.T + 0.3 * np.eye(dy)))
    g = cap_gamma(gammas)
    a = rng.normal(0, 1, (d, d))
    mq, mx = rng.normal(0, 1, (2, d, d))
    q, x = mq @ mq.T, mx @ mx.T
    params = BoundParams(A=a, qeff=q, sensors=sensors, gamma_bar=g, s=1.0)

    blocks = []
    for sn in sensors:
        lam, u = np.linalg.eigh(sn.R)
        blocks.append(u @ np.diag(lam ** -0.5) @ u.T @ sn.C)
    h = w * np.vstack(blocks)
    ch = np.concatenate([[i] * sn.d_y for i, sn in enumerate(sensors)])
    m = np.where(ch[:, None] == ch[None, :], 1.0 / g[ch][:, None], 1.0)
    inner = m * (h @ x @ h.T + np.eye(ch.size))
    want = a @ x @ a.T + q - a @ x @ h.T @ np.linalg.inv(inner) @ h @ x @ a.T

    got = riccati_map(x, params, w=w)
    scale = np.linalg.norm(a @ x @ a.T) + np.linalg.norm(q)
    assert np.linalg.norm(got - want) <= 1e-9 * scale


def test_hadamard_weight_layout():
    w = hadamard_weight([0.5, 0.8], np.array([0, 1, 1]))
    assert w[0, 0] == pytest.approx(2.0)
    assert w[1, 1] == w[2, 2] == w[1, 2] == pytest.approx(1.25)
    assert w[0, 1] == w[0, 2] == 1.0


# ---------------------------------------------------------------- bound iteration

def test_iterate_bound_scalar_fixed_point_quadratic_formula():
    # x = 4x + 1 - 0.9*4 x^2/(x+1)  =>  0.6 x^2 - 4x - 1 = 0
    params = scalar_params(0.9, distortion_rates=[1e-12])
    seq = iterate_bound(np.array([[1.0]]), params, 4000, recompute=False, tol=1e-13)
    assert seq.converged and not seq.diverged
    root = (4.0 + math.sqrt(16.0 + 2.4)) / 1.2
    assert seq.fixed_point[0, 0] == pytest.approx(root, rel=1e-5)


def test_iterate_bound_scalar_divergence_below_threshold():
    params = scalar_params(0.5, distortion_rates=[1e-12])
    seq = iterate_bound(np.array([[1.0]]), params, 4000, recompute=False)
    assert seq.diverged and not seq.converged


def test_iterate_bound_threshold_grid():
    # classical 1 - 1/a^2 = 0.75 for a=2; the critical point itself drifts too
    # slowly to classify and is excluded
    for gamma in np.arange(0.05, 0.96, 0.05):
        if abs(gamma - 0.75) < 1e-9:
            continue
        params = scalar_params(float(gamma), distortion_rates=[1e-12])
        seq = iterate_bound(np.array([[1.0]]), params, 4000, recompute=False)
        if gamma < 0.75:
            assert seq.diverged, f"expected divergence at gamma={gamma}"
        else:
            assert seq.converged, f"expected convergence at gamma={gamma}"


def test_iterate_bound_stable_plant_converges_with_recompute():
    sensor = SensorModel(C=[[1.0, 0.0]], R=[[0.1]])
    params = BoundParams(A=[[0.8, 0.2], [0.0, 0.5]], qeff=0.05 * np.eye(2),
                         sensors=(sensor,), gamma_bar=[0.4], s=1.0, delta=[0.01])
    seq = iterate_bound(np.eye(2), params, 2000, recompute=True)
    assert seq.converged
    assert float(np.trace(seq.fixed_point)) < 1e3


def test_iterate_bound_non_finite_trace_diverges():
    # V_1 overflows when symmetrized; the next iterate is NaN and ends the iteration
    params = scalar_params(0.9, distortion_rates=[1e-12])
    with np.errstate(over="ignore", invalid="ignore"):
        seq = iterate_bound(np.array([[1e308]]), params, 50, recompute=False)
    assert seq.verdict == "diverged" and len(seq.iterates) == 2
    assert math.isnan(seq.traces[-1])


def reference_bound(v1, params, max_steps, recompute, tol):
    """The bound's per-step arithmetic before batching: per-sensor distortion
    rates, a dense inflation matrix V, two eigvalsh calls for the retention
    scalar, and the full gain solve at w = 0 too."""
    s, s_abs = params.s, abs(params.s)

    def step_w(x):
        sym = symmetrize(x)
        rates = params.distortion_rates
        if recompute:
            rates = np.array([
                min(1.0 - 1e-6, (s * s) * (d * d / 4.0)
                    / float(np.linalg.eigvalsh(sn.C @ sym @ sn.C.T + sn.r_eff)[0]))
                for sn, d in zip(params.sensors, params.delta)])
        eta = np.array([math.sqrt(d) / s_abs for d in rates])
        v_mat = np.diag(np.repeat(np.sqrt(s * s * rates + s_abs * eta + rates / (s_abs * eta)),
                                  [sn.d_y for sn in params.sensors]))
        s_mat = symmetrize(params.c_stack @ sym @ params.c_stack.T + params.r_block)
        eig_s = np.linalg.eigvalsh(s_mat)
        lam = float(np.linalg.eigvalsh(symmetrize(s_mat - v_mat @ s_mat @ v_mat))[0])
        return 0.0 if lam < 0.0 else math.sqrt(lam / float(eig_s[-1]))

    def g(x, w):
        x = symmetrize(x)
        a, h = params.A, params.whitened * w
        inner = params.weight * (h @ x @ h.T + np.eye(h.shape[0]))
        t1 = a @ x @ h.T
        return symmetrize(a @ x @ a.T + params.qeff - t1 @ np.linalg.solve(inner, t1.T))

    current = symmetrize(np.asarray(v1, dtype=float))
    iterates, degenerate, verdict = [current], 0, "max-steps"
    w = None if recompute else step_w(current)
    for _ in range(max_steps - 1):
        if recompute:
            w = step_w(current)
        degenerate += w == 0.0
        nxt = g(current, w)
        iterates.append(nxt)
        rel = np.linalg.norm(nxt - current, "fro") / max(1.0, np.linalg.norm(current, "fro"))
        current = nxt
        if not float(np.trace(current)) <= DIVERGENCE_TRACE:
            verdict = "diverged"
            break
        if rel < tol:
            verdict = "converged"
            break
    return iterates, degenerate, verdict


def outcome(run):
    try:
        return run()
    except (ValueError, ZeroDivisionError) as exc:
        return exc


def exact_steps_only():
    """Each evaluation of w covers one iterate, so `iterate_bound` runs step by step."""
    return mock.patch.object(analysis, "SPAN_MAX", 1)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4),
       gammas=st.lists(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
                       min_size=1, max_size=4),
       s=st.sampled_from([-1.0, 0.5, 1.0, 2.0]), recompute=st.booleans(),
       coarse=st.booleans(), indefinite=st.booleans(), data=st.data())
def test_iterate_bound_matches_per_sensor_reference(seed, d, gammas, s, recompute, coarse,
                                                   indefinite, data):
    # the batched step must do the old step's floating-point work bit for bit.
    # Coarse steps on a plant at the stability edge give degenerate runs longer
    # than SPAN_MAX, some of which turn to w > 0 inside a look-ahead; a drawn
    # budget can end inside one; an indefinite V_1 with a small Q can drive
    # S = C X C^T + R indefinite, sometimes inside a look-ahead
    rng = np.random.default_rng(seed)
    sensors = []
    for _ in gammas:
        dy = int(rng.integers(1, min(3, d) + 1))
        r = rng.normal(0, 1, (dy, dy))
        sensors.append(SensorModel(C=rng.normal(0, 1, (dy, d)), R=r @ r.T + 0.3 * np.eye(dy)))
    mq, mv = rng.normal(0, 1, (2, d, d))
    a = rng.normal(0, 0.8, (d, d))
    if coarse:
        a *= rng.uniform(1.0, 1.03) / np.abs(np.linalg.eigvals(a)).max()
    params = BoundParams(A=a, qeff=(mq @ mq.T + 0.01 * np.eye(d)) * (1e-3 if indefinite else 1.0),
                         sensors=sensors, gamma_bar=cap_gamma(gammas), s=s,
                         delta=10.0 ** rng.uniform(-3.0, math.log10(3.0) + 2.0 * coarse,
                                                   len(gammas)),
                         distortion_rates=rng.uniform(1e-6, 0.9, len(gammas)))
    v1 = (mv @ mv.T + np.eye(d)) * (-0.01 if indefinite else 1.0)
    max_steps = data.draw(st.integers(1, 400 if coarse else 150), label="max_steps")

    seq = outcome(lambda: iterate_bound(v1, params, max_steps, recompute=recompute))
    expected = outcome(lambda: reference_bound(v1, params, max_steps, recompute, 1e-10))
    if isinstance(seq, Exception) or isinstance(expected, Exception):
        # only an indefinite V_1 makes either raise. The reference checks the
        # sensor blocks and not the stacked S; where it raises, so must the
        # bound, with the type and message of its run with every step exact
        assert indefinite and isinstance(seq, ValueError)
        with exact_steps_only():
            exact = outcome(lambda: iterate_bound(v1, params, max_steps, recompute=recompute))
        assert (type(seq), str(seq)) == (type(exact), str(exact))
        return
    iterates, degenerate, verdict = expected
    assert (seq.verdict, len(seq.iterates), seq.degenerate_steps) == \
        (verdict, len(iterates), degenerate)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(seq.iterates, iterates))
    assert seq.traces.tobytes() == np.array([np.trace(x) for x in iterates]).tobytes()


@pytest.mark.parametrize("gap", [1e-12, -1e-12], ids=["just-short", "just-degenerate"])
def test_run_ahead_leaves_the_w_zero_run_at_a_knife_edge_step(gap):
    # a scalar plant whose w = 0 run puts v^2 = 1 - gap at iterate 99, inside
    # the evaluation of iterates 65..118 that follows 65 degenerate steps.
    # There S - V S V = S gap, so the step is degenerate exactly when gap < 0
    x = 1.0
    for _ in range(99):
        x = 1.01 * 1.01 * x + 1.0
    root_d = math.sqrt(2.0 - gap) - 1.0  # d + 2 sqrt(d) = 1 - gap
    params = scalar_params(0.9, delta=[2.0 * root_d * math.sqrt(x + 1.0)], a=1.01)
    seq = iterate_bound(np.eye(1), params, 120, recompute=True)
    iterates, degenerate, verdict = reference_bound(np.eye(1), params, 120, True, 1e-10)
    edge = iterates[99]
    v = inflation_diag(distortion_rates(edge, params.groups, params.delta, 1.0), 1.0,
                       params.channel)
    assert (retention_scalar(edge, params.c_stack, params.r_block, v) > 0.0) == (gap > 0)
    assert (seq.verdict, seq.degenerate_steps) == (verdict, degenerate)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(seq.iterates, iterates, strict=True))


def test_run_ahead_raises_at_an_indefinite_iterate():
    # the step at V_1 = -0.5 is degenerate; the next iterate -49 makes S = -48
    params = scalar_params(0.9, delta=[2.0], a=10.0)
    with pytest.raises(ValueError, match="innovation covariance must be positive definite"):
        iterate_bound(np.array([[-0.5]]), params, 50, recompute=True)


def test_run_ahead_that_raises_reevaluates_the_current_iterate_alone():
    # two sensors C_i = R_i = 1 and coarse steps on x -> 4 x + 0.01 from -0.04:
    # iterates 0 and 1 are degenerate, iterate 2 (-0.59) has positive blocks
    # 1 + x but a singular stacked S (1 + 2 x <= 0), and iterate 3 (-2.35), in
    # the same evaluation, has negative blocks. The batched call raises the
    # block message; the bound must raise iterate 2's own
    sensor = SensorModel(C=[[1.0]], R=[[1.0]])
    params = BoundParams(A=[[2.0]], qeff=[[0.01]], sensors=(sensor, sensor),
                         gamma_bar=[0.9, 0.9], s=1.0, delta=[100.0, 100.0])
    run = reference_bound(np.array([[-0.04]]), params, 3, True, 1e-10)[0]
    assert [float(x[0, 0]) for x in run] == pytest.approx([-0.04, -0.15, -0.59])
    pair = np.array([run[2], riccati_map(run[2], params, 0.0)])
    with pytest.raises(ValueError, match="^innovation covariance must be positive definite$"):
        distortion_rates(pair, params.groups, params.delta, params.s)
    with pytest.raises(ValueError, match="^stacked innovation covariance is singular$"):
        iterate_bound(np.array([[-0.04]]), params, 50, recompute=True)
    with exact_steps_only(), pytest.raises(ValueError, match="^stacked innovation covariance"):
        iterate_bound(np.array([[-0.04]]), params, 50, recompute=True)


def test_preset_bounds_do_not_depend_on_the_span():
    # A2 and A3 are outside perfbench's bound-sweep references
    for name in ("A1", "A2", "A3", "D1", "D2", "D3"):
        scenario = scenario_preset(f"three-tank-group{name}")
        batched, _ = compute_bound(scenario, max_steps=10_000)
        with exact_steps_only():
            exact, _ = compute_bound(scenario, max_steps=10_000)
        assert (batched.verdict, batched.degenerate_steps) == (exact.verdict, exact.degenerate_steps)
        assert batched.traces.tobytes() == exact.traces.tobytes()
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(batched.iterates, exact.iterates, strict=True))


def test_preset_bound_evaluates_w_in_few_batched_calls(monkeypatch):
    # A1's bound runs 1618 steps, the first 27 with w > 0: one call each for
    # those and for the first degenerate step, then 25 look-aheads of up to
    # SPAN_MAX = 64 iterates for the other 1590, the same ones on every run
    calls = []

    def spy(*args):
        calls.append(1)
        return retention_scalar(*args)

    monkeypatch.setattr(analysis, "retention_scalar", spy)
    scenario = scenario_preset("three-tank-groupA1")
    counts = []
    for _ in range(2):
        calls.clear()
        seq, _ = compute_bound(scenario, max_steps=10_000)
        assert (seq.verdict, len(seq.iterates), seq.degenerate_steps) == ("converged", 1619, 1591)
        counts.append(len(calls))
    assert counts[0] == counts[1] == 53


def test_iterate_bound_requires_matching_mode_inputs():
    params = scalar_params(0.9)  # neither delta nor distortion_rates
    with pytest.raises(ValueError):
        iterate_bound(np.eye(1), params, 10, recompute=True)
    with pytest.raises(ValueError):
        iterate_bound(np.eye(1), params, 10, recompute=False)


# ---------------------------------------------------------------- spectra and conditions

def test_mahler_entropy_examples():
    m, h = mahler_entropy(np.diag([2.0, 0.5]))
    assert m == pytest.approx(2.0) and h == pytest.approx(math.log(2.0))
    m, h = mahler_entropy(np.eye(3))
    assert m == 1.0 and h == 0.0


def test_mahler_entropy_three_tank_is_stable():
    model, _ = three_tank_preset()
    assert max(abs(np.linalg.eigvals(model.A))) < 1.0
    m, h = mahler_entropy(model.A)
    assert m == 1.0 and h == 0.0


def test_capacity_condition_three_tank():
    model, _ = three_tank_preset()
    rep = capacity_condition(model.A, [0.9, 0.95, 0.85])
    assert rep["satisfied"]
    assert rep["total_capacity"] == pytest.approx(3.5977, abs=1e-3)
    assert rep["entropy"] == 0.0


def test_capacity_condition_weak_channel_fails():
    rep = capacity_condition(np.diag([2.0, 0.5]), [0.5])
    assert not rep["satisfied"]
    assert rep["total_capacity"] == pytest.approx(-0.5 * math.log(0.5))
    assert rep["entropy"] == pytest.approx(math.log(2.0))


def test_capacity_condition_lossless_channel_always_passes():
    rep = capacity_condition(np.diag([50.0]), [1.0])
    assert rep["satisfied"] and rep["total_capacity"] == math.inf


def test_pbh_identity_noise_always_passes():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-j on the unit circle
    rep = pbh_unit_circle(rot, np.eye(2))
    assert rep["passed"] and len(rep["unit_circle_eigenvalues"]) == 2


def test_pbh_zero_noise_unit_circle_fails():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    rep = pbh_unit_circle(rot, np.zeros((2, 2)))
    assert not rep["passed"] and len(rep["failures"]) == 2


def test_pbh_three_tank_vacuous_true():
    model, _ = three_tank_preset()
    rep = pbh_unit_circle(model.A, model.qeff)
    assert rep["passed"] and rep["unit_circle_eigenvalues"] == []


# ---------------------------------------------------------------- eavesdropper gain floor

def test_kappa_bound_scalar_equality():
    kappa, margin = gain_floor(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    assert kappa == pytest.approx(0.25)
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_kappa_bound_zero_qeff_warns_vacuous():
    with pytest.warns(UserWarning):
        kappa, margin = gain_floor(np.zeros((1, 1)), np.eye(1), np.eye(1), np.eye(1))
    assert kappa == 0.0 and margin >= 0.0


def test_kappa_bound_random_instances_property():
    rng = np.random.default_rng(3)
    count = 0
    while count < 100:
        d = int(rng.integers(1, 4))
        dy = int(rng.integers(1, d + 1))
        c = rng.normal(0, 1, (dy, d))
        if np.linalg.matrix_rank(c) < dy:
            continue
        mq = rng.normal(0, 1, (d, d))
        qeff = mq @ mq.T + 0.1 * np.eye(d)
        mp = rng.normal(0, 1, (d, d))
        a = rng.normal(0, 1, (d, d))
        p_eve = a @ (mp @ mp.T) @ a.T + qeff  # prediction covariance >= Qeff
        mr = rng.normal(0, 1, (dy, dy))
        r = mr @ mr.T + 0.1 * np.eye(dy)
        kappa, margin = gain_floor(qeff, c, p_eve, r)
        assert kappa >= 0.0
        assert margin >= -1e-12 * max(1.0, kappa)
        count += 1


# ------------------------------------------------- noise-domination Monte Carlo

def test_noise_domination_three_tank_channel_one():
    model, sensors = three_tank_preset()
    codecs = [CodecParams(a=5.0, delta=0.01, s=1.0)]
    sigma = model.A @ model.P0 @ model.A.T + model.qeff
    rep = noise_domination_check(sigma, [sensors[0]], codecs, [1], 10 ** 5,
                       np.random.default_rng(4))
    assert rep.ok
    assert rep.margin_blockwise > 0.0
    assert rep.margin_stacked > 0.0


def test_noise_domination_fine_quantizer_trivial():
    sensors = [SensorModel(C=[[1.0]], R=[[1.0]])]
    codecs = [CodecParams(a=5.0, delta=1e-6, s=1.0)]
    rep = noise_domination_check(np.eye(1), sensors, codecs, [1], 2 * 10 ** 4,
                       np.random.default_rng(5))
    assert rep.ok


def test_noise_domination_negative_s_still_holds():
    sensors = [SensorModel(C=[[1.0]], R=[[1.0]])]
    codecs = [CodecParams(a=5.0, delta=0.05, s=-1.0)]
    rep = noise_domination_check(np.eye(1), sensors, codecs, [1], 10 ** 5,
                       np.random.default_rng(6))
    assert rep.ok


def test_noise_domination_rejects_small_samples():
    sensors = [SensorModel(C=[[1.0]], R=[[1.0]])]
    codecs = [CodecParams(a=5.0, delta=0.05, s=1.0)]
    with pytest.raises(ValueError):
        noise_domination_check(np.eye(1), sensors, codecs, [1], 100, np.random.default_rng(7))


# ---------------------------------------------------------------- parameter validation

def test_bound_params_validation():
    sensor = SensorModel(C=[[1.0]], R=[[1.0]])
    with pytest.raises(ValueError):
        BoundParams(A=np.eye(1), qeff=np.eye(1), sensors=(sensor,),
                    gamma_bar=[1.0], s=1.0)  # must cap first
    with pytest.raises(ValueError):
        BoundParams(A=np.eye(1), qeff=np.eye(1), sensors=(sensor,),
                    gamma_bar=[0.5], s=0.0)
    with pytest.raises(ValueError):
        BoundParams(A=np.eye(1), qeff=np.eye(1), sensors=(sensor,),
                    gamma_bar=[0.5], s=1.0, distortion_rates=[1.5])
    with pytest.raises(ValueError, match="delta must have one entry per sensor"):
        BoundParams(A=np.eye(1), qeff=np.eye(1), sensors=(sensor,),
                    gamma_bar=[0.5], s=1.0, delta=[0.01, 0.5, 7.0])
    with pytest.raises(ValueError, match="distortion_rates must have one entry per sensor"):
        BoundParams(A=np.eye(1), qeff=np.eye(1), sensors=(sensor, sensor),
                    gamma_bar=[0.5, 0.5], s=1.0, distortion_rates=[0.01])
    plain = SensorModel(C=[[1.0, 0.0]], R=[[1.0]])
    singular = SensorModel(C=np.eye(2), R=[[0.5]], E=[[1.0], [1.0]])  # E R E^T has rank 1
    with pytest.raises(ValueError, match="sensor 1: effective noise"):
        BoundParams(A=np.eye(2), qeff=np.eye(2), sensors=(plain, singular),
                    gamma_bar=[0.5, 0.5], s=1.0)
    base = dict(A=np.eye(1), qeff=np.eye(1), sensors=(sensor,), gamma_bar=[0.5], s=1.0)
    for bad in ({"gamma_bar": [math.nan]}, {"s": math.nan}, {"s": math.inf},
                {"delta": [math.nan]}, {"delta": [math.inf]}, {"delta": [-0.1]}, {"delta": [0.0]},
                {"distortion_rates": [math.nan]}, {"A": [[math.inf]]}, {"qeff": [[math.nan]]}):
        with pytest.raises(ValueError):
            BoundParams(**{**base, **bad})
    capped = cap_gamma([1.0, 0.3])
    assert capped[0] == pytest.approx(1.0 - 1e-9) and capped[1] == 0.3
