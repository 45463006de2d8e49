import json
import math
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ppfe import harness
from ppfe.channel import sample_outcomes
from ppfe.codec import (CodecOverflowError, CodecParams, ack, bootstrap_state, decode,
                        eavesdrop_decode, encode, growth_factors)
from ppfe.estimator import run_filter
from ppfe.harness import (EVE_SATURATION, Scenario, build_worst_case, compute_bound,
                          detect_critical_events, run_block, run_monte_carlo,
                          fmt17, scenario_from_dict, scenario_preset, secrecy_report,
                          write_events_csv, write_mse_csv)
from ppfe.model import SensorModel, SystemModel, simulate_plant
from ppfe.rng import substream


def scalar_scenario(**kw):
    model = SystemModel(A=[[0.9]], Q=[[0.04]], x0_mean=[0.0], P0=[[1.0]])
    sensors = (SensorModel(C=[[1.0]], R=[[0.09]]),)
    base = dict(model=model, sensors=sensors, gamma_bar=[0.9], gamma_bar_eve=[0.8],
                a=[2.0], delta=[0.01], s=1.0, horizon=30, trials=4, seed=123)
    base.update(kw)
    return Scenario(**base)


def run_trial(sc, trial):
    """Per-trial view of a one-trial block."""
    block = run_block(sc, trial, trial + 1)
    return SimpleNamespace(legit_sq=block.legit_sq[0], pred_sq=block.pred_sq[0],
                           eve_err=block.eve_err[0],
                           events=block.events[:, 1:],
                           diverged=bool(block.eve_saturated_at[0] < sc.horizon))


# ---------------------------------------------------------------- events

def trial_events(auth, wire):
    """(channel, k_bar, worst_case) rows of one trial's (M, H) reception bits."""
    return detect_critical_events(np.array([auth]), np.array([wire]))[:, 1:].tolist()


def reference_events(auth, wire):
    """Per-trace loop over (B, M, H) masks: (trial, channel, k_bar, worst_case)."""
    b, m, h = auth.shape
    return [[t, i, k, int(wire[t, i, k + 1:].all())] for t in range(b) for i in range(m)
            for k in range(h) if auth[t, i, k] and not wire[t, i, k]]


def test_detect_critical_events_basic():
    assert trial_events([[1, 1, 1]], [[1, 0, 1]]) == [[0, 1, 1]]


def test_detect_no_events_when_wiretap_lossless():
    assert trial_events([[1, 1, 1]], [[1, 1, 1]]) == []


def test_detect_requires_authorized_success():
    assert trial_events([[0, 0, 0]], [[0, 0, 0]]) == []


def test_detect_worst_case_flag_false_on_later_miss():
    events = trial_events([[1, 1, 1, 1]], [[0, 1, 0, 1]])
    assert [0, 0, 0] in events and [0, 2, 1] in events


@settings(max_examples=50, deadline=None)
@given(data=st.data(), b=st.integers(1, 5), m=st.integers(1, 4), h=st.integers(1, 40),
       last=st.booleans())
def test_detect_critical_events_matches_reference_loop(data, b, m, h, last):
    auth = data.draw(arrays(bool, (b, m, h)))
    wire = data.draw(arrays(bool, (b, m, h)))
    if last:
        # an event at the last step is vacuously worst-case
        auth[-1, -1, -1], wire[-1, -1, -1] = True, False
    events = detect_critical_events(auth, wire)
    assert events.dtype.kind == "i" and events.ndim == 2 and events.shape[1] == 4
    assert events.tolist() == reference_events(auth, wire)
    if last:
        assert events[-1].tolist() == [b - 1, m - 1, h - 1, 1]


def test_build_worst_case_shape_and_roundtrip():
    trace = build_worst_case(1, 5, channel=0, k_bar=2)
    assert trace.shape == (2, 1, 5) and trace.dtype == bool
    auth, wire = trace
    assert np.array_equal(wire[0], [1, 1, 0, 1, 1])
    assert auth.all()
    assert trial_events(auth, wire) == [[0, 2, 1]]
    boundary = build_worst_case(2, 4, channel=1, k_bar=0)
    assert boundary[1, 1, 0] == 0 and boundary[1, 1, 1:].all()
    with pytest.raises(ValueError):
        build_worst_case(1, 5, channel=0, k_bar=5)


# ---------------------------------------------------------------- single trials

def sq_norms(err):
    """Squared norms of (..., H, d_x) error vectors, by the block's own reduction."""
    return np.einsum("...d,...d->...", err, err)


def test_trial_transparent_no_drops_equal_views():
    override = (np.ones((1, 30), dtype=int), np.ones((1, 30), dtype=int))
    sc = scalar_scenario(outcome_override=override, transparent_quantizer=True,
                         trials=1)
    res = run_trial(sc, 0)
    assert not res.diverged
    # the block returns the legitimate errors as squared norms only
    assert sq_norms(res.eve_err).tobytes() == res.legit_sq.tobytes()


def test_trial_worst_case_growth_factor():
    k_bar = 3
    override = build_worst_case(1, 28, channel=0, k_bar=k_bar)
    sc = scalar_scenario(outcome_override=override, a=[5.0], horizon=28, trials=1)
    res = run_trial(sc, 0)
    # decode-error driven estimate divergence at factor ~a per step
    norms = np.linalg.norm(res.eve_err, axis=1)
    ratios = norms[k_bar + 4:20] / norms[k_bar + 3:19]
    assert np.all(np.abs(ratios - 5.0) < 0.05 * 5.0)


def test_trial_determinism():
    sc = scalar_scenario()
    a = run_trial(sc, 2)
    b = run_trial(sc, 2)
    assert a.legit_sq.tobytes() == b.legit_sq.tobytes()
    assert a.eve_err.tobytes() == b.eve_err.tobytes()
    assert np.array_equal(a.events, b.events)


def test_eve_equals_legit_null_test():
    # wiretap trace identical to the authorized trace: identical estimates
    rng_trace = (np.random.default_rng(5).random((1, 40)) < 0.8).astype(int)
    override = (rng_trace, rng_trace)
    sc = scalar_scenario(outcome_override=override, horizon=40, trials=1)
    res = run_trial(sc, 0)
    assert not res.diverged
    assert sq_norms(res.eve_err).tobytes() == res.legit_sq.tobytes()
    # so the eavesdropper's vectors are the legitimate errors of the per-trial reference
    states, legit_err, _sat, _eve_err = reference_trial(sc, 0)
    np.testing.assert_allclose(res.eve_err, legit_err, rtol=1e-12,
                               atol=1e-12 * np.abs(states).max())


def test_trial_stable_encoding_keeps_eavesdropper_close():
    # a < 1: decode errors decay, no divergence over the run
    sc = scalar_scenario(a=[0.5], horizon=200, trials=1, seed=9)
    res = run_trial(sc, 0)
    assert not res.diverged
    legit_mse = res.legit_sq[100:].mean()
    eve_mse = (res.eve_err ** 2).sum(axis=1)[100:].mean()
    assert eve_mse < 10.0 * legit_mse


def test_transparent_eavesdropper_decodes_without_noise():
    # transparent mode: the eavesdropper's filter carries no decoding noise on any
    # heard channel, also at steps the legitimate receiver dropped; the reference
    # is the single-channel codec API driving the one-trial filter
    rng = np.random.default_rng(11)
    auth = (rng.random((1, 30)) < 0.6).astype(int)
    wire = auth | (rng.random((1, 30)) < 0.6).astype(int)
    assert (wire & (1 - auth)).any()
    sc = scalar_scenario(outcome_override=(auth, wire), a=[1.1],
                         delta=[0.5], transparent_quantizer=True, trials=1)
    res = run_trial(sc, 0)
    traj = simulate_plant(sc.model, sc.sensors, sc.horizon, substream(sc.seed, "plant", 0))
    codec = sc.codecs[0]
    legit, eve = bootstrap_state(1), bootstrap_state(1)
    decoded = []
    for k in range(sc.horizon):
        z = encode(legit, codec, traj.measurements[0][k], k, None, transparent=True).z
        ybar_eve = None
        if wire[0, k]:
            ybar_eve, eve = eavesdrop_decode(eve, codec, z, k)
        if auth[0, k]:
            legit = decode(legit, codec, z, k)[1]
        decoded.append([ybar_eve])
    zero_q = [[np.zeros(1)] for _ in range(sc.horizon)]
    exact = run_filter(sc.model, sc.sensors, sc.codecs, wire, decoded, zero_q)
    assert not res.diverged
    assert np.allclose(res.eve_err, traj.states[:sc.horizon] - exact.x[1::2],
                       rtol=1e-12, atol=1e-12)
    noisy = run_filter(sc.model, sc.sensors, sc.codecs, wire, decoded)
    assert not np.allclose(res.eve_err, traj.states[:sc.horizon] - noisy.x[1::2],
                           rtol=1e-6, atol=1e-6)


def reference_trial(sc, trial):
    """Per-trial reference of `run_block` for both parties: the single-channel codec
    API (encoder acknowledged by the legitimate decoder, eavesdropper decoding the
    same packets) and the one-trial filter over each party's reception trace.
    Returns the states, the legitimate errors, the eavesdropper's saturation step
    and its errors before that step."""
    traj = simulate_plant(sc.model, sc.sensors, sc.horizon, substream(sc.seed, "plant", trial))
    if sc.outcome_override is None:
        auth, wire = sample_outcomes(sc.gamma_bar, sc.gamma_bar_eve, sc.horizon,
                                     [substream(sc.seed, "channel", trial)])[:, 0]
    else:
        auth, wire = sc.outcome_override
    rng = substream(sc.seed, "quantizer", trial)
    enc = [bootstrap_state(sn.d_y) for sn in sc.sensors]
    legit, eve = list(enc), list(enc)
    legit_dec, eve_dec = [], []
    sat = sc.horizon
    for k in range(sc.horizon):
        legit_dec.append([None] * len(sc.sensors))
        eve_dec.append([None] * len(sc.sensors))
        for i, codec in enumerate(sc.codecs):
            y = traj.measurements[i][k]
            z = encode(enc[i], codec, y, k, rng).z
            if wire[i, k] and sat == sc.horizon:
                # "legit-time": the overheard ACK time before this step, own reference value
                src = eve[i] if sc.eve_reference_policy == "own" else replace(
                    eve[i], t_ref=legit[i].t_ref)
                try:
                    ybar, eve[i] = eavesdrop_decode(src, codec, z, k)
                except CodecOverflowError:
                    sat = k
                else:
                    eve_dec[k][i] = ybar
                    if not np.abs(ybar - y).max() <= EVE_SATURATION:
                        sat = k
            if auth[i, k]:
                legit_dec[k][i], legit[i] = decode(legit[i], codec, z, k)
                enc[i] = ack(enc[i], legit_dec[k][i], k)
    states = traj.states[:sc.horizon]
    legit_x = run_filter(sc.model, sc.sensors, sc.codecs, auth, legit_dec).x[1::2]
    eve_x = run_filter(sc.model, sc.sensors, sc.codecs, wire[:, :sat], eve_dec[:sat]).x[1::2]
    eve_err = states[:sat] - eve_x
    # the filter can blow up before a decode does
    blown = np.flatnonzero(np.linalg.norm(eve_err, axis=1) > EVE_SATURATION)
    if blown.size:
        sat = int(blown[0])
    return states, states - legit_x, sat, eve_err[:sat]


def legit_view(sc, trial):
    """A one-trial block of `trial` whose wiretap trace is its authorized one: its
    eavesdropper row is then its legitimate row, so the returned eavesdropper
    vectors carry the legitimate errors, whose squared norms are the bytes of
    `legit_sq`."""
    if sc.outcome_override is None:
        auth = sample_outcomes(sc.gamma_bar, sc.gamma_bar_eve, sc.horizon,
                               [substream(sc.seed, "channel", trial)])[0, 0]
    else:
        auth = sc.outcome_override[0]
    view = run_block(replace(sc, outcome_override=np.stack([auth, auth])), trial, trial + 1)
    assert view.eve_saturated_at[0] == sc.horizon
    assert sq_norms(view.eve_err[0]).tobytes() == view.legit_sq[0].tobytes()
    return view


@pytest.mark.parametrize("policy", ["own", "legit-time"])
@pytest.mark.parametrize("a", [(0.5, 0.5, 5.0), (0.5, 0.5, 0.5)], ids=["A1", "nogrowth"])
def test_block_matches_per_trial_reference_for_both_parties(a, policy):
    # three quantized channels with drops on both links; on A1 the block's
    # eavesdroppers saturate at different steps, on nogrowth never
    sc = replace(scenario_preset("three-tank-groupA1", seed=11, horizon=60, trials=6),
                 a=np.array(a), eve_reference_policy=policy)
    block = run_block(sc, 0, sc.trials)
    saturated = block.eve_saturated_at
    if a[2] > 1.0:
        assert (saturated < sc.horizon).all() and len(set(saturated.tolist())) > 3
    else:
        assert (saturated == sc.horizon).all()
    for t in range(sc.trials):
        states, legit_err, sat, eve_err = reference_trial(sc, t)
        assert saturated[t] == sat
        # an error is a difference of two estimates, so small ones are compared
        # relative to the state's magnitude (the rounding of either estimate)
        tol = dict(rtol=1e-12, atol=1e-12 * np.abs(states).max())
        view = legit_view(sc, t)
        assert view.legit_sq[0].tobytes() == block.legit_sq[t].tobytes()
        np.testing.assert_allclose(view.eve_err[0], legit_err, **tol)
        np.testing.assert_allclose(block.eve_err[t, :sat], eve_err, **tol)
        assert (block.eve_err[t, sat:] == 0.0).all()


def test_eavesdropper_filter_blow_up_saturates():
    # the wiretap delivers nothing, so no decode can trip: the eavesdropper's
    # open-loop prediction of an unstable plant saturates on the filter check
    h = 70
    override = (np.ones((1, h), dtype=int), np.zeros((1, h), dtype=int))
    model = SystemModel(A=[[2.0]], Q=[[0.04]], x0_mean=[0.0], P0=[[1.0]])
    sc = scalar_scenario(model=model, outcome_override=override, horizon=h, trials=3)
    block = run_block(sc, 0, sc.trials)
    for t in range(sc.trials):
        _states, _legit, sat, eve_err = reference_trial(sc, t)
        assert sat < h and block.eve_saturated_at[t] == sat
        np.testing.assert_allclose(block.eve_err[t, :sat], eve_err, rtol=1e-12)
        assert (block.eve_err[t, sat:] == 0.0).all()


def test_block_matches_reference_when_eavesdroppers_die_by_growth_overflow():
    # channel 2 grows by a = 1e10, its authorized link always delivers and its
    # wiretap rarely hears. An eavesdropper hears its first packet there off by
    # about 1e10 |y| ~ 1e9, under the decode check. If its next packet comes 30 or
    # more steps later (30 ln a > 690), the growth overflows and the factor is set
    # to 1, so the decode is again off by only about 1e9: the overflow alone
    # saturates it. One that hears sooner saturates on its decode error instead
    a = 1e10
    sc = replace(scenario_preset("three-tank-groupA1", seed=7, horizon=100, trials=8),
                 a=np.array([0.5, 0.5, a]), gamma_bar=np.array([0.9, 0.95, 1.0]),
                 gamma_bar_eve=np.array([0.9, 0.85, 0.05]))
    block = run_block(sc, 0, sc.trials)
    wire = sample_outcomes(sc.gamma_bar, sc.gamma_bar_eve, sc.horizon,
                           [substream(sc.seed, "channel", t) for t in range(sc.trials)])[1, :, 2]
    by_overflow = []
    for t in range(sc.trials):
        states, _legit, sat, eve_err = reference_trial(sc, t)
        assert block.eve_saturated_at[t] == sat < sc.horizon
        heard = np.flatnonzero(wire[t, :sat + 1])
        if heard.size > 1 and heard[-1] == sat and growth_factors(a, sat - heard[-2], True)[1]:
            by_overflow.append(sat)
        # the estimates reach about 1e9, so they are compared at their own scale
        tol = dict(rtol=1e-12, atol=1e-12 * max(np.abs(states).max(), np.abs(eve_err).max()))
        np.testing.assert_allclose(block.eve_err[t, :sat], eve_err, **tol)
        assert (block.eve_err[t, sat:] == 0.0).all()
    # three rows die by overflow, at different steps of one window
    assert len(set(by_overflow)) == 3
    assert len({k // harness.WINDOW for k in by_overflow}) == 1


# ---------------------------------------------------------------- monte carlo

def test_monte_carlo_single_trial_equals_run_trial():
    sc = scalar_scenario(trials=1)
    mc = run_monte_carlo(sc)
    tr = run_trial(sc, 0)
    assert mc.mse_legit.tobytes() == tr.legit_sq.tobytes()
    assert mc.emp_cov_trace.tobytes() == tr.pred_sq.tobytes()
    legit_err = legit_view(sc, 0).eve_err[0]
    assert mc.mse_legit.tobytes() == (legit_err ** 2).sum(axis=1).tobytes()


def test_monte_carlo_worker_determinism():
    sc = scalar_scenario(trials=6)
    r1 = run_monte_carlo(sc, workers=1)
    r2 = run_monte_carlo(sc, workers=2)
    assert r1.mse_legit.tobytes() == r2.mse_legit.tobytes()
    assert r1.mse_eve.tobytes() == r2.mse_eve.tobytes()
    assert r1.emp_cov_trace.tobytes() == r2.emp_cov_trace.tobytes()
    assert np.array_equal(r1.events, r2.events)


def test_monte_carlo_self_consistency_with_filter_covariance():
    # transparent codec, lossless links: MSE approaches the filter's converged P
    model = SystemModel(A=[[0.9]], Q=[[0.04]], x0_mean=[0.0], P0=[[1.0]])
    sensors = (SensorModel(C=[[1.0]], R=[[0.09]]),)
    override = (np.ones((1, 60), dtype=int), np.ones((1, 60), dtype=int))
    sc = Scenario(model=model, sensors=sensors, gamma_bar=[0.999999999],
                  gamma_bar_eve=[0.999999999], a=[2.0], delta=[0.01], s=1.0,
                  horizon=60, trials=2000, seed=21, outcome_override=override,
                  transparent_quantizer=True, track_eavesdropper=False)
    res = run_monte_carlo(sc, workers=2)
    # steady-state filtered variance oracle: iterate the scalar Riccati
    p = 1.0
    for _ in range(200):
        p_pred = 0.81 * p + 0.04
        p = p_pred * 0.09 / (p_pred + 0.09)
    mse_tail = res.mse_legit[-20:].mean()
    assert abs(mse_tail - p) < 0.05 * p


def test_secrecy_report_pass_and_fail_modes():
    # diverging scenario: a > 1 with plenty of critical events
    sc = scalar_scenario(a=[5.0], horizon=120, trials=6, seed=3)
    res = run_monte_carlo(sc, compute_bound_trace=True)
    rep = secrecy_report(res, sc)
    assert rep["criterion_i"]
    assert rep["criterion_ii"] and rep["criterion_ii_mode"] == "diverged-flag"

    # stable encoding: no divergence
    sc2 = scalar_scenario(a=[0.5], horizon=120, trials=6, seed=3)
    res2 = run_monte_carlo(sc2, compute_bound_trace=True)
    rep2 = secrecy_report(res2, sc2)
    assert rep2["criterion_i"]
    assert not rep2["criterion_ii"]

    # no drops, no encoding: eavesdropper sees everything, no secrecy.
    # unstable plant so the lossy-channel bound clears the lossless truth.
    ones = np.ones((1, 60), dtype=int)
    override = (ones, ones)
    model = SystemModel(A=[[1.1]], Q=[[0.04]], x0_mean=[0.0], P0=[[1.0]])
    sc3 = Scenario(model=model, sensors=(SensorModel(C=[[1.0]], R=[[0.09]]),),
                   gamma_bar=[0.9], gamma_bar_eve=[0.8], a=[5.0], delta=[0.01],
                   s=1.0, horizon=60, trials=200, seed=4,
                   outcome_override=override, transparent_quantizer=True)
    res3 = run_monte_carlo(sc3, compute_bound_trace=True)
    rep3 = secrecy_report(res3, sc3)
    assert rep3["criterion_i"] and not rep3["criterion_ii"]


def test_secrecy_slope_fit_without_saturation():
    # worst case with slow growth: geometric slope fits ln(a)
    k_bar = 2
    override = build_worst_case(1, 25, channel=0, k_bar=k_bar)
    sc = scalar_scenario(a=[2.0], horizon=25, trials=3, seed=6,
                         outcome_override=override)
    res = run_monte_carlo(sc, compute_bound_trace=True)
    rep = secrecy_report(res, sc)
    assert rep["criterion_ii_mode"] == "log-linear-fit"
    assert rep["slope"] == pytest.approx(math.log(2.0), abs=0.05)
    assert rep["criterion_ii"]


def test_untracked_eavesdropper_leaves_criterion_ii_unmeasured():
    # no eavesdropper ran, so criterion (ii) says so rather than blaming the window;
    # the tracked run of the same scenario measures it
    sc = scalar_scenario(a=[5.0], horizon=120, trials=6, seed=3, track_eavesdropper=False)
    rep = secrecy_report(run_monte_carlo(sc, compute_bound_trace=True), sc)
    assert rep["criterion_ii_mode"] == "eavesdropper-not-tracked"
    assert rep["criterion_ii"] is False and rep["secrecy"] is False and rep["slope"] is None
    tracked = replace(sc, track_eavesdropper=True)
    rep = secrecy_report(run_monte_carlo(tracked, compute_bound_trace=True), tracked)
    assert rep["criterion_ii_mode"] == "diverged-flag" and rep["criterion_ii"]
    # without a growth channel criterion (ii) cannot hold, tracked or not
    stable = replace(sc, a=[0.5])
    rep = secrecy_report(run_monte_carlo(stable, compute_bound_trace=True), stable)
    assert rep["criterion_ii_mode"] == "no-growth-channel" and not rep["criterion_ii"]


def test_eve_reference_policy_legit_time_also_diverges():
    k_bar = 3
    override = build_worst_case(1, 28, channel=0, k_bar=k_bar)
    sc = scalar_scenario(outcome_override=override, a=[5.0], horizon=28, trials=1,
                         eve_reference_policy="legit-time")
    res = run_trial(sc, 0)
    norms = np.linalg.norm(res.eve_err, axis=1)
    ratios = norms[k_bar + 4:20] / norms[k_bar + 3:19]
    assert np.all(np.abs(ratios - 5.0) < 0.05 * 5.0)


# ---------------------------------------------------------------- bound wiring

def test_compute_bound_three_tank_converges():
    sc = scenario_preset("three-tank-groupA1", seed=0, horizon=60, trials=1)
    seq, trace = compute_bound(sc)
    assert trace[0] == pytest.approx(3.0)
    assert trace.shape == (60,)
    assert not seq.diverged
    assert np.all(np.isfinite(trace))


@pytest.mark.parametrize("preset, steps, degenerate, final_trace", [
    ("three-tank-groupA1", 1619, 1591, 7.506615807397999e-05),
    ("three-tank-groupD3", 160, 0, 9.326976187039234e-06),
])
def test_compute_bound_three_tank_verdicts_pinned(preset, steps, degenerate, final_trace):
    # the verdicts `ppfe bound --tol 1e-10` reports, with its 10 000-iterate budget
    seq, _trace = compute_bound(scenario_preset(preset), tol=1e-10, max_steps=10_000)
    assert seq.verdict == "converged"
    assert len(seq.iterates) == steps
    assert seq.degenerate_steps == degenerate
    assert seq.traces[-1] == pytest.approx(final_trace, rel=1e-9, abs=0.0)


def test_unstable_reference_scenario_verdicts_pinned():
    # an unstable plant (rho(A) = 1.02) with growing codecs (a = 2), where the
    # paper's bound is not the open-loop predictor and every eavesdropper diverges;
    # pinned at 20 trials under RuntimeWarning-as-error
    cfg = json.loads((Path(__file__).resolve().parent / "scenarios" / "unstable.json").read_text())
    sc = scenario_from_dict({**cfg, "trials": 20})
    res = run_monte_carlo(sc, compute_bound_trace=True)
    report = secrecy_report(res, sc)
    assert report["criterion_i"] is True
    assert (res.bound.verdict, len(res.bound.iterates), res.bound.degenerate_steps) == \
        ("converged", 25, 0)
    assert res.bound.traces[-1] == pytest.approx(0.039811391263011135, rel=1e-9, abs=0.0)
    assert (report["criterion_ii"], report["criterion_ii_mode"]) == (True, "diverged-flag")
    assert res.diverged_trials == 20


# ---------------------------------------------------------------- presets and config

def test_scenario_presets_cover_groups():
    a1 = scenario_preset("three-tank-groupA1")
    assert np.array_equal(a1.a, [0.5, 0.5, 5.0]) and np.all(a1.delta == 0.01)
    a3 = scenario_preset("three-tank-groupA3")
    assert a3.a[2] == 10.0
    d2 = scenario_preset("three-tank-groupD2")
    assert np.array_equal(d2.delta, [0.1, 0.01, 0.001]) and np.all(d2.a == 5.0)
    assert np.array_equal(d2.gamma_bar, [0.9, 0.95, 0.85])
    assert np.array_equal(d2.gamma_bar_eve, [0.9, 0.85, 0.95])
    with pytest.raises(ValueError):
        scenario_preset("three-tank-groupZ9")


def test_scenario_from_dict_explicit_and_preset():
    cfg = {
        "model": {
            "A": [[0.9]], "Q": [[0.04]], "x0_mean": [0.0], "P0": [[1.0]],
            "sensors": [{"C": [[1.0]], "R": [[0.09]]}],
        },
        "channel": {"gamma": [0.9], "gamma_eve": [0.8]},
        "codec": {"a": [2.0], "delta": [0.01], "s": 1.0},
        "horizon": 10, "trials": 2, "seed": 5,
    }
    sc = scenario_from_dict(cfg)
    assert sc.horizon == 10 and sc.trials == 2 and len(sc.sensors) == 1
    sc2 = scenario_from_dict({"preset": "three-tank-groupA2", "horizon": 25,
                              "trials": 3, "a": [0.5, 6.0, 6.0]})
    assert sc2.horizon == 25 and sc2.a[1] == 6.0


def test_scenario_validation():
    with pytest.raises(ValueError):
        scalar_scenario(horizon=0)
    with pytest.raises(ValueError):
        scalar_scenario(trials=0)
    with pytest.raises(ValueError):
        scalar_scenario(gamma_bar=[0.5, 0.5])
    with pytest.raises(ValueError):
        scalar_scenario(eve_reference_policy="psychic")
    with pytest.raises(ValueError, match=r"outcome_override .* shape \(2, 1, 30\), got shape"):
        scalar_scenario(outcome_override=([[1, 1]], [[1, 1]]))
    with pytest.raises(ValueError, match=r"a must have one entry per channel, shape \(1,\)"):
        scalar_scenario(a=[[2.0]])


def test_library_switch_check_matches_file_form():
    # Scenario itself checks the switches, so a library caller gets the file form's message
    with pytest.raises(ValueError) as lib:
        scalar_scenario(track_eavesdropper=0)
    cfg = {"model": {"A": [[0.9]], "Q": [[0.04]], "x0_mean": [0.0], "P0": [[1.0]],
                     "sensors": [{"C": [[1.0]], "R": [[0.09]]}]},
           "channel": {"gamma": [0.9], "gamma_eve": [0.8]},
           "codec": {"a": [2.0], "delta": [0.01], "s": 1.0}, "horizon": 30,
           "track_eavesdropper": 0}
    with pytest.raises(ValueError) as file_form:
        scenario_from_dict(cfg)
    assert str(lib.value) == str(file_form.value) == "track_eavesdropper must be true or false, got 0"


def assert_same_blocks(ours, theirs):
    """Byte-equal block results, dtype and shape included."""
    for f in fields(ours):
        mine, ref = getattr(ours, f.name), getattr(theirs, f.name)
        assert mine.dtype == ref.dtype and mine.shape == ref.shape, f.name
        assert mine.tobytes() == ref.tobytes(), f.name


def same_fields(x, y) -> bool:
    """Field-by-field equality through dataclasses, tuples and arrays (dtype included)."""
    if is_dataclass(x):
        return type(x) is type(y) and all(same_fields(getattr(x, f.name), getattr(y, f.name))
                                          for f in fields(x) if f.init)
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(map(same_fields, x, y))
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("preset", [f"three-tank-group{g}" for g in
                                    ("A1", "A2", "A3", "D1", "D2", "D3")])
def test_preset_builder_equals_preset_form(preset):
    built = scenario_preset(preset, seed=3, horizon=40, trials=5)
    parsed = scenario_from_dict({"preset": preset, "seed": 3, "horizon": 40, "trials": 5})
    assert same_fields(built, parsed)
    assert not same_fields(built, scenario_preset(preset, seed=4, horizon=40, trials=5))


def test_full_form_three_tank_runs_like_preset_form():
    # the full form spelling out group A1 gives byte-equal block outputs
    counts = {"seed": 11, "horizon": 60, "trials": 4}
    full = scenario_from_dict({
        "model": {"preset": "three-tank"},
        "channel": {"gamma": [0.9, 0.95, 0.85], "gamma_eve": [0.9, 0.85, 0.95]},
        "codec": {"a": [0.5, 0.5, 5.0], "delta": [0.01, 0.01, 0.01], "s": 1},
        **counts})
    preset = scenario_from_dict({"preset": "three-tank-groupA1", **counts})
    ours = run_block(full, 0, 4)
    assert_same_blocks(ours, run_block(preset, 0, 4))
    assert len(ours.events) > 0 and (ours.eve_saturated_at < 60).any()


def test_file_and_library_overrides_take_one_route():
    # the file's {"auth", "wire"} object and build_worst_case give the same checked
    # (2, M, horizon) override and byte-equal block outputs
    counts = {"seed": 4, "horizon": 60, "trials": 3}
    bits = build_worst_case(3, 60, channel=2, k_bar=5)
    filed = scenario_from_dict({"preset": "three-tank-groupA1", **counts, "outcome_override": {
        "auth": bits[0].astype(int).tolist(), "wire": bits[1].astype(int).tolist()}})
    built = replace(scenario_preset("three-tank-groupA1", **counts), outcome_override=bits)
    for sc in (filed, built):
        ov = sc.outcome_override
        assert ov.shape == (2, 3, 60) and ov.dtype == bool and not ov.flags.writeable
    assert same_fields(filed, built)
    ours = run_block(filed, 0, 3)
    assert_same_blocks(ours, run_block(built, 0, 3))
    assert ours.events.tolist() == [[t, 2, 5, 1] for t in range(3)]
    # an override is one trial's slice of the sampled layout: forcing a trial's own
    # sampled receptions reproduces its sampled run
    sampled = scenario_preset("three-tank-groupA1", seed=4, horizon=60, trials=1)
    drawn = sample_outcomes(sampled.gamma_bar, sampled.gamma_bar_eve, 60,
                            [substream(4, "channel", 0)])[:, 0]
    assert_same_blocks(run_block(sampled, 0, 1),
                       run_block(replace(sampled, outcome_override=drawn), 0, 1))


# ---------------------------------------------------------------- csv output

def test_csv_outputs_are_deterministic(tmp_path):
    sc = scalar_scenario(trials=3, horizon=12)
    res = run_monte_carlo(sc, compute_bound_trace=True)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_mse_csv(res, p1)
    write_mse_csv(run_monte_carlo(sc, compute_bound_trace=True), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "k,mse_legit,mse_eve,mse_eve_saturated,trace_emp_cov,trace_bound"
    # 17-significant-digit formatting round-trips the binary values exactly
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[1]) == res.mse_legit[k]
        assert float(cells[4]) == res.emp_cov_trace[k]
    ev = tmp_path / "events.csv"
    write_events_csv(res, ev)
    assert ev.read_text().splitlines()[0] == "trial,channel,k_bar,worst_case"


def test_three_tank_filter_covariance_stays_bounded():
    # lossy encoded run: trace(P_k|k) never grows past 10x trace(P0)
    from ppfe.channel import sample_outcomes
    from ppfe.codec import ack, bootstrap_state, decode, encode
    from ppfe.estimator import run_filter
    from ppfe.model import simulate_plant
    from ppfe.rng import substream

    sc = scenario_preset("three-tank-groupA1", seed=13, horizon=150, trials=1)
    model, sensors = sc.model, list(sc.sensors)
    codecs = sc.codecs
    traj = simulate_plant(model, sensors, sc.horizon, substream(13, "plant", 0))
    auth = sample_outcomes(sc.gamma_bar, sc.gamma_bar_eve,
                           sc.horizon, [substream(13, "channel", 0)])[0, 0]
    quant = substream(13, "quantizer", 0)
    enc = [bootstrap_state(s.d_y) for s in sensors]
    dec = [bootstrap_state(s.d_y) for s in sensors]
    decoded = [[None] * 3 for _ in range(sc.horizon)]
    for k in range(sc.horizon):
        for i in range(3):
            pkt = encode(enc[i], codecs[i], traj.measurements[i][k], k, quant)
            if auth[i, k]:
                ybar, dec[i] = decode(dec[i], codecs[i], pkt.z, k)
                enc[i] = ack(enc[i], ybar, k)
                decoded[k][i] = ybar
    states = run_filter(model, sensors, codecs, auth, decoded)
    cap = 10.0 * float(np.trace(model.P0))
    for st in states[1::2]:
        assert float(np.trace(st.P)) < cap


# ---------------------------------------------------------------- batched engine

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.mark.parametrize("group", ["A1", "D2"])
def test_engine_matches_recorded_fixtures(group, tmp_path):
    # recorded from the per-trial engine this one replaced: 20 trials x 200 steps, seed 7
    ref = FIXTURES / group.lower()
    sc = scenario_preset(f"three-tank-group{group}", seed=7, horizon=200, trials=20)
    res = run_monte_carlo(sc, compute_bound_trace=True)
    write_mse_csv(res, tmp_path / "mse.csv")
    write_events_csv(res, tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == (ref / "events.csv").read_bytes()
    got = (tmp_path / "mse.csv").read_text().splitlines()
    want = (ref / "mse.csv").read_text().splitlines()
    assert got[0] == want[0] and len(got) == len(want)
    for line, ref_line in zip(got[1:], want[1:]):
        cells, ref_cells = line.split(","), ref_line.split(",")
        assert cells[3] == ref_cells[3], f"saturation flag differs: {line} vs {ref_line}"
        assert np.allclose([float(c) for c in cells], [float(c) for c in ref_cells],
                           rtol=1e-9, atol=0.0, equal_nan=True), f"{line} vs {ref_line}"
    summary = json.loads((ref / "summary.json").read_text())
    report = secrecy_report(res, sc)
    for key in ("criterion_i", "criterion_ii", "criterion_ii_mode", "diverged_trials"):
        assert report[key] == summary[key]


@pytest.mark.parametrize("trials, a, transparent", [
    (33, (0.5, 0.5, 5.0), False), (69, (0.5, 0.5, 5.0), False),
    (33, (0.5, 0.5, 0.5), False), (33, (0.5, 0.5, 5.0), True),
], ids=["33", "69", "nogrowth", "transparent"])
def test_outputs_independent_of_workers_and_blocks(trials, a, transparent, tmp_path, monkeypatch):
    sc = replace(scenario_preset("three-tank-groupA1", seed=11, horizon=60, trials=trials),
                 a=a, transparent_quantizer=transparent)
    # eavesdropper saturation lands mid-block: the trials saturate at different
    # steps, some not at all, so the filter runs on a shrinking subset (without a
    # growing channel none saturates); workers 1, 2 and 3 split the trials into
    # 1, 2 and 3 blocks
    block = run_block(sc, 0, trials)
    steps = block.eve_saturated_at
    assert ((steps < sc.horizon).any() and len(set(steps.tolist())) > 2) == (max(a) > 1.0)
    # the plant and quantizer draws come in windows of WINDOW steps (50 and 10
    # here); no window length changes a byte
    for window in (2, 7, sc.horizon):
        monkeypatch.setattr(harness, "WINDOW", window)
        assert_same_blocks(run_block(sc, 0, trials), block)
    monkeypatch.undo()
    outputs = []
    for workers in (1, 2, 3):
        res = run_monte_carlo(sc, workers=workers)
        out = tmp_path / f"w{workers}"
        out.mkdir()
        write_mse_csv(res, out / "mse.csv")
        write_events_csv(res, out / "events.csv")
        outputs.append(((out / "mse.csv").read_bytes(), (out / "events.csv").read_bytes(),
                        res.diverged_trials))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]



def test_monte_carlo_memory_does_not_grow_with_blocks():
    # blocks are folded into per-step sums as they arrive and freed before the
    # next one runs, so past one block the run adds only its (T, H) squared
    # prediction-error norms and their standard error's temporary, 16 bytes per
    # trial-step. Measured: 16-17 bytes per added trial-step (15.7 with blocks of
    # 512); 52 when the last block outlives the next one's run; 103-117 when
    # every trial's (H, d_x) error series were gathered before the sums
    import tracemalloc

    # numpy's first run allocates lasting caches, which would count in the first peak
    run_monte_carlo(scenario_preset("three-tank-groupA1", seed=3, horizon=10, trials=4))
    peaks = []
    block = harness.MAX_BLOCK
    for trials in (block, 3 * block):   # one block, then three of MAX_BLOCK trials
        sc = scenario_preset("three-tank-groupA1", seed=3, horizon=100, trials=trials)
        tracemalloc.start()
        try:
            run_monte_carlo(sc, workers=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_trial_step = (peaks[1] - peaks[0]) / (2 * block * 100)
    assert per_trial_step < 32, (peaks, per_trial_step)


def test_one_worker_traced_peak_per_added_trial_step():
    # at one worker each window of results is folded into the per-step sums as it
    # is made, so a longer horizon adds only what the run keeps for all of it: the
    # reception traces, the critical events and the (T, H) squared prediction-error
    # norms the standard error needs. Measured per trial-step added (64 trials,
    # horizon 500 -> 1000): 34.6 bytes on A1 and 24.2 without growth; 74.6 and
    # 64.2 when each block's whole-horizon arrays were held until the block ended
    import tracemalloc

    run_monte_carlo(scenario_preset("three-tank-groupA1", seed=3, horizon=10, trials=4))
    nogrowth = json.loads((Path(__file__).resolve().parents[1] / "perfbench/scenarios/nogrowth.json")
                          .read_text())
    for cfg, limit in (({"preset": "three-tank-groupA1"}, 45), (nogrowth, 35)):
        peaks = []
        for horizon in (500, 1000):
            sc = scenario_from_dict({**cfg, "seed": 3, "trials": 64, "horizon": horizon})
            tracemalloc.start()
            try:
                run_monte_carlo(sc, workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_trial_step = (peaks[1] - peaks[0]) / (64 * 500)
        assert per_trial_step < limit, (cfg, peaks, per_trial_step)


def test_block_traced_peak_per_trial_step():
    # a block returns two (B, H) squared norms and the eavesdropper's (B, H, d_x)
    # errors, and reduces the legitimate errors window by window. Measured on a
    # three-tank block of 256 trials x 500 steps: 103 bytes per trial-step; 130
    # when it returned the (B, H, d_x) legitimate and prediction errors too.
    # Untracked, the eavesdropper's array is (B, 0, d_x): 71 bytes per
    # trial-step; 95 when it was (B, H, d_x) and never written
    import tracemalloc

    run_block(scenario_preset("three-tank-groupA1", seed=3, horizon=10, trials=4), 0, 4)
    for track, limit in ((True, 115), (False, 80)):
        sc = replace(scenario_preset("three-tank-groupA1", seed=3, horizon=500, trials=256),
                     track_eavesdropper=track)
        tracemalloc.start()
        try:
            run_block(sc, 0, sc.trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_trial_step = peak / (sc.trials * sc.horizon)
        assert per_trial_step < limit, (track, per_trial_step)


def old_joined_csv(header, rows) -> bytes:
    """A CSV file as one joined list of every row, the layout the chunked writer keeps."""
    return ("\n".join([header, *rows]) + "\n").encode()


def test_events_csv_is_written_in_chunks(tmp_path):
    # events.csv, mse.csv and bound.csv as their commands write them: 0 rows,
    # exactly one chunk, and several chunks plus a remainder give the bytes of one
    # joined string; the writer's traced peak stays bounded. Measured for 35 078
    # rows of events.csv: 0.24 MB, against 6.3 MB when every row was joined first.
    # Only events.csv takes that size: mse.csv and bound.csv add 1.6 s there
    import tracemalloc

    chunk = harness.EVENTS_CHUNK
    rng = np.random.default_rng(5)
    for rows in (0, chunk, 3 * chunk + 17, 35_078):
        events = np.column_stack((np.sort(rng.integers(0, 256, rows)), rng.integers(0, 3, rows),
                                  rng.integers(0, 500, rows), rng.integers(0, 2, rows)))
        cases = {"events": (lambda path: write_events_csv(SimpleNamespace(events=events), path),
                            old_joined_csv("trial,channel,k_bar,worst_case",
                                           (f"{t},{i},{k},{wc}" for t, i, k, wc in events.tolist())))}
        if rows < 35_078:
            legit, eve, emp, bound = rng.lognormal(-10.0, 5.0, (4, rows))
            eve[::7], eve[3::11] = math.nan, math.inf
            saturated = rng.random(rows) < 0.5
            mse = SimpleNamespace(mse_legit=legit, mse_eve=eve, eve_saturated=saturated,
                                  emp_cov_trace=emp, bound_trace=bound)
            cases["mse"] = (lambda path: write_mse_csv(mse, path), old_joined_csv(
                "k,mse_legit,mse_eve,mse_eve_saturated,trace_emp_cov,trace_bound",
                (f"{k},{fmt17(legit[k])},{fmt17(eve[k])},{int(saturated[k])},{fmt17(emp[k])},"
                 f"{fmt17(bound[k])}" for k in range(rows))))
            cases["bound"] = (lambda path: harness.write_csv(path, ["k", "trace_bound"],
                                                             enumerate(map(fmt17, bound), 1)),
                              old_joined_csv("k,trace_bound",
                                             (f"{j + 1},{fmt17(t)}" for j, t in enumerate(bound))))
        for name, (write, want) in cases.items():
            path = tmp_path / f"{name}{rows}.csv"
            tracemalloc.start()
            try:
                write(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert path.read_bytes() == want, (name, rows)
            assert peak < 1e6, (name, rows, peak)


def test_write_json_encodes_complex_values_only_and_leaves_no_partial_file(tmp_path):
    path = tmp_path / "out.json"
    harness.write_json(path, {"z": [1 + 2j, np.complex64(0.25 - 0.5j)], "x": np.float64(0.1)})
    assert path.read_text() == json.dumps({"x": 0.1, "z": [[1.0, 2.0], [0.25, -0.5]]},
                                          indent=2, sort_keys=True) + "\n"
    # numpy integers, bools and float32 are not floats, and nothing but a complex
    # number is turned into a pair; a value json cannot encode leaves no file
    for value in (np.int64(49), np.bool_(True), np.float32(1.5), object()):
        bad = tmp_path / "bad.json"
        with pytest.raises(TypeError, match="is not JSON serializable"):
            harness.write_json(bad, {"v": value})
        assert not bad.exists(), value


@pytest.mark.parametrize("cpus, workers, want", [(2, 3000, [2]), (None, 3000, []),
                                                 (1, 4, []), (64, 3000, [8]), (64, 3, [3])])
def test_worker_pool_capped_at_cpu_count(monkeypatch, cpus, workers, want):
    # the pool starts all its processes up front, so it must not take --workers
    # at its word, and a one-process pool runs in this process instead; a fake
    # pool records its size and maps in-process, so no process is started, and
    # the results match one worker's
    import concurrent.futures
    import os

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sc = scalar_scenario(trials=8, horizon=5)
    res, ref = run_monte_carlo(sc, workers=workers), run_monte_carlo(sc, workers=1)
    assert sizes == want
    for name in ("mse_legit", "mse_eve", "emp_cov_trace", "events"):
        assert getattr(res, name).tobytes() == getattr(ref, name).tobytes(), name

def assert_named_trial_fails_alone(sc, workers, error, pattern):
    """The run names a failing trial, and that trial alone raises the same message.

    The run raises for the first block, in trial order, that holds a failing
    trial, and names its trial that fails at the earliest step; so which trial
    is named may depend on the worker count, but never its message."""
    with pytest.raises(error, match=pattern) as info:
        run_monte_carlo(sc, workers=workers)
    trial = int(re.search(r"trial (\d+)", str(info.value)).group(1))
    with pytest.raises(error) as alone:
        run_block(sc, trial, trial + 1)
    assert str(alone.value) == str(info.value)


def test_non_finite_filter_names_trial():
    # the whitened filter meets no ill-conditioned innovation, but its estimate or
    # covariance can leave the float range; a live row that does fails the run.
    # An unstable plant (a = 1e10) whose authorized link drops every packet: the
    # legitimate P grows as a^2k and overflows at step 16, long before the states
    h = 20
    never, always = np.zeros((1, h), dtype=int), np.ones((1, h), dtype=int)
    unstable = Scenario(model=SystemModel(A=[[1e10]], Q=[[1.0]], x0_mean=[0.0], P0=[[1.0]]),
                        sensors=(SensorModel(C=[[1.0]], R=[[1.0]]),), gamma_bar=[0.9],
                        gamma_bar_eve=[0.9], a=[0.5], delta=[0.01], s=1.0, horizon=h, trials=3,
                        seed=1, outcome_override=(never, always))
    # A decoding-noise variance s^2 delta^2 / 4 that overflows is a configuration
    # fault (s = 1e100, delta = 1e60 gives 1e320 / 4), but a finite one can still
    # overflow the covariance through the gain: channel 1's variance is 2.5e307 and
    # its gain about 1 / C = 1e3 (C^2 P >> R), so K rdec K^T = 2.5e313. A party that
    # hears channel 1 gets a covariance that is not finite while its estimate stays
    # close (the decode rounds y / s to 0); channel 0 decodes to within s delta = 1
    with pytest.raises(ValueError, match=r"s\^2 delta\^2 / 4 overflows with delta = 1e\+60"):
        CodecParams(a=0.5, delta=1e60, s=1e100)
    model = SystemModel(A=0.9 * np.eye(2), Q=0.01 * np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    sensors = (SensorModel(C=[[1.0, 0.0]], R=[[0.01]]),
               SensorModel(C=[[0.0, 1e-3]], R=[[1e-8]]))
    sc = Scenario(model=model, sensors=sensors, gamma_bar=[0.5, 0.1], gamma_bar_eve=[0.5, 0.1],
                  a=[0.5, 0.5], delta=[1e-100, 1e54], s=1e100, horizon=5, trials=8, seed=123)
    # the authorized link delivers channel 0 only and the wiretap both, so only the
    # eavesdropper hears channel 1; then the other way round
    one, both = np.array([[1] * 5, [0] * 5]), np.ones((2, 5), dtype=int)
    eve_sc = replace(sc, outcome_override=(one, both), trials=3, seed=1)
    legit_sc = replace(eve_sc, outcome_override=(both, one))
    for workers in (1, 2):
        assert_named_trial_fails_alone(unstable, workers, ValueError, r"trial 0 \(seed 1\): "
                                       r"legitimate filter: .* not finite at step 16")
        assert_named_trial_fails_alone(sc, workers, ValueError,
                                       r"trial \d+ \(seed 123\): .* filter: .* not finite")
        assert_named_trial_fails_alone(eve_sc, workers, ValueError, r"trial 0 \(seed 1\): "
                                       r"eavesdropper filter: .* not finite at step 0")
        quiet = run_monte_carlo(replace(eve_sc, track_eavesdropper=False), workers=workers)
        assert np.isfinite(quiet.mse_legit).all()
        assert_named_trial_fails_alone(legit_sc, workers, ValueError, r"trial 0 \(seed 1\): "
                                       r"legitimate filter: .* not finite at step 0")


def test_legitimate_codec_overflow_names_trial():
    # a = 1e10 overflows after ~30 steps without reception at gamma = 0.05
    sc = scalar_scenario(a=[1e10], gamma_bar=[0.05], horizon=200, trials=6, seed=8)
    for workers in (1, 2):
        assert_named_trial_fails_alone(sc, workers, CodecOverflowError, r"trial \d+ \(seed 8\)")


def random_block_scenario(seed, d, m, policy, track, trials, horizon):
    """A random plant with `d` states and `m` sensors of at most two outputs each,
    lossy links on both sides and a mix of decaying and fast-growing codecs."""
    rng = np.random.default_rng(seed)
    a_mat = rng.normal(0, 1, (d, d))
    a_mat *= rng.uniform(0.5, 1.3) / max(np.abs(np.linalg.eigvals(a_mat)).max(), 1e-9)
    q = rng.normal(0, 1, (d, d))
    sensors = []
    for _ in range(m):
        dy = int(rng.integers(1, min(d, 2) + 1))
        r = rng.normal(0, 1, (dy, dy))
        sensors.append(SensorModel(C=rng.normal(0, 1, (dy, d)), R=r @ r.T + 0.1 * np.eye(dy)))
    return Scenario(model=SystemModel(A=a_mat, Q=q @ q.T / d + 0.01 * np.eye(d),
                                      x0_mean=rng.normal(0, 1, d), P0=np.eye(d)),
                    sensors=tuple(sensors), gamma_bar=rng.uniform(0.3, 1.0, m),
                    gamma_bar_eve=rng.uniform(0.3, 1.0, m), a=rng.choice([0.5, 5.0, 50.0], m),
                    delta=rng.uniform(0.001, 0.1, m), s=1.0, horizon=horizon, trials=trials,
                    seed=int(rng.integers(1000)), eve_reference_policy=policy,
                    track_eavesdropper=track)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 4), m=st.integers(1, 3),
       policy=st.sampled_from(["own", "legit-time"]), track=st.booleans())
def test_block_outputs_do_not_depend_on_block_size(seed, d, m, policy, track):
    # every trial's outputs are byte-equal whichever block it runs in, one-trial
    # blocks included; 33 trials split into blocks of 32 leave a one-trial tail
    sc = random_block_scenario(seed, d, m, policy, track, trials=33, horizon=16)
    whole = run_block(sc, 0, sc.trials)
    # and whichever window length the plant and quantizer draws come in; at
    # horizon 16 a window of 5 leaves a one-step rest, which joins the last window
    for window in (2, 5, 7, sc.horizon):
        with mock.patch.object(harness, "WINDOW", window):
            assert_same_blocks(run_block(sc, 0, sc.trials), whole)
    for size in (1, 2, 7, 32):
        parts = [run_block(sc, lo, min(lo + size, sc.trials)) for lo in range(0, sc.trials, size)]
        for name in ("legit_sq", "pred_sq", "eve_err", "eve_saturated_at"):
            got = np.concatenate([getattr(part, name) for part in parts])
            assert got.tobytes() == getattr(whole, name).tobytes(), (size, name)
        assert np.array_equal(np.concatenate([part.events for part in parts]), whole.events)
