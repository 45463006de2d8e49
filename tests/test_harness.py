import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ppfe.channel import OutcomeTrace
from ppfe.codec import CodecOverflowError, bootstrap_state, decode, eavesdrop_decode, encode
from ppfe.estimator import run_filter
from ppfe.harness import (BLOCK_TRIALS, Scenario, build_worst_case, compute_bound,
                          detect_critical_events, run_block, run_monte_carlo,
                          scenario_from_dict, scenario_preset, secrecy_report,
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
    return SimpleNamespace(legit_err=block.legit_err[0], pred_err=block.pred_err[0],
                           eve_err=block.eve_err[0],
                           events=[ev[1:] for ev in block.events],
                           diverged=bool(block.eve_saturated_at[0] < sc.horizon))


# ---------------------------------------------------------------- events

def test_detect_critical_events_basic():
    trace = OutcomeTrace(auth=[[1, 1, 1]], wire=[[1, 0, 1]])
    events = detect_critical_events(trace)
    assert events == [(0, 1, True)]


def test_detect_no_events_when_wiretap_lossless():
    trace = OutcomeTrace(auth=[[1, 1, 1]], wire=[[1, 1, 1]])
    assert detect_critical_events(trace) == []


def test_detect_requires_authorized_success():
    trace = OutcomeTrace(auth=[[0, 0, 0]], wire=[[0, 0, 0]])
    assert detect_critical_events(trace) == []


def test_detect_worst_case_flag_false_on_later_miss():
    trace = OutcomeTrace(auth=[[1, 1, 1, 1]], wire=[[0, 1, 0, 1]])
    events = detect_critical_events(trace)
    assert (0, 0, False) in events and (0, 2, True) in events


def test_build_worst_case_shape_and_roundtrip():
    trace = build_worst_case(1, 5, channel=0, k_bar=2)
    assert np.array_equal(trace.wire[0], [1, 1, 0, 1, 1])
    assert trace.auth.all()
    assert detect_critical_events(trace) == [(0, 2, True)]
    boundary = build_worst_case(2, 4, channel=1, k_bar=0)
    assert boundary.wire[1, 0] == 0 and boundary.wire[1, 1:].all()
    with pytest.raises(ValueError):
        build_worst_case(1, 5, channel=0, k_bar=5)


# ---------------------------------------------------------------- single trials

def test_trial_transparent_no_drops_equal_views():
    override = OutcomeTrace(auth=np.ones((1, 30), dtype=int),
                            wire=np.ones((1, 30), dtype=int))
    sc = scalar_scenario(outcome_override=override, transparent_quantizer=True,
                         trials=1)
    res = run_trial(sc, 0)
    assert not res.diverged
    assert np.allclose(res.eve_err, res.legit_err, atol=0, rtol=0)


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
    assert a.legit_err.tobytes() == b.legit_err.tobytes()
    assert a.eve_err.tobytes() == b.eve_err.tobytes()
    assert a.events == b.events


def test_eve_equals_legit_null_test():
    # wiretap trace identical to the authorized trace: identical estimates
    rng_trace = (np.random.default_rng(5).random((1, 40)) < 0.8).astype(int)
    override = OutcomeTrace(auth=rng_trace, wire=rng_trace)
    sc = scalar_scenario(outcome_override=override, horizon=40, trials=1)
    res = run_trial(sc, 0)
    assert np.array_equal(res.eve_err, res.legit_err)


def test_trial_stable_encoding_keeps_eavesdropper_close():
    # a < 1: decode errors decay, no divergence over the run
    sc = scalar_scenario(a=[0.5], horizon=200, trials=1, seed=9)
    res = run_trial(sc, 0)
    assert not res.diverged
    legit_mse = (res.legit_err ** 2).sum(axis=1)[100:].mean()
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
    sc = scalar_scenario(outcome_override=OutcomeTrace(auth=auth, wire=wire), a=[1.1],
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


# ---------------------------------------------------------------- monte carlo

def test_monte_carlo_single_trial_equals_run_trial():
    sc = scalar_scenario(trials=1)
    mc = run_monte_carlo(sc)
    tr = run_trial(sc, 0)
    assert np.allclose(mc.mse_legit, (tr.legit_err ** 2).sum(axis=1))
    emp = np.einsum("hi,hj->hij", tr.pred_err, tr.pred_err)
    assert np.allclose(mc.emp_cov, emp)


def test_monte_carlo_worker_determinism():
    sc = scalar_scenario(trials=6)
    r1 = run_monte_carlo(sc, workers=1)
    r2 = run_monte_carlo(sc, workers=2)
    assert r1.mse_legit.tobytes() == r2.mse_legit.tobytes()
    assert r1.mse_eve.tobytes() == r2.mse_eve.tobytes()
    assert r1.emp_cov.tobytes() == r2.emp_cov.tobytes()
    assert r1.events == r2.events


def test_monte_carlo_self_consistency_with_filter_covariance():
    # transparent codec, lossless links: MSE approaches the filter's converged P
    model = SystemModel(A=[[0.9]], Q=[[0.04]], x0_mean=[0.0], P0=[[1.0]])
    sensors = (SensorModel(C=[[1.0]], R=[[0.09]]),)
    override = OutcomeTrace(auth=np.ones((1, 60), dtype=int),
                            wire=np.ones((1, 60), dtype=int))
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
    override = OutcomeTrace(auth=ones, wire=ones)
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
    assert sc.horizon == 10 and sc.trials == 2 and sc.n_channels == 1
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
    with pytest.raises(ValueError):
        scalar_scenario(outcome_override=OutcomeTrace(auth=[[1, 1]], wire=[[1, 1]]))


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
    from ppfe.channel import ChannelModel, sample_outcomes
    from ppfe.codec import ack, bootstrap_state, decode, encode
    from ppfe.estimator import run_filter
    from ppfe.model import simulate_plant
    from ppfe.rng import substream

    sc = scenario_preset("three-tank-groupA1", seed=13, horizon=150, trials=1)
    model, sensors = sc.model, list(sc.sensors)
    codecs = sc.codecs
    traj = simulate_plant(model, sensors, sc.horizon, substream(13, "plant", 0))
    trace = sample_outcomes(ChannelModel(sc.gamma_bar, sc.gamma_bar_eve),
                            sc.horizon, substream(13, "channel", 0))
    quant = substream(13, "quantizer", 0)
    enc = [bootstrap_state(s.d_y) for s in sensors]
    dec = [bootstrap_state(s.d_y) for s in sensors]
    decoded = [[None] * 3 for _ in range(sc.horizon)]
    for k in range(sc.horizon):
        for i in range(3):
            pkt = encode(enc[i], codecs[i], traj.measurements[i][k], k, quant)
            if trace.auth[i, k]:
                ybar, dec[i] = decode(dec[i], codecs[i], pkt.z, k)
                enc[i] = ack(enc[i], ybar, k)
                decoded[k][i] = ybar
    states = run_filter(model, sensors, codecs, trace.auth, decoded)
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


@pytest.mark.parametrize("trials", [BLOCK_TRIALS + 1, 2 * BLOCK_TRIALS + 5])
def test_outputs_independent_of_workers_and_blocks(trials, tmp_path):
    sc = scenario_preset("three-tank-groupA1", seed=11, horizon=60, trials=trials)
    # eavesdropper saturation lands mid-block: the first block's trials saturate at
    # different steps, some not at all, so its filter runs on a shrinking subset
    steps = run_block(sc, 0, BLOCK_TRIALS).eve_saturated_at
    assert (steps < sc.horizon).any() and len(set(steps.tolist())) > 2
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


def test_ill_conditioned_trial_is_named():
    model = SystemModel(A=0.9 * np.eye(2), Q=0.01 * np.eye(2), x0_mean=np.zeros(2), P0=np.eye(2))
    dup = SensorModel(C=[[1.0, 0.0]], R=[[1e-15]])
    sc = Scenario(model=model, sensors=(dup, dup), gamma_bar=[0.1, 0.1],
                  gamma_bar_eve=[0.1, 0.1], a=[0.5, 0.5], delta=[0.01, 0.01], s=1.0,
                  horizon=5, trials=8, seed=123)
    with pytest.raises(ValueError, match=r"trial \d+ \(seed 123\): .*channels") as info:
        run_monte_carlo(sc)
    trial = int(re.search(r"trial (\d+)", str(info.value)).group(1))
    with pytest.raises(ValueError, match=rf"trial {trial} \(seed 123\)"):
        run_block(sc, trial, trial + 1)


def test_legitimate_codec_overflow_names_trial():
    # a = 1e10 overflows after ~30 steps without reception at gamma = 0.05
    sc = scalar_scenario(a=[1e10], gamma_bar=[0.05], horizon=200, trials=6, seed=8)
    with pytest.raises(CodecOverflowError, match=r"trial \d+ \(seed 8\)") as info:
        run_monte_carlo(sc)
    trial = int(re.search(r"trial (\d+)", str(info.value)).group(1))
    with pytest.raises(CodecOverflowError, match=rf"trial {trial} \(seed 8\)"):
        run_block(sc, trial, trial + 1)
