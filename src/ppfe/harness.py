"""Seeded Monte Carlo harness: wires plant, channels, codec and both
estimators; computes MSE curves, detects critical events, and evaluates the
two secrecy criteria (bounded legitimate covariance, divergent eavesdropper
mean error) empirically.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .analysis import BoundParams, BoundSequence, cap_gamma, iterate_bound
from .channel import ChannelModel, OutcomeTrace, sample_outcomes
from .codec import (CodecOverflowError, CodecParams, growth_factors, reconstruct,
                    reference_residual, round_to_lattice)
from .estimator import ConditioningError, FusionFilter, decoding_noise
from .model import SensorModel, SystemModel, from_config, simulate_plants, three_tank_preset
from .rng import substream

EVE_SATURATION = 1e15

# Trials per block. A constant, so a trial's block and therefore its arithmetic
# never depend on the worker count. Larger blocks spread the per-step Python
# overhead over more trials but raise peak memory: a 500-step block of 32
# three-channel trials holds about 4 MB of arrays.
BLOCK_TRIALS = 32

# secrecy criterion (ii): fitted log growth rate may undershoot ln(min a_i>1) by this much
SLOPE_MARGIN = 0.05


def fmt17(x: float) -> str:
    """Round-trip decimal formatting so regression fixtures are bitwise stable."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Scenario:
    """One complete experiment description, deterministic given `seed`."""

    model: SystemModel
    sensors: tuple[SensorModel, ...]
    gamma_bar: np.ndarray
    gamma_bar_eve: np.ndarray
    a: np.ndarray
    delta: np.ndarray
    s: float
    horizon: int
    trials: int
    seed: int
    outcome_override: OutcomeTrace | None = None
    eve_reference_policy: str = "own"  # "own" | "legit-time"
    transparent_quantizer: bool = False
    track_eavesdropper: bool = True
    name: str = ""
    # derived in __post_init__; building them validates the channel and codec entries
    channel: ChannelModel = field(init=False, repr=False, compare=False)
    codecs: tuple[CodecParams, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.sensors)
        for label, arr in (("gamma_bar", self.gamma_bar), ("gamma_bar_eve", self.gamma_bar_eve),
                           ("a", self.a), ("delta", self.delta)):
            v = np.atleast_1d(np.asarray(arr, dtype=float))
            if v.size != m:
                raise ValueError(f"{label} must have one entry per channel ({m})")
            v.setflags(write=False)
            object.__setattr__(self, label, v)
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.eve_reference_policy not in ("own", "legit-time"):
            raise ValueError("eve_reference_policy must be 'own' or 'legit-time'")
        if self.outcome_override is not None:
            ov = self.outcome_override
            if ov.n_channels != m or ov.horizon != self.horizon:
                raise ValueError("outcome override must be (M, horizon)")
        self.model.inputs(self.horizon)
        object.__setattr__(self, "channel", ChannelModel(self.gamma_bar, self.gamma_bar_eve))
        object.__setattr__(self, "codecs", tuple(
            CodecParams(a=float(a), delta=float(d), s=float(self.s))
            for a, d in zip(self.a, self.delta)))

    @property
    def n_channels(self) -> int:
        return len(self.sensors)


_TANK_GAMMA = (0.9, 0.95, 0.85)
_TANK_GAMMA_EVE = (0.9, 0.85, 0.95)

_A_GROUPS = {
    "A1": (0.5, 0.5, 5.0),
    "A2": (0.5, 5.0, 5.0),
    "A3": (0.5, 0.5, 10.0),
}
_D_GROUPS = {
    "D1": (0.1, 0.1, 0.1),
    "D2": (0.1, 0.01, 0.001),
    "D3": (0.001, 0.001, 0.001),
}


def scenario_preset(name: str, seed: int = 0, horizon: int = 500, trials: int = 200) -> Scenario:
    """Named three-tank experiment groups.

    The a-groups vary the growth bases at delta=0.01, s=1; the delta-groups
    vary the quantization steps at a=(5,5,5), s=1.
    """
    model, sensors = three_tank_preset()
    common = dict(
        model=model, sensors=tuple(sensors),
        gamma_bar=np.array(_TANK_GAMMA), gamma_bar_eve=np.array(_TANK_GAMMA_EVE),
        s=1.0, horizon=horizon, trials=trials, seed=seed, name=name,
    )
    key = name.removeprefix("three-tank-group")
    if key in _A_GROUPS:
        return Scenario(a=np.array(_A_GROUPS[key]), delta=np.full(3, 0.01), **common)
    if key in _D_GROUPS:
        return Scenario(a=np.full(3, 5.0), delta=np.array(_D_GROUPS[key]), **common)
    known = [f"three-tank-group{k}" for k in (*_A_GROUPS, *_D_GROUPS)]
    raise ValueError(f"unknown scenario preset {name!r}; known: {known}")


# keys that both scenario forms accept, passed through to Scenario
_OPTIONAL_KEYS = ("eve_reference_policy", "transparent_quantizer", "track_eavesdropper", "name")
_PRESET_KEYS = {"preset", "seed", "horizon", "trials", "outcome_override", "s", "a", "delta",
                "gamma_bar", "gamma_bar_eve", *_OPTIONAL_KEYS}
_FULL_KEYS = {"model", "channel", "codec", "seed", "horizon", "trials", "outcome_override",
              *_OPTIONAL_KEYS}


def _options(cfg: dict, allowed: set[str], form: str) -> dict:
    """The optional Scenario fields of a configuration; unknown keys are errors."""
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in a {form} scenario; "
                         f"allowed: {sorted(allowed)}")
    opts = {key: cfg[key] for key in _OPTIONAL_KEYS if key in cfg}
    for key in ("transparent_quantizer", "track_eavesdropper"):
        if key in opts:
            opts[key] = bool(opts[key])
    if "outcome_override" in cfg:
        ov = cfg["outcome_override"]
        opts["outcome_override"] = OutcomeTrace(auth=np.asarray(ov["auth"]),
                                                wire=np.asarray(ov["wire"]))
    return opts


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build a Scenario from a parsed configuration tree."""
    if "preset" in cfg and "model" not in cfg:
        overrides = _options(cfg, _PRESET_KEYS, "preset")
        base = scenario_preset(cfg["preset"],
                               seed=int(cfg.get("seed", 0)),
                               horizon=int(cfg.get("horizon", 500)),
                               trials=int(cfg.get("trials", 200)))
        if "s" in cfg:
            overrides["s"] = float(cfg["s"])
        for key in ("a", "delta", "gamma_bar", "gamma_bar_eve"):
            if key in cfg:
                overrides[key] = np.asarray(cfg[key], dtype=float)
        return replace(base, **overrides) if overrides else base
    options = _options(cfg, _FULL_KEYS, "full")
    model, sensors = from_config(cfg["model"])
    chan = cfg["channel"]
    codec = cfg["codec"]
    return Scenario(
        model=model,
        sensors=tuple(sensors),
        gamma_bar=np.asarray(chan["gamma"], dtype=float),
        gamma_bar_eve=np.asarray(chan["gamma_eve"], dtype=float),
        a=np.asarray(codec["a"], dtype=float),
        delta=np.asarray(codec["delta"], dtype=float),
        s=float(codec["s"]),
        horizon=int(cfg["horizon"]),
        trials=int(cfg.get("trials", 1)),
        seed=int(cfg.get("seed", 0)),
        **options,
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def detect_critical_events(trace: OutcomeTrace) -> list[tuple[int, int, bool]]:
    """All (channel, step) pairs with an authorized success and a wiretap miss.

    The worst-case flag marks events after which the wiretap stream is
    all-ones for the rest of the trace.
    """
    events = []
    for i in range(trace.n_channels):
        auth = trace.auth[i]
        wire = trace.wire[i]
        for k in np.nonzero((auth == 1) & (wire == 0))[0]:
            events.append((i, int(k), bool(wire[k + 1:].all())))
    return events


def build_worst_case(n_channels: int, horizon: int, channel: int, k_bar: int) -> OutcomeTrace:
    """Authorized link lossless; wiretap misses exactly (channel, k_bar)."""
    if not 0 <= k_bar < horizon:
        raise ValueError("k_bar must lie in [0, horizon)")
    if not 0 <= channel < n_channels:
        raise ValueError("channel index out of range")
    auth = np.ones((n_channels, horizon), dtype=np.uint8)
    wire = np.ones((n_channels, horizon), dtype=np.uint8)
    wire[channel, k_bar] = 0
    return OutcomeTrace(auth=auth, wire=wire)


@dataclass
class BlockResult:
    """Error series of a contiguous block of trials; eavesdropper entries are NaN once saturated."""

    legit_err: np.ndarray          # (B, H, d_x) filtered errors x_k - xhat_{k|k}
    pred_err: np.ndarray           # (B, H, d_x) prediction errors x_k - xhat_{k|k-1}
    eve_err: np.ndarray            # (B, H, d_x)
    eve_saturated_at: np.ndarray   # (B,) first saturated step, H when never
    events: list[tuple[int, int, int, bool]]  # (trial, channel, k_bar, worst_case)


def run_block(scenario: Scenario, start: int, stop: int) -> BlockResult:
    """Trials start..stop-1 advanced together: plant -> encode -> both channels ->
    decode -> both filters, each step one set of array operations over the block.

    Each trial draws its own (seed, role, trial) streams, each in one block
    in the order a step-by-step draw would use. The encoder's reference
    always equals the legitimate decoder's (the ACK mirrors it), so one copy
    serves both. An eavesdropper saturates at the first step where a heard
    packet's growth overflows, its decode error passes 1e15 or is not
    finite, or its filtered error norm passes 1e15; divergence is the
    finding, not a failure, so its filter just stops for that trial. A
    failure of the legitimate path raises, naming the (seed, trial) pair.
    """
    model, sensors, h, seed = scenario.model, scenario.sensors, scenario.horizon, scenario.seed
    trials = range(start, stop)
    b, d = len(trials), model.d_x
    fusion = FusionFilter(model, sensors)
    ch = fusion.channel                      # output component -> channel
    a, delta, s = scenario.a[ch], scenario.delta[ch], scenario.s
    transparent = scenario.transparent_quantizer
    rdec = decoding_noise(sensors, scenario.codecs, transparent)
    bu = model.inputs(h) @ model.B.T

    states, meas = simulate_plants(model, sensors, h, [substream(seed, "plant", t) for t in trials])
    if scenario.outcome_override is not None:
        traces = [scenario.outcome_override] * b
    else:
        traces = [sample_outcomes(scenario.channel, h, substream(seed, "channel", t))
                  for t in trials]
    auth = np.stack([tr.auth for tr in traces]).astype(bool)   # (B, M, H)
    wire = np.stack([tr.wire for tr in traces]).astype(bool)
    events = [(t, i, k, wc) for t, tr in zip(trials, traces)
              for (i, k, wc) in detect_critical_events(tr)]
    if not transparent:
        uniforms = np.stack([substream(seed, "quantizer", t).random((h, ch.size)) for t in trials])

    def update(x, P, y, received, rows):
        try:
            return fusion.update(x, P, y, received, rdec)
        except ConditioningError as exc:
            raise ValueError(f"trial {trials[rows[exc.row]]} (seed {seed}): {exc}") from None

    every = np.arange(b)
    x, P = np.repeat(model.x0_mean[None], b, axis=0), np.repeat(model.P0[None], b, axis=0)
    x_eve, P_eve = x.copy(), P.copy()
    y_ref, t_ref = np.zeros((b, ch.size)), np.zeros(auth.shape[:2], dtype=int)
    init = np.zeros(auth.shape[:2], dtype=bool)
    y_eve, t_eve, init_eve = y_ref.copy(), t_ref.copy(), init.copy()
    legit_err, pred_err = np.empty((b, h, d)), np.empty((b, h, d))
    eve_err = np.full((b, h, d), np.nan)
    saturated_at = np.full(b, h)
    alive = np.full(b, scenario.track_eavesdropper)
    for k in range(h):
        y, x_true = meas[:, k], states[:, k]
        factor, overflow = growth_factors(a, k - t_ref[:, ch], init[:, ch])
        if overflow.any():
            row, comp = np.argwhere(overflow)[0]
            raise CodecOverflowError(f"trial {trials[row]} (seed {seed}): reference growth "
                                     f"overflows at step {k} on channel {ch[comp]}")
        pre = reference_residual(y, factor, y_ref, s)
        if transparent:
            z = pre
        else:
            finite = np.isfinite(pre).all(axis=1)
            if not finite.all():
                raise ValueError(f"trial {trials[np.argmin(finite)]} (seed {seed}): "
                                 f"quantizer input must be finite at step {k}")
            z = round_to_lattice(pre, delta, uniforms[:, k])[0]

        if alive.any():
            heard = wire[:, :, k] & alive[:, None]
            # "legit-time": overheard ACK timing (before this step's ACK), own reference value
            t_src = t_ref if scenario.eve_reference_policy == "legit-time" else t_eve
            factor_eve, overflow_eve = growth_factors(a, k - t_src[:, ch], init_eve[:, ch])
            with np.errstate(over="ignore", invalid="ignore"):
                ybar_eve = reconstruct(z, factor_eve, y_eve, s)
                lost = overflow_eve | ~(np.abs(ybar_eve - y) <= EVE_SATURATION)
            # a trial that loses any heard channel saturates at this step, whichever
            # channel comes first, so all channels are decoded at once
            died = (lost & heard[:, ch]).any(axis=1)
            heard &= ~died[:, None]
            y_eve = np.where(heard[:, ch], ybar_eve, y_eve)
            t_eve[heard] = k
            init_eve |= heard
            saturated_at[died] = k
            alive &= ~died

        recv = auth[:, :, k]
        ybar = reconstruct(z, factor, y_ref, s)
        y_ref = np.where(recv[:, ch], ybar, y_ref)
        t_ref[recv] = k
        init |= recv
        if k > 0:
            x, P = fusion.predict(x, P, bu[k - 1])
        pred_err[:, k] = x_true - x
        x, P = update(x, P, ybar, recv, every)
        legit_err[:, k] = x_true - x

        live = np.flatnonzero(alive)
        if live.size:
            xl, Pl = x_eve[live], P_eve[live]
            if k > 0:
                xl, Pl = fusion.predict(xl, Pl, bu[k - 1])
            xl, Pl = update(xl, Pl, ybar_eve[live], heard[live], live)
            x_eve[live], P_eve[live] = xl, Pl
            err = x_true[live] - xl
            # the filter itself can blow up one step before the decode check trips
            blown = np.linalg.norm(err, axis=1) > EVE_SATURATION
            eve_err[live[~blown], k] = err[~blown]
            saturated_at[live[blown]] = k
            alive[live[blown]] = False

    return BlockResult(legit_err=legit_err, pred_err=pred_err, eve_err=eve_err,
                       eve_saturated_at=saturated_at, events=events)


@dataclass
class RunResult:
    """Trial-aggregated metrics, all length-horizon series."""

    mse_legit: np.ndarray          # mean ||x - xhat||^2 over trials
    mse_eve: np.ndarray            # mean over unsaturated trials; +inf when none remain
    eve_saturated: np.ndarray      # 1 where any trial has saturated
    emp_cov: np.ndarray            # (H, d, d) trial-averaged prediction-error outer products
    emp_cov_trace_se: np.ndarray   # standard error of the empirical trace
    eve_mean_err: np.ndarray       # (H, d) mean eavesdropper error over unsaturated trials
    events: list[tuple[int, int, int, bool]]  # (trial, channel, k_bar, worst_case)
    diverged_trials: int
    trials: int
    horizon: int
    bound: BoundSequence | None = None
    bound_trace: np.ndarray | None = None
    scenario_name: str = ""

    @property
    def emp_cov_trace(self) -> np.ndarray:
        return np.einsum("kii->k", self.emp_cov)


def bound_params_for(scenario: Scenario) -> BoundParams:
    """Analysis-side parameters for a scenario; lossless links are capped."""
    return BoundParams(
        A=scenario.model.A,
        qeff=scenario.model.qeff,
        sensors=scenario.sensors,
        gamma_bar=cap_gamma(scenario.gamma_bar, warn=False),
        s=scenario.s,
        delta=scenario.delta,
    )


def compute_bound(scenario: Scenario, recompute: bool = True, tol: float = 1e-10,
                  max_steps: int | None = None) -> tuple[BoundSequence, np.ndarray]:
    """Bound iterates for a scenario plus the length-horizon trace series.

    trace[0] is tr(P0) (the exact step-0 prediction covariance); trace[k]
    for k >= 1 follows the iterates from V_1 = A P0 A^T + Qeff, held at the
    last iterate after convergence. `max_steps` defaults to the horizon; a
    larger budget lets the fixed-point verdict settle past the horizon.
    """
    params = bound_params_for(scenario)
    model = scenario.model
    v1 = model.A @ model.P0 @ model.A.T + model.qeff
    if max_steps is None:
        max_steps = max(scenario.horizon - 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        seq = iterate_bound(v1, params, max_steps=max_steps,
                            recompute=recompute, tol=tol)
    traces = seq.trace()
    out = np.empty(scenario.horizon)
    out[0] = float(np.trace(model.P0))
    for k in range(1, scenario.horizon):
        out[k] = traces[min(k - 1, traces.size - 1)]
    return seq, out


def _blocks(scenario: Scenario, workers: int):
    """Block results in trial order; a worker always takes whole blocks."""
    starts = range(0, scenario.trials, BLOCK_TRIALS)
    stops = [min(lo + BLOCK_TRIALS, scenario.trials) for lo in starts]
    if workers > 1 and len(starts) > 1:
        # imported here: the process-pool modules cost every command ~20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(starts))) as pool:
            yield from pool.map(run_block, repeat(scenario), starts, stops)
    else:
        for lo, hi in zip(starts, stops):
            yield run_block(scenario, lo, hi)


def run_monte_carlo(scenario: Scenario, workers: int = 1, compute_bound_trace: bool = False,
                    bound_recompute: bool = True) -> RunResult:
    """Block-parallel execution over fixed blocks of BLOCK_TRIALS trials;
    results are folded in trial order, so they are bitwise independent of
    the worker count."""
    h, t, d = scenario.horizon, scenario.trials, scenario.model.d_x
    legit, pred, eve = (np.empty((t, h, d)) for _ in range(3))
    saturated_at = np.empty(t, dtype=int)
    events = []
    lo = 0
    for block in _blocks(scenario, workers):
        hi = lo + block.eve_saturated_at.size
        legit[lo:hi], pred[lo:hi], eve[lo:hi] = block.legit_err, block.pred_err, block.eve_err
        saturated_at[lo:hi] = block.eve_saturated_at
        events += block.events
        lo = hi
    sat = np.arange(h) >= saturated_at[:, None]  # (T, H)

    mse_legit = np.einsum("thd,thd->h", legit, legit) / t
    emp_cov = np.einsum("thi,thj->hij", pred, pred) / t
    sq = np.einsum("thd,thd->th", pred, pred)
    trace_se = sq.std(axis=0, ddof=1) / math.sqrt(t) if t > 1 else np.zeros(h)

    alive = ~sat
    n_alive = alive.sum(axis=0)
    eve_sq = np.where(alive, np.einsum("thd,thd->th", np.nan_to_num(eve), np.nan_to_num(eve)), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        mse_eve = np.where(n_alive > 0, eve_sq.sum(axis=0) / np.maximum(n_alive, 1), np.inf)
        mean_err = np.where(n_alive[:, None] > 0,
                            np.nan_to_num(eve).sum(axis=0) / np.maximum(n_alive, 1)[:, None],
                            np.nan)
    if not scenario.track_eavesdropper:
        mse_eve = np.full(h, np.nan)
        mean_err = np.full((h, d), np.nan)

    bound_seq = bound_trace = None
    if compute_bound_trace:
        bound_seq, bound_trace = compute_bound(scenario, recompute=bound_recompute)

    return RunResult(
        mse_legit=mse_legit,
        mse_eve=mse_eve,
        eve_saturated=sat.any(axis=0).astype(np.uint8),
        emp_cov=emp_cov,
        emp_cov_trace_se=trace_se,
        eve_mean_err=mean_err,
        events=events,
        diverged_trials=int((saturated_at < h).sum()),
        trials=t,
        horizon=h,
        bound=bound_seq,
        bound_trace=bound_trace,
        scenario_name=scenario.name,
    )


def secrecy_report(result: RunResult, scenario: Scenario) -> dict:
    """Empirical check of the two secrecy criteria.

    (i)  the empirical prediction covariance trace stays below the bound
         trace plus 3 standard errors at every step, and the bound is bounded;
    (ii) the eavesdropper mean-error norm grows geometrically at rate at
         least ln(min{a_i > 1}) - 0.05 past the first critical event, or the
         divergence flag tripped.
    """
    if result.bound_trace is None or result.bound is None:
        raise ValueError("result must carry a bound trace (compute_bound_trace=True)")
    emp = result.emp_cov_trace
    slack = 3.0 * result.emp_cov_trace_se
    within = emp <= result.bound_trace + slack
    crit_i = bool(within.all()) and not result.bound.diverged

    growing = [float(a) for a in scenario.a if a > 1.0]
    detail: dict = {
        "criterion_i": crit_i,
        "bound_diverged": bool(result.bound.diverged),
        "max_bound_violation": float((emp - result.bound_trace - slack).max()),
        "diverged_trials": result.diverged_trials,
    }
    if result.diverged_trials > 0:
        crit_ii = True
        detail["criterion_ii_mode"] = "diverged-flag"
        detail["slope"] = None
    elif not growing:
        crit_ii = False
        detail["criterion_ii_mode"] = "no-growth-channel"
        detail["slope"] = None
    else:
        growth_events = [k for (_t, ch, k, _w) in result.events if scenario.a[ch] > 1.0]
        if not growth_events:
            crit_ii = False
            detail["criterion_ii_mode"] = "no-critical-event"
            detail["slope"] = None
        else:
            start = min(growth_events) + 2
            norms = np.linalg.norm(np.nan_to_num(result.eve_mean_err), axis=1)
            ks = np.arange(result.horizon)
            mask = (ks >= start) & np.isfinite(result.mse_eve) & (norms > 0)
            want = math.log(min(growing)) - SLOPE_MARGIN
            if mask.sum() < 4:
                crit_ii = False
                detail["criterion_ii_mode"] = "window-too-short"
                detail["slope"] = None
            else:
                slope = float(np.polyfit(ks[mask], np.log(norms[mask]), 1)[0])
                crit_ii = slope >= want
                detail["criterion_ii_mode"] = "log-linear-fit"
                detail["slope"] = slope
                detail["slope_required"] = want
    detail["criterion_ii"] = crit_ii
    detail["secrecy"] = crit_i and crit_ii
    return detail


def write_mse_csv(result: RunResult, path) -> None:
    """Per-step metrics: k, mse_legit, mse_eve, mse_eve_saturated, trace_emp_cov[, trace_bound]."""
    header = ["k", "mse_legit", "mse_eve", "mse_eve_saturated", "trace_emp_cov"]
    with_bound = result.bound_trace is not None
    if with_bound:
        header.append("trace_bound")
    emp = result.emp_cov_trace
    lines = [",".join(header)]
    for k in range(result.horizon):
        row = [str(k), fmt17(result.mse_legit[k]), fmt17(result.mse_eve[k]),
               str(int(result.eve_saturated[k])), fmt17(emp[k])]
        if with_bound:
            row.append(fmt17(result.bound_trace[k]))
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_events_csv(result: RunResult, path) -> None:
    """Critical-event log: trial, channel, k_bar, worst_case."""
    lines = ["trial,channel,k_bar,worst_case"]
    for (trial, ch, k, wc) in sorted(result.events):
        lines.append(f"{trial},{ch},{k},{int(wc)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
