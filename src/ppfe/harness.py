"""Seeded Monte Carlo harness: wires plant, channels, codec and both
estimators; computes MSE curves, detects critical events, and evaluates the
two secrecy criteria (bounded legitimate covariance, divergent eavesdropper
mean error) empirically.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .analysis import BoundParams, BoundSequence, cap_gamma, iterate_bound
from .channel import sample_outcomes
from .codec import (CodecOverflowError, CodecParams, growth_factors, reconstruct,
                    reference_residual, round_to_lattice)
from .estimator import FusionFilter, decoding_noise
from .model import (SensorModel, SystemModel, as_floats, check_keys, from_config,
                    simulate_plants, three_tank_preset)
from .rng import substream

EVE_SATURATION = 1e15

# Most trials in one block. A pool worker's three-tank block (`run_block`)
# peaks near 107 traced bytes per trial-step (256 trials x 500 steps), 40 of
# them what it returns: two (B, H) squared norms and the eavesdropper's
# (B, H, d_x) errors, whose pages past saturation are never touched (73 bytes
# untracked, without them). So a 500-step block of 512 trials peaks near 27 MB
# traced. At 1 worker the windows are folded as they come: a run of 256 trials
# x 500 steps peaks near 75 bytes per trial-step (110 when each block held its
# whole-horizon arrays). A 1000-trial A1 run at 1 worker peaked at 54-58, 60-61
# and 75 MB RSS with blocks of at most 256, 512 and 1024 trials.
MAX_BLOCK = 512

# Rows of a CSV file formatted and written at a time: the writer's traced peak
# stays near 0.3 MB at any row count (6.3 MB for 35 078 rows as one string)
EVENTS_CHUNK = 1024

# Steps per window of plant noise, states, measurements and quantizer
# uniforms. Drawn window by window rather than for the whole horizon, they
# take about 90 bytes per three-tank trial-step less of a block's peak
# (220 -> 130, 256 trials x 500 steps).
WINDOW = 50

# secrecy criterion (ii): fitted log growth rate may undershoot ln(min a_i>1) by this much
SLOPE_MARGIN = 0.05


def fmt17(x: float) -> str:
    """Round-trip decimal formatting so regression fixtures are bitwise stable."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Scenario:
    """One complete experiment description, deterministic given `seed`. Every
    value is checked and converted here, whichever route built it."""

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
    # receptions every trial uses instead of sampled ones: (2, M, horizon) bits,
    # authorized then wiretap, in the layout of one trial of `sample_outcomes`
    outcome_override: np.ndarray | None = None
    eve_reference_policy: str = "own"  # "own" | "legit-time"
    transparent_quantizer: bool = False
    track_eavesdropper: bool = True
    name: str = ""
    # derived in __post_init__; building them validates the codec entries
    codecs: tuple[CodecParams, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.sensors)
        if m == 0:
            raise ValueError("sensors must hold at least one sensor")
        for label in ("gamma_bar", "gamma_bar_eve", "a", "delta"):
            v = as_floats(getattr(self, label), label, ndmin=1)
            if v.shape != (m,):
                raise ValueError(f"{label} must have one entry per channel, shape ({m},), "
                                 f"got shape {v.shape}")
            if label.startswith("gamma") and not np.all((v > 0.0) & (v <= 1.0)):
                raise ValueError(f"{label} entries must lie in (0, 1], got {v.tolist()}")
            v.setflags(write=False)
            object.__setattr__(self, label, v)
        for key in ("transparent_quantizer", "track_eavesdropper"):
            if not isinstance(getattr(self, key), bool):
                raise ValueError(f"{key} must be true or false, got {getattr(self, key)!r}")
        try:
            if isinstance(self.s, (str, bytes, bool, np.bool_)):
                raise TypeError
            object.__setattr__(self, "s", float(self.s))
        except (TypeError, ValueError):
            raise ValueError(f"s must be a number, got {self.s!r}") from None
        object.__setattr__(self, "sensors", tuple(self.sensors))
        for key in ("horizon", "trials", "seed"):
            value = getattr(self, key)
            integral = isinstance(value, float) and value.is_integer()
            if isinstance(value, bool) or not (integral or isinstance(value, (int, np.integer))):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.eve_reference_policy not in ("own", "legit-time"):
            raise ValueError("eve_reference_policy must be 'own' or 'legit-time'")
        if self.outcome_override is not None:
            want = f"outcome_override must be (auth, wire) bits of shape (2, {m}, {self.horizon})"
            try:
                ov = np.array(self.outcome_override)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{want}: {exc}") from None
            if ov.shape != (2, m, self.horizon):
                raise ValueError(f"{want}, got shape {ov.shape}")
            if not np.isin(ov, (0, 1)).all():
                raise ValueError(f"{want}, got an entry other than 0 or 1")
            ov = ov == 1
            ov.setflags(write=False)
            object.__setattr__(self, "outcome_override", ov)
        self.model.inputs(self.horizon)
        object.__setattr__(self, "codecs", tuple(
            CodecParams(a=float(a), delta=float(d), s=self.s)
            for a, d in zip(self.a, self.delta)))

    @cached_property
    def bound_params(self) -> BoundParams:
        """Analysis-side parameters with lossless links capped. Built on first use, not
        with the scenario: `conditions` needs neither the bound nor the filter, which
        whiten the sensors (`model.whitened_stack`) and need a finite V_1, the first
        prediction covariance, and a finite covariance prediction map kron(A, A)."""
        model = self.model
        with np.errstate(over="ignore", invalid="ignore"):
            v1 = model.A @ model.P0 @ model.A.T + model.qeff
            kron_finite = np.isfinite(np.kron(model.A, model.A)).all()
        if not np.isfinite(v1).all():
            raise ValueError("the first prediction covariance A P0 A^T + D Q D^T is not finite")
        if not kron_finite:
            raise ValueError("the covariance prediction map kron(A, A) is not finite")
        return BoundParams(A=model.A, qeff=model.qeff, sensors=self.sensors,
                           gamma_bar=cap_gamma(self.gamma_bar), s=self.s, delta=self.delta)


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


def _preset_fields(name) -> dict:
    """Scenario fields of a named three-tank experiment group.

    The a-groups vary the growth bases at delta=0.01, s=1; the delta-groups
    vary the quantization steps at a=(5,5,5), s=1.
    """
    key = name.removeprefix("three-tank-group") if isinstance(name, str) else None
    if key in _A_GROUPS:
        a, delta = _A_GROUPS[key], (0.01,) * 3
    elif key in _D_GROUPS:
        a, delta = (5.0,) * 3, _D_GROUPS[key]
    else:
        known = [f"three-tank-group{k}" for k in (*_A_GROUPS, *_D_GROUPS)]
        raise ValueError(f"unknown scenario preset {name!r}; known: {known}")
    model, sensors = three_tank_preset()
    return dict(model=model, sensors=sensors, gamma_bar=_TANK_GAMMA, gamma_bar_eve=_TANK_GAMMA_EVE,
                a=a, delta=delta, s=1.0, name=name)


def scenario_preset(name: str, seed: int = 0, horizon: int = 500, trials: int = 200) -> Scenario:
    """Named three-tank experiment groups (see `_preset_fields`)."""
    return scenario_from_dict({"preset": name, "seed": seed, "horizon": horizon, "trials": trials})


# Scenario fields that both scenario forms take as top-level keys
_OPTIONAL_KEYS = {"seed", "horizon", "trials", "outcome_override", "eve_reference_policy",
                  "transparent_quantizer", "track_eavesdropper", "name"}
_PRESET_KEYS = {"preset", "s", "a", "delta", "gamma_bar", "gamma_bar_eve", *_OPTIONAL_KEYS}
_FULL_KEYS = {"model", "channel", "codec", *_OPTIONAL_KEYS}


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build a Scenario from a parsed configuration tree; unknown keys are errors.

    The preset form applies its keys on top of the preset group's fields; the
    full form maps `model`, `channel` and `codec` onto the same fields.
    `Scenario` checks and converts every value.
    """
    if isinstance(cfg, dict) and "preset" in cfg and "model" not in cfg:
        check_keys(cfg, _PRESET_KEYS, "a preset scenario")
        fields = {"seed": 0, "horizon": 500, "trials": 200, **_preset_fields(cfg["preset"])}
    else:
        check_keys(cfg, _FULL_KEYS, "a full scenario")
        try:
            chan, codec = cfg["channel"], cfg["codec"]
            check_keys(chan, {"gamma", "gamma_eve"}, "channel")
            check_keys(codec, {"a", "delta", "s"}, "codec")
            model, sensors = from_config(cfg["model"])
            fields = {"seed": 0, "trials": 1, "horizon": cfg["horizon"], "model": model,
                      "sensors": sensors, "gamma_bar": chan["gamma"],
                      "gamma_bar_eve": chan["gamma_eve"],
                      "a": codec["a"], "delta": codec["delta"], "s": codec["s"]}
        except KeyError as exc:
            raise ValueError(f"a full scenario is missing required key {exc}") from None
    # the keys check_keys let through, but the form's own, are Scenario fields
    fields.update((key, value) for key, value in cfg.items()
                  if key not in ("preset", "model", "channel", "codec"))
    if "outcome_override" in cfg:
        ov = cfg["outcome_override"]
        check_keys(ov, {"auth", "wire"}, "outcome_override")
        fields["outcome_override"] = (ov.get("auth"), ov.get("wire"))
    return Scenario(**fields)


def detect_critical_events(auth: np.ndarray, wire: np.ndarray) -> np.ndarray:
    """Steps where the authorized link delivers and the wiretap misses, in (B, M, H)
    reception masks: (E, 4) int rows (trial, channel, k_bar, worst_case) in
    lexicographic order. worst_case marks an event after which the wiretap hears
    every packet to the end of the trace (vacuously at the last step)."""
    auth, wire = np.asarray(auth, dtype=bool), np.asarray(wire, dtype=bool)
    hits = np.argwhere(auth & ~wire)
    heard_after = np.ones(wire.shape, dtype=bool)   # wire[..., k + 1:].all()
    heard_after[..., :-1] = np.logical_and.accumulate(wire[..., :0:-1], axis=-1)[..., ::-1]
    return np.column_stack((hits, heard_after[tuple(hits.T)]))


def build_worst_case(n_channels: int, horizon: int, channel: int, k_bar: int) -> np.ndarray:
    """An `outcome_override`, (2, n_channels, horizon) bool: the authorized link is
    lossless and the wiretap misses exactly (channel, k_bar)."""
    if not 0 <= k_bar < horizon:
        raise ValueError("k_bar must lie in [0, horizon)")
    if not 0 <= channel < n_channels:
        raise ValueError("channel index out of range")
    bits = np.ones((2, n_channels, horizon), dtype=bool)
    bits[1, channel, k_bar] = False
    return bits


class Window(NamedTuple):
    """Results of trials start..start+n-1 over the window of steps lo..lo+w-1.
    `block_windows` yields views of buffers that its next window overwrites;
    `run_monte_carlo` also takes a pool's whole block as one window from step 0."""

    start: int                  # the block's first trial, numbered in the run
    lo: int                     # the window's first step
    legit_sq: np.ndarray        # (n, w) squared filtered-error norms ||x_k - xhat_{k|k}||^2
    pred_sq: np.ndarray         # (n, w) squared prediction-error norms ||x_k - xhat_{k|k-1}||^2
    eve_err: np.ndarray         # (n, w, d_x) eavesdropper errors, 0 from saturation on
    saturated_at: np.ndarray    # (n,) first saturated step so far, H when none yet
    events: np.ndarray | None   # the block's (E, 4) critical events, with its first window only

    def live_errors(self) -> Iterator[tuple[int, np.ndarray]]:
        """(row, errors) of each trial whose eavesdropper is live at step lo, in
        trial order: its errors from lo up to its saturation or the window's end.
        No entry past saturation is read, so a gathered block's untouched pages
        stay untouched; an untracked eavesdropper has no entries."""
        stops = np.minimum(self.saturated_at - self.lo, self.eve_err.shape[1])
        rows = np.flatnonzero(stops > 0)
        for row, stop in zip(rows.tolist(), stops[rows].tolist()):
            yield row, self.eve_err[row, :stop]


@dataclass
class BlockResult:
    """Per-trial results of a contiguous block of trials over the whole
    horizon: the legitimate party's squared error norms, and the eavesdropper's
    error vectors up to its saturation step (0 from that step on, pages the
    block never touched); (B, 0, d_x) for an untracked eavesdropper, which
    never saturates."""

    legit_sq: np.ndarray           # (B, H) squared filtered-error norms ||x_k - xhat_{k|k}||^2
    pred_sq: np.ndarray            # (B, H) squared prediction-error norms ||x_k - xhat_{k|k-1}||^2
    eve_err: np.ndarray            # (B, H, d_x) eavesdropper errors x_k - xhat_{k|k}
    eve_saturated_at: np.ndarray   # (B,) first saturated step, H when never
    events: np.ndarray             # (E, 4) rows (trial, channel, k_bar, worst_case), in order


def block_windows(scenario: Scenario, start: int, stop: int) -> Iterator[Window]:
    """Trials start..stop-1 advanced together: plant -> encode -> both channels ->
    decode -> both filters, each step one set of array operations over the block,
    with one `Window` of results yielded per window of plant steps.

    Each trial draws its own (seed, role, trial) streams, in the order a
    step-by-step draw would use. The loop walks the windows of plant states
    and measurements that `simulate_plants` yields; each draws its quantizer
    uniforms, runs its steps and reduces its legitimate filtered and
    prediction errors to squared norms by one einsum, so no whole-horizon
    states, measurements, uniforms or errors are held: only the reception
    traces and the critical events they give. Both parties run the same
    decoder and filter, so the row arrays hold one row per (party, trial):
    the block's B legitimate rows, then one eavesdropper row per trial whose
    eavesdropper is still live.
    `tr` maps a row to its trial, `link` gives it its reception trace
    (authorized for the legitimate rows, wiretap for the others) and `t_ref`
    its last reception per component, -1 before the first. The encoder reads
    the first B rows' references, which the ACK keeps equal to its own.
    Saturation is decided once per step, after both filters: at the first
    step where a heard packet's growth overflows, its decode error passes
    1e15 or is not finite, or its filtered error norm passes 1e15.
    Divergence is the finding, not a failure, so the row is dropped at that
    step with all it absorbed there. Both filters absorb the received rows
    one whitened scalar at a time (`FusionFilter.update`); a live row whose
    estimate or covariance is not finite after the update fails, as does the
    legitimate encoder on a growth overflow or on a packet that is not finite,
    delivered or not; a failure raises, naming the party and the (seed, trial)
    pair. numpy computes a one-row matmul by another path, so a lone trial
    runs as two identical trials and keeps the first: a trial's results never
    depend on its block.
    """
    model, sensors, h, seed = scenario.model, scenario.sensors, scenario.horizon, scenario.seed
    trials = range(start, stop) if stop - start > 1 else (start, start)
    b, n, d = len(trials), stop - start, model.d_x    # a lone trial keeps its first row
    fusion = FusionFilter(model, sensors)
    ch = fusion.channel                      # output component -> channel
    a, delta, s = scenario.a[ch], scenario.delta[ch], scenario.s
    transparent = scenario.transparent_quantizer
    rdec = decoding_noise(scenario.codecs, ch, transparent)
    bu = model.inputs(h) @ model.B.T

    plant = simulate_plants(model, sensors, h, [substream(seed, "plant", t) for t in trials],
                            WINDOW)
    ov = scenario.outcome_override
    if ov is None:
        outcomes = sample_outcomes(scenario.gamma_bar, scenario.gamma_bar_eve, h,
                                   [substream(seed, "channel", t) for t in trials])
    else:
        outcomes = np.broadcast_to(ov[:, None], (2, b, *ov.shape[1:]))
    events = detect_critical_events(*outcomes[:, :n]) + (start, 0, 0, 0)  # numbered in the run
    if not transparent:
        quantizers = [substream(seed, "quantizer", t) for t in trials]

    track = scenario.track_eavesdropper
    link = outcomes[:2 if track else 1].reshape(-1, *outcomes.shape[2:])
    tr = np.arange(len(link)) % b            # row -> trial of the block
    x = np.repeat(model.x0_mean[None], tr.size, axis=0)
    P = np.repeat(model.P0[None], tr.size, axis=0)
    y_ref, t_ref = np.zeros((tr.size, ch.size)), np.full(link.shape[:2], -1)
    # window buffers: `simulate_plants` joins a one-step rest to the window before it
    span = min(h, WINDOW + 1)
    errs = np.empty((2, b, span, d))          # legitimate filtered and prediction errors
    sq = np.empty((2, b, span))
    eve_err = np.empty((b, span if track else 0, d))
    saturated_at = np.full(b, h)
    legit_time = scenario.eve_reference_policy == "legit-time"
    for lo, states, meas in plant:
        w = meas.shape[1]
        if not transparent:
            uniforms = np.empty((b, w, ch.size))
            for rng, u in zip(quantizers, uniforms):
                rng.random(out=u)
        eve_err.fill(0.0)                    # written only before saturation
        for k in range(lo, lo + w):
            y = meas[:, k - lo]
            # "legit-time": an eavesdropper grows its own reference value over the overheard
            # ACK timing of its trial (before this step's ACK)
            gap = k - np.maximum(t_ref[tr] if legit_time else t_ref, 0)[:, ch]
            factor, overflow = growth_factors(a, gap, t_ref[:, ch] >= 0)
            if overflow[:b].any():
                row, comp = np.argwhere(overflow[:b])[0]
                raise CodecOverflowError(f"trial {trials[row]} (seed {seed}): reference growth "
                                         f"overflows at step {k} on channel {ch[comp]}")
            recv = link[:, :, k]
            with np.errstate(over="ignore", invalid="ignore"):
                z = reference_residual(y, factor[:b], y_ref[:b], s)
                if not transparent:
                    z = round_to_lattice(z, delta, uniforms[:, k - lo])
                finite = np.isfinite(z).all(axis=1)
                if not finite.all():
                    raise ValueError(f"trial {trials[np.argmin(finite)]} (seed {seed}): "
                                     f"encoded packet is not finite at step {k}")
                ybar = reconstruct(z[tr], factor, y_ref, s)
                y_ref = np.where(recv[:, ch], ybar, y_ref)
                t_ref[recv] = k
                # a filter that leaves the float range fails the finiteness check below
                if k > 0:
                    x, P = fusion.predict(x, P, bu[k - 1])
                errs[1, :, k - lo] = states[:, k - lo] - x[:b]
                x, P = fusion.update(x, P, ybar, recv, rdec)
                err = states[tr, k - lo] - x
                if tr.size > b:              # some eavesdropper row is still live
                    # it saturates when a heard channel's growth overflows or its decode is
                    # lost, or when its filter blows up before a decode does
                    lost = overflow | ~(np.abs(ybar - y[tr]) <= EVE_SATURATION)
                    gone = ((lost & recv[:, ch]).any(axis=1)
                            | (np.linalg.norm(err, axis=1) > EVE_SATURATION))
                    gone[:b] = False
                    if gone.any():
                        saturated_at[tr[gone]] = k
                        tr, link, x, P, y_ref, t_ref, err = (
                            v[~gone] for v in (tr, link, x, P, y_ref, t_ref, err))
                    eve_err[tr[b:], k - lo] = err[b:]
            errs[0, :, k - lo] = err[:b]
            # two sums clear a step; only when they are not finite are the rows tested
            if not np.isfinite(x.sum() + P.sum()):
                bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(P).all(axis=(1, 2)))
                if bad.any():
                    row = int(np.argmax(bad))
                    party = "eavesdropper" if row >= b else "legitimate"
                    raise ValueError(f"trial {trials[tr[row]]} (seed {seed}): {party} filter: "
                                     f"estimate or covariance is not finite at step {k}")
        np.einsum("pbwd,pbwd->pbw", errs[:, :, :w], errs[:, :, :w], out=sq[:, :, :w])
        yield Window(start, lo, sq[0, :n, :w], sq[1, :n, :w], eve_err[:n, :w], saturated_at[:n],
                     events if lo == 0 else None)


def run_block(scenario: Scenario, start: int, stop: int) -> BlockResult:
    """Trials start..stop-1 (see `block_windows`), their windows gathered into
    whole-horizon arrays: the form a pool's worker returns, and the one tests
    compare. The eavesdropper's errors go in a zeroed array written only
    before saturation."""
    h, n, d = scenario.horizon, stop - start, scenario.model.d_x
    sq = np.empty((2, n, h))
    eve_err = np.zeros((n, h if scenario.track_eavesdropper else 0, d))
    for win in block_windows(scenario, start, stop):
        hi = win.lo + win.legit_sq.shape[1]
        sq[0, :, win.lo:hi], sq[1, :, win.lo:hi] = win.legit_sq, win.pred_sq
        for row, e in win.live_errors():
            eve_err[row, win.lo:win.lo + len(e)] = e
        if win.events is not None:
            events = win.events
    return BlockResult(legit_sq=sq[0], pred_sq=sq[1], eve_err=eve_err,
                       eve_saturated_at=win.saturated_at, events=events)


@dataclass
class RunResult:
    """Trial-aggregated metrics, all length-horizon series."""

    mse_legit: np.ndarray          # mean ||x - xhat||^2 over trials
    mse_eve: np.ndarray            # mean over unsaturated trials; +inf when none remain
    eve_saturated: np.ndarray      # 1 where any trial has saturated
    emp_cov_trace: np.ndarray      # trace of the trial-averaged prediction-error covariance
    emp_cov_trace_se: np.ndarray   # standard error of the empirical trace
    eve_mean_err: np.ndarray       # (H, d) mean eavesdropper error over unsaturated trials
    events: np.ndarray             # (E, 4) rows (trial, channel, k_bar, worst_case), in order
    diverged_trials: int
    trials: int
    horizon: int
    bound: BoundSequence | None = None
    bound_trace: np.ndarray | None = None


def compute_bound(scenario: Scenario, tol: float = 1e-10,
                  max_steps: int | None = None) -> tuple[BoundSequence, np.ndarray]:
    """Bound iterates for a scenario plus the length-horizon trace series.

    trace[0] is tr(P0) (the exact step-0 prediction covariance); trace[k]
    for k >= 1 follows the iterates from V_1 = A P0 A^T + Qeff, held at the
    last iterate once they end, whatever the verdict. `max_steps` defaults to
    the horizon; a larger budget lets the fixed-point verdict settle past the
    horizon.
    """
    model = scenario.model
    v1 = model.A @ model.P0 @ model.A.T + model.qeff
    if max_steps is None:
        max_steps = max(scenario.horizon - 1, 1)
    seq = iterate_bound(v1, scenario.bound_params, max_steps=max_steps, tol=tol)
    out = np.empty(scenario.horizon)
    out[0] = float(np.trace(model.P0))
    out[1:] = seq.traces[np.minimum(np.arange(scenario.horizon - 1), seq.traces.size - 1)]
    return seq, out


def _windows(scenario: Scenario, workers: int) -> Iterator[Window]:
    """Every block's windows in trial order. The trials split into consecutive
    blocks whose sizes differ by at most one: one block per worker, or the
    fewest multiple of `workers` blocks that keeps each within MAX_BLOCK
    trials. The blocks run in a pool of at most one process per CPU, each
    returned whole (`run_block`), taken as one window and held only by the
    caller; or in this process, window by window, when that is one. The split
    does not depend on it."""
    t = scenario.trials
    n = min(t, workers * -(-t // (workers * MAX_BLOCK)))
    bounds = [t * j // n for j in range(n + 1)]
    starts, stops = bounds[:-1], bounds[1:]
    procs = min(workers, n, os.cpu_count() or 1)
    if procs > 1:
        # imported here: the process-pool modules cost every command ~20 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=procs) as pool:
            blocks = pool.map(run_block, repeat(scenario), starts, stops)
            for lo in starts:
                block = next(blocks)
                yield Window(lo, 0, block.legit_sq, block.pred_sq, block.eve_err,
                             block.eve_saturated_at, block.events)
                del block                    # freed before the next block arrives
    else:
        for lo, hi in zip(starts, stops):
            yield from block_windows(scenario, lo, hi)


def run_monte_carlo(scenario: Scenario, workers: int = 1,
                    compute_bound_trace: bool = False) -> RunResult:
    """Block-parallel execution (see `_windows`). A trial's results do not
    depend on its block or its windows (see `block_windows`), and each window
    is folded into running per-step sums as it arrives, trial by trial in
    trial order, so the outputs are bitwise independent of the worker count.
    At one worker only a window's error series are held at a time."""
    h, t, d = scenario.horizon, scenario.trials, scenario.model.d_x
    sq = np.empty((t, h))                    # squared prediction-error norms, for the SE
    legit_sq, eve_sq, eve_sum = np.zeros(h), np.zeros(h), np.zeros((h, d))
    saturated_at = np.empty(t, dtype=int)
    events = []
    for win in _windows(scenario, workers):
        trials = slice(win.start, win.start + len(win.saturated_at))
        steps = slice(win.lo, win.lo + win.legit_sq.shape[1])
        sq[trials, steps] = win.pred_sq
        saturated_at[trials] = win.saturated_at
        if win.events is not None:
            events.append(win.events)
        # trial by trial, so that no sum depends on the split into blocks or windows
        legit = legit_sq[steps]
        for row in win.legit_sq:
            legit += row
        for _, e in win.live_errors():
            eve_sq[win.lo:win.lo + len(e)] += np.einsum("hd,hd->h", e, e)
            eve_sum[win.lo:win.lo + len(e)] += e
        win = row = e = None                 # a pool's block is freed before the next arrives

    trace_se = sq.std(axis=0, ddof=1) / math.sqrt(t) if t > 1 else np.zeros(h)
    gone = np.cumsum(np.bincount(saturated_at, minlength=h + 1)[:h])  # saturated by step k
    n_alive = t - gone
    with np.errstate(invalid="ignore", divide="ignore"):
        mse_eve = np.where(n_alive > 0, eve_sq / np.maximum(n_alive, 1), np.inf)
        mean_err = np.where(n_alive[:, None] > 0,
                            eve_sum / np.maximum(n_alive, 1)[:, None], np.nan)
    if not scenario.track_eavesdropper:
        mse_eve = np.full(h, np.nan)
        mean_err = np.full((h, d), np.nan)

    bound_seq = bound_trace = None
    if compute_bound_trace:
        bound_seq, bound_trace = compute_bound(scenario)

    return RunResult(
        mse_legit=legit_sq / t,
        mse_eve=mse_eve,
        eve_saturated=(gone > 0).astype(np.uint8),
        emp_cov_trace=sq.sum(axis=0) / t,
        emp_cov_trace_se=trace_se,
        eve_mean_err=mean_err,
        events=np.concatenate(events),
        diverged_trials=int(gone[-1]),
        trials=t,
        horizon=h,
        bound=bound_seq,
        bound_trace=bound_trace,
    )


def secrecy_report(result: RunResult, scenario: Scenario) -> dict:
    """Empirical check of the two secrecy criteria.

    (i)  the empirical prediction covariance trace stays below the bound
         trace plus 3 standard errors at every step, and the bound is bounded;
    (ii) the eavesdropper mean-error norm grows geometrically at rate at
         least ln(min{a_i > 1}) - 0.05 past the first critical event, or the
         divergence flag tripped; without a tracked eavesdropper it is not
         measured and does not hold.
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
        "bound_verdict": result.bound.verdict,
        "bound_degenerate_steps": result.bound.degenerate_steps,
        "max_bound_violation": float((emp - result.bound_trace - slack).max()),
        "diverged_trials": result.diverged_trials,
    }
    slope = None
    if result.diverged_trials > 0:
        crit_ii, mode = True, "diverged-flag"
    elif not growing:
        crit_ii, mode = False, "no-growth-channel"
    elif not scenario.track_eavesdropper:
        crit_ii, mode = False, "eavesdropper-not-tracked"
    else:
        growth_events = result.events[scenario.a[result.events[:, 1]] > 1.0, 2]
        if not growth_events.size:
            crit_ii, mode = False, "no-critical-event"
        else:
            start = growth_events.min() + 2
            norms = np.linalg.norm(np.nan_to_num(result.eve_mean_err), axis=1)
            ks = np.arange(result.horizon)
            mask = (ks >= start) & np.isfinite(result.mse_eve) & (norms > 0)
            want = math.log(min(growing)) - SLOPE_MARGIN
            if mask.sum() < 4:
                crit_ii, mode = False, "window-too-short"
            else:
                slope = float(np.polyfit(ks[mask], np.log(norms[mask]), 1)[0])
                crit_ii, mode = slope >= want, "log-linear-fit"
                detail["slope_required"] = want
    detail.update(criterion_ii=crit_ii, criterion_ii_mode=mode, slope=slope,
                  secrecy=crit_i and crit_ii)
    return detail


def write_csv(path, header, rows) -> None:
    """A CSV file of `%s`-formatted fields, written EVENTS_CHUNK rows at a time."""
    line, rows = ",".join(["%s"] * len(header)) + "\n", iter(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(line % tuple(header))
        while chunk := list(islice(rows, EVENTS_CHUNK)):
            fh.write("".join(line % tuple(row) for row in chunk))


def _complex_pair(z) -> list[float]:
    """`json`'s hook for what it cannot encode: a complex number becomes its
    [real, imag] pair, and anything else a TypeError."""
    if isinstance(z, (complex, np.complexfloating)):
        return [float(z.real), float(z.imag)]
    raise TypeError(f"{type(z).__name__} {z!r} is not JSON serializable")


def write_json(path, obj) -> None:
    """A JSON file as every command writes it: sorted keys, indent 2, one final
    newline, and each complex number (a PBH eigenvalue) as its [real, imag] pair.
    The text is encoded before the file is opened, so a failure leaves no file."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_complex_pair) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_mse_csv(result: RunResult, path) -> None:
    """Per-step metrics: k, mse_legit, mse_eve, mse_eve_saturated, trace_emp_cov[, trace_bound]."""
    columns = {"mse_legit": result.mse_legit, "mse_eve": result.mse_eve,
               "mse_eve_saturated": result.eve_saturated, "trace_emp_cov": result.emp_cov_trace}
    if result.bound_trace is not None:
        columns["trace_bound"] = result.bound_trace
    rows = ((k, fmt17(legit), fmt17(eve), int(sat), *map(fmt17, rest))
            for k, (legit, eve, sat, *rest) in enumerate(zip(*columns.values())))
    write_csv(path, ["k", *columns], rows)


def write_events_csv(result: RunResult, path) -> None:
    """Critical-event log: trial, channel, k_bar, worst_case; the rows are in trial
    order. The (E, 4) array becomes Python ints EVENTS_CHUNK rows at a time."""
    events = result.events
    write_csv(path, ["trial", "channel", "k_bar", "worst_case"],
              (row for lo in range(0, len(events), EVENTS_CHUNK)
               for row in events[lo:lo + EVENTS_CHUNK].tolist()))
