"""Boundedness and secrecy analysis: distortion-rate bounds, the modified
algebraic Riccati map over lossy channels, capacity/entropy and PBH solvability
conditions, and the eavesdropper gain floor.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import channel_capacity, total_capacity
from .codec import quantize
from .model import SensorModel, psd_factor, stack_sensors, symmetrize, whitened_stack

GAMMA_CAP = 1.0 - 1e-9
DIVERGENCE_TRACE = 1e12
# iterate_bound's look-ahead after a degenerate step: the most iterates one
# batched evaluation of the retention scalar covers
SPAN_MAX = 64
# pbh_unit_circle: distance that puts an eigenvalue on the unit circle; rank cut-off
PBH_EIG_TOL = 1e-8
PBH_RANK_RTOL = 1e-10


def cap_gamma(gamma_bar) -> np.ndarray:
    """Clip reception probabilities at 1 - 1e-9 for the bound machinery."""
    return np.minimum(np.atleast_1d(np.asarray(gamma_bar, dtype=float)), GAMMA_CAP)


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the covariance-bound iteration.

    `delta` holds the codec quantization steps (used when distortion rates are
    refreshed from the running iterate); `distortion_rates` holds fixed rates
    for the fixed-parameter mode. What depends only on the sensors and
    `gamma_bar` is built once here: the stacked layout of
    `model.stack_sensors` (stacked C, block-diagonal effective R, the sensor
    index `channel` of each row), the sensors grouped by output dimension, the
    whitened stack of R_i^{-1/2} C_i and the Hadamard weight.
    """

    A: np.ndarray
    qeff: np.ndarray
    sensors: tuple[SensorModel, ...]
    gamma_bar: np.ndarray
    s: float
    delta: np.ndarray | None = None
    distortion_rates: np.ndarray | None = None
    channel: np.ndarray = field(init=False, repr=False, compare=False)
    groups: tuple = field(init=False, repr=False, compare=False)
    c_stack: np.ndarray = field(init=False, repr=False, compare=False)
    r_block: np.ndarray = field(init=False, repr=False, compare=False)
    whitened: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.sensors)
        g = np.atleast_1d(np.asarray(self.gamma_bar, dtype=float))
        if not np.all((g > 0.0) & (g <= GAMMA_CAP)):
            raise ValueError("gamma_bar entries must lie in (0, 1-1e-9]; cap lossless links first")
        if g.size != m:
            raise ValueError("need one reception probability per sensor")
        if self.s == 0.0 or not math.isfinite(self.s):
            raise ValueError("scale s must be finite and nonzero")
        a = np.asarray(self.A, dtype=float)
        q = np.asarray(self.qeff, dtype=float)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(q))):
            raise ValueError("A and qeff must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "qeff", symmetrize(q))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "gamma_bar", g)
        for label in ("delta", "distortion_rates"):
            if getattr(self, label) is not None:
                v = np.atleast_1d(np.asarray(getattr(self, label), dtype=float))
                if v.size != m:
                    raise ValueError(f"{label} must have one entry per sensor ({m})")
                object.__setattr__(self, label, v)
        if self.delta is not None and not np.all(np.isfinite(self.delta) & (self.delta > 0.0)):
            raise ValueError("delta entries must be finite and positive")
        dn = self.distortion_rates
        if dn is not None and not np.all((dn > 0.0) & (dn < 1.0)):
            raise ValueError("distortion rates must lie in (0, 1)")
        c_stack, r_block, channel = stack_sensors(self.sensors)
        whitened = whitened_stack(self.sensors)[0]
        groups = _sensor_groups(self.sensors)
        for val in (c_stack, r_block, channel, whitened, *(arr for grp in groups for arr in grp)):
            val.setflags(write=False)
        for name, val in (("channel", channel), ("groups", groups), ("c_stack", c_stack),
                          ("r_block", r_block), ("whitened", whitened),
                          ("weight", hadamard_weight(g, channel))):
            object.__setattr__(self, name, val)


@dataclass
class BoundSequence:
    """Iterates of the covariance bound with their convergence verdict.

    `traces` holds the trace of each iterate, recorded as the iteration ran;
    `degenerate_steps` counts the iterates whose retention scalar was 0, i.e.
    the steps that fell back to the prediction-only recursion; `fixed_point`
    is the last iterate of a converged run and None otherwise.
    """

    iterates: list[np.ndarray]
    traces: np.ndarray
    converged: bool
    diverged: bool
    degenerate_steps: int = 0

    @property
    def fixed_point(self) -> np.ndarray | None:
        return self.iterates[-1] if self.converged else None

    @property
    def verdict(self) -> str:
        return "diverged" if self.diverged else ("converged" if self.converged else "max-steps")


def _sensor_groups(sensors) -> tuple:
    """Sensors grouped by output dimension, in order of first appearance: per
    group the sensor indices, the stacked C_i, their transposes and the
    stacked effective R_i."""
    groups = []
    for d_y in dict.fromkeys(sn.d_y for sn in sensors):
        idx = np.array([i for i, sn in enumerate(sensors) if sn.d_y == d_y])
        c = np.stack([sensors[i].C for i in idx])
        groups.append((idx, c, np.swapaxes(c, 1, 2), np.stack([sensors[i].r_eff for i in idx])))
    return tuple(groups)


def distortion_rates(sigma: np.ndarray, groups, delta: np.ndarray, s: float) -> np.ndarray:
    """Conservative rates d_i with s^2 E[e_i e_i^T] <= d_i (C_i Sigma C_i^T + R_i),
    from Var(e) <= delta_i^2/4, in sensor order and capped at 1 - 1e-6.

    `sigma` must be symmetric; `groups` is `BoundParams.groups`. One batched
    eigvalsh per output dimension gives each lambda_min(C_i Sigma C_i^T + R_i).
    A stack of Sigma (leading axes) gives the stack of rate vectors, each with
    the bits of its own call, and raises if any Sigma of it would.
    """
    lam = np.empty(sigma.shape[:-2] + delta.shape)
    for idx, c, ct, r in groups:
        lam[..., idx] = np.linalg.eigvalsh(c @ sigma[..., None, :, :] @ ct + r)[..., 0]
    if np.count_nonzero(lam.min(axis=-1) <= 0.0):
        raise ValueError("innovation covariance must be positive definite")
    rates = np.minimum(1.0 - 1e-6, (s * s) * (delta * delta / 4.0) / lam)
    if np.count_nonzero(rates.min(axis=-1) <= 0.0):
        raise ValueError("distortion rate must be positive")
    return rates


def inflation_diag(rates: np.ndarray, s: float, channel: np.ndarray) -> np.ndarray:
    """Diagonal of the block-diagonal inflation matrix V: per sensor
    sqrt(s^2 d + |s| eta + d/(|s| eta)) at eta = sqrt(d)/|s|, where the last two
    terms are smallest (2 sqrt(d)), on each of the sensor's stacked rows. A
    stack of rate vectors gives the stack of diagonals."""
    s_abs = abs(s)
    eta = np.sqrt(rates) / s_abs
    return np.sqrt(s * s * rates + s_abs * eta + rates / (s_abs * eta))[..., channel]


def retention_scalar(sigma_minus, c_stack, r_block, v) -> float | np.ndarray:
    """sqrt(lambda_min(S - V S V) / lambda_max(S)) for the stacked innovation
    covariance S = C Sigma C^T + R of a symmetric Sigma and V = diag(v).

    Degenerates to 0 when S - V S V is indefinite, i.e. the encoding noise
    overwhelms the innovation and the bound falls back to the prediction-only
    recursion; `iterate_bound` counts these steps. One eigvalsh call serves S
    and S - V S V. A stack of Sigma (leading axes) with the stack of their v
    gives the array of scalars, each with the bits of its own call, and raises
    if any S of the stack is singular.
    """
    s_mat = symmetrize(c_stack @ sigma_minus @ c_stack.T + r_block)
    vsv = (v[..., :, None] * s_mat) * v[..., None, :]
    eig = np.linalg.eigvalsh(np.array((s_mat, symmetrize(s_mat - vsv))))
    if np.count_nonzero(eig[0, ..., 0] <= 0.0):
        raise ValueError("stacked innovation covariance is singular")
    return np.sqrt(np.maximum(eig[1, ..., 0], 0.0) / eig[0, ..., -1])


def hadamard_weight(gamma_bar, channel: np.ndarray) -> np.ndarray:
    """Bernoulli second-moment weight: cross-channel blocks 1, own blocks 1/gamma_i."""
    g = np.atleast_1d(np.asarray(gamma_bar, dtype=float))
    return np.where(channel[:, None] == channel[None, :], 1.0 / g[channel], 1.0)


def riccati_map(x: np.ndarray, params: BoundParams, w: float) -> np.ndarray:
    """One application of the lossy-channel Riccati map to a symmetric X.

    Maps X to A X A^T + Q - A X H^T [M ∘ (H X H^T + I)]^{-1} H X A^T, with H
    the whitened measurement stack scaled by the retention scalar w and M the
    channel-wise Hadamard weight accounting for Bernoulli reception. At w = 0
    the gain term is zero, and the map is A X A^T + Q without a solve.
    """
    x = np.asarray(x, dtype=float)
    a = params.A
    if w == 0.0:
        return symmetrize(a @ x @ a.T + params.qeff)
    h = params.whitened * w
    n = h.shape[0]
    inner = params.weight * (h @ x @ h.T + np.eye(n))
    t1 = a @ x @ h.T
    try:
        gain_term = t1 @ np.linalg.solve(inner, t1.T)
    except np.linalg.LinAlgError:
        raise ValueError("inner Hadamard-weighted matrix is singular") from None
    return symmetrize(a @ x @ a.T + params.qeff - gain_term)


def _fro(x: np.ndarray) -> float:
    """`np.linalg.norm(x, "fro")` of a real matrix, bit for bit, without its dispatch."""
    v = x.ravel("K")
    return math.sqrt(v.dot(v))


def iterate_bound(
    v1: np.ndarray,
    params: BoundParams,
    max_steps: int,
    recompute: bool = True,
    tol: float = 1e-10,
) -> BoundSequence:
    """Iterate the Riccati map from V_1 (caller-supplied, >= the first prediction covariance).

    With `recompute`, the distortion rates and the retention scalar w are
    refreshed from the running iterate (which stands in for the prediction
    covariance they reference); otherwise the fixed distortion_rates of `params`
    are used and w is frozen at its V_1 value. V_1 is symmetrized and the map
    returns symmetric iterates, so each step reads its iterate as it is.
    Convergence is declared at relative Frobenius change < tol, divergence at a
    trace above DIVERGENCE_TRACE or not finite.

    Each pass of the loop looks ahead from the current iterate: after a
    degenerate step (w = 0) it runs the w = 0 map for up to SPAN_MAX iterates
    within the step budget, stopping before a trace above DIVERGENCE_TRACE,
    and evaluates w at all of them in one call of `distortion_rates`,
    `inflation_diag` and `retention_scalar`. A call that raises is repeated on
    the current iterate alone, which raises where and how the step-by-step run
    would, or gives its w. The pass then steps through the run while w = 0 and
    ends at the first w != 0, at convergence or at divergence. The stacked
    calls give each iterate the bits of its own call, and the run makes the
    `riccati_map` calls the steps make, so iterates, traces, verdicts,
    degenerate counts and errors do not depend on SPAN_MAX.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if recompute and params.delta is None:
        raise ValueError("recompute mode needs the codec quantization steps in params.delta")
    if not recompute and params.distortion_rates is None:
        raise ValueError("fixed mode needs distortion rates in params.distortion_rates")

    current = symmetrize(np.asarray(v1, dtype=float))
    iterates, traces = [current], [float(current.trace())]
    fixed_w = None if recompute else retention_scalar(
        current, params.c_stack, params.r_block,
        inflation_diag(params.distortion_rates, params.s, params.channel))
    degenerate, converged, diverged, w = 0, False, False, None
    # each pass: ys, the current iterate and, after a degenerate step (the last
    # pass's w = 0), its w = 0 run; ts their traces and ws their w
    while len(iterates) < max_steps and not (converged or diverged):
        ys, ts = [current], [traces[-1]]
        while w == 0.0 and len(ys) < min(SPAN_MAX, max_steps - len(iterates)):
            y = riccati_map(ys[-1], params, 0.0)
            tr = float(y.trace())
            if not tr <= DIVERGENCE_TRACE:
                break
            ys.append(y)
            ts.append(tr)
        if recompute:
            for xs in (np.array(ys), current[None]):
                try:
                    rates = distortion_rates(xs, params.groups, params.delta, params.s)
                    ws = retention_scalar(xs, params.c_stack, params.r_block,
                                          inflation_diag(rates, params.s, params.channel)).tolist()
                    break
                except ValueError:  # from some iterate: retry the current one alone
                    if len(xs) == 1:
                        raise
        else:
            ws = [fixed_w] * len(ys)
        for j, w in enumerate(ws):
            if w == 0.0 and j + 1 < len(ys):
                nxt, tr = ys[j + 1], ts[j + 1]
            else:
                nxt = riccati_map(current, params, w)
                tr = float(nxt.trace())
            degenerate += w == 0.0
            iterates.append(nxt)
            traces.append(tr)
            rel = _fro(nxt - current) / max(1.0, _fro(current))
            current = nxt
            diverged = not tr <= DIVERGENCE_TRACE
            converged = not diverged and rel < tol
            if diverged or converged or w != 0.0:
                break
    return BoundSequence(iterates=iterates, traces=np.array(traces), converged=converged,
                         diverged=diverged, degenerate_steps=degenerate)


def mahler_entropy(a: np.ndarray) -> tuple[float, float]:
    """Product of eigenvalue magnitudes clipped below at 1, and its logarithm."""
    ev = np.linalg.eigvals(np.asarray(a, dtype=float))
    m = float(np.prod(np.maximum(np.abs(ev), 1.0)))
    return m, math.log(m)


def capacity_condition(a: np.ndarray, gamma_bar) -> dict:
    """Compare the summed channel capacity against the plant's instability entropy."""
    per_channel = [channel_capacity(g) for g in np.atleast_1d(gamma_bar)]
    cap = total_capacity(gamma_bar)
    mahler, entropy = mahler_entropy(a)
    return {
        "per_channel_capacity": per_channel,
        "total_capacity": cap,
        "mahler_measure": mahler,
        "entropy": entropy,
        "satisfied": bool(cap > entropy),
    }


def pbh_unit_circle(a: np.ndarray, qeff: np.ndarray) -> dict:
    """Rank test of [A - lambda I, B] at unit-circle eigenvalues, B B^T = qeff.

    Rank can only drop at eigenvalues of A, so checking the finitely many
    unit-circle eigenvalues settles the all-frequency condition.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    b = psd_factor(qeff)
    eigs = np.linalg.eigvals(a)
    unit = [complex(l) for l in eigs if abs(abs(l) - 1.0) < PBH_EIG_TOL]
    failures = []
    for lam in unit:
        block = np.hstack([a - lam * np.eye(d), b.astype(complex)])
        sv = np.linalg.svd(block, compute_uv=False)
        rank = int(np.sum(sv > PBH_RANK_RTOL * sv[0])) if sv[0] > 0.0 else 0
        if rank < d:
            failures.append(lam)
    return {
        "unit_circle_eigenvalues": unit,
        "failures": failures,
        "passed": not failures,
    }


def gain_floor(qeff: np.ndarray, c_stack: np.ndarray, p_eve: np.ndarray,
               r_block: np.ndarray) -> tuple[float, float]:
    """Gain floor kappa with (K_e)^T K_e >= kappa I, and the verification margin.

    kappa = lambda_min(Q)^2 lambda_min(C^T C) / lambda_max(C P C^T + R)^2;
    a singular Q makes the floor vacuous (kappa = 0, with a warning).
    """
    if c_stack.size == 0 or not np.any(c_stack):
        raise ValueError("measurement stack must be nonzero")
    p_eve = symmetrize(np.asarray(p_eve, dtype=float))
    s_mat = symmetrize(c_stack @ p_eve @ c_stack.T + r_block)
    eig_s = np.linalg.eigvalsh(s_mat)
    if eig_s[0] <= 0.0:
        raise ValueError("innovation covariance must be positive definite")
    lam_q = float(np.linalg.eigvalsh(symmetrize(qeff))[0])
    if lam_q <= 0.0:
        warnings.warn("lambda_min(Q) <= 0: gain floor is vacuous (kappa = 0)", stacklevel=2)
        kappa = 0.0
    else:
        lam_c = max(0.0, float(np.linalg.eigvalsh(symmetrize(c_stack.T @ c_stack))[0]))
        kappa = lam_q ** 2 * lam_c / float(eig_s[-1]) ** 2
    k_gain = np.linalg.solve(s_mat, c_stack @ p_eve).T
    margin = float(np.linalg.eigvalsh(
        symmetrize(k_gain.T @ k_gain) - kappa * np.eye(s_mat.shape[0]))[0])
    return kappa, margin


@dataclass(frozen=True)
class NoiseDominationReport:
    """Monte Carlo verdict on the two encoding-noise dominations."""

    ok_blockwise: bool
    ok_stacked: bool
    margin_blockwise: float
    margin_stacked: float
    slack: float

    @property
    def ok(self) -> bool:
        return self.ok_blockwise and self.ok_stacked


def noise_domination_check(
    sigma_minus: np.ndarray,
    sensors,
    codecs,
    outcomes,
    n_samples: int,
    rng: np.random.Generator,
) -> NoiseDominationReport:
    """Estimate Rdec + s E[v e^T + e v^T] through the actual encoder and check
    both dominations (blockwise middle term, and V S V) within 3-standard-error slack.

    Pairs (v, e) are drawn at the prediction point: x ~ N(0, Sigma^-),
    v_i ~ N(0, R_i), the innovation C_i x + v_i is scaled by 1/s and quantized
    from the bootstrap reference.
    """
    if n_samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    sensors = list(sensors)
    codecs = list(codecs)
    gam = np.atleast_1d(np.asarray(outcomes, dtype=float))
    sigma = symmetrize(np.asarray(sigma_minus, dtype=float))
    s = codecs[0].s
    if any(c.s != s for c in codecs):
        raise ValueError("all channels must share the scale s")
    c_stack, r_block, channel = stack_sensors(sensors)
    g_row = gam[channel]

    fx = psd_factor(sigma)
    x = (fx @ rng.standard_normal((fx.shape[1], n_samples))).T
    v_cols, e_cols = [], []
    for sn, cd in zip(sensors, codecs):
        v = (psd_factor(sn.R) @ rng.standard_normal((sn.d_v, n_samples))).T
        y = x @ sn.C.T + v @ sn.E.T
        zbar = y / cd.s
        e = quantize(zbar, cd.delta, rng) - zbar
        v_cols.append(y - x @ sn.C.T)  # measurement-noise part E v
        e_cols.append(e)
    v_all = np.hstack(v_cols) * g_row
    e_all = np.hstack(e_cols) * g_row

    # per-sample symmetric contribution, then mean and entrywise standard error
    contrib = (s * s) * np.einsum("ti,tj->tij", e_all, e_all)
    cross = np.einsum("ti,tj->tij", v_all, e_all)
    contrib += s * (cross + np.transpose(cross, (0, 2, 1)))
    lhs = contrib.mean(axis=0)
    se = contrib.std(axis=0, ddof=1) / math.sqrt(n_samples)
    slack = 3.0 * float(np.linalg.norm(se, 2))

    # the bound's own rates and inflation V; the blockwise middle term is
    # diag(gam_i^2 V_i^2 (C_i Sigma C_i^T + R_i)), i.e. (Gam V) blockdiag(S_i) (Gam V)
    deltas = np.array([cd.delta for cd in codecs])
    v = inflation_diag(distortion_rates(sigma, _sensor_groups(sensors), deltas, s), s, channel)
    gv = g_row * v
    own = channel[:, None] == channel[None, :]
    s_blocks = np.where(own, c_stack @ sigma @ c_stack.T + r_block, 0.0)
    mid = (gv[:, None] * s_blocks) * gv[None, :]

    c_gam = g_row[:, None] * c_stack
    r_gam = g_row[:, None] ** 2 * r_block
    right = (v[:, None] * symmetrize(c_gam @ sigma @ c_gam.T + r_gam)) * v[None, :]

    margin_mid = float(np.linalg.eigvalsh(symmetrize(mid - lhs))[0])
    margin_right = float(np.linalg.eigvalsh(symmetrize(right - lhs))[0])
    return NoiseDominationReport(
        ok_blockwise=margin_mid > -slack,
        ok_stacked=margin_right > -slack,
        margin_blockwise=margin_mid,
        margin_stacked=margin_right,
        slack=slack,
    )
