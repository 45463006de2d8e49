"""Linear multi-sensor plant: model types, presets, seeded trajectory generation."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

PSD_EIG_TOL = 1e-10


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def block_diag(blocks) -> np.ndarray:
    """Square blocks along the diagonal, zeros outside them."""
    dims = [b.shape[0] for b in blocks]
    out = np.zeros((sum(dims), sum(dims)))
    pos = 0
    for b, m in zip(blocks, dims):
        out[pos:pos + m, pos:pos + m] = b
        pos += m
    return out


def check_psd(m: np.ndarray, name: str) -> np.ndarray:
    """Symmetrize and require min eigenvalue >= -PSD_EIG_TOL."""
    s = symmetrize(np.asarray(m, dtype=float))
    lo = float(np.linalg.eigvalsh(s)[0])
    if lo < -PSD_EIG_TOL:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {lo:.3e})")
    return s


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T == sigma; negative eigenvalues are clipped at 0.

    Valid for rank-deficient covariances, so Q = 0 is legal for sampling.
    """
    w, u = np.linalg.eigh(symmetrize(np.asarray(sigma, dtype=float)))
    w = np.where(w > 0.0, w, 0.0)
    return u * np.sqrt(w)


def as_floats(x, name: str, ndmin: int = 0) -> np.ndarray:
    """A new float array of `x`; a string, boolean or null entry, or a value
    numpy cannot convert, is a fault naming `name`."""
    try:
        a = np.array(x, ndmin=ndmin)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    # numpy reads True as 1.0 and None as NaN, and a boolean mixed with numbers
    # leaves no trace in the dtype, so the entries themselves are checked
    for entry in np.array(x, dtype=object).flat:
        if entry is None or isinstance(entry, (bool, np.bool_, str, bytes)):
            raise ValueError(f"{name} must hold numbers, got {entry!r}")
    try:
        return a.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from None


def _finite(a: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def _matrix(x, name: str) -> np.ndarray:
    a = as_floats(x, name)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    return _finite(a, name)


def _vector(x, name: str) -> np.ndarray:
    a = as_floats(x, name)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {a.shape}")
    return _finite(a, name)


def _lock(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SystemModel:
    """Plant x_{k+1} = A x_k + B u_k + D w_k, w_k ~ N(0, Q), x_0 ~ N(x0_mean, P0).

    B defaults to all-zero (no input) and D to identity, so the same type
    serves both the input-free and the driven form of the dynamics. `u` is
    either a constant input vector or a per-step (T, d_u) sequence.
    """

    A: np.ndarray
    Q: np.ndarray
    x0_mean: np.ndarray
    P0: np.ndarray
    B: np.ndarray | None = None
    D: np.ndarray | None = None
    u: np.ndarray | None = None

    def __post_init__(self):
        A = _matrix(self.A, "A")
        d_x = A.shape[0]
        if A.shape[1] != d_x:
            raise ValueError("A must be square")
        D = np.eye(d_x) if self.D is None else _matrix(self.D, "D")
        if D.shape[0] != d_x:
            raise ValueError("D must have d_x rows")
        d_w = D.shape[1]
        Q = check_psd(_matrix(self.Q, "Q"), "Q")
        if Q.shape != (d_w, d_w):
            raise ValueError(f"Q must be {d_w}x{d_w} to match D, got {Q.shape}")
        B = np.zeros((d_x, 1)) if self.B is None else _matrix(self.B, "B")
        if B.shape[0] != d_x:
            raise ValueError("B must have d_x rows")
        d_u = B.shape[1]
        u = np.zeros(d_u) if self.u is None else _finite(as_floats(self.u, "u"), "u")
        if u.ndim not in (1, 2) or u.shape[-1] != d_u:
            raise ValueError(f"u must have trailing dimension {d_u}, got shape {u.shape}")
        x0 = _vector(self.x0_mean, "x0_mean")
        if x0.shape != (d_x,):
            raise ValueError("x0_mean must have length d_x")
        P0 = check_psd(_matrix(self.P0, "P0"), "P0")
        if P0.shape != (d_x, d_x):
            raise ValueError("P0 must be d_x x d_x")
        for name, val in (("A", A), ("B", B), ("D", D), ("Q", Q),
                          ("x0_mean", x0), ("P0", P0), ("u", _lock(u))):
            object.__setattr__(self, name, _lock(val))

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_u(self) -> int:
        return self.B.shape[1]

    @property
    def d_w(self) -> int:
        return self.D.shape[1]

    def inputs(self, horizon: int) -> np.ndarray:
        """(horizon, d_u) inputs of the transitions out of steps 0..horizon-1."""
        if self.u.ndim == 1:
            return np.broadcast_to(self.u, (horizon, self.d_u))
        if self.u.shape[0] < horizon:
            raise ValueError(f"input sequence u has {self.u.shape[0]} steps, "
                             f"the horizon needs {horizon}")
        return self.u[:horizon]

    def input_at(self, k: int) -> np.ndarray:
        """Input vector applied in the transition from step k to k+1."""
        if self.u.ndim == 1:
            return self.u
        if not 0 <= k < self.u.shape[0]:
            raise IndexError(f"input sequence has {self.u.shape[0]} steps, asked for step {k}")
        return self.u[k]

    @property
    def qeff(self) -> np.ndarray:
        """Effective process covariance D Q D^T acting on the state."""
        return symmetrize(self.D @ self.Q @ self.D.T)


@dataclass(frozen=True)
class SensorModel:
    """Sensor y_i = C_i x + E_i v_i with v_i ~ N(0, R_i), R_i positive definite.

    `r_eff` = E R E^T, the covariance of the noise as it enters the
    measurement, is built once; it is singular when E has fewer columns than rows.
    """

    C: np.ndarray
    R: np.ndarray
    E: np.ndarray | None = None
    r_eff: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        C = _matrix(self.C, "C")
        d_y = C.shape[0]
        if np.linalg.matrix_rank(C) != d_y:
            raise ValueError("C must have full row rank")
        E = np.eye(d_y) if self.E is None else _matrix(self.E, "E")
        if E.shape[0] != d_y:
            raise ValueError("E must have d_y rows")
        d_v = E.shape[1]
        R = symmetrize(_matrix(self.R, "R"))
        if R.shape != (d_v, d_v):
            raise ValueError(f"R must be {d_v}x{d_v} to match E, got {R.shape}")
        if float(np.linalg.eigvalsh(R)[0]) <= 0.0:
            raise ValueError("R must be positive definite")
        for name, val in (("C", C), ("E", E), ("R", R), ("r_eff", symmetrize(E @ R @ E.T))):
            object.__setattr__(self, name, _lock(val))

    @property
    def d_y(self) -> int:
        return self.C.shape[0]

    @property
    def d_v(self) -> int:
        return self.E.shape[1]


def stack_sensors(sensors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked layout of the fusion filter and the bound: the row-stacked C,
    the block-diagonal effective R, and the sensor index of each stacked row.
    A per-sensor value v is v[channel] per row; a sensor's own block is where
    channel[:, None] == channel[None, :]."""
    channel = np.repeat(np.arange(len(sensors)), [s.d_y for s in sensors])
    return np.vstack([s.C for s in sensors]), block_diag([s.r_eff for s in sensors]), channel


def whitened_stack(sensors) -> tuple[np.ndarray, np.ndarray]:
    """The stacked rows R_i^{-1/2} C_i, whose noise is white with unit variance,
    and the block-diagonal R^{-1/2} that whitens a stacked measurement, with
    R_i^{-1/2} the symmetric inverse square root of sensor i's E R E^T. A
    sensor whose E R E^T is not positive definite cannot be whitened: a fault
    that names it."""
    roots = []
    for i, s in enumerate(sensors):
        w, u = np.linalg.eigh(s.r_eff)
        if w[0] <= 0.0:
            raise ValueError(f"sensor {i}: effective noise E R E^T must be positive definite")
        roots.append((u / np.sqrt(w)) @ u.T)
    return np.vstack([r @ s.C for r, s in zip(roots, sensors)]), block_diag(roots)


class Trajectory(NamedTuple):
    """One plant realization: states x_0..x_H, measurements y_{i,0}..y_{i,H-1}."""

    states: np.ndarray
    measurements: tuple[np.ndarray, ...]


def simulate_plants(
    model: SystemModel,
    sensors: list[SensorModel],
    horizon: int,
    rngs: list[np.random.Generator],
    window: int | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Seeded trajectories for a block of trials, one generator per trial,
    yielded in consecutive windows of steps.

    Each window of steps lo..hi-1 yields (lo, states, meas): states
    (B, hi-lo+1, d_x) holds x_lo..x_hi and meas (B, hi-lo, sum d_y) the
    row-stacked measurements y_lo..y_{hi-1}. The windows have `window` steps
    (the whole horizon when None) and the last holds the rest, but never one
    step alone: numpy computes a one-row matmul by another path, so a
    one-step rest joins the window before it. Both arrays are views of
    buffers that the next window overwrites; copy what must outlive it.

    Each generator is split into independent init/process/measurement child
    streams, so the draw counts of one noise source never shift another. Each
    child stream is drawn window by window, in the (step, sensor) order a
    step-by-step draw would use, so the values do not depend on the window.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if window is not None and window < 2:
        raise ValueError(f"window must be >= 2 steps, got {window}")
    edges = [*range(0, horizon, window or horizon), horizon]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    span = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    streams = [rng.spawn(3) for rng in rngs]
    rows = np.cumsum([0, *(s.d_y for s in sensors)])
    cols = np.cumsum([0, *(s.d_v for s in sensors)])
    f_q = psd_factor(model.Q).T
    f_r = [psd_factor(s.R).T for s in sensors]
    bu = model.inputs(horizon) @ model.B.T
    b = len(rngs)
    w, v = np.empty((b, span, model.d_w)), np.empty((b, span, cols[-1]))
    states, meas = np.empty((b, span + 1, model.d_x)), np.empty((b, span, rows[-1]))

    z0 = np.stack([r_init.standard_normal(model.d_x) for r_init, _, _ in streams])
    states[:, 0] = model.x0_mean + z0 @ psd_factor(model.P0).T
    n = 0
    for lo, hi in zip(edges, edges[1:]):
        states[:, 0] = states[:, n]    # x_lo, the last state of the window before
        n = hi - lo
        for (_, r_proc, r_meas), w_t, v_t in zip(streams, w, v):
            r_proc.standard_normal(out=w_t[:n])
            r_meas.standard_normal(out=v_t[:n])
        dw = (w[:, :n] @ f_q) @ model.D.T
        for k in range(n):
            states[:, k + 1] = states[:, k] @ model.A.T + bu[lo + k] + dw[:, k]
        for i, s in enumerate(sensors):
            meas[:, :n, rows[i]:rows[i + 1]] = (states[:, :n] @ s.C.T
                                                + (v[:, :n, cols[i]:cols[i + 1]] @ f_r[i]) @ s.E.T)
        yield lo, states[:, :n + 1], meas[:, :n]


def simulate_plant(
    model: SystemModel,
    sensors: list[SensorModel],
    horizon: int,
    rng: np.random.Generator,
) -> Trajectory:
    """One seeded trajectory: `simulate_plants` for a single generator, in one window."""
    [(_, states, meas)] = simulate_plants(model, sensors, horizon, [rng])
    channel = stack_sensors(sensors)[2]
    return Trajectory(states=states[0],
                      measurements=tuple(meas[0][:, channel == i] for i in range(len(sensors))))


def three_tank_preset() -> tuple[SystemModel, list[SensorModel]]:
    """Coupled three-tank benchmark plant with three two-output level sensors."""
    a_mat = [
        [0.9889, 0.0001, 0.0110],
        [0.0001, 0.9774, 0.0119],
        [0.0110, 0.0119, 0.9770],
    ]
    b_mat = [
        [64.5993, 0.0015],
        [0.0015, 64.2236],
        [0.3604, 0.3910],
    ]
    model = SystemModel(
        A=a_mat,
        B=b_mat,
        D=b_mat,
        # process noise is 2-dimensional (it enters through D = B, d_x x 2)
        Q=1e-10 * np.eye(2),
        x0_mean=[0.3, 0.1, 0.2],
        P0=np.eye(3),
        u=[3.0e-5, 2.0e-5],
    )
    r = 1e-4 * np.eye(2)
    sensors = [
        SensorModel(C=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], R=r),
        SensorModel(C=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], R=r),
        SensorModel(C=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], R=r),
    ]
    return model, sensors


MODEL_PRESETS = {
    "three-tank": three_tank_preset,
}


def check_keys(cfg: dict, allowed: set[str], where: str) -> None:
    """Reject a configuration value that is not an object, and the keys of one
    that `allowed` does not name."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be an object, got {cfg!r:.60}")
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def from_config(cfg: dict) -> tuple[SystemModel, list[SensorModel]]:
    """Build (model, sensors) from a key-value tree with row-major nested arrays.

    Either {"preset": "<name>"} or explicit matrices:
    {"A": ..., "Q": ..., "x0_mean": ..., "P0": ..., "B"?, "D"?, "u"?,
     "sensors": [{"C": ..., "R": ..., "E"?}, ...]}.
    """
    if isinstance(cfg, dict) and "preset" in cfg:
        check_keys(cfg, {"preset"}, "a model preset")
        name = cfg["preset"]
        try:
            return MODEL_PRESETS[name]()
        except KeyError:
            raise ValueError(f"unknown model preset {name!r}; known: {sorted(MODEL_PRESETS)}") from None
    check_keys(cfg, {"A", "Q", "x0_mean", "P0", "B", "D", "u", "sensors"}, "model")
    if not isinstance(cfg.get("sensors", []), list):
        raise ValueError(f"model sensors must be a list, got {cfg['sensors']!r:.60}")
    for i, s in enumerate(cfg.get("sensors", ())):
        check_keys(s, {"C", "R", "E"}, f"sensor {i}")
    try:
        model = SystemModel(
            A=cfg["A"],
            Q=cfg["Q"],
            x0_mean=cfg["x0_mean"],
            P0=cfg["P0"],
            B=cfg.get("B"),
            D=cfg.get("D"),
            u=cfg.get("u"),
        )
        sensors = [SensorModel(C=s["C"], R=s["R"], E=s.get("E")) for s in cfg["sensors"]]
    except KeyError as exc:
        raise ValueError(f"model configuration is missing required key {exc}") from None
    return model, sensors
