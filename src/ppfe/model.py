"""Linear multi-sensor plant: model types, presets, seeded trajectory generation."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSD_EIG_TOL = 1e-10


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Symmetric part of a matrix, or of each matrix in a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def check_psd(m: np.ndarray, name: str, tol: float = PSD_EIG_TOL) -> np.ndarray:
    """Symmetrize and require min eigenvalue >= -tol."""
    s = symmetrize(np.asarray(m, dtype=float))
    lo = float(np.linalg.eigvalsh(s)[0])
    if lo < -tol:
        raise ValueError(f"{name} is not positive semidefinite (min eigenvalue {lo:.3e})")
    return s


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T == sigma; negative eigenvalues are clipped at 0.

    Valid for rank-deficient covariances, so Q = 0 is legal for sampling.
    """
    w, u = np.linalg.eigh(symmetrize(np.asarray(sigma, dtype=float)))
    w = np.where(w > 0.0, w, 0.0)
    return u * np.sqrt(w)


def _matrix(x, name: str) -> np.ndarray:
    a = np.array(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    return a


def _vector(x, name: str) -> np.ndarray:
    a = np.array(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {a.shape}")
    return a


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
        u = np.zeros(d_u) if self.u is None else np.array(self.u, dtype=float)
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
    """Sensor y_i = C_i x + E_i v_i with v_i ~ N(0, R_i), R_i positive definite."""

    C: np.ndarray
    R: np.ndarray
    E: np.ndarray | None = None

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
        for name, val in (("C", C), ("E", E), ("R", R)):
            object.__setattr__(self, name, _lock(val))

    @property
    def d_y(self) -> int:
        return self.C.shape[0]

    @property
    def d_v(self) -> int:
        return self.E.shape[1]

    @property
    def r_eff(self) -> np.ndarray:
        """Covariance E R E^T of the noise as it enters the measurement."""
        return symmetrize(self.E @ self.R @ self.E.T)


@dataclass(frozen=True)
class Trajectory:
    """One plant realization: states x_0..x_H, measurements y_{i,0}..y_{i,H-1}."""

    states: np.ndarray
    measurements: tuple[np.ndarray, ...]

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        meas = tuple(np.asarray(m, dtype=float) for m in self.measurements)
        h = states.shape[0] - 1
        if h < 1:
            raise ValueError("trajectory must cover at least one step")
        for m in meas:
            if m.shape[0] != h:
                raise ValueError("measurement length must equal the horizon")
        object.__setattr__(self, "states", _lock(states))
        object.__setattr__(self, "measurements", meas)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def step_state(model: SystemModel, x: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One deterministic transition A x + B u + D w."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != (model.d_x,) or u.shape != (model.d_u,) or w.shape != (model.d_w,):
        raise ValueError(
            f"dimension mismatch: expected x({model.d_x},), u({model.d_u},), w({model.d_w},); "
            f"got {x.shape}, {u.shape}, {w.shape}"
        )
    return model.A @ x + model.B @ u + model.D @ w


def measure(sensor: SensorModel, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One measurement C x + E v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape[0] != sensor.C.shape[1] or v.shape != (sensor.d_v,):
        raise ValueError(f"dimension mismatch: expected x({sensor.C.shape[1]},), v({sensor.d_v},)")
    return sensor.C @ x + sensor.E @ v


def simulate_plants(
    model: SystemModel,
    sensors: list[SensorModel],
    horizon: int,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded trajectories for a block of trials, one generator per trial.

    Returns states (B, horizon+1, d_x) and the row-stacked measurements
    (B, horizon, sum d_y). Each generator is split into independent
    init/process/measurement child streams, so the draw counts of one noise
    source never shift another; each child stream is drawn in one block, in
    the (step, sensor) order a step-by-step draw would use.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    streams = [rng.spawn(3) for rng in rngs]
    d_v = [s.d_v for s in sensors]
    z0 = np.stack([r_init.standard_normal(model.d_x) for r_init, _, _ in streams])
    w = np.stack([r_proc.standard_normal((horizon, model.d_w)) for _, r_proc, _ in streams])
    v = np.stack([r_meas.standard_normal((horizon, sum(d_v))) for _, _, r_meas in streams])

    dw = (w @ psd_factor(model.Q).T) @ model.D.T
    bu = model.inputs(horizon) @ model.B.T
    states = np.empty((len(rngs), horizon + 1, model.d_x))
    states[:, 0] = model.x0_mean + z0 @ psd_factor(model.P0).T
    for k in range(horizon):
        states[:, k + 1] = states[:, k] @ model.A.T + bu[k] + dw[:, k]
    cols = np.cumsum([0, *d_v])
    meas = [states[:, :horizon] @ s.C.T + (v[..., cols[i]:cols[i + 1]] @ psd_factor(s.R).T) @ s.E.T
            for i, s in enumerate(sensors)]
    return states, np.concatenate(meas, axis=-1)


def simulate_plant(
    model: SystemModel,
    sensors: list[SensorModel],
    horizon: int,
    rng: np.random.Generator,
) -> Trajectory:
    """One seeded trajectory: `simulate_plants` for a single generator."""
    states, meas = simulate_plants(model, sensors, horizon, [rng])
    cols = np.cumsum([0, *(s.d_y for s in sensors)])
    return Trajectory(states=states[0],
                      measurements=tuple(meas[0, :, cols[i]:cols[i + 1]] for i in range(len(sensors))))


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


def from_config(cfg: dict) -> tuple[SystemModel, list[SensorModel]]:
    """Build (model, sensors) from a key-value tree with row-major nested arrays.

    Either {"preset": "<name>"} or explicit matrices:
    {"A": ..., "Q": ..., "x0_mean": ..., "P0": ..., "B"?, "D"?, "u"?,
     "sensors": [{"C": ..., "R": ..., "E"?}, ...]}.
    """
    if "preset" in cfg:
        name = cfg["preset"]
        try:
            return MODEL_PRESETS[name]()
        except KeyError:
            raise ValueError(f"unknown model preset {name!r}; known: {sorted(MODEL_PRESETS)}") from None
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
