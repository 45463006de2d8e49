"""Centralized fusion filter over decoded, partially received measurements.

The same predict/update recursion serves the legitimate user and the
eavesdropper, for a whole block of trials at once; the two runs differ only
in their channel outcomes and decoded streams. The update is the
outcome-masked stacked form of Sinopoli et al., "Kalman filtering with
intermittent observations" (IEEE TAC 2004): every channel keeps its rows,
and a dropped channel's rows of C are zeroed, so the innovation covariance is
block diagonal, diag(S_received, c I), and the dropped channels get zero gain
columns. This is algebraically the reduced form that stacks only the received
channels, and the innovation covariance stays invertible.
"""
from __future__ import annotations

import numpy as np

from .analysis import stack_sensors
from .codec import CodecParams
from .model import SensorModel, SystemModel, symmetrize

COND_LIMIT = 1e12


class ConditioningError(ValueError):
    """The innovation covariance of one row of a block is ill-conditioned."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


class FusionFilter:
    """Batched predict/update for one plant and its stacked sensors.

    Estimates are (B, d_x) and covariances (B, d_x, d_x); received masks are
    (B, M) per channel; measurements and decoding-noise variances are
    (B, sum d_y), the latter also as one row shared by the block.
    """

    def __init__(self, model: SystemModel, sensors):
        self.A = model.A
        self.qeff = model.qeff
        self.C, self.R, dims = stack_sensors(sensors)
        self.channel = np.repeat(np.arange(len(dims)), dims)

    def predict(self, x: np.ndarray, P: np.ndarray, bu: np.ndarray):
        """Time update: x <- A x + B u, P <- A P A^T + D Q D^T."""
        return x @ self.A.T + bu, symmetrize(self.A @ P @ self.A.T + self.qeff)

    def update(self, x: np.ndarray, P: np.ndarray, y: np.ndarray, received: np.ndarray,
               rdec: np.ndarray):
        """Measurement update; a row with no received channel keeps (x, P).

        The innovation covariance is diag(S_received, c I) with c the mean
        eigenvalue trace(S_received) / n_received (1 when nothing is
        received). Its extreme eigenvalues are those of S_received, so the
        conditioning check is exactly the check on the reduced S, and a
        dropped channel's R, which never enters the update, is not checked.
        """
        rows = received[:, self.channel]
        gc = np.where(rows[:, :, None], self.C, 0.0)
        gcp = gc @ P
        both = rows[:, :, None] & rows[:, None, :]
        s = symmetrize(gcp @ np.swapaxes(gc, -1, -2) + np.where(both, self.R, 0.0))
        n = rows.sum(axis=1)
        c = np.where(n > 0, np.einsum("bii->b", s) / np.maximum(n, 1), 1.0)
        s += np.where(rows, 0.0, c[:, None])[:, :, None] * np.eye(rows.shape[1])
        eig = np.linalg.eigvalsh(s)
        bad = (eig[:, 0] <= 0.0) | (eig[:, -1] > COND_LIMIT * eig[:, 0])
        if bad.any():
            row = int(np.argmax(bad))
            raise ConditioningError(
                f"innovation covariance ill-conditioned (cond > {COND_LIMIT:.0e}) "
                f"for received channels {tuple(np.flatnonzero(received[row]).tolist())}", row)
        gain_t = np.linalg.solve(s, gcp)  # K^T, zero rows for dropped channels
        gain = np.swapaxes(gain_t, -1, -2)
        innov = np.where(rows, y - x @ self.C.T, 0.0)
        x = x + (innov[:, None, :] @ gain_t)[:, 0]
        P = P - gain @ s @ gain_t + (gain * rdec[..., None, :]) @ gain_t
        return x, symmetrize(P)


def decoding_noise(sensors, codecs: list[CodecParams], transparent: bool = False) -> np.ndarray:
    """Per-component decoding-error variance s^2 delta^2 / 4, or 0 with no quantizer."""
    if transparent:
        return np.zeros(sum(s.d_y for s in sensors))
    return np.concatenate([np.full(s.d_y, c.s ** 2 * c.delta ** 2 / 4.0)
                           for s, c in zip(sensors, codecs)])


def run_filter(
    model: SystemModel,
    sensors: list[SensorModel],
    codecs: list[CodecParams],
    outcomes: np.ndarray,
    decoded,
    q_values=None,
) -> np.recarray:
    """One trial of the fusion filter from the prior over an (M, horizon) outcome matrix.

    Returns a record array of length 2*horizon with fields `x` and `P`,
    alternating predicted and updated states [pred_0, upd_0, pred_1, ...].
    `decoded[k][i]` must be the decoded vector where outcomes[i, k] == 1.
    `q_values[k][i]` optionally gives the realized quantization probabilities
    (decoding variance s^2 q(1-q) delta^2); otherwise the bound delta^2/4 is used.
    """
    outcomes = np.asarray(outcomes).astype(bool)
    horizon = outcomes.shape[1]
    cols = np.cumsum([0, *(s.d_y for s in sensors)])
    y = np.zeros((horizon, cols[-1]))
    rdec = np.tile(decoding_noise(sensors, codecs), (horizon, 1))
    for k in range(horizon):
        q_k = None if q_values is None else q_values[k]
        for i in np.flatnonzero(outcomes[:, k]):
            if decoded[k][i] is None:
                raise ValueError(f"channel {i} has outcome 1 at step {k} but no decoded value")
            y[k, cols[i]:cols[i + 1]] = decoded[k][i]
            if q_k is not None and q_k[i] is not None:
                q = np.asarray(q_k[i], dtype=float)
                rdec[k, cols[i]:cols[i + 1]] = codecs[i].s ** 2 * q * (1.0 - q) * codecs[i].delta ** 2

    fusion = FusionFilter(model, sensors)
    d = model.d_x
    out = np.recarray(2 * horizon, dtype=[("x", float, (d,)), ("P", float, (d, d))])
    x, P = model.x0_mean[None], model.P0[None]
    for k in range(horizon):
        if k > 0:
            x, P = fusion.predict(x, P, model.B @ model.input_at(k - 1))
        out.x[2 * k], out.P[2 * k] = x[0], P[0]
        x, P = fusion.update(x, P, y[k:k + 1], outcomes[None, :, k], rdec[k])
        out.x[2 * k + 1], out.P[2 * k + 1] = x[0], P[0]
    return out


def filter_trace_csv(states: np.recarray, path) -> None:
    """Export the updated states of `run_filter`: k, estimate components, diag(P), trace(P)."""
    upd = states[1::2]
    if not len(upd):
        raise ValueError("no updated states to export")
    d = upd.x.shape[1]
    header = (["k"] + [f"xhat_{j + 1}" for j in range(d)]
              + [f"P_{j + 1}{j + 1}" for j in range(d)] + ["trace_P"])
    lines = [",".join(header)]
    for k, s in enumerate(upd):
        row = ([str(k)] + [format(v, ".17g") for v in s.x]
               + [format(v, ".17g") for v in np.diag(s.P)]
               + [format(float(np.trace(s.P)), ".17g")])
        lines.append(",".join(row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
