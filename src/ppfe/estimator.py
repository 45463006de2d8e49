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

from .codec import CodecParams
from .model import SensorModel, SystemModel, stack_sensors, symmetrize

COND_LIMIT = 1e12


class ConditioningError(ValueError):
    """The innovation covariance of one row of a block is ill-conditioned."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def ill_conditioned(s: np.ndarray) -> np.ndarray:
    """Which of a stack of symmetric matrices have an eigenvalue <= 0 or a
    condition number above COND_LIMIT, by their eigenvalues."""
    eig = np.linalg.eigvalsh(s)
    return (eig[:, 0] <= 0.0) | (eig[:, -1] > COND_LIMIT * eig[:, 0])


class FusionFilter:
    """Batched predict/update for one plant and its stacked sensors.

    Estimates are (B, d_x) and covariances (B, d_x, d_x); received masks are
    (B, M) per channel; measurements and decoding-noise variances are
    (B, sum d_y), the latter also as one row shared by the block.
    """

    def __init__(self, model: SystemModel, sensors):
        self.A = model.A
        self.qeff = model.qeff
        self.C, self.R, self.channel = stack_sensors(sensors)
        # least eigenvalue of each sensor's E R E^T; -inf where it is singular,
        # which leaves any row that receives that sensor to the exact check
        floor = np.array([np.linalg.eigvalsh(s.r_eff)[0] for s in sensors])
        self.noise_floor = np.where(floor > 0.0, floor, -np.inf)

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

        Conditioning contract: a row whose S has an eigenvalue <= 0 or a
        condition number above COND_LIMIT (1e12) raises ConditioningError,
        naming the first such row and its received channels. Most rows are
        cleared without eigenvalues. With P >= 0, S_received = C_r P C_r^T + R_r
        has lambda_min >= floor, the least `noise_floor` of a received sensor,
        and lambda_max <= trace(S_received), so a row with trace(S_received)
        <= COND_LIMIT / 2 * floor has cond(S) <= COND_LIMIT / 2. At that
        condition eigvalsh's rounding moves the eigenvalues by about
        n eps trace(S) <= n 1e-4 floor, far inside the factor 2, so its test
        could not flag such a row. Every other row, including one that
        receives a sensor with a singular E R E^T, gets that test itself: the
        verdict and the named row are those of testing every row.
        """
        rows = received[:, self.channel]
        gc = np.where(rows[:, :, None], self.C, 0.0)
        gcp = gc @ P
        both = rows[:, :, None] & rows[:, None, :]
        s = symmetrize(gcp @ np.swapaxes(gc, -1, -2) + np.where(both, self.R, 0.0))
        n = rows.sum(axis=1)
        trace = np.einsum("bii->b", s)
        c = np.where(n > 0, trace / np.maximum(n, 1), 1.0)
        s += np.where(rows, 0.0, c[:, None])[:, :, None] * np.eye(rows.shape[1])
        floor = np.where(received, self.noise_floor, np.inf).min(axis=1)
        unsure = np.flatnonzero(~(trace <= 0.5 * COND_LIMIT * floor))
        if unsure.size:
            bad = unsure[ill_conditioned(s[unsure])]
            if bad.size:
                row = int(bad[0])
                raise ConditioningError(
                    f"innovation covariance ill-conditioned (cond > {COND_LIMIT:.0e}) "
                    f"for received channels {tuple(np.flatnonzero(received[row]).tolist())}", row)
        gain_t = np.linalg.solve(s, gcp)  # K^T, zero rows for dropped channels
        gain = np.swapaxes(gain_t, -1, -2)
        innov = np.where(rows, y - x @ self.C.T, 0.0)
        x = x + (innov[:, None, :] @ gain_t)[:, 0]
        P = P - gain @ s @ gain_t + (gain * rdec[..., None, :]) @ gain_t
        return x, symmetrize(P)


def decoding_noise(codecs: list[CodecParams], channel: np.ndarray,
                   transparent: bool = False) -> np.ndarray:
    """Decoding-error variance s^2 delta^2 / 4 of each stacked row (sensor `channel`),
    or 0 with no quantizer."""
    if transparent:
        return np.zeros(channel.size)
    return np.array([c.s ** 2 * c.delta ** 2 / 4.0 for c in codecs])[channel]


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
    fusion = FusionFilter(model, sensors)
    ch = fusion.channel
    y = np.zeros((horizon, ch.size))
    rdec = np.tile(decoding_noise(codecs, ch), (horizon, 1))
    for k in range(horizon):
        q_k = None if q_values is None else q_values[k]
        for i in np.flatnonzero(outcomes[:, k]):
            if decoded[k][i] is None:
                raise ValueError(f"channel {i} has outcome 1 at step {k} but no decoded value")
            y[k, ch == i] = decoded[k][i]
            if q_k is not None and q_k[i] is not None:
                q = np.asarray(q_k[i], dtype=float)
                rdec[k, ch == i] = codecs[i].s ** 2 * q * (1.0 - q) * codecs[i].delta ** 2

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
