"""Centralized fusion filter over decoded, partially received measurements.

The same predict/update recursion serves the legitimate user and the
eavesdropper, for a whole block of trials at once; the two runs differ only
in their channel outcomes and decoded streams. The update is the
outcome-gated stacked form of Sinopoli et al., "Kalman filtering with
intermittent observations" (IEEE TAC 2004), processed one whitened scalar
row at a time (Bierman, "Factorization Methods for Discrete Sequential
Estimation", 1977): a dropped channel's rows get zero gain, and every scalar
innovation variance is at least 1, so no solve or conditioning check is needed.
"""
from __future__ import annotations

import numpy as np

from .codec import CodecParams
from .model import SensorModel, SystemModel, stack_sensors, symmetrize, whitened_stack


class FusionFilter:
    """Batched predict/update for one plant and its stacked sensors.

    Estimates are (B, d_x) and covariances (B, d_x, d_x); received masks are
    (B, M) per channel; measurements and decoding-noise variances are
    (B, sum d_y), the latter also as one row shared by the block. A sensor
    whose E R E^T is not positive definite cannot be whitened, and building
    the filter raises a ValueError that names it.
    """

    def __init__(self, model: SystemModel, sensors):
        self.A = model.A
        self.channel = stack_sensors(sensors)[2]
        self.cw, white = whitened_stack(sensors)
        d = model.d_x
        self.white_t = white.T
        self.w = self.cw.T @ white                     # C^T R^{-1}
        # row-major vec(A P A^T) = vec(P) kron(A, A)^T
        self.kron_t = np.kron(self.A, self.A).T
        self.q_flat = model.qeff.reshape(d * d)

    def predict(self, x: np.ndarray, P: np.ndarray, bu: np.ndarray):
        """Time update: x <- A x + B u, P <- A P A^T + D Q D^T."""
        vec = P.reshape(len(P), -1) @ self.kron_t + self.q_flat
        return x @ self.A.T + bu, vec.reshape(P.shape)

    def update(self, x: np.ndarray, P: np.ndarray, y: np.ndarray, received: np.ndarray,
               rdec: np.ndarray):
        """Measurement update; a row with no received channel keeps (x, P).

        With c_j row j of the whitened stack R^{-1/2} C and y~ = R^{-1/2} y, the
        rows j are absorbed in turn, each step a broadcast over the block:
            pc = P c_j,  k = gate_j pc / (c_j^T pc + 1),
            x += k (y~_j - c_j^T x),  P -= k pc^T,
        gate_j saying whether row j's channel was received. The decoding noise
        then adds K diag(rdec) K^T, with K = P+ C^T R^{-1} the gain over the
        received rows and P+ the posterior. This is the covariance form to
        rounding times the largest eigenvalue of the whitened innovation
        covariance R^{-1/2} S R^{-1/2}, the prior against the noise. A P or x
        that is not finite passes through, for the caller to check.
        """
        rows = received[:, self.channel]
        b, d = x.shape
        # the block's rows run along the last axis; z = [P; x^T] per row, so one
        # product with c_j gives P c_j and c_j^T x, and one outer product updates both
        z = np.empty((d + 1, d, b))
        z[:d] = P.transpose(1, 2, 0)
        z[d] = x.T
        yw = np.where(rows, y, 0.0) @ self.white_t      # dropped rows: 0, never inf
        for c, gate, yj in zip(self.cw, rows.T, yw.T):
            v = np.einsum("ilb,l->ib", z, c)
            pc = v[:d]
            k = pc * (gate / (np.einsum("ib,i->b", pc, c) + 1.0))
            v[d] -= yj
            z -= v[:, None] * k
        post = z[:d]
        gain = np.einsum("iab,aj->ijb", post, self.w)        # K = P+ C^T R^-1 per row
        post += np.einsum("ijb,jb,kjb->ikb", gain, np.where(rows, rdec, 0.0).T, gain)
        return (np.ascontiguousarray(z[d].T),
                symmetrize(np.ascontiguousarray(post.transpose(2, 0, 1))))


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
