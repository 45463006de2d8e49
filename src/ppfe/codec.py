"""Encoding-based privacy mechanism: probabilistic uniform quantization plus
reference-time bookkeeping for the legitimate and eavesdropping decoders.

Each channel transmits a quantized, scaled innovation against a reference
value that grows by a factor `a` per step since the last acknowledged
reception. Missing a single packet therefore poisons every later decode on
that channel, while the legitimate side (which mirrors the decoder through
acknowledgments) stays lossless in expectation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# a^gap beyond this log threshold cannot be represented in double precision
_MAX_EXP_LOG = 690.0


class CodecOverflowError(OverflowError):
    """Reference growth a^gap left the floating-point range."""


@dataclass(frozen=True)
class CodecParams:
    """Per-channel encoding parameters: growth base a, step delta, global scale s."""

    a: float
    delta: float
    s: float
    # the filters' decoding-noise variance s^2 delta^2 / 4 (`estimator.decoding_noise`)
    variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.a < math.inf or math.log(self.a) > _MAX_EXP_LOG:
            raise ValueError(f"growth base a must lie in (0, e^{_MAX_EXP_LOG:g}], got {self.a}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"quantization step delta must be positive and finite, got {self.delta}")
        if self.s == 0.0 or not math.isfinite(self.s):
            raise ValueError(f"scale s must be nonzero and finite, got {self.s}")
        try:
            variance = float(self.s) ** 2 * float(self.delta) ** 2 / 4.0
        except OverflowError:
            variance = math.inf
        if not 0.0 < variance < math.inf:
            raise ValueError(f"decoding-noise variance s^2 delta^2 / 4 "
                             f"{'overflows' if variance else 'underflows to 0'} with "
                             f"delta = {self.delta} and s = {self.s}")
        object.__setattr__(self, "variance", variance)


@dataclass(frozen=True)
class CodecState:
    """Reference bookkeeping for one (channel, party) pair.

    Before the first successful reception the reference is (t_ref=0, y_ref=0)
    and `initialized` is False; the growth factor is then skipped entirely, so
    the bootstrap packet decodes as z*s regardless of the elapsed time.
    """

    y_ref: np.ndarray
    t_ref: int = 0
    initialized: bool = False

    def __post_init__(self):
        y = np.asarray(self.y_ref, dtype=float)
        y.setflags(write=False)
        object.__setattr__(self, "y_ref", y)
        if self.t_ref < 0:
            raise ValueError("reference time must be >= 0")


def bootstrap_state(dim: int) -> CodecState:
    return CodecState(y_ref=np.zeros(dim))


@dataclass(frozen=True)
class EncodedPacket:
    """Lattice vector z (component-wise multiple of delta) with its time stamp."""

    z: np.ndarray
    k: int


def quantize(zbar: np.ndarray, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Probabilistic uniform quantization onto the lattice {d*delta, d integer}.

    Per component, with d = floor(zbar/delta) and q = zbar/delta - d, returns
    d*delta with probability 1-q and (d+1)*delta with probability q. The
    floor is taken toward -inf so q in [0, 1) for negative inputs too. The
    error is zero-mean with variance q(1-q)delta^2 <= delta^2/4.
    """
    if not delta > 0.0:
        raise ValueError("quantization step delta must be positive")
    z = np.asarray(zbar, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("quantizer input must be finite")
    return round_to_lattice(z, delta, rng.random(z.shape))


def round_to_lattice(z: np.ndarray, delta, u: np.ndarray) -> np.ndarray:
    """The quantizer's rounding with pre-drawn uniforms u: one step up where u < q.

    `delta` broadcasts against z, so one call rounds every component of a
    block of trials. Inputs are not validated; `quantize` is the checked form.
    """
    scaled = z / delta
    d = np.floor(scaled)
    return (d + (u < scaled - d)) * delta


def growth_factors(a, gap, initialized) -> tuple[np.ndarray, np.ndarray]:
    """Reference growth a^gap, elementwise: (factor, overflow).

    The factor is 1 where the reference is uninitialized or gap is 0, and
    also where a^gap leaves the floating-point range, which `overflow` marks.
    """
    a = np.asarray(a, dtype=float)
    gap = np.asarray(gap)
    live = np.asarray(initialized) & (gap != 0)
    overflow = live & (a > 1.0) & (gap * np.log(a) > _MAX_EXP_LOG)
    with np.errstate(over="ignore"):
        factor = np.where(live & ~overflow, a ** gap, 1.0)
    return factor, overflow


def reference_residual(y, factor, y_ref, s):
    """The encoder's pre-quantization value (y - factor y_ref) / s, elementwise."""
    return (y - factor * y_ref) / s


def reconstruct(z, factor, y_ref, s):
    """The decoder's reconstruction z s + factor y_ref, elementwise."""
    return z * s + factor * y_ref


def _reference_factor(state: CodecState, params: CodecParams, k: int) -> float:
    """a^{k-t_ref}, or 0 before the first reception (the reference is then ignored)."""
    gap = k - state.t_ref
    if gap < 0:
        raise ValueError(f"step {k} precedes the reference time")
    if not state.initialized:
        return 0.0
    factor, overflow = growth_factors(params.a, gap, True)
    if overflow:
        raise CodecOverflowError(
            f"reference growth a^{gap} = {params.a}^{gap} overflows at step {k}")
    return float(factor)


def encode(state: CodecState, params: CodecParams, y: np.ndarray, k: int,
           rng: np.random.Generator, transparent: bool = False) -> EncodedPacket:
    """Quantize (y - a^{k-t_ref} y_ref) / s; the reference advances only on ACK.

    `transparent` is a test-only mode that skips quantization (identity map,
    zero encoding error) to expose the deterministic reference recursion.
    """
    factor = _reference_factor(state, params, k)
    pre = reference_residual(np.asarray(y, dtype=float), factor, state.y_ref, params.s)
    z = pre if transparent else quantize(pre, params.delta, rng)
    return EncodedPacket(z=z, k=k)


def decode(state: CodecState, params: CodecParams, z: np.ndarray, k: int
           ) -> tuple[np.ndarray, CodecState]:
    """Legitimate decode: ybar = z s + a^{k-t_ref} y_ref, reference moved to (k, ybar)."""
    factor = _reference_factor(state, params, k)
    ybar = reconstruct(np.asarray(z, dtype=float), factor, state.y_ref, params.s)
    return ybar, CodecState(y_ref=ybar, t_ref=k, initialized=True)


def ack(state: CodecState, decoded: np.ndarray, k: int) -> CodecState:
    """Encoder-side mirror of a successful legitimate reception at step k."""
    return CodecState(y_ref=np.asarray(decoded, dtype=float), t_ref=k, initialized=True)


# The eavesdropper decodes with the same formula, driven by its own reception history.
eavesdrop_decode = decode
