import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ppfe.codec import (CodecOverflowError, CodecParams, CodecState, ack,
                        bootstrap_state, decode, eavesdrop_decode, encode,
                        growth_factors, quantize, EncodedPacket)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_quantize_on_lattice_is_exact():
    out = quantize(np.full(1000, 0.02), 0.01, rng(1))
    assert np.all(out == 0.02)


def test_quantize_midcell_half_half():
    n = 10 ** 5
    out = quantize(np.full(n, 0.025), 0.01, rng(2))
    assert set(np.round(out, 10)) == {0.02, 0.03}
    frac_up = np.mean(out > 0.0249)
    assert abs(frac_up - 0.5) < 3.0 / (2 * math.sqrt(n))
    assert abs(out.mean() - 0.025) < 3.0 * (0.01 / 2) / math.sqrt(n)


def test_quantize_negative_cell_floor_toward_minus_inf():
    # z = -0.013: d = -2, q = 0.7 -> -0.02 w.p. 0.3, -0.01 w.p. 0.7
    n = 10 ** 5
    out = quantize(np.full(n, -0.013), 0.01, rng(3))
    vals = set(np.round(out, 10))
    assert vals == {-0.02, -0.01}
    frac_up = np.mean(out > -0.015)
    assert abs(frac_up - 0.7) < 3.0 * math.sqrt(0.7 * 0.3 / n)


def test_quantize_mean_zero_and_variance_bound_random_points():
    r = rng(4)
    n = 10 ** 5
    for z in (-1.2345, 0.00071, 17.5003):
        out = quantize(np.full(n, z), 0.01, r)
        e = out - z
        q = z / 0.01 - math.floor(z / 0.01)
        assert abs(e.mean()) < 3.0 * (0.01 / 2) / math.sqrt(n)
        assert e.var() <= q * (1 - q) * 0.01 ** 2 * 1.05 + 1e-18


def test_quantize_lattice_membership():
    r = rng(5)
    z = r.normal(0, 5.0, size=2000)
    out = quantize(z, 0.03, r)
    ratio = out / 0.03
    assert np.all(np.abs(ratio - np.rint(ratio)) < 1e-9 * np.maximum(1.0, np.abs(ratio)))


def test_quantize_errors():
    with pytest.raises(ValueError):
        quantize(np.array([0.1]), 0.0, rng(0))
    with pytest.raises(ValueError):
        quantize(np.array([np.inf]), 0.1, rng(0))


def test_encode_bootstrap_on_lattice_identity():
    # zero reference, s=1, on-lattice input -> transmitted value equals y
    params = CodecParams(a=5.0, delta=0.25, s=1.0)
    state = bootstrap_state(2)
    y = np.array([0.75, -1.5])
    pkt = encode(state, params, y, 3, rng(6))
    assert np.array_equal(pkt.z, y)


def test_encode_does_not_mutate_reference():
    params = CodecParams(a=2.0, delta=0.25, s=1.0)
    state = CodecState(y_ref=np.array([1.0]), t_ref=2, initialized=True)
    encode(state, params, np.array([4.0]), 5, rng(7))
    assert state.t_ref == 2 and state.y_ref[0] == 1.0


def test_encode_one_step_reference_and_scaling():
    params1 = CodecParams(a=3.0, delta=0.5, s=1.0)
    params2 = CodecParams(a=3.0, delta=0.5, s=2.0)
    state = CodecState(y_ref=np.array([2.0]), t_ref=4, initialized=True)
    y = np.array([8.0])
    # transparent mode exposes the pre-quantization value
    z1 = encode(state, params1, y, 5, rng(8), transparent=True).z
    z2 = encode(state, params2, y, 5, rng(8), transparent=True).z
    assert z1[0] == (8.0 - 3.0 * 2.0) / 1.0
    assert z2[0] == (8.0 - 3.0 * 2.0) / 2.0


def test_decode_roundtrip_exact_on_lattice():
    params = CodecParams(a=2.0, delta=0.25, s=1.0)
    enc_state = bootstrap_state(1)
    dec_state = bootstrap_state(1)
    y = np.array([1.25])
    pkt = encode(enc_state, params, y, 0, rng(9))
    ybar, dec_state = decode(dec_state, params, pkt.z, 0)
    assert ybar[0] == 1.25
    assert dec_state.t_ref == 0 and dec_state.initialized


def test_decode_mean_zero_and_variance():
    # repeated independent encode/decode from a fixed reference
    n = 10 ** 5
    for s in (1.0, 2.0):
        params = CodecParams(a=2.0, delta=0.01, s=s)
        state = CodecState(y_ref=np.array([0.4]), t_ref=0, initialized=True)
        y = 0.73218
        r = rng(10)
        pre = (y - 2.0 * 0.4) / s
        z = quantize(np.full(n, pre), 0.01, r)
        ybar = z * s + 2.0 * 0.4
        err = ybar - y
        assert abs(err.mean()) < 3.0 * (s * 0.01 / 2) / math.sqrt(n)
        assert err.var() <= s * s * 0.01 ** 2 / 4.0 * 1.05


def test_ack_mirrors_decoder_state_across_drop_patterns():
    params = CodecParams(a=5.0, delta=0.01, s=1.0)
    r = rng(11)
    enc = bootstrap_state(1)
    dec = bootstrap_state(1)
    outcomes = (np.random.default_rng(12).random(40) < 0.6).astype(int)
    for k in range(40):
        y = np.array([math.sin(0.3 * k)])
        pkt = encode(enc, params, y, k, r)
        if outcomes[k]:
            ybar, dec = decode(dec, params, pkt.z, k)
            enc = ack(enc, ybar, k)
            assert enc.t_ref == dec.t_ref
            assert np.array_equal(enc.y_ref, dec.y_ref)
    # after the first ACK the states stay identical at every step
    assert enc.initialized == dec.initialized


def test_first_ack_bootstrap_reference():
    params = CodecParams(a=5.0, delta=0.25, s=2.0)
    enc = bootstrap_state(1)
    y = np.array([1.0])
    pkt = encode(enc, params, y, 0, rng(13))
    ybar, dec = decode(bootstrap_state(1), params, pkt.z, 0)
    assert np.array_equal(ybar, pkt.z * 2.0)
    state = ack(enc, ybar, 0)
    assert state.t_ref == 0 and np.array_equal(state.y_ref, ybar)


def test_eavesdropper_identical_history_identical_decodes():
    params = CodecParams(a=5.0, delta=0.01, s=1.0)
    r = rng(14)
    enc = bootstrap_state(1)
    dec = bootstrap_state(1)
    eve = bootstrap_state(1)
    for k in range(30):
        y = np.array([0.1 * k])
        pkt = encode(enc, params, y, k, r)
        ybar, dec = decode(dec, params, pkt.z, k)
        ybar_e, eve = eavesdrop_decode(eve, params, pkt.z, k)
        enc = ack(enc, ybar, k)
        assert np.array_equal(ybar, ybar_e)


def _worst_case_decode_errors(a, delta, s, k_bar, horizon, transparent, seed=15):
    """Single channel, authorized link lossless, wiretap misses only k_bar.

    Returns (eve decode errors, encoder quantization errors) per step.
    """
    params = CodecParams(a=a, delta=delta, s=s)
    r = rng(seed)
    enc = bootstrap_state(1)
    dec = bootstrap_state(1)
    eve = bootstrap_state(1)
    e_bar = np.full(horizon, np.nan)
    e_enc = np.zeros(horizon)
    for k in range(horizon):
        y = np.array([0.3 + 0.05 * math.sin(0.7 * k)])
        if transparent:
            pkt = encode(enc, params, y, k, r, transparent=True)
        else:
            if enc.initialized:
                pre = (y - a ** (k - enc.t_ref) * enc.y_ref) / s
            else:
                pre = y / s
            z = quantize(pre, delta, r)
            e_enc[k] = float(z[0] - pre[0])
            pkt = EncodedPacket(z=z, k=k)
        ybar, dec = decode(dec, params, pkt.z, k)
        enc = ack(enc, ybar, k)
        if k != k_bar:
            ybar_e, eve = eavesdrop_decode(eve, params, pkt.z, k)
            e_bar[k] = float(ybar_e[0] - y[0])
    return e_bar, e_enc


@settings(max_examples=25, deadline=None)
@example(a=5.0, s=1.0, k_bar=3)
@given(a=st.floats(1.2, 10.0, exclude_min=True, exclude_max=True),
       s=st.sampled_from([1.0, 2.0]), k_bar=st.integers(0, 5))
def test_worst_case_growth_transparent_ratio_exact(a, s, k_bar):
    # the C3 law on random codecs: past the missed packet the eavesdropper's
    # decode error grows by exactly a per step, here over 15 steps
    e_bar, _ = _worst_case_decode_errors(a, 0.01, s, k_bar, k_bar + 17, transparent=True)
    for k in range(k_bar + 2, k_bar + 17):
        ratio = e_bar[k] / e_bar[k - 1]
        assert abs(ratio - a) < 1e-9 * a


def test_worst_case_growth_with_quantizer_term_by_term():
    # replayed quantization noise must reproduce the closed-form recursion
    a, delta, s = 5.0, 0.01, 1.0
    k_bar = 2
    e_bar, e_enc = _worst_case_decode_errors(a, delta, s, k_bar, 22, transparent=False)
    seed_term = e_bar[k_bar + 1] - e_enc[k_bar + 1] * s
    for k in range(k_bar + 2, 22):
        predicted = a ** (k - k_bar - 1) * seed_term + e_enc[k] * s
        assert abs(e_bar[k] - predicted) < 1e-6 * max(1.0, abs(predicted))


def test_worst_case_ratio_approaches_a_once_error_dominates():
    a, delta, s = 5.0, 0.01, 1.0
    e_bar, _ = _worst_case_decode_errors(a, delta, s, 2, 22, transparent=False)
    for k in range(4, 22):
        if abs(e_bar[k - 1]) > 100 * s * delta:
            assert abs(e_bar[k] / e_bar[k - 1] - a) < 0.05 * a


def test_exponent_overflow_raises():
    params = CodecParams(a=10.0, delta=0.01, s=1.0)
    state = CodecState(y_ref=np.array([1.0]), t_ref=0, initialized=True)
    with pytest.raises(CodecOverflowError):
        encode(state, params, np.array([0.0]), 800, rng(16))
    with pytest.raises(CodecOverflowError):
        decode(state, params, np.array([0.0]), 800)


def test_uninitialized_reference_skips_growth_factor():
    # huge gap with a bootstrap reference must not overflow: the term is absent
    params = CodecParams(a=10.0, delta=0.01, s=1.0)
    pkt = encode(bootstrap_state(1), params, np.array([0.5]), 10_000, rng(17))
    ybar, _ = decode(bootstrap_state(1), params, pkt.z, 10_000)
    assert abs(ybar[0] - 0.5) <= 0.01


def test_codec_params_validation():
    for bad in (dict(a=0.0, delta=0.1, s=1.0), dict(a=2.0, delta=0.0, s=1.0),
                dict(a=2.0, delta=0.1, s=0.0), dict(a=math.inf, delta=0.1, s=1.0),
                dict(a=2.0, delta=math.nan, s=1.0), dict(a=2.0, delta=0.1, s=math.nan)):
        with pytest.raises(ValueError):
            CodecParams(**bad)
    # the decoding-noise variance s^2 delta^2 / 4 must be finite too: its product
    # overflows, or s^2 alone raises OverflowError in Python floats
    for bad in (dict(a=2.0, delta=1e200, s=1.0), dict(a=2.0, delta=1e60, s=1e100),
                dict(a=2.0, delta=1e-200, s=1e200)):
        with pytest.raises(ValueError, match=r"decoding-noise variance .* overflows with delta"):
            CodecParams(**bad)
    assert CodecParams(a=2.0, delta=1e54, s=1e100).delta == 1e54
    # past ln a = 690, a^gap overflows at every gap >= 1, so no reference could grow
    for bad in (1e300, math.exp(690.5)):
        with pytest.raises(ValueError, match=r"^growth base a must lie in \(0, e\^690\], got "):
            CodecParams(a=bad, delta=0.01, s=1.0)
    edge = CodecParams(a=math.exp(689.9), delta=0.01, s=1.0)
    assert not growth_factors([edge.a], [1], [True])[1].any()
