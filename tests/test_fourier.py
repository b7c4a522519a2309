import math
import random
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_exact_poly, random_real_poly
from leafcoh.errors import AmbiguityError, DimensionError, EmptySupportError
from leafcoh.exact import ExactCoeff
from leafcoh.fourier import (
    TrigPoly,
    _float_product,
    decay_report,
    frame_derivative,
    grid_transform,
    inverse_grid,
)


def test_evaluate_examples():
    assert TrigPoly.constant(1, 3.0).evaluate(0.77) == pytest.approx(3.0)
    f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
    assert f.evaluate(0.0) == pytest.approx(2.0)
    g = TrigPoly.mode(2, (1, 0), 1.0)
    assert abs(g.evaluate((0.25, 0.0)) - 1j) < 1e-15


def test_canonical_form_drops_zeros():
    f = TrigPoly(1, {(1,): 1.0, (2,): 0.0})
    assert set(f.coeffs) == {(1,)}
    g = f - f
    assert g.coeffs == {}
    e = TrigPoly(1, {(1,): ExactCoeff({})})
    assert e.coeffs == {}


def test_grid_constant_and_single_mode():
    gc = grid_transform(np.full((8, 8), 2.5 + 0j))
    assert gc.coeffs == {(0, 0): 2.5 + 0j}
    x = np.arange(8) / 8
    ge = grid_transform(np.exp(2j * np.pi * x))
    assert set(ge.coeffs) == {(1,)}
    assert ge.coeffs[(1,)] == pytest.approx(1.0)


def test_grid_round_trip_random(rng):
    for _ in range(10):
        coeffs = {}
        for _ in range(6):
            k = tuple(rng.randint(-5, 5) for _ in range(2))
            coeffs[k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = TrigPoly(2, coeffs)
        back = grid_transform(inverse_grid(f, 16))
        assert (f - back).sup_coeff() < 1e-12


def test_grid_nyquist_ambiguity():
    x = np.arange(8) / 8
    with pytest.raises(AmbiguityError):
        grid_transform(np.exp(2j * np.pi * 4 * x))
    with pytest.raises(AmbiguityError):
        inverse_grid(TrigPoly.mode(1, (5,), 1.0), 8)


def test_frame_derivative_examples():
    assert frame_derivative(TrigPoly.constant(2, 4.0), [0.3, 0.7]).coeffs == {}
    d = frame_derivative(TrigPoly.mode(2, (1, 0), 1.0), [0.618, 1.0])
    assert d.coeffs[(1, 0)] == pytest.approx(2j * math.pi * 0.618)


def test_frame_derivative_leibniz_exact(rng):
    f = random_exact_poly(rng, 2, n_modes=4)
    g = random_exact_poly(rng, 2, n_modes=4)
    v = [Fraction(2, 3), Fraction(-1, 5)]
    lhs = frame_derivative(f * g, v)
    rhs = frame_derivative(f, v) * g + f * frame_derivative(g, v)
    assert (lhs - rhs).coeffs == {}


def test_frame_derivative_leibniz_float(rng):
    f = random_real_poly(rng, 2, n_modes=4)
    g = random_real_poly(rng, 2, n_modes=4)
    v = [0.37, 1.21]
    lhs = frame_derivative(f * g, v)
    rhs = frame_derivative(f, v) * g + f * frame_derivative(g, v)
    assert (lhs - rhs).sup_coeff() < 1e-12


def test_frame_derivative_commutes_exact(rng):
    f = random_exact_poly(rng, 3, n_modes=5)
    v = [Fraction(1, 2), Fraction(1, 3), Fraction(0)]
    w = [Fraction(-2), Fraction(5, 7), Fraction(1)]
    a = frame_derivative(frame_derivative(f, v), w)
    b = frame_derivative(frame_derivative(f, w), v)
    assert (a - b).coeffs == {}


def test_decay_report_single_mode():
    rows = decay_report(TrigPoly.mode(1, (1,), 1.0), [3])
    assert rows[0].value == pytest.approx(1.0)
    assert rows[0].witness == (1,)


def test_decay_report_geometric_enumeration():
    # oracle: enumerate |c_k| |k|^r over the support directly
    f = TrigPoly(1, {(k,): 2.0 ** -abs(k) for k in range(-10, 11) if k != 0})
    expected = max(abs(k) * 2.0 ** -abs(k) for k in range(1, 11))
    rows = decay_report(f, [1])
    assert rows[0].value == pytest.approx(expected)
    assert expected == pytest.approx(0.5)
    assert rows[0].witness == (1,)


def test_decay_report_homogeneity(rng):
    f = random_real_poly(rng, 1, n_modes=5, zero_mean=True)
    base = decay_report(f, [0.5, 2])
    scaled = decay_report(f.scale(5.0), [0.5, 2])
    for b, s in zip(base, scaled):
        assert s.value == pytest.approx(5 * b.value)
        assert s.witness == b.witness


def test_decay_report_empty_support():
    with pytest.raises(EmptySupportError):
        decay_report(TrigPoly.constant(1, 3.0), [1])


def test_is_real_preserved(rng):
    f = random_real_poly(rng, 2, n_modes=4)
    g = random_real_poly(rng, 2, n_modes=4)
    assert f.is_real(1e-12) and g.is_real(1e-12)
    assert (f + g).is_real(1e-12)
    assert (f * g).is_real(1e-12)
    assert frame_derivative(f, [0.3, 0.9]).is_real(1e-12)
    back = grid_transform(inverse_grid(f, 16))
    assert back.is_real(1e-10)
    assert not TrigPoly.mode(1, (1,), 1j).is_real()


def test_dimension_checks():
    with pytest.raises(DimensionError):
        TrigPoly(2, {(1,): 1.0})
    with pytest.raises(DimensionError):
        TrigPoly.mode(1, (1,), 1.0).evaluate((0.1, 0.2))
    with pytest.raises(DimensionError):
        TrigPoly.mode(1, (1,), 1.0) + TrigPoly.mode(2, (1, 0), 1.0)


def test_json_round_trip(rng):
    f = random_real_poly(rng, 2, n_modes=4)
    back = TrigPoly.from_json(f.to_json())
    assert (f - back).sup_coeff() == 0.0
    obj = f.to_json()
    assert obj["coeffs"] == sorted(obj["coeffs"], key=lambda r: tuple(r["k"]))


def test_frame_derivative_commutes_float(rng):
    f = random_real_poly(rng, 3, n_modes=5)
    v = [0.37, 1.21, -0.8]
    w = [2.02, -0.11, 0.55]
    a = frame_derivative(frame_derivative(f, v), w)
    b = frame_derivative(frame_derivative(f, w), v)
    assert (a - b).sup_coeff() < 1e-10


# ----------------------------------------------------------------------
# the float kernels against the loops they replaced


def dict_loop_product(a: TrigPoly, b: TrigPoly) -> dict:
    """The mode-by-mode product loop, kept as the oracle of TrigPoly.__mul__."""
    out: dict = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            p = c1 * c2
            if k in out:
                s = out[k] + p
                if s:
                    out[k] = s
                else:
                    del out[k]
            elif p:
                out[k] = p
    return out


def scalar_evaluate(f: TrigPoly, x) -> complex:
    """The mode-by-mode evaluation loop, kept as the oracle of TrigPoly.evaluate."""
    pt = (x,) if isinstance(x, (int, float)) else tuple(float(v) for v in x)
    total = 0.0 + 0.0j
    for k, c in f.coeffs.items():
        kx = 0  # plain left-to-right sum (sum() compensates floats from Python 3.12 on)
        for ki, xi in zip(k, pt):
            kx = kx + ki * xi
        phase = 2.0 * math.pi * kx
        total += complex(c) * complex(math.cos(phase), math.sin(phase))
    return total


def _bits(c):
    """The float64 bits of a float-lane value; an exact value stands for itself."""
    if isinstance(c, (int, float, complex)):
        c = complex(c)
        return struct.pack("<dd", c.real, c.imag)
    return c


def assert_same_store(got: dict, want: dict):
    """Same keys in the same order, same coefficient types, same bits."""
    assert list(got) == list(want)
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
    assert [_bits(c) for c in got.values()] == [_bits(c) for c in want.values()]


# few distinct parts make exact cancellations and signed zeros common
_parts = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.25, 3.0]) | st.floats(-2, 2)
_coeffs = st.builds(complex, _parts, _parts)


@st.composite
def _polys(draw, count, min_modes, max_modes):
    """`count` polynomials on one torus T^1..T^3, supports near 0 or far apart."""
    dims = draw(st.integers(1, 3))
    near = st.integers(-3, 3)
    far = st.sampled_from([-(2**62 - 1), -(10**9), 10**9, 2**62 - 1])
    freq = st.tuples(*[near | far for _ in range(dims)])
    coeffs = st.dictionaries(freq, _coeffs, min_size=min_modes, max_size=max_modes)
    return [TrigPoly(dims, draw(coeffs)) for _ in range(count)]


@st.composite
def _dense_polys(draw, count):
    """`count` polynomials whose supports fill a small box, so the kernel takes them."""
    dims = draw(st.integers(1, 3))
    r = 1 if dims == 3 else 3
    freq = st.tuples(*[st.integers(-r, r) for _ in range(dims)])
    coeffs = st.dictionaries(freq, _coeffs, min_size=7, max_size=24)
    return [TrigPoly(dims, draw(coeffs)) for _ in range(count)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(pair=_polys(2, 1, 24))
def test_product_matches_dict_loop(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        want = dict_loop_product(x, y)
        got = _float_product(x.coeffs, y.coeffs)
        if got is not None:  # None: sparse or int64-unsafe supports, left to the loop
            assert_same_store(got, want)
        assert_same_store((x * y).coeffs, want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=_dense_polys(2))
def test_dense_product_runs_the_kernel(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        got = _float_product(x.coeffs, y.coeffs)
        assert got is not None
        assert_same_store(got, dict_loop_product(x, y))


def test_product_kernel_cancels_and_reinserts():
    # (1 + z)(1 - z) on a 40-mode support: keys die and come back
    a = TrigPoly(1, {(k,): complex(1.0, -0.0) for k in range(40)})
    b = TrigPoly(1, {(k,): complex((-1.0) ** k, 0.0) for k in range(40)})
    c = TrigPoly(1, {(k,): complex(-0.0, (-1.0) ** k) for k in range(-20, 20)})
    for x, y in ((a, b), (b, a), (a, c), (c, b), (b, b)):
        assert_same_store((x * y).coeffs, dict_loop_product(x, y))
    assert len((a * b).coeffs) < len(a.coeffs) + len(b.coeffs) - 1


def test_product_mixed_and_exact_operands_keep_the_loop(rng):
    f = random_exact_poly(rng, 2, n_modes=5)
    g = TrigPoly(2, {(i, j): 1.5 for i in range(5) for j in range(5)})  # float, not complex
    h = TrigPoly(2, {(i, j): complex(i, -j) for i in range(5) for j in range(5)})
    for x, y in ((f, f), (g, h), (h, g), (g, g)):
        assert_same_store((x * y).coeffs, dict_loop_product(x, y))


def test_product_beyond_int64_and_far_apart_supports():
    for top in (2**62, 2**70):
        huge = TrigPoly(1, {(top,): 1.0 + 1.0j, **{(k,): 0.5 - 0.25j for k in range(20)}})
        assert _float_product(huge.coeffs, huge.coeffs) is None
        assert_same_store((huge * huge).coeffs, dict_loop_product(huge, huge))
    # modes at 0 and 1e9 in three dimensions: the kernel declines, the loop runs
    far = TrigPoly(3, {(s * 10**9, t, -s * 10**9): complex(1 + s, t) for s in range(2) for t in range(10)})
    assert _float_product(far.coeffs, far.coeffs) is None
    tracemalloc.start()
    try:
        got = far * far
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_store(got.coeffs, dict_loop_product(far, far))
    assert peak < 1_000_000


_points = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1e-9, -3.75]) | st.floats(-4, 4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys=_polys(1, 0, 12), data=st.data())
def test_evaluate_matches_scalar_loop(polys, data):
    f = polys[0]
    if f.dims == 1 and data.draw(st.booleans()):
        x = data.draw(st.integers(-7, 7) | _points)
    else:
        x = data.draw(st.lists(_points, min_size=f.dims, max_size=f.dims))
    assert _bits(f.evaluate(x)) == _bits(scalar_evaluate(f, x))


def test_evaluate_exact_and_float_coefficients(rng):
    for f in (random_exact_poly(rng, 2, n_modes=5), TrigPoly(1, {(1,): 0.5, (-3,): 2})):
        x = [0.3] * f.dims
        assert _bits(f.evaluate(x)) == _bits(scalar_evaluate(f, x))
    assert TrigPoly.zero(2).evaluate((0.1, 0.2)) == 0j
    with pytest.raises(ValueError):  # math.cos(inf) is a domain error
        TrigPoly.mode(1, (3,), 1.0).evaluate(1e308)


def test_numpy_cos_sin_match_math():
    """The bit-identity of evaluate and of the section check rests on this."""
    rng_np = np.random.default_rng(8)
    x = np.concatenate([
        rng_np.uniform(-1, 1, 20000),
        rng_np.uniform(-100, 100, 20000),
        2 * math.pi * rng_np.uniform(-50, 50, 20000),
        rng_np.uniform(-1e6, 1e6, 20000),
        np.array([0.0, -0.0, 1e-300, math.pi, -math.pi / 2, 1e22]),
    ])
    xs = x.tolist()
    assert np.cos(x).tolist() == [math.cos(v) for v in xs], "np.cos differs from math.cos"
    assert np.sin(x).tolist() == [math.sin(v) for v in xs], "np.sin differs from math.sin"
