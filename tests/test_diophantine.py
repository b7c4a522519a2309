import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafcoh.diophantine import (
    continued_fraction,
    exponent_fit,
    matrix_margin,
    scalar_margin,
    scalar_margin_at,
)
from leafcoh.diophantine import _ball_by_norm, _lattice_distance
from leafcoh.errors import EmptyRequestError, ExactnessError, InsufficientDataError
from leafcoh.scalars import (
    ApproximateReal,
    QuadraticIrrational,
    Rational,
    golden_ratio_conjugate,
    sqrt_scalar,
)


def mpmath_quotients(x_mpf, n):
    """Independent continued-fraction oracle at 60-digit precision."""
    out = []
    cur = x_mpf
    for _ in range(n):
        a = int(mpmath.floor(cur))
        out.append(a)
        cur = 1 / (cur - a)
    return out


def test_cf_rational_terminates():
    res = continued_fraction(Rational(7, 3), 4)
    assert res.quotients == [2, 3]
    assert res.terminated
    assert res.convergents == [(2, 1), (7, 3)]


def test_cf_golden_and_sqrt2_vs_oracle():
    with mpmath.workdps(60):
        golden = continued_fraction(golden_ratio_conjugate(), 10)
        assert golden.quotients == mpmath_quotients((mpmath.sqrt(5) - 1) / 2, 10)
        assert golden.quotients == [0] + [1] * 9
        root2 = continued_fraction(sqrt_scalar(2), 5)
        assert root2.quotients == mpmath_quotients(mpmath.sqrt(2), 5)
        assert root2.quotients == [1, 2, 2, 2, 2]


def test_cf_convergent_inequality():
    res = continued_fraction(sqrt_scalar(3), 12)
    x = math.sqrt(3.0)
    for (p, q), (p2, q2) in zip(res.convergents, res.convergents[1:]):
        assert abs(x - p / q) < 1.0 / (q * q2)


def test_cf_quadratic_eventually_periodic():
    # states repeat exactly, so quotients are eventually periodic in-window
    for x in (sqrt_scalar(7), QuadraticIrrational(3, 1, 4, 13)):
        res = continued_fraction(x, 40)
        tail = res.quotients[2:]
        found = False
        for period in range(1, len(tail) // 2 + 1):
            if all(
                tail[i] == tail[i + period] for i in range(len(tail) - period)
            ):
                found = True
                break
        assert found, res.quotients


def test_cf_errors():
    with pytest.raises(EmptyRequestError):
        continued_fraction(Rational(1, 2), 0)
    with pytest.raises(ExactnessError):
        continued_fraction(ApproximateReal(0.618), 5)


def test_scalar_margin_rational_zero():
    cert = scalar_margin(Rational(1, 2), 1.0, 10)
    assert cert.margin == 0.0
    assert cert.witness_k == (2,)
    assert cert.exact


def brute_force_margin(alpha_mpf, rho, K):
    best = mpmath.inf
    best_k = None
    for k in range(1, K + 1):
        v = k * alpha_mpf
        fr = v - mpmath.floor(v)
        d = min(fr, 1 - fr)
        m = d * mpmath.mpf(k) ** rho
        if m < best:
            best, best_k = m, k
    return float(best), best_k


def test_scalar_margin_golden_vs_brute_force():
    with mpmath.workdps(40):
        expect, k_expect = brute_force_margin((mpmath.sqrt(5) - 1) / 2, 1, 1000)
    cert = scalar_margin(golden_ratio_conjugate(), 1.0, 1000)
    assert cert.margin == pytest.approx(expect, abs=1e-14)
    assert cert.witness_k == (k_expect,)
    # the global minimum sits at k = 1 with value (3 - sqrt 5)/2
    assert cert.witness_k == (1,)
    assert cert.margin == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-14)


def test_scalar_margin_monotonicity():
    g = golden_ratio_conjugate()
    m1 = scalar_margin(g, 1.0, 100).margin
    m2 = scalar_margin(g, 1.0, 1000).margin
    assert m2 <= m1
    r2 = scalar_margin(g, 2.0, 1000).margin
    assert r2 >= m2


def test_margin_reproducible_at_witness():
    g = sqrt_scalar(2)
    cert = scalar_margin(g, 1.5, 500)
    again = scalar_margin_at(g, cert.witness_k[0], cert.rho)
    assert again == cert.margin


def test_matrix_margin_1x1_equals_scalar_exactly():
    slope = QuadraticIrrational(1, -1, 2, 5)
    mm = matrix_margin([[slope]], 1.0, 500)
    sm = scalar_margin(slope, 1.0, 500)
    assert mm.margin == sm.margin
    assert mm.witness_k == sm.witness_k
    assert mm.margin > 0


def test_matrix_margin_rational_zero():
    cert = matrix_margin([[Rational(1, 2)]], 1.0, 10)
    assert cert.margin == 0.0


def test_matrix_margin_dominates_rows():
    g = golden_ratio_conjugate()
    s2 = sqrt_scalar(2)
    mm = matrix_margin([[g], [s2]], 1.0, 200)
    assert mm.margin >= scalar_margin(g, 1.0, 200).margin - 1e-12
    assert mm.margin >= scalar_margin(s2, 1.0, 200).margin - 1e-12


def test_matrix_margin_wider_lattice():
    # 1 x 2 slope: distances bounded by each coordinate's contribution
    g = golden_ratio_conjugate()
    cert = matrix_margin([[g, sqrt_scalar(3)]], 1.0, 8)
    assert cert.margin > 0
    assert math.sqrt(sum(v * v for v in cert.witness_k)) <= 8


def test_exponent_fit_golden():
    fit = exponent_fit(golden_ratio_conjugate(), 10**5)
    assert not fit.resonant
    assert 0.9 <= fit.rho_hat <= 1.1
    dists = [d for _, d in fit.records]
    assert dists == sorted(dists, reverse=True)


def test_exponent_fit_sqrt2():
    fit = exponent_fit(sqrt_scalar(2), 10**5)
    assert 0.9 <= fit.rho_hat <= 1.1


def test_exponent_fit_rational_resonant():
    fit = exponent_fit(Rational(3, 7), 100)
    assert fit.resonant
    assert fit.resonance_k == (7,)
    assert fit.rho_hat is None


def test_exponent_fit_errors():
    with pytest.raises(EmptyRequestError):
        exponent_fit(golden_ratio_conjugate(), 5)


def test_float_input_flagged_approximate():
    cert = scalar_margin(ApproximateReal(0.6180339887), 1.0, 50)
    assert not cert.exact
    assert cert.margin > 0


def test_exponent_fit_matrix_input():
    g = golden_ratio_conjugate()
    fit = exponent_fit([[g], [sqrt_scalar(2)]], 200)
    assert not fit.resonant
    assert fit.rho_hat is not None
    assert all(len(k) == 1 for k, _ in fit.records)


def _oracle_lattice_distance(rows, k, dps=60):
    """Distance from B k to Z^p at dps digits, rounded to float once.

    A row holding a float is summed in float64 in index order, as the
    float lane does, and its distance squared in float64."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        float_sq = 0.0
        for row in rows:
            if not all(s.is_exact for s in row):
                v = sum((ki * s.to_float() for s, ki in zip(row, k) if ki), 0.0)
                fr = v - math.floor(v)
                float_sq += min(fr, 1.0 - fr) ** 2
                continue
            v = mpmath.mpf(0)
            for s, ki in zip(row, k):
                if isinstance(s, Rational):
                    v += mpmath.mpf(s.p) / s.q * ki
                else:
                    v += (s.a + s.b * mpmath.sqrt(s.d)) / s.c * ki
            total += (v - mpmath.nint(v)) ** 2
        return float(mpmath.sqrt(total + float_sq))


def test_matrix_distances_are_correctly_rounded():
    # two exact rows: their squared distances add exactly and one square
    # root is rounded, so margin and records match the 60-digit oracle bit
    # for bit
    rows = [[Rational(1, 3)], [sqrt_scalar(7)]]
    cert = matrix_margin(rows, 2.0, 50)
    k = cert.witness_k
    norm = math.sqrt(sum(v * v for v in k))
    assert cert.margin == _oracle_lattice_distance(rows, k) * norm**2.0
    rows = [[sqrt_scalar(2)], [sqrt_scalar(3)]]
    fit = exponent_fit(rows, 60)
    assert len(fit.records) >= 5
    for k, dist in fit.records:
        assert dist == _oracle_lattice_distance(rows, k), k


def test_exponent_fit_1x1_matrix_matches_scalar():
    for x in (golden_ratio_conjugate(), sqrt_scalar(7), QuadraticIrrational(1, 2, 3, 7),
              Rational(22, 307)):
        assert exponent_fit([[x]], 300).records == exponent_fit(x, 300).records, x


def test_exponent_fit_insufficient_records():
    # ||k x|| grows over the whole window for a tiny slope, so k = 1 stays
    # the only record
    from leafcoh.errors import InsufficientDataError

    tiny = QuadraticIrrational(0, 1, 100, 2)  # sqrt(2)/100
    with pytest.raises(InsufficientDataError):
        exponent_fit(tiny, 10)


def test_matrix_margin_negative_slope_matches_folded_scalar():
    # the cat-map stable slope is negative; folding it into [0, 1) gives the
    # same distances, so the margins coincide
    neg = QuadraticIrrational(1, -1, 2, 5)   # (1 - sqrt 5)/2 < 0
    pos = QuadraticIrrational(-1, 1, 2, 5)   # (sqrt 5 - 1)/2 = |neg| mod 1
    mm = matrix_margin([[neg]], 1.0, 500)
    sm = scalar_margin(pos, 1.0, 500)
    assert mm.margin == pytest.approx(sm.margin, abs=1e-15)
    assert mm.margin > 0


def brute_force_search(x, rho, K):
    """The k = 1..K loop the exact searches replaced, kept as their oracle.

    Returns (margin, witness_k) as scalar_margin reports them, the strict
    record list of exponent_fit, and the first resonant k (or None)."""
    best, best_k = math.inf, None
    record, records = math.inf, []
    for k in range(1, K + 1):
        d = x.times_int(k).circle_distance()
        if d.is_zero():
            return (0.0, (k,)), records, k
        dist = d.to_float()
        val = dist * float(k) ** float(rho)
        if val < best:
            best, best_k = val, k
        if dist < record:
            record = dist
            records.append(((k,), dist))
    return (best, (best_k,)), records, None


_radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 19])
_quadratics = st.builds(
    QuadraticIrrational,
    st.integers(-60, 60),
    st.integers(1, 12) | st.integers(-12, -1),
    st.integers(1, 40),
    _radicands,
)
_rationals = st.builds(Rational, st.integers(-400, 400), st.integers(1, 3000))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=_quadratics | _rationals, rho=st.sampled_from([0.5, 1.0, 2.0]),
       K=st.integers(1, 2000))
def test_convergent_search_matches_brute_force(x, rho, K):
    (margin, witness), records, resonance = brute_force_search(x, rho, K)
    cert = scalar_margin(x, rho, K)
    assert (cert.margin, cert.witness_k) == (margin, witness)
    if K < 10:
        return
    if resonance is None and len(records) < 2:
        with pytest.raises(InsufficientDataError):
            exponent_fit(x, K)
        return
    fit = exponent_fit(x, K)
    assert fit.records == records
    assert fit.resonance_k == (None if resonance is None else (resonance,))


def test_scalar_search_reaches_huge_K():
    # K = 10^30 visits about 80 denominators; every summand there is read
    # out correctly rounded, where a 50-digit readout had lost all digits
    x = sqrt_scalar(2)
    big, small = scalar_margin(x, 1.0, 10**30), scalar_margin(x, 1.0, 10**4)
    assert (big.margin, big.witness_k) == (small.margin, small.witness_k)
    assert big.witness_k == (2,)
    qs = [q for _, q in continued_fraction(x, 100).convergents if q <= 10**30]
    assert len(qs) > 70
    with mpmath.workdps(400):
        for q in qs:
            v = q * mpmath.sqrt(2)
            want = float(abs(v - mpmath.nint(v))) * float(q)
            assert scalar_margin_at(x, q, 1.0) == want, q
    fit = exponent_fit(golden_ratio_conjugate(), 10**30)
    assert [k[0] for k, _ in fit.records][:6] == [1, 2, 3, 5, 8, 13]


def test_lattice_distances_are_correctly_rounded():
    g, s3, s7 = golden_ratio_conjugate(), sqrt_scalar(3), QuadraticIrrational(1, -2, 3, 7)
    r1, r2 = Rational(2, 7), Rational(-5, 11)
    f = ApproximateReal(0.3183098861837907)
    cases = [
        ([[g, s3]], 6),                 # 1x2, two radicals in one row
        ([[s7, r1]], 6),                # 1x2, radical and rational
        ([[r1, r2]], 6),                # 1x2, rational only
        ([[g], [s3]], 30),              # 2x1 exact
        ([[r1], [s7]], 30),             # 2x1, rational row and radical row
        ([[s3], [f]], 30),              # 2x1, exact row and float row
        ([[g, s3], [r2, s7]], 4),       # 2x2 exact
        ([[r1, r2], [f, g]], 4),        # 2x2, rational-only row and float row
    ]
    for rows, K in cases:
        for k in _ball_by_norm(len(rows[0]), K):
            dist, _ = _lattice_distance(rows, k)
            assert dist == _oracle_lattice_distance(rows, k, dps=120), (rows, k)


def test_rational_midpoint_distance_terminates():
    # the distance is exactly the float midpoint m = 1/4 + 2^-55; its square
    # root is rational, so it is read out directly and rounds to even
    m = Fraction(2**53 + 1, 2**55)
    assert float(m) == 0.25
    d, zero = _lattice_distance([[Rational(m)], [Rational(0)]], (1,))
    assert (d, zero) == (0.25, False)
    # split over two rows as 3m/5 and 4m/5, whose squares add to m^2
    d, _ = _lattice_distance([[Rational(3 * m / 5)], [Rational(4 * m / 5)]], (1,))
    assert d == 0.25


def test_exponent_fit_records_of_one_norm():
    # only (0, 1) and (1, 0) are records, both of norm 1: no slope to fit
    with pytest.raises(InsufficientDataError):
        exponent_fit([[ApproximateReal(1e-9), ApproximateReal(0.37)]], 10)
