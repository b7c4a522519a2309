import math

import mpmath
import pytest

from leafcoh.diophantine import (
    continued_fraction,
    exponent_fit,
    matrix_margin,
    scalar_margin,
    scalar_margin_at,
)
from leafcoh.errors import EmptyRequestError, ExactnessError
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


def _oracle_lattice_distance(rows, k):
    """Distance from B k to Z^p at 60 digits, rounded to float once."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for row in rows:
            v = mpmath.mpf(0)
            for s, ki in zip(row, k):
                if isinstance(s, Rational):
                    v += mpmath.mpf(s.p) / s.q * ki
                else:
                    v += (s.a + s.b * mpmath.sqrt(s.d)) / s.c * ki
            total += (v - mpmath.nint(v)) ** 2
        return float(mpmath.sqrt(total))


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
