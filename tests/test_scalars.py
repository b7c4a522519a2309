import math
import random
from fractions import Fraction

import mpmath
import pytest

from leafcoh.errors import ExactnessError
from leafcoh.scalars import (
    ApproximateReal,
    QuadraticIrrational,
    Rational,
    as_scalar,
    golden_ratio_conjugate,
    parse_scalar,
    scalar_from_json,
    sqrt_scalar,
)


def test_quadratic_canonical_form():
    x = QuadraticIrrational(2, 2, -4, 8)  # (2 + 2 sqrt 8)/(-4) -> (-1 - 2 sqrt 2)/2
    assert (x.a, x.b, x.c, x.d) == (-1, -2, 2, 2)
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 0, 2, 5)
    with pytest.raises(ValueError):
        QuadraticIrrational(1, 1, 2, 4)  # sqrt 4 is rational


def test_floor_matches_high_precision():
    rng = random.Random(1)
    with mpmath.workdps(60):
        for _ in range(300):
            a = rng.randint(-50, 50)
            b = rng.choice([v for v in range(-20, 21) if v != 0])
            c = rng.randint(1, 20)
            d = rng.choice([2, 3, 5, 7, 11, 13])
            x = QuadraticIrrational(a, b, c, d)
            ref = int(mpmath.floor((a + b * mpmath.sqrt(d)) / c))
            assert x.floor() == ref, (a, b, c, d)


def test_circle_distance_exact_vs_float():
    # cross-representation consistency within 2^-40
    g = golden_ratio_conjugate()
    for k in range(1, 2000):
        exact = g.times_int(k).circle_distance().to_float()
        v = (k * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0
        approx = min(v, 1.0 - v)
        assert abs(exact - approx) < 2.0**-40


def test_rational_distance():
    r = Rational(3, 7)
    assert r.times_int(7).circle_distance() == Rational(0)
    assert r.times_int(2).circle_distance() == Rational(1, 7)


def test_frac_and_distance_keep_the_kind():
    cases = [
        (Rational(17, 7), Rational(3, 7), Rational(3, 7)),
        (Rational(-5, 3), Rational(1, 3), Rational(1, 3)),
        (QuadraticIrrational(3, 1, 2, 5), QuadraticIrrational(-1, 1, 2, 5),
         QuadraticIrrational(3, -1, 2, 5)),
        (ApproximateReal(2.75), ApproximateReal(0.75), ApproximateReal(0.25)),
    ]
    for x, frac, dist in cases:
        assert type(x.frac()) is type(x) and x.frac() == frac
        assert type(x.circle_distance()) is type(x) and x.circle_distance() == dist
    # the zero test reads the same through every kind
    assert Rational(3).frac().is_zero() and ApproximateReal(3.0).circle_distance().is_zero()
    assert not golden_ratio_conjugate().circle_distance().is_zero()


def test_quadratic_arithmetic():
    g = golden_ratio_conjugate()
    inv = g.inverse()
    # 1/g = (1 + sqrt 5)/2
    assert (inv.a, inv.b, inv.c, inv.d) == (1, 1, 2, 5)
    assert g.add_int(1).to_float() == pytest.approx(1.618033988749895)
    s = sqrt_scalar(2)
    assert s.sign() == 1 and s.neg().sign() == -1


def test_parse_and_json_round_trip():
    cases = [
        "rational:7/3",
        "quadratic:(-1+sqrt5)/2",
        "quadratic:(3-2*sqrt(7))/5",
        "sqrt2",
        "float:0.625",
        "5",
        "-11/4",
    ]
    for text in cases:
        s = parse_scalar(text)
        back = scalar_from_json(s.to_json())
        assert back == s, text
    assert parse_scalar("quadratic:(-1+sqrt5)/2") == golden_ratio_conjugate()


def test_approximate_flagging():
    f = as_scalar(0.5)
    assert isinstance(f, ApproximateReal) and not f.is_exact
    assert as_scalar(Fraction(1, 3)).is_exact


def test_require_exact():
    from leafcoh.scalars import require_exact

    with pytest.raises(ExactnessError):
        require_exact(ApproximateReal(0.1))
