import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafcoh.exact import ExactCoeff, GaussianRational, PhaseCoeff
from leafcoh.fourier import TrigPoly
from leafcoh.scalars import QuadraticIrrational, Rational, golden_ratio_conjugate


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(Fraction(2, 3), Fraction(5))
    assert (a * b - b * a).is_zero()
    assert (a * a.inverse() - GaussianRational(1)).is_zero()
    assert a.conj().conj() == a


def test_exactcoeff_radical_multiplication():
    g = ExactCoeff.from_scalar(golden_ratio_conjugate())
    # golden conjugate satisfies x^2 + x - 1 = 0
    expr = g * g + g - ExactCoeff.from_fraction(1)
    assert expr.is_zero()
    s2 = ExactCoeff.from_scalar(QuadraticIrrational(0, 1, 1, 2))
    s8 = s2 * s2  # = 2
    assert s8 == ExactCoeff.from_fraction(2)
    mixed = s2 * ExactCoeff.from_scalar(QuadraticIrrational(0, 1, 1, 5))
    assert set(mixed.terms) == {(10, 0)}


def test_exactcoeff_inverse_random():
    rng = random.Random(5)
    for _ in range(40):
        terms = {}
        for d in rng.sample([1, 2, 3, 5], rng.randint(1, 3)):
            terms[(d, 0)] = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
            )
        x = ExactCoeff(terms)
        if x.is_zero():
            continue
        assert (x * x.inverse()) == ExactCoeff.from_fraction(1)


def test_exactcoeff_tau_grading():
    g = ExactCoeff.from_fraction(Fraction(3, 7)).times_tau(2).times_i()
    assert g.tau_degree() == 2
    inv = g.inverse()
    assert (g * inv) == ExactCoeff.from_fraction(1)
    mixed = g + ExactCoeff.from_fraction(1)
    assert mixed.tau_degree() is None
    with pytest.raises(ValueError):
        mixed.inverse()


def test_exactcoeff_complex_value():
    import math

    x = ExactCoeff.from_fraction(Fraction(1, 2)).times_tau(1)  # pi
    assert complex(x) == pytest.approx(math.pi)


def test_exactcoeff_to_scalar_round_trip():
    scalars = [Rational(0), Rational(-7, 3), golden_ratio_conjugate(), QuadraticIrrational(3, -4, 9, 12)]
    for x in scalars:
        assert ExactCoeff.from_scalar(x).to_scalar() == x
    sqrt2, sqrt3 = (ExactCoeff.from_scalar(QuadraticIrrational(0, 1, 1, d)) for d in (2, 3))
    one = ExactCoeff.from_fraction(1)
    for bad in (sqrt2 + sqrt3, one.times_tau(1), one.times_i()):
        with pytest.raises(ArithmeticError):
            bad.to_scalar()


def test_phasecoeff_transcendental_zero_test():
    lam = golden_ratio_conjugate()
    z = PhaseCoeff(lam, {3: GaussianRational(1), 0: GaussianRational(-1)})
    assert not z.is_zero()
    assert (z - z).is_zero()
    w = z.shift_phase(2) * z.conjugate()
    assert not w.is_zero()


def test_phasecoeff_cyclotomic_zero_test():
    third = Rational(1, 3)
    ones = PhaseCoeff(third, {0: GaussianRational(1), 1: GaussianRational(1), 2: GaussianRational(1)})
    assert ones.is_zero()
    quarter = Rational(1, 4)
    assert PhaseCoeff(quarter, {1: GaussianRational(1), 0: GaussianRational(0, -1)}).is_zero()
    # zeta_6 satisfies z^2 - z + 1 = 0
    sixth = Rational(1, 6)
    p = PhaseCoeff(
        sixth, {2: GaussianRational(1), 1: GaussianRational(-1), 0: GaussianRational(1)}
    )
    assert p.is_zero()
    assert not PhaseCoeff(sixth, {1: GaussianRational(1)}).is_zero()


def test_phasecoeff_numeric_evaluation():
    lam = Rational(1, 8)
    p = PhaseCoeff(lam, {1: GaussianRational(1)})
    v = complex(p)
    import cmath

    assert abs(v - cmath.exp(2j * cmath.pi / 8)) < 1e-15


def test_phasecoeff_slope_mixing_rejected():
    a = PhaseCoeff(Rational(1, 3), {0: GaussianRational(1)})
    b = PhaseCoeff(Rational(1, 4), {0: GaussianRational(1)})
    with pytest.raises(ValueError):
        _ = a + b


def test_exactcoeff_ring_axioms_random():
    rng = random.Random(12)

    def rand_coeff():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            d = rng.choice([1, 2, 3, 5])
            j = rng.randint(-1, 2)
            terms[(d, j)] = GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
            )
        return ExactCoeff(terms)

    for _ in range(30):
        a, b, c = rand_coeff(), rand_coeff(), rand_coeff()
        assert ((a * b) * c - a * (b * c)).is_zero()
        assert (a * (b + c) - (a * b + a * c)).is_zero()
        assert (a * b - b * a).is_zero()


def test_phasecoeff_zero_test_consistent_with_numerics():
    rng = random.Random(13)
    lams = [Rational(1, 3), Rational(2, 5), Rational(1, 6), golden_ratio_conjugate()]
    for _ in range(40):
        lam = rng.choice(lams)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rng.randint(-6, 6)] = GaussianRational(
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            )
        p = PhaseCoeff(lam, terms)
        numeric = abs(p.to_mpc(50))
        if p.is_zero():
            assert numeric < 1e-40
        else:
            assert numeric > 1e-30  # desk-scale coefficients cannot hide this low


# ----------------------------------------------------------------------
# the coefficient protocol: bool(), complex() and .conjugate()

_fracs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8))
_gauss = st.builds(GaussianRational, _fracs, _fracs)


def _cancel(x):
    return x - x


@st.composite
def _exact_coeffs(draw):
    """ExactCoeff values over several radicals and powers of tau, some exactly 0."""
    keys = st.tuples(st.sampled_from([1, 2, 3, 5, 6, 7, 10]), st.integers(-2, 2))
    x = ExactCoeff(draw(st.dictionaries(keys, _gauss, max_size=4)))
    y = ExactCoeff(draw(st.dictionaries(keys, _gauss, max_size=3)))
    return draw(st.sampled_from([x, x * y, x * y - y * x, x + y, _cancel(x)]))


@st.composite
def _phase_coeffs(draw):
    """PhaseCoeff values for rational slopes (with cyclotomic cancellation:
    full orbits of zeta, and i against zeta^(q/4)) and quadratic slopes."""
    if draw(st.booleans()):
        q = draw(st.integers(1, 12))
        lam = Rational(draw(st.integers(-q, 2 * q)), q)
        q = lam.q
        terms = draw(st.dictionaries(st.integers(-6, 6), _gauss, max_size=4))
        shift, g = draw(st.integers(-5, 5)), draw(_gauss)
        if draw(st.booleans()):  # add g * zeta^shift * (1 + zeta + ... + zeta^(q-1))
            for n in range(q):
                terms[shift + n] = terms.get(shift + n, GaussianRational(0)) + g
        if q % 4 == 0 and draw(st.booleans()):  # add g * zeta^shift * (i - zeta^m), zeta^m = i
            m = pow(lam.p, -1, q) * (q // 4) % q
            terms[shift] = terms.get(shift, GaussianRational(0)) + g * GaussianRational(0, 1)
            terms[shift + m] = terms.get(shift + m, GaussianRational(0)) - g
    else:
        lam = QuadraticIrrational(draw(st.integers(-3, 3)), draw(st.sampled_from([-2, -1, 1, 3])),
                                  draw(st.integers(1, 5)), draw(st.sampled_from([2, 3, 5, 7, 13])))
        terms = draw(st.dictionaries(st.integers(-6, 6), _gauss, max_size=4))
    x = PhaseCoeff(lam, terms)
    return draw(st.sampled_from([x, x, _cancel(x), x * x.conjugate()]))


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def _oracle(c):
    """The value of c at 40 digits, and the sum of the moduli of its terms."""
    with mpmath.workdps(40):
        total, size = mpmath.mpc(0), mpmath.mpf(0)
        for key, g in c.terms.items():
            if isinstance(c, ExactCoeff):
                d, j = key
                factor = mpmath.sqrt(d) * (2 * mpmath.pi) ** j
            elif isinstance(c.lam, Rational):
                factor = mpmath.expjpi(2 * key * _mpf(c.lam.value))
            else:
                lam = c.lam
                factor = mpmath.expjpi(2 * key * (lam.a + lam.b * mpmath.sqrt(lam.d)) / lam.c)
            term = mpmath.mpc(_mpf(g.re), _mpf(g.im)) * factor
            total += term
            size += abs(term)
        return complex(total), float(size)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_exact_coeffs(), _phase_coeffs()), min_size=1, max_size=6))
def test_exact_coefficients_answer_the_number_protocol(vals):
    for c in vals:
        assert bool(c) is not c.is_zero()
        value, size = _oracle(c)
        # complex(c) is the 40-digit (or finer) value rounded once to float64
        assert abs(complex(c) - value) <= 2.0**-51 * size + 1e-300
        assert c.conjugate().conjugate() == c
        assert abs(complex(c.conjugate()) - value.conjugate()) <= 2.0**-51 * size + 1e-300
    arr = np.array(vals, dtype=complex)
    assert arr.tobytes() == np.array([complex(v) for v in vals], dtype=complex).tobytes()
    f = TrigPoly(1, {(i,): v for i, v in enumerate(vals)})
    assert list(f.coeffs) == [(i,) for i, v in enumerate(vals) if not v.is_zero()]
    assert all(c is vals[i] for (i,), c in f.coeffs.items())
