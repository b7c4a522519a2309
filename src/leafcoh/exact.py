"""Exact coefficient algebras used where zero must be distinguished from tiny.

Two coefficient rings are provided on top of Gaussian rationals:

* ``ExactCoeff`` - finite sums of g * sqrt(d) * tau^j with g Gaussian
  rational, d squarefree and tau standing for 2*pi.  Closed under the
  operations of the leafwise calculus (derivatives multiply by i*(k.v)*tau),
  so identities like d o d = 0 can be asserted with exactly zero
  coefficients.
* ``PhaseCoeff`` - Laurent polynomials in zeta = e^{2 pi i lambda} with
  Gaussian rational coefficients, the value ring of the skew-product
  obstruction recursion.  For irrational quadratic lambda the phase is
  transcendental, so such a sum vanishes only coefficientwise; for rational
  lambda exponents are reduced cyclotomically.

Both rings answer the coefficient protocol of ``fourier.TrigPoly``:
``bool(c)`` is the exact zero test (``PhaseCoeff`` runs ``is_zero``),
``complex(c)`` rounds the value once to float64 from a 40-digit
(``ExactCoeff``) or 60-digit (``PhaseCoeff``) sum, and ``c.conjugate()`` is
the exact complex conjugate.  ``GaussianRational`` answers ``complex()`` too
but keeps ``conj``: it is a coefficient of these rings, not of a ``TrigPoly``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .errors import ExactnessError
from .scalars import (
    _MP_DPS,
    ApproximateReal,
    QuadraticIrrational,
    Rational,
    RealScalar,
    _fraction_to_mpf,
    _squarefree_split,
)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_mpc(self):
        return _fraction_to_mpf(self.re) + 1j * _fraction_to_mpf(self.im)

    def __eq__(self, other):
        return isinstance(other, GaussianRational) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"


GR_ZERO = GaussianRational(0, 0)
GR_ONE = GaussianRational(1, 0)
GR_I = GaussianRational(0, 1)


class ExactCoeff:
    """Element of the ring spanned by sqrt(d) * tau^j over Gaussian rationals.

    Stored as a map (d, j) -> GaussianRational with d squarefree >= 1 and
    j an integer power of tau = 2*pi.  Multiplication combines radicals by
    extracting square factors.  Zero is the empty map: the monomials
    sqrt(d) * tau^j are linearly independent over Q(i) since distinct square
    roots are independent and tau is transcendental.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for key, g in terms.items():
                if not g.is_zero():
                    t[key] = g
        self.terms = t

    @classmethod
    def from_gaussian(cls, g: GaussianRational) -> "ExactCoeff":
        return cls({(1, 0): g})

    @classmethod
    def from_fraction(cls, x) -> "ExactCoeff":
        return cls({(1, 0): GaussianRational(Fraction(x), 0)})

    @classmethod
    def from_scalar(cls, x: RealScalar) -> "ExactCoeff":
        if isinstance(x, Rational):
            return cls.from_fraction(x.value)
        if isinstance(x, QuadraticIrrational):
            return cls(
                {
                    (1, 0): GaussianRational(Fraction(x.a, x.c), 0),
                    (x.d, 0): GaussianRational(Fraction(x.b, x.c), 0),
                }
            )
        raise ExactnessError("cannot build an exact coefficient from an approximate float")

    def __add__(self, other):
        t = dict(self.terms)
        for key, g in other.terms.items():
            s = t.get(key, GR_ZERO) + g
            if s.is_zero():
                t.pop(key, None)
            else:
                t[key] = s
        return ExactCoeff(t)

    def __neg__(self):
        return ExactCoeff({k: -g for k, g in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactCoeff({k: g * other for k, g in self.terms.items()})
        if isinstance(other, GaussianRational):
            return ExactCoeff({k: g * other for k, g in self.terms.items()})
        out: dict = {}
        for (d1, j1), g1 in self.terms.items():
            for (d2, j2), g2 in other.terms.items():
                s, d = _squarefree_split(d1 * d2)
                key = (d, j1 + j2)
                g = g1 * g2 * s
                acc = out.get(key, GR_ZERO) + g
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
        return ExactCoeff(out)

    __rmul__ = __mul__

    def times_tau(self, j: int = 1) -> "ExactCoeff":
        return ExactCoeff({(d, jj + j): g for (d, jj), g in self.terms.items()})

    def times_i(self) -> "ExactCoeff":
        return ExactCoeff({k: g * GR_I for k, g in self.terms.items()})

    def conjugate(self) -> "ExactCoeff":
        return ExactCoeff({k: g.conj() for k, g in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def tau_degree(self) -> int | None:
        """Common tau power if the element is tau-homogeneous, else None."""
        degs = {j for (_, j) in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def inverse(self) -> "ExactCoeff":
        """Exact inverse of a tau-homogeneous element.

        Radicals are cleared by multiplying with Galois conjugates
        (sqrt(p) -> -sqrt(p)) one prime at a time until the remainder is a
        Gaussian rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero exact coefficient")
        j = self.tau_degree()
        if j is None:
            raise ValueError("inverse requires a tau-homogeneous element")
        x = self.times_tau(-j)
        acc = ExactCoeff.from_gaussian(GR_ONE)
        while True:
            primes = set()
            for (d, _) in x.terms:
                dd = d
                p = 2
                while p * p <= dd:
                    if dd % p == 0:
                        primes.add(p)
                        while dd % p == 0:
                            dd //= p
                    p += 1 if p == 2 else 2
                if dd > 1:
                    primes.add(dd)
            if not primes:
                break
            p = min(primes)
            flipped = ExactCoeff(
                {(d, jj): (-g if d % p == 0 else g) for (d, jj), g in x.terms.items()}
            )
            acc = acc * flipped
            x = x * flipped
        g = x.terms.get((1, 0), GR_ZERO)
        return (acc * g.inverse()).times_tau(-j)

    def to_scalar(self) -> "Rational | QuadraticIrrational":
        """The value as an exact scalar; it must be real, tau-free and carry
        at most one radical."""
        radicals = {d for d, _ in self.terms} - {1}
        if len(radicals) > 1 or any(j or g.im for (_, j), g in self.terms.items()):
            raise ArithmeticError("not representable as a single quadratic irrational")
        a = self.terms.get((1, 0), GR_ZERO).re
        if not radicals:
            return Rational(a)
        d = radicals.pop()
        b = self.terms[(d, 0)].re
        c = a.denominator * b.denominator
        return QuadraticIrrational(int(a * c), int(b * c), c, d)

    def __complex__(self) -> complex:
        with mpmath.workdps(40):
            tau = 2 * mpmath.pi
            total = mpmath.mpc(0)
            for (d, j), g in self.terms.items():
                total += g.to_mpc() * mpmath.sqrt(d) * tau**j
            return complex(total)

    def to_mpf(self):
        """The value as an mpf at 50 digits; it must be real and tau-free."""
        with mpmath.workdps(_MP_DPS):
            total = mpmath.mpf(0)
            for (d, j), g in self.terms.items():
                if j != 0 or g.im != 0:
                    raise ValueError("not a real tau-free value")
                total += _fraction_to_mpf(g.re) * mpmath.sqrt(d)
            return total

    def __eq__(self, other):
        return isinstance(other, ExactCoeff) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"ExactCoeff({self.terms!r})"


def _exact_dot(k: tuple, v) -> ExactCoeff:
    """k . v in the exact ring; v holds ints, Fractions or exact scalars."""
    total = ExactCoeff({})
    for ki, vi in zip(k, v):
        if ki:
            if isinstance(vi, (int, Fraction)):
                total = total + ExactCoeff.from_fraction(vi * ki)
            else:
                total = total + ExactCoeff.from_scalar(vi) * ki
    return total


def _float_dot(k: tuple, v) -> float:
    """k . v in float64, summed in index order; entries with k_i = 0 add
    nothing.  v holds plain numbers or scalars."""
    total = 0.0
    for ki, vi in zip(k, v):
        if ki:
            if isinstance(vi, (Rational, QuadraticIrrational, ApproximateReal)):
                vi = vi.to_float()
            total += ki * float(vi)
    return total


def _cyclotomic_polys(n: int) -> dict[int, list[int]]:
    """Integer coefficient lists (ascending) of the cyclotomic polynomials
    Phi_d for all divisors d of n, built by exact polynomial division of
    x^d - 1 by the Phi_e with e | d, e < d."""

    def poly_div(num, den):
        # exact division; den is monic up to sign and always divides num here
        num = list(num)
        out = [0] * (len(num) - len(den) + 1)
        for i in range(len(out) - 1, -1, -1):
            c = num[i + len(den) - 1] // den[-1]
            out[i] = c
            for k, dc in enumerate(den):
                num[i + k] -= c * dc
        return out

    phis: dict[int, list[int]] = {}
    for d in sorted(k for k in range(1, n + 1) if n % k == 0):
        poly = [0] * d + [1]
        poly[0] = -1  # x^d - 1
        for e, pe in phis.items():
            if d % e == 0 and e < d:
                poly = poly_div(poly, pe)
        phis[d] = poly
    return phis


class PhaseCoeff:
    """Laurent polynomial in zeta = e^{2 pi i lambda} over Gaussian rationals.

    The slope lambda travels with the value so phases from different systems
    cannot be mixed accidentally.
    """

    __slots__ = ("lam", "terms")

    def __init__(self, lam: RealScalar, terms=None):
        if isinstance(lam, ApproximateReal):
            raise ExactnessError("exact phase arithmetic requires an exact slope")
        self.lam = lam
        t = {}
        if terms:
            for n, g in terms.items():
                if not g.is_zero():
                    t[n] = g
        self.terms = t

    @classmethod
    def zero(cls, lam) -> "PhaseCoeff":
        return cls(lam, {})

    @classmethod
    def from_gaussian(cls, lam, g: GaussianRational) -> "PhaseCoeff":
        return cls(lam, {0: g})

    def _check(self, other: "PhaseCoeff"):
        if self.lam != other.lam:
            raise ValueError("mixing phase coefficients of different slopes")

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for n, g in other.terms.items():
            s = t.get(n, GR_ZERO) + g
            if s.is_zero():
                t.pop(n, None)
            else:
                t[n] = s
        return PhaseCoeff(self.lam, t)

    def __neg__(self):
        return PhaseCoeff(self.lam, {n: -g for n, g in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PhaseCoeff(self.lam, {n: g * other for n, g in self.terms.items()})
        if isinstance(other, GaussianRational):
            return PhaseCoeff(self.lam, {n: g * other for n, g in self.terms.items()})
        self._check(other)
        out: dict = {}
        for n1, g1 in self.terms.items():
            for n2, g2 in other.terms.items():
                n = n1 + n2
                acc = out.get(n, GR_ZERO) + g1 * g2
                if acc.is_zero():
                    out.pop(n, None)
                else:
                    out[n] = acc
        return PhaseCoeff(self.lam, out)

    __rmul__ = __mul__

    def shift_phase(self, n: int) -> "PhaseCoeff":
        """Multiply by zeta^n."""
        return PhaseCoeff(self.lam, {m + n: g for m, g in self.terms.items()})

    def conjugate(self) -> "PhaseCoeff":
        return PhaseCoeff(self.lam, {-n: g.conj() for n, g in self.terms.items()})

    def is_zero(self) -> bool:
        if not self.terms:
            return True
        if isinstance(self.lam, QuadraticIrrational):
            # zeta is transcendental, so monomials are independent over Q(i).
            return False
        return self._is_zero_cyclotomic()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _is_zero_cyclotomic(self) -> bool:
        # lambda = p/q: zeta is a primitive q-th root of unity (reduced p/q).
        q = self.lam.q
        n = 4 * q // math.gcd(4, q)  # embed i and zeta_q in Q(zeta_n)
        # coordinates over Q as a polynomial in zeta_n of degree < n
        coords = [Fraction(0)] * n
        iq = n // 4
        zq = n // q
        p = self.lam.p
        for m, g in self.terms.items():
            e = (zq * p * m) % n
            coords[e] += g.re
            e2 = (e + iq) % n
            coords[e2] += g.im
        phi = _cyclotomic_polys(n)[n]
        deg = len(phi) - 1
        # reduce mod Phi_n (monic) and test for the zero vector
        work = [Fraction(c) for c in coords]
        for i in range(len(work) - 1, deg - 1, -1):
            c = work[i]
            if c == 0:
                continue
            for k, pc in enumerate(phi):
                work[i - deg + k] -= c * pc
        return all(c == 0 for c in work[:deg])

    def to_mpc(self, dps: int = 60):
        with mpmath.workdps(dps):
            total = mpmath.mpc(0)
            for n, g in self.terms.items():
                # exact argument reduction mod 1 before exponentiation
                ph = mpmath.expjpi(2 * self.lam.times_int(n).frac().to_mpf())
                total += g.to_mpc() * ph
            return total

    def __complex__(self) -> complex:
        return complex(self.to_mpc())

    def __eq__(self, other):
        return (
            isinstance(other, PhaseCoeff)
            and self.lam == other.lam
            and (self - other).is_zero()
        )

    def __hash__(self):
        return hash((self.lam, frozenset(self.terms.items())))

    def __repr__(self):
        return f"PhaseCoeff({self.lam!r}, {self.terms!r})"
