"""Exact real scalar representations.

Three representations are supported: rationals p/q, quadratic irrationals
(a + b*sqrt(d))/c with d > 0 squarefree, and floats tagged as approximate.
The exact kinds support exact floor, exact distance to the nearest integer,
and exact sign tests, which is what the small-divisor searches need near the
search radius where float64 cancellation is fatal.

``frac()`` and ``circle_distance()`` return a scalar of the receiver's kind
(a Rational for a Rational, an ApproximateReal for an ApproximateReal), so
callers never branch on the kind: they read the result through
``is_zero()``, ``to_float()`` or ``to_mpf()``.  ``_fraction_to_mpf`` is the
one conversion of a Fraction to an mpf.

``_readout`` is the one integer fixed-point readout of an exact value
(A + sum_d B_d*sqrt(d))/C, or of its square root: it brackets the value
between integers at P fractional bits with ``math.isqrt`` and doubles P
until both ends give the same nearest integer and the same float, so the
integer is certified and the float correctly rounded.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath

from .errors import ExactnessError

_MP_DPS = 50


def _fraction_to_mpf(x: Fraction):
    """x as an mpf rounded once at the working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree, for n >= 1."""
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def _isqrt_floor(n: int) -> tuple[int, bool]:
    """Floor of sqrt(n) and whether n is a perfect square."""
    r = math.isqrt(n)
    return r, r * r == n


def _readout(a: int, terms: dict, c: int, root: bool = False) -> tuple[int, float]:
    """Nearest integer and correctly rounded float of v = (a + sum b*sqrt(d))/c,
    or of sqrt(v) when ``root`` is set (then v >= 0).

    ``terms`` maps distinct squarefree d > 1 to integer coefficients b, and
    c > 0.  Each b*sqrt(d) scaled by 2^P lies between isqrt((b*b*d) << 2P)
    and one more, so the sum is bracketed by integers; P doubles until both
    ends round alike (Ziv's loop).  The loop stops because an irrational
    value is neither a half-integer nor a float midpoint (square roots of
    distinct squarefree integers are linearly independent over Q).  A
    rational value, and a rational square root, is read out directly.
    """
    terms = {d: b for d, b in terms.items() if b}
    if not terms and root:
        s, exact = _isqrt_floor(a * c)
        if exact:  # sqrt(a/c) = s/c
            a, root = s, False
    if not terms and not root:
        return (2 * a + c) // (2 * c), a / c
    p = 64
    while True:
        shift = 2 * p if root else p
        lo = hi = a << shift
        for d, b in terms.items():
            r = math.isqrt((b * b * d) << (2 * shift))
            if b > 0:
                lo, hi = lo + r, hi + r + 1
            else:
                lo, hi = lo - r - 1, hi - r
        lo, hi = lo // c, -(-hi // c)
        if root:
            lo, hi = math.isqrt(max(lo, 0)), math.isqrt(hi) + 1
        half, one = 1 << (p - 1), 1 << p
        n = (lo + half) >> p
        f = lo / one
        if n == (hi + half) >> p and f == hi / one:
            return n, f
        p *= 2


def _sign_a_plus_b_sqrt_d(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d >= 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: compare a^2 vs b^2 d on the side of the positive term.
    if a > 0:  # b < 0: sign = sign(a^2 - b^2 d)
        return (a * a > b * b * d) - (a * a < b * b * d)
    return (b * b * d > a * a) - (b * b * d < a * a)


class Rational:
    """Exact rational scalar."""

    kind = "rational"
    is_exact = True

    __slots__ = ("value",)

    def __init__(self, p, q=1):
        # a Fraction is already reduced: share it instead of re-running gcd
        self.value = p if q == 1 and type(p) is Fraction else Fraction(p, q)

    @property
    def p(self) -> int:
        return self.value.numerator

    @property
    def q(self) -> int:
        return self.value.denominator

    def times_int(self, k: int) -> "Rational":
        return Rational(self.value * k)

    def floor(self) -> int:
        return self.value.numerator // self.value.denominator

    def frac(self) -> "Rational":
        return Rational(self.value - self.floor())

    def circle_distance(self) -> "Rational":
        """Exact distance from this value to the nearest integer."""
        f = self.value - self.floor()
        return Rational(min(f, 1 - f))

    def is_zero(self) -> bool:
        return self.value == 0

    def neg(self) -> "Rational":
        return Rational(-self.value)

    def to_float(self) -> float:
        return float(self.value)

    def to_mpf(self):
        return _fraction_to_mpf(self.value)

    def __eq__(self, other):
        return isinstance(other, Rational) and self.value == other.value

    def __hash__(self):
        return hash(("rational", self.value))

    def __repr__(self):
        return f"Rational({self.value})"

    def to_json(self):
        return {"kind": "rational", "p": self.p, "q": self.q}


class QuadraticIrrational:
    """(a + b*sqrt(d))/c with integer a, b, c, d; d > 0 squarefree, b != 0.

    Canonical form: c > 0 and gcd(a, b, c) = 1. Arithmetic stays inside the
    field Q(sqrt(d)), so floors, fractional parts, and nearest-integer
    distances are computed without rounding.
    """

    kind = "quadratic"
    is_exact = True

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if c == 0:
            raise ValueError("denominator c must be nonzero")
        if d <= 0:
            raise ValueError("radicand d must be positive")
        s, d0 = _squarefree_split(d)
        b = b * s
        d = d0
        if b == 0 or d == 1:
            raise ValueError("degenerate quadratic; use Rational instead")
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        self.a, self.b, self.c, self.d = a // g, b // g, c // g, d

    def times_int(self, k: int) -> "QuadraticIrrational | Rational":
        if k == 0:
            return Rational(0)
        return QuadraticIrrational(self.a * k, self.b * k, self.c, self.d)

    def add_int(self, m: int) -> "QuadraticIrrational":
        return QuadraticIrrational(self.a + m * self.c, self.b, self.c, self.d)

    def neg(self) -> "QuadraticIrrational":
        return QuadraticIrrational(-self.a, -self.b, self.c, self.d)

    def sub(self, other: "QuadraticIrrational") -> "QuadraticIrrational | Rational":
        if other.d != self.d:
            raise ValueError("mixed radicands")
        a = self.a * other.c - other.a * self.c
        b = self.b * other.c - other.b * self.c
        c = self.c * other.c
        if b == 0:
            return Rational(a, c)
        return QuadraticIrrational(a, b, c, self.d)

    def inverse(self) -> "QuadraticIrrational":
        # 1/x = c*(a - b sqrt d)/(a^2 - b^2 d)
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("quadratic irrational with zero norm")
        return QuadraticIrrational(self.a * self.c, -self.b * self.c, n, self.d)

    def sign(self) -> int:
        return _sign_a_plus_b_sqrt_d(self.a, self.b, self.d)

    def floor(self) -> int:
        # floor(b*sqrt(d)) via integer sqrt; the numerator is irrational so
        # it never lands on an integer and the open-interval argument applies.
        b2d = self.b * self.b * self.d
        r, exact = _isqrt_floor(b2d)
        if self.b > 0:
            fb = r
        else:
            fb = -r - (0 if exact else 1)
        return (self.a + fb) // self.c

    def frac(self) -> "QuadraticIrrational":
        return self.add_int(-self.floor())

    def circle_distance(self) -> "QuadraticIrrational":
        """Exact distance to the nearest integer, as an element of Q(sqrt(d))."""
        f = self.frac()
        # compare f with 1/2: sign of 2(a + b sqrt d) - c
        s = _sign_a_plus_b_sqrt_d(2 * f.a - f.c, 2 * f.b, f.d)
        if s <= 0:
            return f
        return QuadraticIrrational(f.c - f.a, -f.b, f.c, f.d)

    def is_zero(self) -> bool:
        return False  # b != 0 always

    def to_float(self) -> float:
        return _readout(self.a, {self.d: self.b}, self.c)[1]

    def to_mpf(self):
        with mpmath.workdps(_MP_DPS):
            return (self.a + self.b * mpmath.sqrt(self.d)) / self.c

    def __eq__(self, other):
        return (
            isinstance(other, QuadraticIrrational)
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash(("quadratic", self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"QuadraticIrrational(({self.a}+{self.b}*sqrt({self.d}))/{self.c})"

    def to_json(self):
        return {"kind": "quadratic", "a": self.a, "b": self.b, "c": self.c, "d": self.d}


def finite_float(value) -> float:
    """float(value); NaN and the infinities raise ValueError.  The check for
    floats read at the CLI boundary.  ApproximateReal inlines the same test,
    because the float Diophantine search builds one per candidate."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite float {value!r}")
    return value


class ApproximateReal:
    """Float64 scalar tagged as approximate; exact queries refuse it."""

    kind = "float"
    is_exact = False

    __slots__ = ("value",)

    def __init__(self, value: float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r}")
        self.value = value

    def times_int(self, k: int) -> "ApproximateReal":
        return ApproximateReal(self.value * k)

    def floor(self) -> int:
        return math.floor(self.value)

    def frac(self) -> "ApproximateReal":
        return ApproximateReal(self.value - math.floor(self.value))

    def circle_distance(self) -> "ApproximateReal":
        f = self.value - math.floor(self.value)
        return ApproximateReal(min(f, 1.0 - f))

    def is_zero(self) -> bool:
        return self.value == 0.0

    def neg(self) -> "ApproximateReal":
        return ApproximateReal(-self.value)

    def to_float(self) -> float:
        return self.value

    def to_mpf(self):
        return mpmath.mpf(self.value)

    def __eq__(self, other):
        return isinstance(other, ApproximateReal) and self.value == other.value

    def __hash__(self):
        return hash(("float", self.value))

    def __repr__(self):
        return f"ApproximateReal({self.value})"

    def to_json(self):
        return {"kind": "float", "value": self.value}


RealScalar = Rational | QuadraticIrrational | ApproximateReal


def require_exact(x: RealScalar, context: str = "operation"):
    if not x.is_exact:
        raise ExactnessError(f"{context} requires an exact scalar, got approximate float")


def as_scalar(x) -> RealScalar:
    """Coerce ints, Fractions, floats, and scalars to a RealScalar."""
    if isinstance(x, (Rational, QuadraticIrrational, ApproximateReal)):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(x, int):
        return Rational(x)
    if isinstance(x, Fraction):
        return Rational(x)
    if isinstance(x, float):
        return ApproximateReal(x)
    raise TypeError(f"cannot interpret {x!r} as a real scalar")


def golden_ratio_conjugate() -> QuadraticIrrational:
    """(sqrt(5) - 1)/2, the standard badly approximable test slope."""
    return QuadraticIrrational(-1, 1, 2, 5)


def sqrt_scalar(d: int) -> QuadraticIrrational:
    return QuadraticIrrational(0, 1, 1, d)


_QUAD_RE = re.compile(
    r"^\(?\s*(-?\d+)\s*([+-])\s*(\d*)\s*\*?\s*sqrt\(?\s*(\d+)\s*\)?\s*\)?\s*(?:/\s*(-?\d+))?$"
)
_SQRT_RE = re.compile(r"^(-?\d*)\s*\*?\s*sqrt\(?\s*(\d+)\s*\)?\s*(?:/\s*(-?\d+))?$")


def parse_scalar(text: str) -> RealScalar:
    """Parse scalar syntax used by the CLI.

    Accepted forms: "rational:7/3", "quadratic:(-1+sqrt5)/2", "float:0.25",
    plus bare "7/3", "5", "sqrt2", "0.25".
    """
    t = text.strip()
    if ":" in t:
        kind, _, body = t.partition(":")
        kind = kind.strip()
        body = body.strip()
        if kind == "rational":
            return Rational(Fraction(body))
        if kind == "float":
            return ApproximateReal(float(body))
        if kind == "quadratic":
            return _parse_quadratic(body)
        raise ValueError(f"unknown scalar kind {kind!r}")
    if re.fullmatch(r"-?\d+(/\d+)?", t):
        return Rational(Fraction(t))
    if "sqrt" in t:
        return _parse_quadratic(t)
    return ApproximateReal(float(t))


def _parse_quadratic(body: str) -> QuadraticIrrational:
    m = _QUAD_RE.match(body)
    if m:
        a = int(m.group(1))
        sgn = 1 if m.group(2) == "+" else -1
        b = sgn * int(m.group(3) or "1")
        d = int(m.group(4))
        c = int(m.group(5) or "1")
        return QuadraticIrrational(a, b, c, d)
    m = _SQRT_RE.match(body)
    if m:
        braw = m.group(1)
        b = int(braw) if braw not in ("", "-") else (-1 if braw == "-" else 1)
        d = int(m.group(2))
        c = int(m.group(3) or "1")
        return QuadraticIrrational(0, b, c, d)
    raise ValueError(f"cannot parse quadratic scalar {body!r}")


def scalar_from_json(obj: dict) -> RealScalar:
    kind = obj.get("kind")
    if kind == "rational":
        return Rational(obj["p"], obj["q"])
    if kind == "quadratic":
        return QuadraticIrrational(obj["a"], obj["b"], obj["c"], obj["d"])
    if kind == "float":
        return ApproximateReal(obj["value"])
    raise ValueError(f"unknown scalar kind {kind!r}")
