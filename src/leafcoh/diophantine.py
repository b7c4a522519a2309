"""Empirical certification of the badly approximable condition.

A certificate records the minimum of ||k*x|| * |k|^rho over the searched
frequency ball; it is a statement about the searched radius only, never
about all k.  Distances to the nearest lattice point are computed exactly
whenever the inputs are exact, because the small divisors near the search
radius are precision critical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DimensionError, EmptyRequestError, InsufficientDataError
from .exact import ExactCoeff
from .scalars import (
    QuadraticIrrational,
    Rational,
    RealScalar,
    as_scalar,
    require_exact,
)


@dataclass(frozen=True)
class DiophantineCertificate:
    """Searched lower-bound margin for ||k x|| >= margin * |k|^(-rho)."""

    rho: float
    margin: float
    K: int
    witness_k: tuple[int, ...]
    exact: bool

    def to_json(self) -> dict:
        return {
            "rho": self.rho,
            "margin": self.margin,
            "K": self.K,
            "witness_k": list(self.witness_k),
            "exact": self.exact,
        }


@dataclass(frozen=True)
class ContinuedFraction:
    quotients: list[int]
    convergents: list[tuple[int, int]]
    terminated: bool

    def to_json(self) -> dict:
        return {
            "quotients": self.quotients,
            "convergents": [[p, q] for p, q in self.convergents],
            "terminated": self.terminated,
        }


def continued_fraction(x: RealScalar, n: int) -> ContinuedFraction:
    """Partial quotients a_0..a_{n-1} and convergents p_i/q_i of an exact x.

    Rational input terminates exactly via the Euclidean algorithm; quadratic
    irrationals use the exact recursion x_{i+1} = 1/(x_i - floor(x_i)) inside
    Q(sqrt(d)).  Approximate floats are refused.
    """
    if n < 1:
        raise EmptyRequestError("need at least one partial quotient")
    x = as_scalar(x)
    require_exact(x, "continued fraction expansion")

    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    pm1, pm2 = 1, 0
    qm1, qm2 = 0, 1
    cur = x
    terminated = False
    for _ in range(n):
        a = cur.floor()
        quotients.append(a)
        p = a * pm1 + pm2
        q = a * qm1 + qm2
        convergents.append((p, q))
        pm2, pm1 = pm1, p
        qm2, qm1 = qm1, q
        if isinstance(cur, Rational):
            rem = cur.value - a
            if rem == 0:
                terminated = True
                break
            cur = Rational(1 / rem)
        else:
            cur = cur.add_int(-a).inverse()
    return ContinuedFraction(quotients, convergents, terminated)


def _exact_circle_distance(x: RealScalar, k: int):
    """||k x|| as an exact object (Fraction or QuadraticIrrational) or float."""
    return x.times_int(k).circle_distance()


def _distance_to_float(d) -> float:
    if isinstance(d, Fraction):
        return float(d)
    if isinstance(d, QuadraticIrrational):
        return d.to_float()
    return float(d)


def scalar_margin(x: RealScalar, rho: float, K: int) -> DiophantineCertificate:
    """min over 1 <= k <= K of ||k x|| * k^rho with the attaining k.

    Negative k give the same values by symmetry and are not searched.  A
    margin of exactly zero is reported only when k x is exactly integral,
    which requires exact input.
    """
    if K < 1:
        raise EmptyRequestError("search radius K must be >= 1")
    if rho <= 0:
        raise ValueError("rho must be positive")
    x = as_scalar(x)
    best = math.inf
    best_k = None
    for k in range(1, K + 1):
        d = _exact_circle_distance(x, k)
        if isinstance(d, Fraction) and d == 0:
            return DiophantineCertificate(float(rho), 0.0, K, (k,), x.is_exact)
        val = _distance_to_float(d) * float(k) ** float(rho)
        if val < best:
            best, best_k = val, k
    return DiophantineCertificate(float(rho), best, K, (best_k,), x.is_exact)


def scalar_margin_at(x: RealScalar, k: int, rho: float) -> float:
    """Re-evaluate the margin summand at a single k (certificate audit)."""
    x = as_scalar(x)
    return _distance_to_float(_exact_circle_distance(x, k)) * float(k) ** float(rho)


def _lattice_ball(q: int, K: int):
    """Integer vectors 0 < |k| <= K up to sign (first nonzero entry > 0)."""
    rng = range(-K, K + 1)
    K2 = K * K
    for k in itertools.product(rng, repeat=q):
        if sum(v * v for v in k) > K2 or not any(k):
            continue
        first = next(v for v in k if v != 0)
        if first < 0:
            continue
        yield k


def _row_dot(row, k):
    """Exact or float dot product of a row of scalars with an integer vector."""
    if all(s.is_exact for s in row):
        total = ExactCoeff({})
        for s, ki in zip(row, k):
            if ki == 0:
                continue
            total = total + ExactCoeff.from_scalar(s) * ki
        return total
    return sum(s.to_float() * ki for s, ki in zip(row, k))


def _exactcoeff_circle_distance_sq(v: ExactCoeff):
    """Exact squared distance of an ExactCoeff real value to the nearest integer.

    Returns (is_zero_exact, ExactCoeff of the squared distance).
    """
    if v.is_zero():
        return True, ExactCoeff({})
    # one radical at most: exact floor through the scalar it represents
    if len(set(v.terms) - {(1, 0)}) <= 1:
        dist = v.to_scalar().circle_distance()
        if isinstance(dist, Fraction):
            return dist == 0, ExactCoeff.from_fraction(dist * dist)
        dc = ExactCoeff.from_scalar(dist)
        return False, dc * dc
    # several radicals: exact floor via 50-digit interval midpoint is safe at
    # desk scale; squared distance returned exactly relative to that floor
    fl = int(mpmath.floor(_exactcoeff_to_mpf(v)))
    frac = v - ExactCoeff.from_fraction(fl)
    ffl = _exactcoeff_to_mpf(frac)
    if ffl > 0.5:
        frac = ExactCoeff.from_fraction(1) - frac
    return False, frac * frac


def _exactcoeff_to_mpf(v: ExactCoeff):
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for (d, j), g in v.terms.items():
            if j != 0 or g.im != 0:
                raise ValueError("not a real tau-free value")
            total += (mpmath.mpf(g.re.numerator) / g.re.denominator) * mpmath.sqrt(d)
        return total


def matrix_margin(B, rho: float, K: int) -> DiophantineCertificate:
    """min over 0 < |k| <= K in Z^q of ||B k||_{T^p} * |k|^rho.

    ||v||_{T^p} is the Euclidean distance from v to the nearest point of
    Z^p.  The lattice ball is enumerated exactly; for p = 1 the distance is
    the scalar one so the 1x1 case reproduces scalar_margin identically.
    """
    if K < 1:
        raise EmptyRequestError("search radius K must be >= 1")
    rows = [[as_scalar(e) for e in row] for row in B]
    p = len(rows)
    q = len(rows[0]) if p else 0
    if p == 0 or q == 0:
        raise DimensionError("slope matrix must have positive dimensions")
    if any(len(r) != q for r in rows):
        raise DimensionError("ragged slope matrix")
    exact = all(s.is_exact for row in rows for s in row)

    if p == 1 and q == 1:
        cert = scalar_margin(rows[0][0], rho, K)
        return DiophantineCertificate(cert.rho, cert.margin, K, cert.witness_k, exact)

    best = math.inf
    best_k = None
    for k in sorted(_lattice_ball(q, K), key=lambda t: (sum(v * v for v in t), t)):
        norm = math.sqrt(sum(v * v for v in k))
        if p == 1:
            val_row = _row_dot(rows[0], k)
            if isinstance(val_row, ExactCoeff):
                zero, dsq = _exactcoeff_circle_distance_sq(val_row)
                if zero:
                    return DiophantineCertificate(float(rho), 0.0, K, k, exact)
                dist = float(mpmath.sqrt(_exactcoeff_to_mpf(dsq)))
            else:
                fr = val_row - math.floor(val_row)
                dist = min(fr, 1.0 - fr)
        else:
            total_sq_exact = ExactCoeff({})
            total_sq_float = 0.0
            all_zero = True
            for row in rows:
                val_row = _row_dot(row, k)
                if isinstance(val_row, ExactCoeff):
                    zero, dsq = _exactcoeff_circle_distance_sq(val_row)
                    if not zero:
                        all_zero = False
                    total_sq_exact = total_sq_exact + dsq
                else:
                    fr = val_row - math.floor(val_row)
                    d = min(fr, 1.0 - fr)
                    if d != 0.0:
                        all_zero = False
                    total_sq_float += d * d
            if all_zero:
                return DiophantineCertificate(float(rho), 0.0, K, k, exact)
            dist = float(
                mpmath.sqrt(_exactcoeff_to_mpf(total_sq_exact) + mpmath.mpf(total_sq_float))
            )
        val = dist * norm ** float(rho)
        if val < best:
            best, best_k = val, k
    return DiophantineCertificate(float(rho), best, K, tuple(best_k), exact)


@dataclass(frozen=True)
class ExponentFit:
    rho_hat: float | None
    records: list[tuple[tuple[int, ...], float]]
    resonant: bool
    resonance_k: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "rho_hat": self.rho_hat,
            "records": [{"k": list(k), "dist": d} for k, d in self.records],
            "resonant": self.resonant,
            "resonance_k": list(self.resonance_k) if self.resonance_k else None,
        }


def exponent_fit(x_or_B, K: int) -> ExponentFit:
    """Estimate the approximation exponent from record minima of ||k x||.

    Records are the k where ||k x|| achieves a new minimum; the estimate is
    the negated slope of the least-squares fit of log ||k x|| against log k
    over the records.  Exact zero at some k reports resonance instead.
    """
    if K < 10:
        raise EmptyRequestError("exponent fit needs K >= 10")
    records: list[tuple[tuple[int, ...], float]] = []
    if isinstance(x_or_B, (list, tuple)):
        rows = [[as_scalar(e) for e in row] for row in x_or_B]
        q = len(rows[0])
        best = math.inf
        for k in sorted(_lattice_ball(q, K), key=lambda t: (sum(v * v for v in t), t)):
            dist, zero = _matrix_distance(rows, k)
            if zero:
                return ExponentFit(None, records, True, tuple(k))
            if dist < best:
                best = dist
                records.append((tuple(k), dist))
    else:
        x = as_scalar(x_or_B)
        best = math.inf
        for k in range(1, K + 1):
            d = _exact_circle_distance(x, k)
            if isinstance(d, Fraction) and d == 0:
                return ExponentFit(None, records, True, (k,))
            dist = _distance_to_float(d)
            if dist < best:
                best = dist
                records.append(((k,), dist))
    if len(records) < 2:
        raise InsufficientDataError("fewer than two record minima; cannot fit")
    xs = [math.log(math.sqrt(sum(v * v for v in k))) for k, _ in records]
    ys = [math.log(d) for _, d in records]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((v - mx) ** 2 for v in xs)
    sxy = sum((u - mx) * (w - my) for u, w in zip(xs, ys))
    slope = sxy / sxx
    return ExponentFit(-slope, records, False, None)


def _matrix_distance(rows, k) -> tuple[float, bool]:
    total = mpmath.mpf(0)
    all_zero = True
    for row in rows:
        val_row = _row_dot(row, k)
        if isinstance(val_row, ExactCoeff):
            zero, dsq = _exactcoeff_circle_distance_sq(val_row)
            if not zero:
                all_zero = False
            total += _exactcoeff_to_mpf(dsq)
        else:
            fr = val_row - math.floor(val_row)
            d = min(fr, 1.0 - fr)
            if d != 0.0:
                all_zero = False
            total += d * d
    return float(mpmath.sqrt(total)), all_zero
