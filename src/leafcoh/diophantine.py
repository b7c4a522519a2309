"""Empirical certification of the badly approximable condition.

A certificate records the minimum of ||k*x|| * |k|^rho over the searched
frequency ball; it is a statement about the searched radius only, never
about all k.

How the searches run:

* Exact scalars visit only the continued-fraction denominators q_n <= K,
  taken lazily from the one recursion behind ``continued_fraction``
  (Lagrange's best-approximation theorem), so K = 10^30 costs about a
  hundred steps.  Float scalars visit every k in 1..K.
* Matrices visit the whole lattice ball 0 < |k| <= K, up to sign, ordered
  by |k| and then by k.

How distances are read out: an exact value is worked in integers as
(a + sum b_d sqrt(d))/c; its nearest integer is certified and its float is
correctly rounded by the one fixed-point readout ``scalars._readout``.
Float rows and float scalars stay in float64.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from .errors import DimensionError, EmptyRequestError, InsufficientDataError
from .exact import _float_dot
from .scalars import (
    ApproximateReal,
    Rational,
    RealScalar,
    _readout,
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


def _expansion(x: RealScalar):
    """Yield (a_n, p_n, q_n) of an exact x lazily, n = 0, 1, ...

    Rational input ends after its last quotient (Euclidean algorithm);
    quadratic irrationals run forever through the exact recursion
    x_{n+1} = 1/(x_n - a_n) inside Q(sqrt(d)).  The next complete quotient
    is computed only when the next term is asked for.
    """
    pm1, pm2 = 1, 0
    qm1, qm2 = 0, 1
    cur = x
    while True:
        a = cur.floor()
        pm2, pm1 = pm1, a * pm1 + pm2
        qm2, qm1 = qm1, a * qm1 + qm2
        yield a, pm1, qm1
        if isinstance(cur, Rational):
            rem = cur.value - a
            if rem == 0:
                return
            cur = Rational(1 / rem)
        else:
            cur = cur.add_int(-a).inverse()


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
    terms = list(itertools.islice(_expansion(x), n))
    p, q = terms[-1][1:]
    terminated = isinstance(x, Rational) and x.value * q == p
    return ContinuedFraction([a for a, _, _ in terms], [(p, q) for _, p, q in terms], terminated)


def _search_ks(x: RealScalar, K: int):
    """The k in [1, K] a scalar search must visit, increasing.

    For exact x these are the distinct continued-fraction denominators
    q_n <= K: by Lagrange's best-approximation theorem ||k x|| >= ||q_n x||
    for q_n <= k < q_{n+1}, and k^rho >= q_n^rho, so no other k holds a
    smaller value, a smaller witness or a new record; rounding to float is
    monotone, so the float searches agree too.  Float input visits every k.
    """
    if not x.is_exact:
        return range(1, K + 1)
    qs = itertools.takewhile(lambda q: q <= K, (q for _, _, q in _expansion(x)))
    return list(dict.fromkeys(qs))  # q_0 = q_1 = 1 when a_1 = 1


def _scalar_distance(x: RealScalar, k: int) -> tuple[float, bool]:
    """||k x|| as a float, and whether k x is exactly an integer."""
    d = x.times_int(k).circle_distance()
    return d.to_float(), d.is_zero()


def scalar_margin(x: RealScalar, rho: float, K: int) -> DiophantineCertificate:
    """min over 1 <= k <= K of ||k x|| * k^rho with the smallest attaining k.

    Exact input visits only the continued-fraction denominators q_n <= K
    (see ``_search_ks``), so the search costs O(log K) steps; each distance
    is exact and read out correctly rounded.  Float input visits every k.
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
    for k in _search_ks(x, K):
        dist, zero = _scalar_distance(x, k)
        if zero:
            return DiophantineCertificate(float(rho), 0.0, K, (k,), x.is_exact)
        val = dist * float(k) ** float(rho)
        if val < best:
            best, best_k = val, k
    return DiophantineCertificate(float(rho), best, K, (best_k,), x.is_exact)


def scalar_margin_at(x: RealScalar, k: int, rho: float) -> float:
    """Re-evaluate the margin summand at a single k (certificate audit)."""
    return _scalar_distance(as_scalar(x), k)[0] * float(k) ** float(rho)


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


def _row_value(k, row, c: int) -> tuple[int, dict]:
    """k . row for exact scalars whose denominators divide c, as integers
    (a, {d: b_d}) with k . row = (a + sum b_d sqrt(d))/c."""
    a, terms = 0, defaultdict(int)
    for ki, s in zip(k, row):
        if ki and isinstance(s, Rational):
            a += ki * s.p * (c // s.q)
        elif ki:
            m = ki * (c // s.c)
            a += s.a * m
            terms[s.d] += s.b * m
    return a, terms


def _square(a: int, terms: dict) -> tuple[int, dict]:
    """(a + sum b_d sqrt(d))^2 as (a', {f: b'_f}) with f squarefree.

    For distinct squarefree d, e with g = gcd(d, e), sqrt(d e) =
    g sqrt((d/g)(e/g)) and (d/g)(e/g) is squarefree and > 1.
    """
    rat, out = a * a, defaultdict(int)
    items = list(terms.items())
    for i, (d, b) in enumerate(items):
        rat += b * b * d
        out[d] += 2 * a * b
        for e, b2 in items[i + 1:]:
            g = math.gcd(d, e)
            out[(d // g) * (e // g)] += 2 * b * b2 * g
    return rat, out


def _lattice_distance(rows, k) -> tuple[float, bool]:
    """Euclidean distance from B k to the nearest point of Z^p, and whether
    B k lies exactly on Z^p.

    A float row adds its squared distance in float64.  An exact row is
    k . row in integers, (a + sum b_d sqrt(d))/c over one c for all exact
    rows; ``_readout`` certifies its nearest integer n, and the square of
    (k . row - n) is expanded exactly.  With no exact row the distance is
    the float square root of the float sum; otherwise the exact squares and
    the float sum are added exactly and their square root is read out once,
    correctly rounded.
    """
    exact = [all(s.is_exact for s in row) for row in rows]
    c = math.lcm(*(s.q if isinstance(s, Rational) else s.c
                   for row, e in zip(rows, exact) if e for s in row))
    num, terms = 0, defaultdict(int)
    float_sq = 0.0
    all_zero = True
    for row, is_exact in zip(rows, exact):
        if is_exact:
            a, t = _row_value(k, row, c)
            a -= _readout(a, t, c)[0] * c
            all_zero = all_zero and a == 0 and not any(t.values())
            ra, rt = _square(a, t)
            num += ra
            for f, b in rt.items():
                terms[f] += b
        else:
            d = ApproximateReal(_float_dot(k, row)).circle_distance().to_float()
            all_zero = all_zero and d == 0.0
            float_sq += d * d
    if not any(exact):
        # a lone row keeps its distance: d * d underflows below 2^-511
        return (d if len(rows) == 1 else math.sqrt(float_sq)), all_zero
    # (num + sum terms_f sqrt f)/c^2 + fn/fd, read out under one square root
    fn, fd = float_sq.as_integer_ratio()
    terms = {f: b * fd for f, b in terms.items()}
    return _readout(num * fd + fn * c * c, terms, c * c * fd, root=True)[1], all_zero


def _ball_by_norm(q: int, K: int) -> list:
    """The lattice ball in the order of the searches: by |k|, then by k."""
    return sorted(_lattice_ball(q, K), key=lambda t: (sum(v * v for v in t), t))


def matrix_margin(B, rho: float, K: int) -> DiophantineCertificate:
    """min over 0 < |k| <= K in Z^q of ||B k||_{T^p} * |k|^rho.

    ||v||_{T^p} is the Euclidean distance from v to the nearest point of
    Z^p.  Every point of the lattice ball is visited, by |k| and then by k,
    and its distance is read out by ``_lattice_distance``; the first point
    with the smallest value is the witness.  A 1x1 matrix is handed to
    scalar_margin, so it reproduces the scalar certificate identically.
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
    for k in _ball_by_norm(q, K):
        dist, zero = _lattice_distance(rows, k)
        if zero:
            return DiophantineCertificate(float(rho), 0.0, K, k, exact)
        val = dist * math.sqrt(sum(v * v for v in k)) ** float(rho)
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

    Records are the k where the float ||k x|| reaches a new strict minimum,
    in search order; the estimate is the negated slope of the least-squares
    fit of log ||k x|| against log |k| over the records.  An exact scalar
    visits only its continued-fraction denominators, which hold every record
    (see ``_search_ks``); a float scalar visits 1..K and a matrix its lattice
    ball, as in matrix_margin.  Exact zero at some k reports resonance
    instead; fewer than two records, or records that all share one |k|,
    raise InsufficientDataError.
    """
    if K < 10:
        raise EmptyRequestError("exponent fit needs K >= 10")
    if isinstance(x_or_B, (list, tuple)):
        rows = [[as_scalar(e) for e in row] for row in x_or_B]
        points = ((k, *_lattice_distance(rows, k)) for k in _ball_by_norm(len(rows[0]), K))
    else:
        x = as_scalar(x_or_B)
        points = (((k,), *_scalar_distance(x, k)) for k in _search_ks(x, K))
    records: list[tuple[tuple[int, ...], float]] = []
    best = math.inf
    for k, dist, zero in points:
        if zero:
            return ExponentFit(None, records, True, k)
        if dist < best:
            best = dist
            records.append((k, dist))
    if len(records) < 2:
        raise InsufficientDataError("fewer than two record minima; cannot fit")
    xs = [math.log(math.sqrt(sum(v * v for v in k))) for k, _ in records]
    ys = [math.log(d) for _, d in records]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((v - mx) ** 2 for v in xs)
    if sxx == 0:
        raise InsufficientDataError("every record minimum has the same |k|; cannot fit")
    sxy = sum((u - mx) * (w - my) for u, w in zip(xs, ys))
    slope = sxy / sxx
    return ExponentFit(-slope, records, False, None)
