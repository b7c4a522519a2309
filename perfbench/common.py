"""Jobs, oracle helpers and reference comparison shared by the workloads.

A job is one call a user would make into leafcoh.  ``call`` is the timed
part; ``check`` is the job's oracle, run after the clock stops.  It raises
``Wrong`` when the answer is wrong and otherwise returns the job's canonical
output: a JSON-able dict.  Keys starting with ``~`` hold float-lane values
that the reference comparison accepts to a relative 1e-9; keys starting with
``#`` enter the traced/untraced identity digest but not the reference; every
other value must equal the reference exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np


class Wrong(Exception):
    """A job's output failed its oracle."""


def require(cond, message):
    if not cond:
        raise Wrong(message)


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]
    # computed per-layer counts from the job's inputs and outputs
    counts: Callable[[Any], dict] = field(default=lambda out: {})
    # work units for per-unit timings (points evaluated, for example)
    units: int = 1


# ----------------------------------------------------------------------
# canonical values


def exact_json(c) -> list:
    """ExactCoeff / PhaseCoeff / GaussianRational as sorted exact strings."""
    terms = getattr(c, "terms", None)
    if terms is None:
        return [str(c.re), str(c.im)]
    return [[list(k) if isinstance(k, tuple) else k, str(g.re), str(g.im)] for k, g in sorted(terms.items())]


def cnum(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def poly_rows(coeffs: dict) -> list:
    """Float coefficients of a TrigPoly as sorted [k, re, im] rows."""
    return [[list(k), *cnum(c)] for k, c in sorted(coeffs.items())]


def poly_fingerprint(coeffs: dict) -> dict:
    """Size plus float moments of a large float polynomial."""
    ks = sorted(coeffs)
    vals = np.array([complex(coeffs[k]) for k in ks], dtype=complex)
    weight = np.array([sum((i + 1) * v for i, v in enumerate(k)) for k in ks], dtype=float)
    return {
        "modes": len(ks),
        "~sum": cnum(vals.sum()),
        "~l2": float(np.sum(np.abs(vals) ** 2)),
        "~moment": cnum(np.sum(weight * vals)),
    }


def np_eval(coeffs: dict, x) -> complex:
    """Independent evaluation of sum c_k e^{2 pi i k.x} in numpy."""
    if not coeffs:
        return 0j
    ks = np.array(list(coeffs), dtype=float)
    cs = np.array([complex(c) for c in coeffs.values()])
    return complex(np.sum(cs * np.exp(2j * np.pi * (ks @ np.asarray(x, dtype=float)))))


def close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    return abs(complex(a) - complex(b)) <= abs_ + rel * max(abs(complex(a)), abs(complex(b)))


# ----------------------------------------------------------------------
# reference comparison and identity digest


def matches(ref, cur, approx=False) -> bool:
    """Field-by-field: every reference field present and equal; extra keys allowed."""
    if isinstance(ref, dict):
        return isinstance(cur, dict) and all(
            k.startswith("#") or (k in cur and matches(v, cur[k], approx or k.startswith("~")))
            for k, v in ref.items()
        )
    if isinstance(ref, list):
        return (
            isinstance(cur, list)
            and len(ref) == len(cur)
            and all(matches(a, b, approx) for a, b in zip(ref, cur))
        )
    if approx and isinstance(ref, float) and isinstance(cur, (int, float)):
        return math.isclose(ref, cur, rel_tol=1e-9, abs_tol=1e-12)
    return type(ref) is type(cur) and ref == cur


def json_roundtrip(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(out, sort_keys=True).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# seeded inputs


def random_complex(rng, lo=0.1, hi=1.0) -> complex:
    r, t = rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def real_coeffs(rng, dims, radius, pairs) -> dict:
    """Conjugate-symmetric zero-mean coefficients with ``pairs`` +-k pairs."""
    out = {}
    while len(out) < 2 * pairs:
        k = tuple(rng.randint(-radius, radius) for _ in range(dims))
        if not any(k) or k in out:
            continue
        c = random_complex(rng)
        out[k], out[tuple(-v for v in k)] = c, c.conjugate()
    return out


QUADRATIC_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)


def random_quadratic(rng, d=None):
    """A seeded quadratic irrational (a + b sqrt d)/c with small entries."""
    from leafcoh.scalars import QuadraticIrrational

    d = d or rng.choice(QUADRATIC_RADICANDS)
    return QuadraticIrrational(rng.randint(-4, 4), rng.choice((-2, -1, 1, 2)), rng.randint(1, 5), d)


def mp_value(x):
    """A scalar as an mpmath number at the caller's precision.

    Accepts a Fraction, anything with quadratic fields a, b, c, d, an exact
    leafcoh Rational, or an approximate leafcoh float.
    """
    import mpmath

    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    if hasattr(x, "d"):
        return (x.a + x.b * mpmath.sqrt(x.d)) / x.c
    if getattr(x, "is_exact", False):
        return mp_value(x.value)
    return mpmath.mpf(x.to_float())


def mp_dist(x, k: int):
    """||k x|| at 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        f = mpmath.frac(k * mp_value(x))
        return min(f, 1 - f)


def cf_denominators(x, K: int) -> list:
    """Continued-fraction denominators q_n <= K of an exact scalar (see mp_value)."""
    import mpmath

    qs, q_prev, q = [1], 0, 1
    if isinstance(x, Fraction):
        rest = x - math.floor(x)
        while rest != 0:
            a = math.floor(1 / rest)
            rest = 1 / rest - a
            q_prev, q = q, a * q + q_prev
            if q > K:
                break
            qs.append(q)
        return qs
    with mpmath.workdps(80):
        v = mpmath.frac(mp_value(x))
        while True:
            v = 1 / v
            a = int(mpmath.floor(v))
            v -= a
            q_prev, q = q, a * q + q_prev
            if q > K:
                return qs
            qs.append(q)


def fit_slope(ks, dists) -> float:
    """Least-squares slope of log dist against log k."""
    xs = np.log(np.array(ks, dtype=float))
    ys = np.log(np.array(dists, dtype=float))
    return float(np.sum((xs - xs.mean()) * (ys - ys.mean())) / np.sum((xs - xs.mean()) ** 2))


def mp_frac_phase(x, k: int) -> complex:
    """e^{2 pi i k x} with k x reduced mod 1 at 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        return complex(mpmath.expjpi(2 * mpmath.frac(k * mp_value(x))))


def rk4_steps(g_coeffs: dict, c: float, h: float, samples: int, alpha: float) -> int:
    """RK4 steps straighten_cross_section takes: three legs per base point,
    of lengths |g(x)|, |g(x + alpha)| and c, each cut into steps of h."""
    steps = 0
    for j in range(samples):
        x = j / samples
        for t in (np_eval(g_coeffs, [x]).real, np_eval(g_coeffs, [(x + alpha) % 1.0]).real, c):
            steps += math.ceil(abs(t) / h - 1e-9)
    return steps
