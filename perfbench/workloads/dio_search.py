"""dio-search: in-process Diophantine search.

``scalar_margin`` and ``exponent_fit`` on seeded quadratic irrationals and
rationals at K in {10^3, 10^4} and rho in {0.5, 1, 2}, and ``matrix_margin``
on 1x2 matrices at K = 20..40 and 2x1 matrices at K = 200, with exact and
float entries.  Kept apart from exact-calculus so that these searches do not
swamp it.

The scalar oracle is the best-approximation theorem: the minimum of
||k x|| k^rho over 1 <= k <= K is attained at a continued-fraction
denominator q_n <= K, so it is recomputed at 60 digits from the convergents
alone.  The matrix oracle is a float64 brute force over the same ball.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from leafcoh import diophantine
from leafcoh.scalars import ApproximateReal, Rational, golden_ratio_conjugate

from common import (
    QUADRATIC_RADICANDS,
    Job,
    cf_denominators,
    fit_slope,
    mp_dist,
    mp_value,
    random_quadratic,
    require,
)

RHOS = (0.5, 1.0, 2.0)


def _exact(x):
    return x.value if isinstance(x, Rational) else x


def margin_job(rng, x, rho, K, kind):
    qs = cf_denominators(_exact(x), K)

    def check(cert):
        k = cert.witness_k[0]
        require(cert.K == K and cert.rho == rho and cert.exact == x.is_exact, "certificate header")
        require(diophantine.scalar_margin_at(x, k, rho) == cert.margin, "margin not reproduced at witness")
        if isinstance(x, Rational) and x.q <= K:
            require(cert.margin == 0.0 and k == x.q, "rational not reported at its first resonance")
        else:
            with mpmath.workdps(60):
                vals = [mp_dist(_exact(x), q) * mpmath.mpf(q) ** rho for q in qs]
                best = min(range(len(qs)), key=lambda i: (vals[i], qs[i]))
                require(k == qs[best], f"witness {k} is not the convergent minimiser {qs[best]}")
                require(abs(cert.margin - vals[best]) <= 1e-12 * vals[best], "margin off the oracle")
        return {"margin": cert.margin, "witness_k": list(cert.witness_k)}

    def counts(cert):
        return {"diophantine.k_searched": cert.witness_k[0] if cert.margin == 0.0 else K}

    return Job(kind, lambda: diophantine.scalar_margin(x, rho, K), check, counts)


def golden_job():
    """The criterion-6 case: the brute-force answer is (3 - sqrt 5)/2 at k = 1."""
    x, K = golden_ratio_conjugate(), 10**4

    def check(cert):
        with mpmath.workdps(50):
            want = float((3 - mpmath.sqrt(5)) / 2)
        require(cert.witness_k == (1,) and cert.margin == want, "golden margin is not (3-sqrt5)/2 at k=1")
        return {"margin": cert.margin, "witness_k": list(cert.witness_k)}

    return Job("golden", lambda: diophantine.scalar_margin(x, 1.0, K), check,
               lambda cert: {"diophantine.k_searched": K})


def fit_job(rng, x, K, kind):
    qs = set(cf_denominators(_exact(x), K))

    def check(fit):
        if isinstance(x, Rational) and x.q <= K:
            require(fit.resonant and fit.resonance_k == (x.q,), "rational resonance not reported")
            return {"resonant": True, "resonance_k": [x.q]}
        require(not fit.resonant, "irrational reported resonant")
        ks = [k[0] for k, _ in fit.records]
        require(set(ks) <= qs and ks[-1] == max(qs), "records are not the convergent denominators")
        for k, d in fit.records:
            require(abs(d - mp_dist(_exact(x), k[0])) <= 1e-12 * d, "record distance off")
        slope = fit_slope(ks, [d for _, d in fit.records])
        require(abs(fit.rho_hat + slope) <= 1e-9 * abs(slope), "rho_hat is not the record fit")
        return {"records": [[k[0], d] for k, d in fit.records], "rho_hat": fit.rho_hat}

    def counts(fit):
        return {"diophantine.k_searched": fit.resonance_k[0] if fit.resonant else K}

    return Job(kind, lambda: diophantine.exponent_fit(x, K), check, counts)


def _ball(q, K):
    """Integer vectors 0 < |k| <= K in Z^q, first nonzero entry positive."""
    axes = np.meshgrid(*[np.arange(-K, K + 1)] * q, indexing="ij")
    ks = np.stack([a.ravel() for a in axes], axis=1)
    ks = ks[(ks * ks).sum(axis=1) <= K * K]
    nz = ks != 0
    first = ks[np.arange(len(ks)), nz.argmax(axis=1)]
    return ks[nz.any(axis=1) & (first > 0)]


def matrix_job(rng, p, q, K, exact, rho):
    # distinct radicands in a row keep 1, sqrt(d1), sqrt(d2) independent over Q,
    # so no k in the ball is exactly resonant
    rows = [[random_quadratic(rng, d) for d in rng.sample(QUADRATIC_RADICANDS, q)] for _ in range(p)]
    if not exact:
        rows = [[ApproximateReal(s.to_float()) for s in row] for row in rows]
    Bf = np.array([[float(mp_value(s)) for s in row] for row in rows])
    ks = _ball(q, K)

    def values(vecs):
        v = vecs @ Bf.T
        d = np.sqrt(np.sum((v - np.round(v)) ** 2, axis=1))
        return d * np.linalg.norm(vecs, axis=1) ** rho

    def check(cert):
        require(cert.exact == exact and cert.K == K, "certificate header")
        require(cert.margin > 0.0, "independent entries reported resonant")
        best = values(ks).min()
        require(abs(cert.margin - best) <= 1e-8 * best, "margin off the brute-force minimum")
        at = values(np.array([cert.witness_k]))[0]
        require(abs(at - best) <= 1e-8 * best, "witness does not attain the minimum")
        return {"margin": cert.margin, "witness_k": list(cert.witness_k)}

    kind = f"matrix{p}x{q}_{'exact' if exact else 'float'}_k{K}"
    return Job(kind, lambda: diophantine.matrix_margin(rows, rho, K), check,
               lambda cert: {"diophantine.k_searched": len(ks)})


def _rational(rng, q):
    p = rng.randint(1, q - 1)
    while math.gcd(p, q) != 1:
        p = rng.randint(1, q - 1)
    return Rational(p, q)


def build_round(rng, tiny=False):
    quad = lambda: random_quadratic(rng)  # noqa: E731
    if tiny:
        jobs = [
            margin_job(rng, quad(), 1.0, 100, "margin_k1e2"),
            margin_job(rng, _rational(rng, 31), 2.0, 100, "margin_rational_k1e2"),
            fit_job(rng, quad(), 100, "fit_k1e2"),
            matrix_job(rng, 1, 2, 6, True, 1.0),
            matrix_job(rng, 2, 1, 20, False, 1.0),
        ]
    else:
        # Counts place the p90 inside the K = 10^4 block, below the two exact
        # 1x2 matrix searches, and the median inside the K = 10^3 block.
        jobs = (
            [margin_job(rng, quad(), rho, 10**3, "margin_k1e3") for rho in RHOS * 3]
            + [fit_job(rng, quad(), 10**3, "fit_k1e3") for _ in range(5)]
            # q <= K: exact zero at the first resonant witness; q > K: positive
            + [margin_job(rng, _rational(rng, 997), rng.choice(RHOS), 10**3, "margin_rational_zero")]
            + [margin_job(rng, _rational(rng, 1009), rng.choice(RHOS), 10**3, "margin_rational")]
            + [fit_job(rng, _rational(rng, 997), 10**3, "fit_rational")]
            + [
                matrix_job(rng, 1, 2, 30, False, rng.choice(RHOS)),
                matrix_job(rng, 1, 2, 40, False, rng.choice(RHOS)),
                matrix_job(rng, 2, 1, 200, False, rng.choice(RHOS)),
                matrix_job(rng, 2, 1, 200, True, rng.choice(RHOS)),
            ]
            + [golden_job()]
            + [margin_job(rng, quad(), rng.choice(RHOS), 10**4, "margin_k1e4") for _ in range(3)]
            + [fit_job(rng, quad(), 10**4, "fit_k1e4") for _ in range(3)]
            + [matrix_job(rng, 1, 2, 20, True, 1.0), matrix_job(rng, 1, 2, 40, True, 1.0)]
        )
    rng.shuffle(jobs)
    return jobs
