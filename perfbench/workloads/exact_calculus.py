"""exact-calculus: in-process exact arithmetic.

The calculus identities d o d = 0 and restrict o d = d o restrict on random
exact foliations (p <= 3, q <= 2), the exact minimizability witness, exact
solve_h1 on planted forms, exact Katok obstructions for quadratic slopes
(transcendental phases) and rational slopes (the cyclotomic zero test), the
toral automorphism pipeline on 2x2 to 4x4 matrices, and Chevalley-Eilenberg
cohomology.  TrigPoly is used here through its dict path with ExactCoeff and
PhaseCoeff coefficients, unlike in float-lane.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from leafcoh import leafwise, liealg, skewflow, toral
from leafcoh.exact import ExactCoeff, GaussianRational, PhaseCoeff
from leafcoh.fourier import TrigPoly
from leafcoh.leafwise import AmbientForm, LeafwiseForm, LinearFoliation
from leafcoh.scalars import QuadraticIrrational, Rational, golden_ratio_conjugate

from common import Job, exact_json, random_quadratic, require

# fixed foliation shapes keep the work per round independent of the seed
SHAPES = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))


def _gauss(rng):
    while True:
        g = GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 7)),
                             Fraction(rng.randint(-6, 6), rng.randint(1, 7)))
        if not g.is_zero():
            return g


def _exact_scalar(rng):
    if rng.random() < 0.5:
        return Rational(rng.randint(-5, 5), rng.randint(1, 9))
    return QuadraticIrrational(rng.randint(-3, 3), rng.choice((-2, -1, 1, 2)), rng.randint(1, 4),
                               rng.choice((2, 3, 5, 7)))


def _foliation(rng, p, q, quadratic_only=False):
    pick = random_quadratic if quadratic_only else _exact_scalar
    return LinearFoliation(p, q, [[pick(rng) for _ in range(q)] for _ in range(p)])


def _exact_poly(rng, dims, n_modes, max_freq, real=False):
    coeffs = {}
    while len(coeffs) < n_modes:
        k = tuple(rng.randint(-max_freq, max_freq) for _ in range(dims))
        g = _gauss(rng)
        coeffs[k] = ExactCoeff.from_gaussian(g)
        if real:
            coeffs[tuple(-v for v in k)] = ExactCoeff.from_gaussian(g.conj())
    return TrigPoly(dims, coeffs)


def _form_json(form) -> list:
    return [[list(idx), [[list(k), exact_json(c)] for k, c in sorted(poly.coeffs.items())]]
            for idx, poly in sorted(form.components.items())]


def _divisor(F, k, i) -> ExactCoeff:
    """2 pi i (m_i + (B n)_i) in the exact ring."""
    total = ExactCoeff.from_fraction(k[i])
    for j in range(F.q):
        total = total + ExactCoeff.from_scalar(F.B[i][j]) * k[F.p + j]
    return total.times_i().times_tau(1)


# ----------------------------------------------------------------------
# jobs


def dd_job(rng, p, q):
    F = _foliation(rng, p, q)
    degree = rng.randint(0, p - 1)
    w = LeafwiseForm(F, degree, {idx: _exact_poly(rng, F.dims, 2, 3)
                                 for idx in itertools.combinations(range(p), degree)})

    def check(ddw):
        require(ddw.is_zero(), "d o d is not exactly zero")
        return {"degree": ddw.degree, "zero": True}

    return Job(f"dd_{p}{q}", lambda: leafwise.leafwise_d(leafwise.leafwise_d(w)), check)


def restrict_job(rng, p, q):
    F = _foliation(rng, p, q)
    n = F.dims
    degree = rng.randint(0, min(p, n - 1))
    amb = AmbientForm(n, degree, {idx: _exact_poly(rng, n, 2, 2)
                                  for idx in itertools.combinations(range(n), degree)})

    def call():
        return (leafwise.restrict(leafwise.ambient_d(amb), F),
                leafwise.leafwise_d(leafwise.restrict(amb, F)))

    def check(sides):
        lhs, rhs = sides
        require((lhs - rhs).is_zero(), "restrict o d - d o restrict is not exactly zero")
        return {"lhs": _form_json(lhs)}

    return Job(f"restrict_{p}{q}", call, check)


def minwitness_job(rng, p):
    F = _foliation(rng, p, 1, quadratic_only=True)
    top = LeafwiseForm(F, p, {tuple(range(p)): _exact_poly(rng, F.dims, 4, 3, real=True)})

    def check(w):
        require(isinstance(w, leafwise.MinimizabilityWitness), f"witness returned {type(w).__name__}")
        require(leafwise.ambient_d(w.ambient).is_zero(), "witness closure is not exactly zero")
        require((leafwise.restrict(w.ambient, F) - top).is_zero(), "witness does not restrict to the form")
        require(w.closure_sup == 0.0 and w.restriction_residual == 0.0, "reported residuals are not zero")
        return {"eta": _form_json(w.eta), "ambient": _form_json(w.ambient)}

    def counts(w):
        return {"leafwise.modes_divided": sum(len(c.coeffs) for c in w.eta.components.values())}

    return Job(f"minwitness_{p}", lambda: leafwise.minimizability_witness(top, F), check, counts)


def h1_job(rng, p):
    F = _foliation(rng, p, 1, quadratic_only=True)
    dims = p + 1
    g = {}
    while len(g) < 4:
        k = tuple(rng.randint(-3, 3) for _ in range(dims))
        if any(k):
            g[k] = ExactCoeff.from_gaussian(_gauss(rng))
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(p)]
    comps = {}
    for i in range(p):
        ci = {k: gk * _divisor(F, k, i) for k, gk in g.items()}
        ci[(0,) * dims] = ExactCoeff.from_fraction(a[i])
        comps[(i,)] = TrigPoly(dims, ci)
    omega = LeafwiseForm(F, 1, comps)

    def check(sol):
        require(isinstance(sol, leafwise.H1Solution), f"solver returned {type(sol).__name__}")
        require(sol.a == tuple(float(v) for v in a), "planted a not recovered")
        require(sol.g.coeffs == g, "planted g not recovered exactly")
        require(sol.residual == 0.0, "exact residual is not zero")
        return {"a": list(sol.a), "g": [[list(k), exact_json(c)] for k, c in sorted(sol.g.coeffs.items())]}

    return Job(f"h1_exact_{p}1", lambda: leafwise.solve_h1(omega, F), check,
               lambda sol: {"leafwise.modes_divided": len(sol.g.coeffs)})


def katok_job(rng, lam, obstructed):
    g = {}
    while len(g) < 5:
        g[(rng.randint(-4, 4), rng.randint(-4, 4))] = _gauss(rng)
    f = skewflow.skew_coboundary_exact(g, lam)
    planted = None
    if obstructed:
        # one extra mode far from the coboundary's support carries |c| as its obstruction
        c = _gauss(rng)
        planted = (rng.choice((-1, 1)) * rng.randint(6, 7), rng.randint(-3, 3))
        f = f + TrigPoly(2, {planted: PhaseCoeff.from_gaussian(lam, c)})
        modulus = abs(complex(float(c.re), float(c.im)))
    K = 7

    def check(rep):
        require(rep.exact, "exact report expected")
        for e in rep.entries:
            if planted and (e.k, e.r) == (planted[0], planted[1] % abs(planted[0])):
                require(e.exact_zero is False, "planted obstruction declared zero")
                require(abs(e.modulus - modulus) <= 1e-12 * modulus, "planted obstruction modulus")
            else:
                require(e.exact_zero is True and e.modulus == 0.0, "coboundary chain not exactly zero")
        require(rep.all_zero == (planted is None), "all_zero flag wrong")
        return {"all_zero": rep.all_zero, "entries": [[e.k, e.r, e.exact_zero] for e in rep.entries],
                "~moduli": [e.modulus for e in rep.entries]}

    kind = f"katok_{'rational' if isinstance(lam, Rational) else 'quadratic'}"
    return Job(kind, lambda: skewflow.katok_obstructions(f, lam, K), check)


def _hyperbolic_matrix(rng, n):
    """A random integer matrix with det +-1 and no eigenvalue modulus near 1."""
    if n == 4 and rng.random() < 0.3:
        a, b = _hyperbolic_matrix(rng, 2), _hyperbolic_matrix(rng, 2)
        return [a[0] + [0, 0], a[1] + [0, 0], [0, 0] + b[0], [0, 0] + b[1]]
    while True:
        M = np.eye(n, dtype=np.int64)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            E = np.eye(n, dtype=np.int64)
            E[i, j] = rng.choice((-1, 1))
            M = E @ M
        perm = list(range(n))
        rng.shuffle(perm)
        M = M[perm]
        if np.abs(M).max() > 12:
            continue
        moduli = np.abs(np.linalg.eigvals(M.astype(float)))
        if np.all(np.abs(moduli - 1.0) > 0.05):
            return M.tolist()


def _reducible(M) -> bool:
    """Independent test: a monic integer quadratic factor x^2 + a x +- 1 exists
    (hyperbolic matrices have no rational eigenvalue, so no linear factor)."""
    n = len(M)
    if n < 4:
        return False
    chi = [int(round(c)) for c in np.poly(np.array(M, dtype=float))][::-1]  # ascending
    bound = 2 * int(math.ceil(np.abs(np.linalg.eigvals(np.array(M, dtype=float))).max())) + 1
    for b in (1, -1):
        for a in range(-bound, bound + 1):
            rem = chi[:]
            for i in range(len(rem) - 1, 1, -1):
                c = rem[i]
                rem[i - 1] -= c * a
                rem[i - 2] -= c * b
                rem[i] = 0
            if rem[0] == 0 and rem[1] == 0:
                return True
    return False


def toral_job(rng, n):
    M = _hyperbolic_matrix(rng, n)
    Mf = np.array(M, dtype=float)
    eig = np.linalg.eigvals(Mf)
    p = int(np.sum(np.abs(eig) < 1))
    reducible = _reducible(M)

    def call():
        A = toral.certify_hyperbolic(M)
        B, split = toral.stable_slope_matrix(A)
        return A, B, split, toral.wang_cohomology(A), toral.char_poly_irreducible(M)

    def check(out):
        A, B, split, rep, irreducible = out
        require(A.det == round(np.linalg.det(Mf)), "determinant")
        require(len(A.stable_set) == p, "stable dimension")
        require(np.allclose(sorted(A.moduli), sorted(np.abs(eig)), rtol=1e-6), "eigenvalue moduli")
        require(rep.dims == (1, 1) + (0,) * p, f"wang dims {rep.dims}")
        require(irreducible == (not reducible), "irreducibility decision")
        V = np.zeros((n, p))
        for i, r in enumerate(split.leaf_coords):
            V[r, i] = 1.0
            for j, c in enumerate(split.transverse_coords):
                V[c, i] = B[i][j].to_float()
        coef = np.linalg.lstsq(V, Mf @ V, rcond=None)[0]
        require(np.abs(Mf @ V - V @ coef).max() <= 1e-8 * np.abs(Mf).max(), "slope space not invariant")
        return {"det": A.det, "stable_set": list(A.stable_set), "dims": list(rep.dims),
                "irreducible": irreducible, "split": split.to_json(),
                "B": [[s.to_json() for s in row] for row in B] if n == 2 else None,
                "~moduli": list(A.moduli)}

    return Job(f"toral_{n}", call, check)


def ce_job(name, spec, want):
    n = spec.dim

    def check(ce):
        require(ce.report.dims == want, f"CE dims {ce.report.dims}")
        return {"dims": list(ce.report.dims), "h1_basis": [[str(v) for v in vec] for vec in ce.h1_basis]}

    entries = sum(math.comb(n, k) * math.comb(n, k + 1) for k in range(n + 1))
    return Job(f"ce_{name}", lambda: liealg.ce_cohomology(spec), check,
               lambda ce: {"liealg.ce_entries": entries})


def _ce_jobs(sizes):
    jobs = [ce_job(f"abelian{n}", liealg.abelian(n), tuple(math.comb(n, k) for k in range(n + 1)))
            for n in sizes]
    jobs.append(ce_job("sl2", liealg.sl2(), (1, 0, 0, 1)))
    jobs.append(ce_job("affine_line", liealg.affine_line(), (1, 1, 0)))
    return jobs


def build_round(rng, tiny=False):
    golden = golden_ratio_conjugate()
    rational = Rational(rng.choice((1, 2)), rng.choice((3, 5, 7)))
    if tiny:
        jobs = [dd_job(rng, 2, 1), restrict_job(rng, 1, 1), minwitness_job(rng, 1), h1_job(rng, 1),
                katok_job(rng, golden, False), katok_job(rng, rational, True), toral_job(rng, 2),
                toral_job(rng, 3)] + _ce_jobs((3,))
    else:
        jobs = (
            [dd_job(rng, p, q) for p, q in SHAPES]
            + [restrict_job(rng, p, q) for p, q in SHAPES]
            + [minwitness_job(rng, 1) for _ in range(2)] + [minwitness_job(rng, 2)]
            + [h1_job(rng, 1) for _ in range(2)] + [h1_job(rng, 2)]
            + [katok_job(rng, golden, False), katok_job(rng, random_quadratic(rng), True)]
            + [katok_job(rng, rational, False), katok_job(rng, rational, True)]
            + [toral_job(rng, n) for n in (2, 2, 3, 3, 4, 4)]
            # four abelian(8) jobs, whose cost does not depend on the seed,
            # put the p90 inside a block of equal cost below the 4x4 toral jobs
            + _ce_jobs((6, 7, 8, 8, 8, 8))
        )
    rng.shuffle(jobs)
    return jobs
