"""Hyperbolic toral automorphisms and suspension cohomology arithmetic.

Certification works from the exact integer characteristic polynomial: roots
are isolated at high precision with explicit error bounds, and hyperbolicity
fails loudly whenever a modulus cannot be separated from 1.  The weak-stable
suspension cohomology is computed from eigenvalue products (the connecting
maps act as exterior powers minus the identity), with a compound-matrix
construction retained as an independent cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import (
    DimensionError,
    IllConditionedError,
    NotAutomorphismError,
    NotHyperbolicError,
    UnsupportedDegreeError,
)
from .exact import ExactCoeff
from .leafwise import LinearFoliation
from .scalars import ApproximateReal, QuadraticIrrational, Rational, _fraction_to_mpf

_EIG_DPS = 60


def char_poly(matrix) -> list[int]:
    """Exact integer coefficients of det(x I - A), ascending degree."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionError("matrix must be square")
    A = [[Fraction(v) for v in row] for row in matrix]

    def matmul(X, Y):
        return [
            [sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def trace(X):
        return sum(X[i][i] for i in range(n))

    # Faddeev-LeVerrier: M_k = A (M_{k-1} + c_{k-1} I), c_k = -tr(M_k)/k
    M = [[Fraction(0)] * n for _ in range(n)]
    cs = [Fraction(1)]
    for k in range(1, n + 1):
        T = [row[:] for row in M]
        for i in range(n):
            T[i][i] += cs[-1]
        M = matmul(A, T)
        cs.append(-trace(M) / k)
    out = [cs[n - i] for i in range(n + 1)]
    ints = []
    for v in out:
        if v.denominator != 1:
            raise ArithmeticError("characteristic polynomial must be integral")
        ints.append(v.numerator)
    return ints


def int_det(matrix) -> int:
    """Exact determinant via the characteristic polynomial at 0."""
    n = len(matrix)
    p0 = char_poly(matrix)[0]
    return p0 if n % 2 == 0 else -p0


def _poly_deg(p) -> int:
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def _poly_monic(p):
    d = _poly_deg(p)
    lead = p[d]
    return [Fraction(c) / lead for c in p[: d + 1]]


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    db, da = _poly_deg(b), _poly_deg(a)
    q = [Fraction(0)] * max(da - db + 1, 1)
    while _poly_deg(a) >= db and any(a):
        da = _poly_deg(a)
        if a[da] == 0:
            break
        f = a[da] / b[db]
        q[da - db] = f
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
        a[da] = Fraction(0)
    return q, a


def _poly_gcd(a, b):
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while any(b):
        _, r = _poly_divmod(a, b)
        a, b = b, r[: _poly_deg(r) + 1] if any(r) else [Fraction(0)]
    return _poly_monic(a)


def _poly_derivative(p):
    return [i * c for i, c in enumerate(p)][1:] or [Fraction(0)]


def squarefree_factors(p) -> list[tuple[list, int]]:
    """Decompose a monic rational polynomial as prod s_i^i with s_i squarefree."""
    p = _poly_monic([Fraction(c) for c in p])
    g = _poly_gcd(p, _poly_derivative(p))
    if _poly_deg(g) == 0:
        return [(p, 1)]
    w, _ = _poly_divmod(p, g)  # product of the distinct irreducible factors
    out = []
    i = 1
    while _poly_deg(w) > 0:
        y = _poly_gcd(w, g)  # factors of multiplicity > i
        s, _ = _poly_divmod(w, y)
        if _poly_deg(s) > 0:
            out.append((_poly_monic(s), i))
        g, _ = _poly_divmod(g, y)
        w = y
        i += 1
    return out


@dataclass(frozen=True)
class ToralAutomorphism:
    n: int
    matrix: tuple[tuple[int, ...], ...]
    char: tuple[int, ...]
    eigenvalues: tuple[complex, ...]
    moduli: tuple[float, ...]
    stable_set: tuple[int, ...]
    unstable_set: tuple[int, ...]
    det: int
    cert_tol: float
    root_error: float

    @property
    def stable_eigenvalues(self) -> tuple[complex, ...]:
        return tuple(self.eigenvalues[i] for i in self.stable_set)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [list(r) for r in self.matrix],
            "char_poly": list(self.char),
            "eigenvalues": [{"re": z.real, "im": z.imag} for z in self.eigenvalues],
            "moduli": list(self.moduli),
            "stable_set": list(self.stable_set),
            "det": self.det,
        }


def _int_matrix(matrix) -> list[list[int]]:
    """The entries of a nonempty matrix as ints.  A bool entry or one that
    is not integral (1.5, inf) raises ValueError instead of being truncated."""
    if len(matrix) == 0:
        raise ValueError("matrix must be nonempty")
    for row in matrix:
        for v in row:
            integral = v.is_integer() if isinstance(v, float) else int(v) == v
            if isinstance(v, bool) or not integral:
                raise ValueError(f"matrix entry {v!r} is not an integer")
    return [[int(v) for v in row] for row in matrix]


def certify_hyperbolic(matrix, cert_tol: float = 1e-8) -> ToralAutomorphism:
    """Certify an integer matrix as a hyperbolic torus automorphism.

    Requires |det| = 1 exactly.  Eigenvalues come from root isolation on the
    exact characteristic polynomial; the certificate demands every modulus
    to clear the band [1 - tol, 1 + tol] by more than the root error bound.
    """
    rows = _int_matrix(matrix)
    n = len(rows)
    p = char_poly(rows)
    det = int_det(rows)
    if abs(det) != 1:
        raise NotAutomorphismError(f"determinant {det}; torus automorphisms need |det| = 1")

    # exact quick check for eigenvalues at +-1
    if sum(p) == 0 or sum(c * (-1) ** i for i, c in enumerate(p)) == 0:
        raise NotHyperbolicError("eigenvalue at +-1 (exact)")

    with mpmath.workdps(_EIG_DPS):
        roots = []
        err_f = 1e-40
        # isolate roots of each squarefree factor so multiplicities cannot
        # stall the iteration
        for factor, mult in squarefree_factors(p):
            coeffs = [_fraction_to_mpf(c) for c in reversed(factor)]
            if len(coeffs) == 1:
                continue
            frts, ferr = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120, error=True)
            err_f = max(err_f, float(ferr) if ferr > 0 else 1e-40)
            roots.extend(list(frts) * mult)
        data = []
        for r in roots:
            z = complex(r)
            data.append((round(z.real, 12), round(z.imag, 12), z, float(abs(r))))
        data.sort(key=lambda t: (t[3], t[0], t[1]))
    eig = tuple(d[2] for d in data)
    moduli = tuple(d[3] for d in data)
    for m in moduli:
        if abs(m - 1.0) <= cert_tol + 10 * err_f:
            raise NotHyperbolicError(
                f"eigenvalue modulus {m} within the certification band around 1"
            )
    stable = tuple(i for i, m in enumerate(moduli) if m < 1.0)
    unstable = tuple(i for i, m in enumerate(moduli) if m > 1.0)
    return ToralAutomorphism(
        n=n,
        matrix=tuple(tuple(r) for r in rows),
        char=tuple(p),
        eigenvalues=eig,
        moduli=moduli,
        stable_set=stable,
        unstable_set=unstable,
        det=det,
        cert_tol=cert_tol,
        root_error=err_f,
    )


# ----------------------------------------------------------------------
# stable slope matrix


@dataclass(frozen=True)
class SlopeSplit:
    leaf_coords: tuple[int, ...]
    transverse_coords: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "leaf_coords": list(self.leaf_coords),
            "transverse_coords": list(self.transverse_coords),
        }


def _stable_slope_exact_2x2(A: ToralAutomorphism):
    (a, b), (c, d) = A.matrix
    t = a + d
    det = A.det
    disc = t * t - 4 * det
    r = math.isqrt(disc)
    if r * r == disc:
        raise NotHyperbolicError("rational spectrum cannot be hyperbolic with |det| = 1")
    lam1 = QuadraticIrrational(t, -1, 2, disc)
    lam2 = QuadraticIrrational(t, 1, 2, disc)
    lam_s = lam1 if abs(lam1.to_float()) < 1 else lam2
    # eigenvector (b, lam - a) or (lam - d, c)
    if b != 0:
        v0: list = [Rational(b), lam_s.add_int(-a)]
    else:
        v0 = [lam_s.add_int(-d), Rational(c)]
    pivot = max(range(2), key=lambda i: abs(v0[i].to_float()))
    other = 1 - pivot
    num = ExactCoeff.from_scalar(v0[other])
    den = ExactCoeff.from_scalar(v0[pivot])
    slope = (num * den.inverse()).to_scalar()
    B = [[slope]]
    split = SlopeSplit((pivot,), (other,))
    return B, split


def stable_slope_matrix(A: ToralAutomorphism):
    """Slope matrix of the stable linear foliation, with the coordinate split.

    A real basis of the stable eigenspace (real and imaginary parts for
    complex pairs) is pivoted greedily so the eigenspace is a graph over the
    selected p coordinates; B expresses the remaining q coordinates.  The
    2x2 case is computed exactly in Q(sqrt(disc)).
    """
    if not A.stable_set:
        raise NotHyperbolicError("no stable directions")
    if A.n == 2:
        B, split = _stable_slope_exact_2x2(A)
        return B, split

    with mpmath.workdps(_EIG_DPS):
        M = mpmath.matrix([[mpmath.mpf(v) for v in row] for row in A.matrix])
        E, ER = mpmath.eig(M)
        order = sorted(range(A.n), key=lambda i: (abs(E[i]), mpmath.re(E[i]), mpmath.im(E[i])))
        cols = []
        used_conj = set()
        for i in order:
            if abs(E[i]) >= 1:
                continue
            if i in used_conj:
                continue
            vec = [ER[r, i] for r in range(A.n)]
            if abs(mpmath.im(E[i])) > 1e-40:
                for j in order:
                    if j != i and j not in used_conj and abs(E[j] - mpmath.conj(E[i])) < 1e-30:
                        used_conj.add(j)
                        break
                cols.append([mpmath.re(v) for v in vec])
                cols.append([mpmath.im(v) for v in vec])
            else:
                cols.append([mpmath.re(v) for v in vec])
        p = len(cols)
        S = mpmath.matrix(A.n, p)
        for j, col in enumerate(cols):
            for r in range(A.n):
                S[r, j] = col[r]
        # greedy largest-pivot row selection
        work = mpmath.matrix(S)
        chosen: list[int] = []
        for j in range(p):
            cand = max(
                (r for r in range(A.n) if r not in chosen),
                key=lambda r: abs(work[r, j]),
            )
            chosen.append(cand)
            piv = work[cand, j]
            for r in range(A.n):
                if r != cand and piv != 0:
                    f = work[r, j] / piv
                    for jj in range(p):
                        work[r, jj] -= f * work[cand, jj]
        leaf = tuple(sorted(chosen))
        trans = tuple(r for r in range(A.n) if r not in leaf)
        SR = mpmath.matrix(p, p)
        for i, r in enumerate(leaf):
            for j in range(p):
                SR[i, j] = S[r, j]
        SQ = mpmath.matrix(len(trans), p)
        for i, r in enumerate(trans):
            for j in range(p):
                SQ[i, j] = S[r, j]
        G = SQ * SR**-1  # q x p
        B = [
            [ApproximateReal(float(G[j, i])) for j in range(len(trans))]
            for i in range(p)
        ]
    return B, SlopeSplit(leaf, trans)


def stable_foliation(A: ToralAutomorphism):
    """LinearFoliation of the stable slope matrix (coordinates permuted by the split)."""
    B, split = stable_slope_matrix(A)
    return LinearFoliation(len(B), len(B[0]), B), split


# ----------------------------------------------------------------------
# Wang sequence and Kunneth arithmetic


@dataclass(frozen=True)
class CohomologyReport:
    dims: tuple[int, ...]
    provenance: str
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        out = {"dims": list(self.dims), "provenance": self.provenance}
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def wang_dims_from_stable_eigenvalues(
    eigs, tol: float = 1e-8, certified_hyperbolic: bool = True
) -> CohomologyReport:
    """Suspension weak-stable cohomology dims from the stable spectrum.

    For each degree k the connecting map acts on the k-th exterior power
    with eigenvalues all k-fold products of stable eigenvalues; a product
    within tol of 1 contributes one dimension to kernel and cokernel.
    Degree 0 always contributes (constants are fixed), so the dims vector is
    dims[k] = coker_{k-1} + ker_k over degrees 0..p+1.
    """
    eigs = [complex(z) for z in eigs]
    p = len(eigs)
    d = [0] * (p + 1)
    d[0] = 1
    min_sep = math.inf
    for k in range(1, p + 1):
        for sub in itertools.combinations(range(p), k):
            prod = 1.0 + 0.0j
            for i in sub:
                prod *= eigs[i]
            gap = abs(prod - 1.0)
            if gap <= tol:
                d[k] += 1
            else:
                min_sep = min(min_sep, gap)
    if certified_hyperbolic:
        if any(d[k] for k in range(1, p + 1)):
            raise IllConditionedError(
                "certified hyperbolic spectrum produced an eigenvalue product at 1"
            )
        if min_sep <= tol:
            raise IllConditionedError(
                f"tolerance {tol} does not separate eigenvalue products from 1 (min gap {min_sep})"
            )
    dims = [0] * (p + 2)
    for k in range(p + 2):
        ker_k = d[k] if k <= p else 0
        coker_prev = d[k - 1] if 1 <= k <= p + 1 else 0
        dims[k] = coker_prev + ker_k
    notes = ["H^0 pinned to the constants (dense stable leaves assumed)"]
    if not certified_hyperbolic and any(d[k] for k in range(1, p + 1)):
        notes.append("dims valid up to extension (uncertified spectrum with products at 1)")
    return CohomologyReport(tuple(dims), "wang", tuple(notes))


def wang_cohomology(A: ToralAutomorphism, tol: float = 1e-8) -> CohomologyReport:
    """Cohomology dims of the weak stable foliation of the suspension of A."""
    return wang_dims_from_stable_eigenvalues(
        A.stable_eigenvalues, tol=tol, certified_hyperbolic=True
    )


def compound_matrix(M, k: int):
    """k-th exterior power matrix (minors on increasing index pairs)."""
    import numpy as np

    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    idx = list(itertools.combinations(range(n), k))
    out = np.zeros((len(idx), len(idx)), dtype=complex)
    for a, I in enumerate(idx):
        for b, J in enumerate(idx):
            out[a, b] = np.linalg.det(M[np.ix_(I, J)])
    return out


def kunneth_dims(dims_f, dims_g) -> CohomologyReport:
    """Dimension convolution for the product foliation."""
    f = [int(v) for v in dims_f]
    g = [int(v) for v in dims_g]
    if any(v < 0 for v in f + g):
        raise ValueError("dimension vectors must be nonnegative")
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return CohomologyReport(tuple(out), "kunneth")


# ----------------------------------------------------------------------
# irreducibility over Q


def char_poly_irreducible(matrix, max_degree: int = 6) -> bool:
    """Decide irreducibility of the characteristic polynomial over Q.

    Candidate monic integer factors are reconstructed from subsets of the
    high-precision roots and verified by exact integer polynomial division,
    so the decision itself is exact.
    """
    rows = _int_matrix(matrix)
    n = len(rows)
    if n > max_degree:
        raise UnsupportedDegreeError(f"degree {n} above the exact window {max_degree}")
    p = char_poly(rows)
    if n == 1:
        return True
    factors = squarefree_factors(p)
    if len(factors) > 1 or factors[0][1] > 1 or _poly_deg(factors[0][0]) < n:
        return False  # repeated or split factors found exactly
    with mpmath.workdps(80):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(p)], maxsteps=300, extraprec=160
        )
        for size in range(1, n // 2 + 1):
            for sub in itertools.combinations(range(n), size):
                poly = [mpmath.mpc(1)]
                for i in sub:
                    poly = _poly_mul_linear(poly, roots[i])
                cand = []
                ok = True
                for coef in poly:
                    if abs(mpmath.im(coef)) > 1e-25:
                        ok = False
                        break
                    r = mpmath.nint(mpmath.re(coef))
                    if abs(mpmath.re(coef) - r) > 1e-25:
                        ok = False
                        break
                    cand.append(int(r))
                if not ok:
                    continue
                if _exact_divides(p, cand):
                    return False
    return True


def _poly_mul_linear(poly, root):
    # multiply ascending-coefficient poly by (x - root)
    out = [mpmath.mpc(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] -= c * root
        out[i + 1] += c
    return out


def _exact_divides(p: list[int], cand: list[int]) -> bool:
    """Does the monic integer polynomial cand divide p exactly?"""
    if len(cand) < 2 or cand[-1] != 1:
        return False
    if len(cand) - 1 >= len(p) - 1:
        return False
    rem = [Fraction(c) for c in p]
    deg_c = len(cand) - 1
    for i in range(len(rem) - 1, deg_c - 1, -1):
        f = rem[i]
        if f == 0:
            continue
        for k, cc in enumerate(cand):
            rem[i - deg_c + k] -= f * cc
    return all(v == 0 for v in rem[:deg_c])
