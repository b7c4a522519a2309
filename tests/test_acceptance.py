"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

Criterion 6 checks two different quantities for the golden-ratio
conjugate a at K = 10^4.  The margin is the running minimum of ||k a|| * k
over 1 <= k <= K; it is (3 - sqrt 5)/2 ~ 0.3819660, attained at k = 1, and
no minimum over a range containing k = 1 can be larger.  The stated range
[0.447, 0.448] is the record constant: by Lagrange's best-approximation
theorem the record minima of ||k a|| fall exactly on the convergent
denominators q_n (here the Fibonacci numbers), and by Hurwitz's theorem the
record products q_n * ||q_n a|| tend to 1/sqrt 5 ~ 0.4472136.  The test pins
the margin and its witness, checks that the records are the convergent
denominators, and asserts the range on the record products from k = 13 on;
the products at k = 1, 2, 3, 5, 8 are the transient before the limit.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from conftest import (
    random_exact_foliation,
    random_exact_leafwise_form,
    random_exact_poly,
    random_gaussian_rational,
    random_real_poly,
)
from leafcoh.diophantine import continued_fraction, exponent_fit, matrix_margin, scalar_margin
from leafcoh.errors import ObstructionError
from leafcoh.fourier import TrigPoly
from leafcoh.leafwise import (
    AmbientForm,
    LeafwiseForm,
    LinearFoliation,
    SmallDivisorDiagnostic,
    ambient_d,
    iota_form,
    leafwise_d,
    minimizability_witness,
    restrict,
    solve_h1,
)
from leafcoh.liealg import abelian, affine_line, ce_cohomology, sl2
from leafcoh.scalars import QuadraticIrrational, Rational, golden_ratio_conjugate
from leafcoh.skewflow import (
    KroneckerFlowSpec,
    birkhoff_flow_average,
    coboundary_average_bound,
    katok_obstructions,
    skew_coboundary,
    skew_coboundary_exact,
    straighten_cross_section,
)
from leafcoh.toral import certify_hyperbolic, kunneth_dims, wang_cohomology
from test_skewflow import all_chains_solvable_bruteforce

GOLDEN = golden_ratio_conjugate()
CAT_SLOPE = QuadraticIrrational(1, -1, 2, 5)  # (1 - sqrt 5)/2


def _report(n, label, ok=True, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:02d} [{status}] {label}" + (f" :: {detail}" if detail else ""))


def test_criterion_01_wang_reproduction():
    t0 = time.perf_counter()
    cat = wang_cohomology(certify_hyperbolic([[2, 1], [1, 1]]))
    cubic = wang_cohomology(certify_hyperbolic([[0, 0, 1], [1, 0, 1], [0, 1, 0]]))
    elapsed = time.perf_counter() - t0
    assert cat.dims == (1, 1, 0)
    assert cubic.dims == (1, 1, 0, 0)
    # independent oracle: enumerate stable eigenvalue products directly
    for matrix, dims in ([[2, 1], [1, 1]], (1, 1, 0)), ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], (1, 1, 0, 0)):
        A = certify_hyperbolic(matrix)
        eigs = A.stable_eigenvalues
        for k in range(1, len(eigs) + 1):
            for sub in itertools.combinations(eigs, k):
                prod = 1.0 + 0.0j
                for z in sub:
                    prod *= z
                assert abs(prod - 1.0) > 1e-8
    assert elapsed < 0.1, f"wang computations took {elapsed:.4f}s"
    _report(1, f"suspension weak-stable dims (1,1,0)/(1,1,0,0) in {elapsed*1e3:.1f} ms")


def test_criterion_02_circle_equation():
    from leafcoh.skewflow import circle_cohom_solve

    rng = random.Random(2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = random_real_poly(rng, 1, n_modes=10, max_freq=32)
        sol = circle_cohom_solve(f, GOLDEN)
        worst = max(worst, sol.residual)
        assert sol.residual < 1e-10
    with pytest.raises(ObstructionError):
        circle_cohom_solve(TrigPoly(1, {(2,): 0.5, (-2,): 0.5, (1,): 0.1, (-1,): 0.1}), Rational(1, 2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"circle solves took {elapsed:.3f}s"
    _report(2, f"100 circle solves, worst residual {worst:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_03_h1_solver_round_trip():
    F = LinearFoliation(1, 1, [[CAT_SLOPE]])
    rng = random.Random(3)
    worst = 0.0
    for _ in range(100):
        a = (rng.uniform(-3, 3),)
        g_coeffs = {}
        for _ in range(8):
            k = (rng.randint(-8, 8), rng.randint(-8, 8))
            if not any(k):
                continue
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            g_coeffs[k] = c
            g_coeffs[(-k[0], -k[1])] = c.conjugate()
        g = TrigPoly(2, g_coeffs)
        omega = leafwise_d(LeafwiseForm.from_function(F, g)) + iota_form(a, F)
        sol = solve_h1(omega, F)
        assert sol.a == a  # mean extraction is exact
        assert sol.residual < 1e-12
        worst = max(worst, sol.residual)
        drift = (sol.g - (g - TrigPoly.constant(2, g.mean()))).sup_coeff()
        assert drift < 1e-12
    sol = solve_h1(iota_form([2.5], F), F)
    assert sol.a == (2.5,) and sol.g.coeffs == {} and sol.residual == 0.0
    _report(3, f"100 round trips on the cat-map foliation, worst residual {worst:.2e}")


def test_criterion_04_katok_obstructions():
    rng = random.Random(4)
    # rank-8 witness family
    for j in range(1, 9):
        f = TrigPoly(2, {(j, 0): 0.5, (-j, 0): 0.5})
        rep = katok_obstructions(f, GOLDEN, 8)
        assert all(e.modulus >= 0.5 - 1e-12 for e in rep.entries)
        assert any((e.k, e.r) == (j, 0) for e in rep.entries)
        assert not all_chains_solvable_bruteforce(f, GOLDEN, 8)
    # 100 exact coboundaries: exact zeros in exact mode, < 1e-12 in float mode
    for _ in range(100):
        g_coeffs = {}
        for _ in range(5):
            k = (rng.randint(-4, 4), rng.randint(-4, 4))
            g_coeffs[k] = random_gaussian_rational(rng)
        f_exact = skew_coboundary_exact(g_coeffs, GOLDEN)
        rep = katok_obstructions(f_exact, GOLDEN, 5)
        assert rep.exact and rep.all_zero
        assert all(e.exact_zero for e in rep.entries)
        g_float = TrigPoly(2, {k: complex(v) for k, v in g_coeffs.items()})
        f_float = skew_coboundary(g_float, GOLDEN)
        rep_f = katok_obstructions(f_float, GOLDEN, 5)
        assert all(e.modulus < 1e-12 for e in rep_f.entries)
        assert all_chains_solvable_bruteforce(f_float, GOLDEN, 5)
    _report(4, "8 rank witnesses (|O| = 1/2) and 100 exact coboundaries; oracle agrees on 108/108")


def test_criterion_05_chevalley_eilenberg_dims():
    t0 = time.perf_counter()
    for p in range(1, 5):
        dims = ce_cohomology(abelian(p)).report.dims
        assert dims == tuple(math.comb(p, k) for k in range(p + 1))
    assert ce_cohomology(affine_line()).report.dims == (1, 1, 0)
    assert ce_cohomology(sl2()).report.dims == (1, 0, 0, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"exact CE ranks took {elapsed:.4f}s"
    _report(5, f"exterior algebras, affine line, sl2 dims exact in {elapsed*1e3:.1f} ms")


def test_criterion_06_diophantine_margins():
    # matrix/scalar 12-digit agreement on the cat-map stable slope
    mm = matrix_margin([[CAT_SLOPE]], 1.0, 2000)
    sm = scalar_margin(CAT_SLOPE, 1.0, 2000)
    assert abs(mm.margin - sm.margin) <= 1e-12 * max(1.0, abs(sm.margin))
    assert mm.margin == sm.margin  # identical reduction path
    # rational input: exact zero with the first resonant witness
    rat = scalar_margin(Rational(1, 2), 1.0, 10)
    assert rat.margin == 0.0 and rat.witness_k == (2,)
    _report(6, "matrix/scalar reduction and rational zeros", ok=True, detail="subchecks b, c")

    # golden-ratio conjugate at K = 10^4: the margin (running minimum) is
    # (3 - sqrt 5)/2 at k = 1; the records are the convergent denominators,
    # and their products k * ||k a|| lie in the stated range around 1/sqrt 5
    # once past the transient k < 13
    K = 10**4
    cert = scalar_margin(GOLDEN, 1.0, K)
    # compare with the exact scalar: (3 - math.sqrt(5)) / 2 is one ulp off it
    margin_ok = cert.witness_k == (1,) and cert.margin == QuadraticIrrational(3, -1, 2, 5).to_float()
    fit = exponent_fit(GOLDEN, K)
    record_ks = [k[0] for k, _ in fit.records]
    cf = continued_fraction(GOLDEN, 25)
    assert cf.convergents[-1][1] > K  # the expansion reaches past K
    denominators = sorted({q for _, q in cf.convergents if q <= K})
    records_ok = record_ks == denominators
    products = [(k[0], k[0] * d) for k, d in fit.records if k[0] >= 13]
    range_ok = bool(products) and all(0.447 <= prod <= 0.448 for _, prod in products)
    _report(
        6,
        "golden margin (3-sqrt5)/2 at k=1; record products k*dist for k>=13 in [0.447, 0.448]",
        ok=margin_ok and records_ok and range_ok,
        detail=(
            f"margin over k<=1e4 is {cert.margin:.12f} at k={cert.witness_k[0]}; "
            f"records at k={record_ks}; "
            f"record products k*dist -> {products[-4:]} approach 1/sqrt5 = {1/math.sqrt(5):.12f}"
        ),
    )
    assert margin_ok, (
        f"minimum of k*||k*golden|| over 1<=k<=10^4 is {cert.margin!r} at "
        f"k={cert.witness_k}, expected (3-sqrt5)/2 at k=(1,)"
    )
    assert records_ok, f"records at {record_ks} are not the convergent denominators {denominators}"
    assert range_ok, f"record products for k>=13 leave [0.447, 0.448]: {products}"


def test_criterion_07_minimizability_witness():
    F = LinearFoliation(1, 1, [[CAT_SLOPE]])
    rng = random.Random(7)
    for _ in range(50):
        top = LeafwiseForm(F, 1, {(0,): random_exact_poly(rng, 2, n_modes=5, real=True)})
        w = minimizability_witness(top, F)
        assert not isinstance(w, SmallDivisorDiagnostic)
        assert ambient_d(w.ambient).is_zero()  # exactly zero coefficients
        assert w.restriction_residual < 1e-12
    F2 = LinearFoliation(1, 1, [[Rational(1, 2)]])
    res = minimizability_witness(
        LeafwiseForm(F2, 1, {(0,): TrigPoly.mode(2, (1, -2), 1.0)}), F2
    )
    assert isinstance(res, SmallDivisorDiagnostic)
    _report(7, "50 closed ambient extensions with exact d(omega) = 0; resonant slope diagnosed")


def test_criterion_08_kunneth_binomials():
    for p in range(1, 5):
        for q in range(1, 5):
            f = [math.comb(p, k) for k in range(p + 1)]
            g = [math.comb(q, k) for k in range(q + 1)]
            got = kunneth_dims(f, g).dims
            # direct count for the product foliation: leaf dimension p + q
            want = tuple(math.comb(p + q, k) for k in range(p + q + 1))
            assert got == want, (p, q)
    _report(8, "dimension convolution reproduces binomials of p+q for p, q <= 4")


def test_criterion_09_ergodic_diagnostics():
    rng = random.Random(9)
    flow = KroneckerFlowSpec.from_slope(GOLDEN)
    for _ in range(20):
        f = random_real_poly(rng, 2, n_modes=5, zero_mean=True)
        for T in (1e2, 1e3, 1e4):
            avg = birkhoff_flow_average(flow, f, (0.37, 0.19), T).average
            bound = coboundary_average_bound(f, flow, T)
            assert abs(avg) <= bound * (1 + 1e-9), (T, abs(avg), bound)
    f = TrigPoly(1, {(0,): 1.0, (1,): 0.15, (-1,): 0.15})  # 1 + 0.3 cos
    sec = straighten_cross_section(f, GOLDEN, tol=1e-6, samples=32)
    assert sec.max_deviation < 1e-6
    _report(9, f"20 averages under the closed-form bound; section deviation {sec.max_deviation:.2e}")


def test_criterion_10_calculus_identities():
    rng = random.Random(10)
    checked = 0
    for _ in range(10):
        F = random_exact_foliation(rng)
        n = F.dims
        for _ in range(10):
            degree = rng.randint(0, F.p)
            w = random_exact_leafwise_form(rng, F, degree, n_modes=2)
            assert leafwise_d(leafwise_d(w)).is_zero()
            checked += 1
        for _ in range(10):
            degree = rng.randint(0, min(F.p, n - 1))
            comps = {}
            for idx in itertools.combinations(range(n), degree):
                comps[idx] = random_exact_poly(rng, n, n_modes=2, max_freq=2)
            amb = AmbientForm(n, degree, comps)
            lhs = restrict(ambient_d(amb), F)
            rhs = leafwise_d(restrict(amb, F))
            assert (lhs - rhs).is_zero()
            checked += 1
    assert checked == 200
    _report(10, "d o d = 0 and restrict o d = d o restrict, exactly, on 200 forms / 10 foliations")
