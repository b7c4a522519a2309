import cmath
import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gaussian_rational, random_real_poly
from leafcoh.errors import ExactnessError, NonpositiveError, ObstructionError
from leafcoh.exact import ExactCoeff, GaussianRational, PhaseCoeff
from leafcoh import skewflow
from leafcoh.fourier import TrigPoly
from leafcoh.leafwise import SmallDivisorDiagnostic
from leafcoh.scalars import (
    ApproximateReal,
    QuadraticIrrational,
    Rational,
    as_scalar,
    golden_ratio_conjugate,
)
from leafcoh.skewflow import (
    MAX_RK4_STEPS,
    MAX_SECTION_SAMPLES,
    KroneckerFlowSpec,
    ObstructionEntry,
    SectionStraightening,
    birkhoff_flow_average,
    birkhoff_map_average,
    circle_cohom_solve,
    coboundary_average_bound,
    flow_cohom_solve,
    katok_obstructions,
    orbit_integral,
    reparam_invariant_density,
    rotate_exact,
    skew_coboundary,
    skew_coboundary_exact,
    straighten_cross_section,
    suspension_density,
)

GOLDEN = golden_ratio_conjugate()


# ----------------------------------------------------------------------
# circle equation


def test_circle_constant():
    sol = circle_cohom_solve(TrigPoly.constant(1, 3.0), GOLDEN)
    assert sol.c == pytest.approx(3.0)
    assert sol.g.coeffs == {}
    assert sol.residual == 0.0


def test_circle_two_modes_formula():
    f = TrigPoly(1, {(1,): 1.0, (-1,): 1.0})
    sol = circle_cohom_solve(f, GOLDEN)
    # direct formula oracle: g_k = f_k/(e^{2 pi i k a} - 1)
    a = GOLDEN.to_float()
    for k in (1, -1):
        expect = 1.0 / (cmath.exp(2j * math.pi * k * a) - 1.0)
        assert abs(sol.g.coeffs[(k,)] - expect) < 1e-12
    assert sol.residual < 1e-12


def test_circle_resonance_error():
    with pytest.raises(ObstructionError) as exc:
        circle_cohom_solve(TrigPoly(1, {(2,): 0.5, (-2,): 0.5}), Rational(1, 2))
    assert (2,) in exc.value.modes


def test_circle_float_resonance_agrees_with_flow():
    # 3 * fl(1/3) is exactly 1.0 in float64: the circle solver reports the
    # resonance, as the flow solver does for a float k.alpha of exactly 0.0
    alpha = ApproximateReal(0.3333333333333333)
    with pytest.raises(ObstructionError) as exc:
        circle_cohom_solve(TrigPoly(1, {(-3,): 0.5, (3,): 0.5}), alpha)
    assert exc.value.modes == [(-3,), (3,)]
    with pytest.raises(ObstructionError):
        flow_cohom_solve(TrigPoly(2, {(3, -1): 0.5, (-3, 1): 0.5}),
                         KroneckerFlowSpec((alpha, Rational(1))))


def test_circle_rational_nonresonant_ok():
    f = TrigPoly(1, {(0,): 1.0, (1,): 0.15, (-1,): 0.15})
    sol = circle_cohom_solve(f, Rational(1, 4))
    assert sol.residual < 1e-12


def test_circle_near_resonance_diagnostic():
    alpha = ApproximateReal(1e-13)
    res = circle_cohom_solve(TrigPoly(1, {(1,): 1.0, (-1,): 1.0}), alpha)
    assert isinstance(res, SmallDivisorDiagnostic)


def test_circle_random_solutions(rng):
    for _ in range(20):
        f = random_real_poly(rng, 1, n_modes=8, max_freq=32)
        sol = circle_cohom_solve(f, GOLDEN)
        assert sol.residual < 1e-10


# ----------------------------------------------------------------------
# flow equation


def test_flow_constant():
    flow = KroneckerFlowSpec.from_slope(GOLDEN)
    sol = flow_cohom_solve(TrigPoly.constant(2, 2.5), flow)
    assert sol.c == pytest.approx(2.5) and sol.g.coeffs == {}


def test_flow_single_divisor():
    flow = KroneckerFlowSpec.from_slope(GOLDEN)
    f = TrigPoly(2, {(1, 1): 0.5, (-1, -1): 0.5})  # cos 2 pi (x + y)
    sol = flow_cohom_solve(f, flow)
    w = GOLDEN.to_float() + 1.0
    assert abs(sol.g.coeffs[(1, 1)] - 0.5 / (2j * math.pi * w)) < 1e-14
    assert sol.residual < 1e-12


def test_flow_resonant_direction():
    flow = KroneckerFlowSpec((Rational(1), Rational(-1)))
    with pytest.raises(ObstructionError):
        flow_cohom_solve(TrigPoly(2, {(1, 1): 1.0, (-1, -1): 1.0}), flow)


# ----------------------------------------------------------------------
# cross-section straightening


def test_section_constant_return_time():
    res = straighten_cross_section(TrigPoly.constant(1, 2.5), GOLDEN)
    assert res.g.coeffs == {}
    assert res.c == pytest.approx(2.5)
    assert res.max_deviation < 1e-9


def test_section_golden_cosine():
    f = TrigPoly(1, {(0,): 1.0, (1,): 0.15, (-1,): 0.15})
    res = straighten_cross_section(f, GOLDEN, tol=1e-6, samples=32, rk4_step=1e-4)
    assert res.max_deviation < 1e-6
    assert res.c == pytest.approx(1.0)


def test_section_rational_alpha_nonresonant():
    f = TrigPoly(1, {(0,): 1.0, (1,): 0.15, (-1,): 0.15})
    res = straighten_cross_section(f, Rational(1, 4), tol=1e-6)
    assert res.max_deviation < 1e-6


def test_section_positivity_required():
    f = TrigPoly(1, {(0,): 0.1, (1,): 0.5, (-1,): 0.5})
    with pytest.raises(NonpositiveError):
        straighten_cross_section(f, GOLDEN)


def scalar_real_evaluator(f: TrigPoly):
    """Real evaluation on T^1 one point at a time (the oracle's field)."""
    terms = []
    const = 0.0
    for k, c in f.coeffs.items():
        cc = complex(c)
        if k[0] == 0:
            const += cc.real
        elif k[0] > 0:
            terms.append((2.0 * math.pi * k[0], 2.0 * cc.real, -2.0 * cc.imag))

    def ev(u: float) -> float:
        total = const
        for w, a, b in terms:
            total += a * math.cos(w * u) + b * math.sin(w * u)
        return total

    return ev


def scalar_section(f: TrigPoly, alpha, tol=1e-6, samples=32, rk4_step=None):
    """The leg-by-leg RK4 section check, kept as the oracle of the lockstep one."""
    alpha = as_scalar(alpha)
    sol = circle_cohom_solve(f, alpha, tol=min(tol, 1e-9))
    g, c = sol.g, sol.c
    rho_ev = scalar_real_evaluator(suspension_density(f, alpha))
    h = rk4_step if rk4_step is not None else min(1e-3, math.sqrt(tol))
    af = alpha.to_float()
    gev = scalar_real_evaluator(g)

    def field(x, y):
        s = 1.0 / rho_ev(x % 1.0)
        return af * s, s

    def integrate(x, y, T, trace=None):
        t = 0.0
        sgn = 1.0 if T >= 0 else -1.0
        remaining = abs(T)
        while remaining > 0.0:
            step = min(h, remaining)
            k1 = field(x, y)
            k2 = field(x + sgn * step * k1[0] / 2, y + sgn * step * k1[1] / 2)
            k3 = field(x + sgn * step * k2[0] / 2, y + sgn * step * k2[1] / 2)
            k4 = field(x + sgn * step * k3[0], y + sgn * step * k3[1])
            x += sgn * step * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6
            y += sgn * step * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6
            remaining -= step
            t += sgn * step
            if trace is not None and (len(trace) == 0 or abs(t - trace[-1][0]) >= 0.01):
                trace.append((t, x % 1.0, y % 1.0))
        return x, y

    def torus_dist(p, q):
        return max(
            min(abs((p[0] - q[0]) % 1.0), 1 - abs((p[0] - q[0]) % 1.0)),
            min(abs((p[1] - q[1]) % 1.0), 1 - abs((p[1] - q[1]) % 1.0)),
        )

    worst, trajectory, lengths = 0.0, [], []
    for j in range(samples):
        x = j / samples
        rx = (x + af) % 1.0
        lengths += [-gev(x), -gev(rx)]
        p = integrate(x, 0.0, -gev(x))
        q = integrate(rx, 0.0, -gev(rx))
        d = integrate(p[0], p[1], c, trace=trajectory if j == 0 else None)
        worst = max(worst, torus_dist(d, q))
    return SectionStraightening(g, c, worst, samples, h, trajectory), lengths


def _return_time(a1, a2=0.0, t2=0.0):
    c1, c2 = complex(a1, 0.0), a2 * complex(math.cos(t2), math.sin(t2))
    return TrigPoly(1, {(0,): 1.0 + 0j, (1,): c1, (-1,): c1.conjugate(), (2,): c2, (-2,): c2.conjugate()})


@pytest.mark.parametrize(
    "f, alpha, kwargs",
    [
        (_return_time(0.15), GOLDEN, {}),
        (_return_time(0.15), GOLDEN, {"samples": 33}),
        (_return_time(0.08, 0.015, 1.3), GOLDEN, {"samples": 40, "rk4_step": 3.7e-3}),
        (_return_time(0.2), Rational(1, 4), {"rk4_step": 0.01}),
        (_return_time(0.1, 0.02, 4.0), ApproximateReal(0.3819660112501051), {"rk4_step": 0.05}),
        (_return_time(0.05), GOLDEN, {"rk4_step": 0.37}),
        (_return_time(0.12, 0.01, 2.0), Rational(3, 7), {"tol": 1e-4, "samples": 48}),
        (TrigPoly.constant(1, 2.5), GOLDEN, {"rk4_step": 0.1}),
    ],
)
def test_section_matches_scalar_rk4(f, alpha, kwargs):
    got = straighten_cross_section(f, alpha, **kwargs)
    want, lengths = scalar_section(f, alpha, **kwargs)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    if f.coeffs.keys() != {(0,)}:  # legs run backward and forward in time
        assert min(lengths) < 0 < max(lengths)


def test_section_refuses_unbounded_work_before_integrating(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the section check started work it should have refused")

    f = _return_time(0.15)
    monkeypatch.setattr(skewflow, "_rk4_legs", no_work)
    for kwargs in ({"rk4_step": 1e-12}, {"rk4_step": 0.0}, {"rk4_step": -1e-3},
                   {"rk4_step": float("nan")}, {"tol": 1e-30}):
        with pytest.raises(ValueError):
            straighten_cross_section(f, GOLDEN, **kwargs)
    monkeypatch.setattr(skewflow, "circle_cohom_solve", no_work)
    monkeypatch.setattr(skewflow, "_real_evaluator", no_work)
    with pytest.raises(ValueError, match="sample points"):
        straighten_cross_section(f, GOLDEN, samples=10**8, rk4_step=1e-12)
    with pytest.raises(ValueError, match="sample points"):
        straighten_cross_section(f, GOLDEN, samples=MAX_SECTION_SAMPLES + 1)


def test_section_step_budget_admits_the_default_check():
    f = _return_time(0.15)
    # 2*32 legs of |g| <= 0.06 and 32 of length 1 at h = 1e-3: far inside the budget
    assert straighten_cross_section(f, GOLDEN).max_deviation < 1e-6
    assert 32 * 1.2 / 1e-3 < MAX_RK4_STEPS


def test_suspension_density_return_time_identity(rng):
    # orbit integral of the constructed density reproduces the return time
    f = random_real_poly(rng, 1, n_modes=3, max_freq=3)
    f = f + TrigPoly.constant(1, 4.0 + 2 * f.sup_coeff())
    rho = suspension_density(f, GOLDEN)
    flow = KroneckerFlowSpec.from_slope(GOLDEN)
    lifted = TrigPoly(2, {(k[0], 0): c for k, c in rho.coeffs.items()})
    for x in (0.0, 0.21, 0.77):
        val = orbit_integral(lifted, flow, (x, 0.0), 1.0)
        assert abs(val - f.evaluate(x)) < 1e-10


# ----------------------------------------------------------------------
# invariant density and Birkhoff averages


def test_density_examples():
    d1 = reparam_invariant_density(TrigPoly.constant(1, 1.0))
    assert d1.coeffs == {(0,): 1.0 + 0.0j}
    f = TrigPoly(1, {(0,): 2.0, (1,): 0.5, (-1,): 0.5})
    d2 = reparam_invariant_density(f)
    assert d2.coeffs[(0,)] == 1.0  # exactly, by coefficient division
    assert d2.coeffs[(1,)] == pytest.approx(0.25)
    with pytest.raises(NonpositiveError):
        reparam_invariant_density(TrigPoly(1, {(0,): 0.2, (1,): 0.5, (-1,): 0.5}))


def test_density_checks_positivity_on_the_whole_torus():
    # f = 0.5 + 0.9 cos(2 pi y) is positive on the line y = 0 and -0.4 at y = 1/2
    f = TrigPoly(2, {(0, 0): 0.5, (0, 1): 0.45, (0, -1): 0.45})
    with pytest.raises(NonpositiveError):
        reparam_invariant_density(f)
    with pytest.raises(NonpositiveError):
        reparam_invariant_density(TrigPoly(3, {(0, 0, 0): 0.5, (1, 0, -1): 0.3, (-1, 0, 1): 0.3}))
    ok = TrigPoly(2, {(0, 0): 2.0, (1, 1): 0.5, (-1, -1): 0.5, (0, 3): 0.25j, (0, -3): -0.25j})
    dens = reparam_invariant_density(ok)
    assert dens.coeffs == {k: c / 2.0 for k, c in ok.coeffs.items()}
    # 4 * 300 = 1200 points a side: 1200^2 > 2^20 is refused before any evaluation
    wide = TrigPoly(2, {(0, 0): 2.0, (300, 0): 0.5, (-300, 0): 0.5})
    with pytest.raises(ValueError, match="grid points"):
        reparam_invariant_density(wide)


def test_density_birkhoff_cross_check():
    # time average along the reparametrized flow vs density-weighted average
    f = TrigPoly(1, {(0,): 2.0, (1,): 0.5, (-1,): 0.5})
    test_fn = TrigPoly(1, {(1,): 0.5, (-1,): 0.5, (0,): 0.3})
    dens = reparam_invariant_density(f)
    space_avg = sum(
        (test_fn.coeffs.get((k,), 0) * dens.coeffs.get((-k,), 0)).real
        for k in range(-3, 4)
    )
    flow = KroneckerFlowSpec((GOLDEN,))
    x0 = (0.123,)

    def lift(p):
        return p

    # closed-form time average over [0, T]: T = int_0^S f, averages of f*test / f
    def time_average(T):
        from mpmath import mp

        S_lo, S_hi = 0.0, T / (f.mean().real * 0.4)
        target = T
        for _ in range(200):
            S_mid = 0.5 * (S_lo + S_hi)
            val = orbit_integral(lift(f), flow, x0, S_mid).real
            if val < target:
                S_lo = S_mid
            else:
                S_hi = S_mid
        S = 0.5 * (S_lo + S_hi)
        num = orbit_integral(lift(test_fn * f), flow, x0, S).real
        return num / T

    # RK4 consistency at short horizon validates the closed form
    af = GOLDEN.to_float()
    x = x0[0]
    t = 0.0
    h = 0.002
    acc = 0.0
    T_short = 50.0
    steps = int(T_short / h)

    def speed(u):
        return af / f.evaluate(u % 1.0).real

    def obs(u):
        return test_fn.evaluate(u % 1.0).real

    for _ in range(steps):
        k1 = speed(x)
        k2 = speed(x + h * k1 / 2)
        k3 = speed(x + h * k2 / 2)
        k4 = speed(x + h * k3)
        acc += h * obs(x)
        x += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    rk4_avg = acc / T_short
    assert abs(rk4_avg - time_average(T_short)) < 1e-3
    assert abs(time_average(1e4) - space_avg) < 1e-3


def test_birkhoff_constant():
    flow = KroneckerFlowSpec.from_slope(GOLDEN)
    res = birkhoff_flow_average(flow, TrigPoly.constant(2, 1.75), (0.0, 0.0), 100.0)
    assert res.average == pytest.approx(1.75)
    assert all(abs(v - 1.75) < 1e-12 for _, v in res.curve)


def test_birkhoff_zero_mean_bound(rng):
    flow = KroneckerFlowSpec.from_slope(GOLDEN)
    for _ in range(5):
        f = random_real_poly(rng, 2, n_modes=5, zero_mean=True)
        for T in (100.0, 1000.0, 10000.0):
            res = birkhoff_flow_average(flow, f, (0.31, 0.71), T)
            bound = coboundary_average_bound(f, flow, T)
            assert abs(res.average) <= bound * (1 + 1e-9)


def test_birkhoff_resonant_mode_flat():
    flow = KroneckerFlowSpec((Rational(1), Rational(-1)))
    f = TrigPoly(2, {(1, 1): 1.0, (-1, -1): 1.0})
    res = birkhoff_flow_average(flow, f, (0.2, 0.5), 1000.0)
    values = [v for _, v in res.curve]
    assert max(values) - min(values) < 1e-12  # no decay on the resonant mode
    # the closed-form bound has no finite value on a resonant mode
    g = TrigPoly(2, {(1, -1): 1.0, (-1, 1): 1.0})
    for one in (Rational(1), ApproximateReal(1.0)):
        with pytest.raises(ObstructionError) as exc:
            coboundary_average_bound(g, KroneckerFlowSpec((one, one)), 100.0)
        assert exc.value.modes[0] in g.coeffs


def test_birkhoff_map_coboundary_rate(rng):
    g = random_real_poly(rng, 1, n_modes=4, max_freq=6, zero_mean=True)
    cob = rotate_exact(g, GOLDEN) - g
    sup_g = max(abs(g.evaluate(j / 256).real) for j in range(256))
    for N in (10, 100, 1000):
        res = birkhoff_map_average([GOLDEN], cob, [0.4], N)
        assert abs(res.average) <= 2 * sup_g / N + 1e-12


# ----------------------------------------------------------------------
# Katok obstruction functionals


def brute_force_chain_solvable(f: TrigPoly, lam, k: int, r: int, tol=1e-8) -> bool:
    """Independent oracle: least-squares solve of the chain's linear system
    over a finite window, flagged solvable iff the residual vanishes."""
    lam_f = lam.to_float()
    step = abs(k)
    ms = [m for (kk, m) in f.coeffs if kk == k and m % step == r]
    if not ms:
        return True
    m_lo, m_hi = min(ms), max(ms)
    unknowns = list(range(m_lo - step, m_hi + step + 1, step))
    equations = list(range(m_lo - step, m_hi + 2 * step + 1, step))
    idx = {m: i for i, m in enumerate(unknowns)}
    A = np.zeros((len(equations), len(unknowns)), dtype=complex)
    b = np.zeros(len(equations), dtype=complex)
    for row, m in enumerate(equations):
        ph = cmath.exp(2j * math.pi * ((m - k) * lam_f % 1.0))
        if (m - k) in idx:
            A[row, idx[m - k]] += ph
        if m in idx:
            A[row, idx[m]] -= 1.0
        c = f.coeffs.get((k, m))
        if c is not None:
            b[row] = complex(c)
    _, res, _, _ = np.linalg.lstsq(A, b, rcond=None)
    fit = A @ np.linalg.lstsq(A, b, rcond=None)[0] - b
    return float(np.max(np.abs(fit))) < tol * max(1.0, float(np.max(np.abs(b))))


def all_chains_solvable_bruteforce(f: TrigPoly, lam, K: int) -> bool:
    seen = set()
    for (k, m) in f.coeffs:
        if k == 0 or abs(k) > K:
            continue
        key = (k, m % abs(k))
        if key in seen:
            continue
        seen.add(key)
        if not brute_force_chain_solvable(f, lam, *key):
            return False
    return True


def test_katok_single_mode_hand_recursion():
    # two-step recursion by hand: g_{1,0} = -1, g_{1,1} = -1
    rep = katok_obstructions(TrigPoly(2, {(1, 0): 1.0 + 0j}), GOLDEN, 2)
    assert len(rep.entries) == 1
    e = rep.entries[0]
    assert (e.k, e.r) == (1, 0)
    assert abs(e.value - (-1.0)) < 1e-14
    assert e.modulus == pytest.approx(1.0)
    assert not rep.all_zero


def test_katok_family_disjoint_rank(rng):
    seen_chains = set()
    for j in range(1, 9):
        f = TrigPoly(2, {(j, 0): 0.5, (-j, 0): 0.5})
        rep = katok_obstructions(f, GOLDEN, 8)
        moduli = {(e.k, e.r): e.modulus for e in rep.entries}
        assert all(v >= 0.5 - 1e-12 for v in moduli.values())
        assert (j, 0) in moduli
        assert not (set(moduli) & seen_chains)  # disjoint mode families
        seen_chains |= set(moduli)
        assert not all_chains_solvable_bruteforce(f, GOLDEN, 8)


def test_katok_float_coboundary_zero(rng):
    for _ in range(10):
        coeffs = {}
        for _ in range(6):
            k = (rng.randint(-4, 4), rng.randint(-4, 4))
            coeffs[k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g = TrigPoly(2, coeffs)
        f = skew_coboundary(g, GOLDEN)
        rep = katok_obstructions(f, GOLDEN, 5)
        assert rep.all_zero
        assert all(e.modulus < 1e-12 for e in rep.entries)
        assert all_chains_solvable_bruteforce(f, GOLDEN, 5)


def test_katok_exact_coboundary_exact_zero(rng):
    for _ in range(10):
        g_coeffs = {}
        for _ in range(6):
            k = (rng.randint(-4, 4), rng.randint(-4, 4))
            g_coeffs[k] = random_gaussian_rational(rng)
        f = skew_coboundary_exact(g_coeffs, GOLDEN)
        rep = katok_obstructions(f, GOLDEN, 5)
        assert rep.exact and rep.all_zero
        assert all(e.exact_zero for e in rep.entries)


def test_katok_exact_nonzero_flagged():
    f = TrigPoly(2, {(1, 0): PhaseCoeff.from_gaussian(GOLDEN, GaussianRational(1))})
    rep = katok_obstructions(f, GOLDEN, 1)
    assert rep.exact and not rep.all_zero
    assert rep.entries[0].exact_zero is False
    assert rep.entries[0].modulus == pytest.approx(1.0)


def test_katok_rational_lambda_exact_mode():
    lam = Rational(1, 3)
    g_coeffs = {(1, 0): GaussianRational(1, 0), (2, -1): GaussianRational(Fraction(1, 2), 1)}
    f = skew_coboundary_exact(g_coeffs, lam)
    rep = katok_obstructions(f, lam, 4)
    assert rep.all_zero


def test_katok_zero_section_reports():
    # solvable zero section
    f = TrigPoly(2, {(0, 1): 0.5, (0, -1): 0.5, (1, 0): 1.0})
    rep = katok_obstructions(f, GOLDEN, 2)
    assert rep.zero_section is not None and rep.zero_section.residual < 1e-12
    # resonant zero section reported, not raised
    f2 = TrigPoly(2, {(0, 2): 0.5, (0, -2): 0.5})
    rep2 = katok_obstructions(f2, Rational(1, 2), 2)
    assert isinstance(rep2.zero_section, list)
    assert (2,) in rep2.zero_section


def test_katok_sorted_and_negative_chains():
    f = TrigPoly(2, {(2, 1): 1.0, (-2, -1): 1.0, (1, 0): 0.5})
    rep = katok_obstructions(f, GOLDEN, 3)
    keys = [(abs(e.k), e.k, e.r) for e in rep.entries]
    assert keys == sorted(keys)


def _oracle_phase_mpc(lam, j: int):
    if j == 0:
        return mpmath.mpc(1)
    return mpmath.expjpi(2 * lam.times_int(j).frac().to_mpf())


def _oracle_coeff_mpc(c, dps: int):
    if isinstance(c, PhaseCoeff):
        return c.to_mpc(dps)
    return mpmath.mpc(complex(c))


def _oracle_as_phase(c, lam) -> PhaseCoeff:
    if isinstance(c, PhaseCoeff):
        return c
    raise ExactnessError("exact obstruction mode requires PhaseCoeff coefficients")


def katok_two_lane_oracle(f: TrigPoly, lam, K: int, tol: float = 1e-9, dps: int = 60):
    """The chain loop of katok_obstructions with its two lanes: a dps-digit
    mpc recursion beside the PhaseCoeff symbol in exact mode, where an entry
    is zero only if the symbol is zero and |g_num| <= 100 err.  Returns the
    entries, all_zero, complete, and the symbol's own zero test per entry."""
    lam = as_scalar(lam)
    exact = f.is_exact() and bool(f.coeffs)
    symbolic_zero = []

    # chains for k != 0
    support = [(k, m) for (k, m) in f.coeffs if k != 0]
    complete = all(abs(k) <= K for k, _ in support)
    chains: dict = {}
    for (k, m) in support:
        if abs(k) > K:
            continue
        r = m % abs(k)
        chains.setdefault((k, r), []).append(m)

    entries = []
    all_zero = True
    for (k, r), ms in sorted(chains.items(), key=lambda t: (abs(t[0][0]), t[0][0], t[0][1])):
        m_lo, m_hi = min(ms), max(ms)
        step = abs(k)
        if exact:
            value_sym = PhaseCoeff.zero(lam)
        g_num = mpmath.mpc(0)
        err = mpmath.mpf(0)
        # iterate so the final value is the first chain entry above the support
        ms_iter = range(m_lo, m_hi + step + 1, step) if k > 0 else range(m_lo, m_hi + 1, step)
        with mpmath.workdps(dps):
            eps = mpmath.mpf(2) ** (10 - mpmath.mp.prec)
            for m in ms_iter:
                fc = f.coeffs.get((k, m))
                if k > 0:
                    # g_m = phase(m-k) g_{m-k} - f_m
                    g_num = _oracle_phase_mpc(lam, m - k) * g_num
                    if fc is not None:
                        g_num -= _oracle_coeff_mpc(fc, dps)
                    if exact:
                        value_sym = value_sym.shift_phase(m - k)
                        if fc is not None:
                            value_sym = value_sym - _oracle_as_phase(fc, lam)
                else:
                    # g_{m+|k|} = (g_m + f_m) / phase(m-k)
                    if fc is not None:
                        g_num += _oracle_coeff_mpc(fc, dps)
                    g_num = g_num / _oracle_phase_mpc(lam, m - k)
                    if exact:
                        if fc is not None:
                            value_sym = value_sym + _oracle_as_phase(fc, lam)
                        value_sym = value_sym.shift_phase(-(m - k))
                err = err + (abs(g_num) + 1) * eps
        val = complex(g_num)
        if exact:
            sym_zero = value_sym.is_zero()
            symbolic_zero.append(sym_zero)
            num_zero = abs(g_num) <= err * 100
            is_zero = sym_zero and num_zero
            entries.append(
                ObstructionEntry(k, r, val, 0.0 if is_zero else abs(val), is_zero)
            )
            if not is_zero:
                all_zero = False
        else:
            entries.append(ObstructionEntry(k, r, val, abs(val)))
            if abs(val) > tol:
                all_zero = False
    return entries, all_zero, complete, symbolic_zero


EXACT_LAMS = [Rational(p, q) for q in (2, 3, 4, 5, 6, 8, 12) for p in range(1, q) if math.gcd(p, q) == 1] + [
    GOLDEN, QuadraticIrrational(0, 1, 1, 2), QuadraticIrrational(1, 1, 4, 3), QuadraticIrrational(-2, 1, 3, 7)
]
_small_fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
_gaussian = st.builds(GaussianRational, _small_fraction, _small_fraction)
_mode = st.tuples(st.integers(-7, 7), st.integers(-6, 6))


@st.composite
def exact_obstruction_data(draw):
    """A skew coboundary at an exact lam plus a few planted phase polynomials."""
    lam = draw(st.sampled_from(EXACT_LAMS))
    g = draw(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), _gaussian, max_size=5))
    f = skew_coboundary_exact(g, lam)
    planted = draw(st.dictionaries(_mode, st.dictionaries(st.integers(-3, 3), _gaussian, max_size=3),
                                   max_size=3))
    f = f + TrigPoly(2, {k: PhaseCoeff(lam, terms) for k, terms in planted.items()})
    return f, lam, draw(st.integers(1, 7))


@st.composite
def float_obstruction_data(draw):
    lam = draw(st.one_of(st.sampled_from(EXACT_LAMS),
                         st.floats(-2, 2, allow_subnormal=False).map(ApproximateReal)))
    c = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
    f = TrigPoly(2, draw(st.dictionaries(_mode, c, min_size=1, max_size=6)))
    return f, lam, draw(st.integers(1, 7))


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(exact_obstruction_data(), float_obstruction_data())
def test_katok_matches_two_lane_oracle(exact_case, float_case):
    """The symbol decides zeros as the oracle's symbol did, a zero reads 0j, a
    nonzero value is the oracle's to within 2^-52 |value| per component, and
    the float lane is the oracle's bit for bit."""
    f, lam, K = exact_case
    rep = katok_obstructions(f, lam, K)
    entries, all_zero, complete, symbolic_zero = katok_two_lane_oracle(f, lam, K)
    assert (rep.all_zero, rep.complete) == (all_zero, complete)
    assert [(e.k, e.r) for e in rep.entries] == [(o.k, o.r) for o in entries]
    assert len(symbolic_zero) == len(rep.entries)
    for e, o, sym_zero in zip(rep.entries, entries, symbolic_zero):
        assert e.exact_zero == sym_zero
        if e.exact_zero:
            assert _bits(e.value) == _bits(0j) and e.modulus == 0.0
        else:
            bound = 2.0**-52 * abs(o.value)
            assert abs(e.value.real - o.value.real) <= bound
            assert abs(e.value.imag - o.value.imag) <= bound
            assert e.modulus == abs(e.value)

    f, lam, K = float_case
    rep = katok_obstructions(f, lam, K)
    entries, all_zero, complete, _ = katok_two_lane_oracle(f, lam, K)
    assert not rep.exact and (rep.all_zero, rep.complete) == (all_zero, complete)
    assert [(e.k, e.r, _bits(e.value), e.modulus.hex(), e.exact_zero) for e in rep.entries] == [
        (o.k, o.r, _bits(o.value), o.modulus.hex(), o.exact_zero) for o in entries
    ]


def test_katok_exact_mode_refuses_exact_coeff():
    f = TrigPoly(2, {(1, 0): ExactCoeff.from_gaussian(GaussianRational(1))})
    with pytest.raises(ExactnessError):
        katok_obstructions(f, Rational(1, 3), 2)


def test_skew_coboundary_float_exact_agree(rng):
    g_coeffs = {(1, 2): GaussianRational(Fraction(1, 3), Fraction(-2, 5))}
    fe = skew_coboundary_exact(g_coeffs, GOLDEN)
    gf = TrigPoly(2, {(1, 2): complex(Fraction(1, 3), Fraction(-2, 5))})
    ff = skew_coboundary(gf, GOLDEN)
    for k, c in ff.coeffs.items():
        assert abs(c - complex(fe.coeffs[k])) < 1e-14


def test_solver_soundness_ten_tol(rng):
    # every returned solution reconstructs within 10x the working tolerance
    tol = 1e-9
    flow = KroneckerFlowSpec.from_slope(GOLDEN)
    for _ in range(10):
        f1 = random_real_poly(rng, 1, n_modes=6, max_freq=16)
        sol = circle_cohom_solve(f1, GOLDEN, tol=tol)
        assert sol.residual < 10 * tol
        f2 = random_real_poly(rng, 2, n_modes=6, max_freq=8)
        sol2 = flow_cohom_solve(f2, flow, tol=tol)
        assert sol2.residual < 10 * tol
