"""float-lane: in-process float TrigPoly work.

Dense products, evaluation at many points, grid round trips, the circle and
flow solvers and the float degree-1 solver on planted inputs, cross-section
straightening with its RK4 check, and Birkhoff averages.  Every slope is a
float (ApproximateReal) or feeds only float arithmetic, so the exact rings
are bypassed.
"""

from __future__ import annotations

import math

from leafcoh import fourier, leafwise, skewflow
from leafcoh.fourier import TrigPoly
from leafcoh.leafwise import LeafwiseForm, LinearFoliation
from leafcoh.scalars import ApproximateReal
from leafcoh.skewflow import KroneckerFlowSpec

from common import (
    Job,
    close,
    cnum,
    mp_frac_phase,
    np_eval,
    poly_fingerprint,
    poly_rows,
    random_complex,
    random_quadratic,
    real_coeffs,
    require,
    rk4_steps,
)

TWO_PI = 2.0 * math.pi


def _box(rng, radius):
    """Dense complex box of (2r+1)^2 modes on T^2."""
    r = range(-radius, radius + 1)
    return TrigPoly(2, {(i, j): random_complex(rng) for i in r for j in r})


def _float_slope(rng):
    return ApproximateReal(random_quadratic(rng).frac().to_float())


def _section_slope(rng):
    """Exact slope in [0.2, 0.65] with ||2 alpha|| >= 0.2: with the amplitudes of
    section_job this keeps the reparametrization density positive."""
    while True:
        alpha = random_quadratic(rng).frac()
        v = alpha.to_float()
        if 0.2 <= v <= 0.65 and min(2 * v % 1, 1 - 2 * v % 1) >= 0.2:
            return alpha


# ----------------------------------------------------------------------
# jobs


def mul_job(rng, radius):
    a, b = _box(rng, radius), _box(rng, radius)
    n = (2 * radius + 1) ** 2
    x = (rng.random(), rng.random())

    def check(prod):
        require(len(prod.coeffs) == (4 * radius + 1) ** 2, "product support is not the full box")
        scale = sum(map(abs, a.coeffs.values())) * sum(map(abs, b.coeffs.values()))
        got, want = np_eval(prod.coeffs, x), np_eval(a.coeffs, x) * np_eval(b.coeffs, x)
        require(abs(got - want) <= 1e-12 * scale, "product disagrees with the product of values")
        return poly_fingerprint(prod.coeffs)

    return Job(f"mul{n}", lambda: a * b, check, lambda out: {"fourier.mul.mode_pairs": n * n})


def eval_job(rng, radius, points):
    f = _box(rng, radius)
    pts = [(rng.random(), rng.random()) for _ in range(points)]

    def check(vals):
        scale = sum(map(abs, f.coeffs.values()))
        for p, v in zip(pts, vals):
            require(abs(v - np_eval(f.coeffs, p)) <= 1e-12 * scale, "evaluation disagrees with numpy")
        return {"~values": [cnum(v) for v in vals]}

    return Job(f"eval{len(f.coeffs)}", lambda: [f.evaluate(p) for p in pts], check, units=points)


def grid_job(rng, radius):
    f = TrigPoly(2, real_coeffs(rng, 2, radius, 2 * radius))
    N = 2 * radius + 5

    def check(back):
        require(set(back.coeffs) == set(f.coeffs), "round trip changed the support")
        for k, c in f.coeffs.items():
            require(abs(back.coeffs[k] - c) <= 1e-12, "round trip changed a coefficient")
        return {"~coeffs": poly_rows(back.coeffs)}

    return Job("grid", lambda: fourier.grid_transform(fourier.inverse_grid(f, N)), check)


def circle_job(rng, radius):
    alpha = random_quadratic(rng)
    g = real_coeffs(rng, 1, radius, 5)
    c = rng.uniform(-1, 1)
    fc = {(0,): complex(c)}
    for k, gk in g.items():
        if k[0] > 0:
            fk = gk * (mp_frac_phase(alpha, k[0]) - 1.0)
            fc[k], fc[(-k[0],)] = fk, fk.conjugate()
    f = TrigPoly(1, fc)

    def check(sol):
        require(isinstance(sol, skewflow.CohomSolution), f"solver returned {type(sol).__name__}")
        require(close(sol.c, c, abs_=1e-14), "mean not recovered")
        require(set(sol.g.coeffs) == set(g), "planted support not recovered")
        require(all(close(sol.g.coeffs[k], g[k]) for k in g), "planted g not recovered")
        require(sol.residual < 1e-10, "residual too large")
        return {"~c": sol.c, "~g": poly_rows(sol.g.coeffs)}

    return Job("circle", lambda: skewflow.circle_cohom_solve(f, alpha), check)


def flow_job(rng, radius):
    alpha = _float_slope(rng)
    spec = KroneckerFlowSpec.from_slope(alpha)
    af = alpha.to_float()
    g = real_coeffs(rng, 2, radius, 6)
    c = rng.uniform(-1, 1)
    fc = {(0, 0): complex(c)}
    fc.update({k: gk * complex(0.0, TWO_PI * (k[0] * af + k[1])) for k, gk in g.items()})
    f = TrigPoly(2, fc)

    def check(sol):
        require(isinstance(sol, skewflow.CohomSolution), f"solver returned {type(sol).__name__}")
        require(close(sol.c, c, abs_=1e-14), "mean not recovered")
        require(set(sol.g.coeffs) == set(g), "planted support not recovered")
        require(all(close(sol.g.coeffs[k], g[k], rel=1e-8) for k in g), "planted g not recovered")
        return {"~c": sol.c, "~g": poly_rows(sol.g.coeffs)}

    return Job("flow", lambda: skewflow.flow_cohom_solve(f, spec), check)


def h1_job(rng, p, radius):
    B = [[_float_slope(rng)] for _ in range(p)]
    F = LinearFoliation(p, 1, B)
    g = real_coeffs(rng, p + 1, radius, 6)
    a = tuple(rng.uniform(-3, 3) for _ in range(p))
    comps = {}
    for i in range(p):
        ci = {(0,) * (p + 1): complex(a[i])}
        for k, gk in g.items():
            delta = k[i] + B[i][0].to_float() * k[p]
            if delta != 0.0:
                ci[k] = gk * complex(0.0, TWO_PI * delta)
        comps[(i,)] = TrigPoly(p + 1, ci)
    omega = LeafwiseForm(F, 1, comps)

    def check(sol):
        require(isinstance(sol, leafwise.H1Solution), f"solver returned {type(sol).__name__}")
        require(sol.a == a, "planted a not recovered exactly")
        require(set(sol.g.coeffs) == set(g), "planted support not recovered")
        require(all(close(sol.g.coeffs[k], g[k], rel=1e-8) for k in g), "planted g not recovered")
        require(sol.residual < 1e-9, "residual too large")
        return {"a": list(sol.a), "~g": poly_rows(sol.g.coeffs)}

    return Job(
        f"h1_{p}1",
        lambda: leafwise.solve_h1(omega, F),
        check,
        lambda sol: {"leafwise.modes_divided": len(sol.g.coeffs)},
    )


def section_job(rng, samples):
    alpha = _section_slope(rng)
    a1, a2 = rng.uniform(0.05, 0.1), rng.uniform(0.0, 0.02)
    t1, t2 = rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI)
    c1, c2 = a1 * complex(math.cos(t1), math.sin(t1)), a2 * complex(math.cos(t2), math.sin(t2))
    f = TrigPoly(1, {(0,): 1.0 + 0j, (1,): c1, (-1,): c1.conjugate(), (2,): c2, (-2,): c2.conjugate()})

    def check(sec):
        require(isinstance(sec, skewflow.SectionStraightening), f"returned {type(sec).__name__}")
        require(sec.c == 1.0, "return time mean not recovered")
        require(sec.max_deviation < 1e-6, f"section deviation {sec.max_deviation:.2e}")
        for k, fk in f.coeffs.items():
            if k[0]:
                want = fk / (mp_frac_phase(alpha, k[0]) - 1.0)
                require(close(sec.g.coeffs.get(k, 0), want), "transfer function not recovered")
        return {
            "samples": sec.samples,
            "rk4_step": sec.rk4_step,
            "~g": poly_rows(sec.g.coeffs),
            "#max_deviation": sec.max_deviation,
        }

    def counts(sec):
        return {"skewflow.rk4_steps": rk4_steps(sec.g.coeffs, sec.c, sec.rk4_step, samples, alpha.to_float())}

    return Job(
        f"section{samples}",
        lambda: skewflow.straighten_cross_section(f, alpha, tol=1e-6, samples=samples),
        check,
        counts,
    )


def birkhoff_job(rng, horizon):
    alpha = _float_slope(rng)
    flow = KroneckerFlowSpec.from_slope(alpha)
    af = alpha.to_float()
    f = TrigPoly(2, real_coeffs(rng, 2, 5, 5))
    x0 = (rng.random(), rng.random())

    def check(avg):
        bound = sum(abs(c) / (math.pi * abs(k[0] * af + k[1])) for k, c in f.coeffs.items()) / horizon
        require(abs(avg.average) <= bound * (1 + 1e-9), "average above the closed-form bound")
        require(len(avg.curve) == 12, "convergence curve has the wrong length")
        return {"~average": cnum(avg.average), "~curve": [list(p) for p in avg.curve]}

    return Job("birkhoff", lambda: skewflow.birkhoff_flow_average(flow, f, x0, horizon), check)


# ----------------------------------------------------------------------
# one round: a fixed mix of job kinds; the seed picks the values and order


def build_round(rng, tiny=False):
    if tiny:
        jobs = [mul_job(rng, 2), eval_job(rng, 3, 4), grid_job(rng, 3), circle_job(rng, 8),
                flow_job(rng, 3), h1_job(rng, 1, 3), h1_job(rng, 2, 2), section_job(rng, 32),
                birkhoff_job(rng, 100.0)]
    else:
        # Counts place the median inside the ~20 ms block (mul121, eval441)
        # and the p90 inside the ~250 ms block (mul441, section64), away
        # from the edges where job kinds of different cost meet.
        jobs = (
            [circle_job(rng, 32) for _ in range(2)]
            + [flow_job(rng, 6) for _ in range(2)]
            + [h1_job(rng, 1, 8), h1_job(rng, 2, 6), grid_job(rng, 10)]
            + [birkhoff_job(rng, 1000.0) for _ in range(2)]
            + [mul_job(rng, 5) for _ in range(6)]
            + [eval_job(rng, 10, 32) for _ in range(6)]
            + [section_job(rng, 32)]
            + [mul_job(rng, 10) for _ in range(3)]
            + [section_job(rng, 64) for _ in range(2)]
        )
    rng.shuffle(jobs)
    return jobs
