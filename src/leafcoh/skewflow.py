"""Cohomological equations of circle rotations, Kronecker flows, and the
parabolic skew product on the 2-torus.

The solvers divide Fourier coefficients by the small divisors
e^{2 pi i k a} - 1 (discrete time) or 2 pi i k.a (continuous time), with
exact argument reduction mod 1 whenever the rotation data is exact.  The
skew product F(x, y) = (x + y, y + lam) couples the x-modes into infinite
chains; running each chain upward from below the support produces one
obstruction value per residue class, and a finitely supported function is a
coboundary in its oscillating part exactly when all obstruction values
vanish.  Exact mode carries the chain values as phase polynomials with
Gaussian rational coefficients next to a high-precision numeric lane, and a
value is declared zero only when both lanes agree.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .errors import (
    DimensionError,
    EmptyRequestError,
    ExactnessError,
    NonpositiveError,
    ObstructionError,
)
from .exact import ExactCoeff, PhaseCoeff, _exact_dot, _float_dot
from .fourier import TrigPoly, frame_derivative, inverse_grid, _to_complex
from .leafwise import SmallDivisorDiagnostic, _divide_small_divisors
from .scalars import Rational, RealScalar, as_scalar

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class KroneckerFlowSpec:
    """Linear flow x -> x + t*alpha on T^n."""

    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(as_scalar(a) for a in self.alpha))
        if all(a.is_zero() for a in self.alpha):
            raise DimensionError("flow direction must be nonzero")

    @classmethod
    def from_slope(cls, alpha) -> "KroneckerFlowSpec":
        """The normalized torus flow (x, y) -> (x + alpha t, y + t)."""
        return cls((as_scalar(alpha), Rational(1)))

    @property
    def n(self) -> int:
        return len(self.alpha)

    def alpha_floats(self) -> list[float]:
        return [a.to_float() for a in self.alpha]

    def frequency(self, k: tuple):
        """k . alpha, exact when the direction is exact."""
        if all(a.is_exact for a in self.alpha):
            return _exact_dot(k, self.alpha)
        return _float_dot(k, self.alpha)


# ----------------------------------------------------------------------
# phases with exact argument reduction


def _phase_of_multiple(alpha: RealScalar, j: int) -> complex:
    """e^{2 pi i j alpha}, reducing j*alpha mod 1 exactly for exact alpha."""
    if j == 0:
        return 1.0 + 0.0j
    return cmath.exp(2j * math.pi * alpha.times_int(j).frac().to_float())


def _circle_divisor(alpha: RealScalar, j: int):
    """e^{2 pi i j alpha} - 1, and whether j alpha is an integer (exactly for
    exact alpha, in float64 for a float one)."""
    return _phase_of_multiple(alpha, j) - 1.0, alpha.times_int(j).frac().is_zero()


def _flow_frequency(flow: "KroneckerFlowSpec", k: tuple):
    """k . alpha as a float, and whether it is exactly zero."""
    freq = flow.frequency(k)
    if isinstance(freq, ExactCoeff):
        return freq.to_complex().real, freq.is_zero()
    return freq, freq == 0.0


def rotate_exact(f: TrigPoly, alpha: RealScalar) -> TrigPoly:
    """f(x + alpha) on T^1 with exactly reduced phases."""
    out = {}
    for k, c in f.coeffs.items():
        out[k] = _to_complex(c) * _phase_of_multiple(alpha, k[0])
    return TrigPoly(1, out)


# ----------------------------------------------------------------------
# circle and flow cohomological equations


@dataclass(frozen=True)
class CohomSolution:
    g: TrigPoly
    c: float
    residual: float

    def to_json(self) -> dict:
        return {"g": self.g.to_json(), "c": self.c, "residual": self.residual}


def _require_real(f: TrigPoly, what: str):
    tol = 1e-12 * max(f.sup_coeff(), 1.0)
    if not f.is_real(tol):
        raise ValueError(f"{what} must be real-valued")


def circle_cohom_solve(f: TrigPoly, alpha, tol: float = 1e-9):
    """Solve f = g o R_alpha - g + c on the circle.

    c is the mean of f and g_k = f_k / (e^{2 pi i k alpha} - 1) on the
    support.  Exactly resonant supported modes (k alpha integral) raise
    ObstructionError; divisors merely below tol return a diagnostic.  The
    residual is the max norm of f - (g o R_alpha - g + c) on a grid of at
    least four points per top frequency.
    """
    if f.dims != 1:
        raise DimensionError("circle equation expects a polynomial on T^1")
    _require_real(f, "circle equation data")
    return _circle_solve_core(f, alpha, tol)


def _circle_solve_core(f: TrigPoly, alpha, tol: float):
    """Circle equation without the real-valuedness gate (the coefficient
    formula is the same for complex data)."""
    alpha = as_scalar(alpha)
    c = _to_complex(f.mean()).real

    def divisor(k):
        div, exactly_zero = _circle_divisor(alpha, k[0])
        return f.coeffs[k], div, abs(div), exactly_zero

    g_coeffs, near, resonant = _divide_small_divisors(f.coeffs, divisor, tol)
    if resonant:
        raise ObstructionError("resonant circle modes with nonzero coefficients", modes=resonant)
    if near:
        return SmallDivisorDiagnostic("circle equation near-resonant modes", tol, near)

    g = TrigPoly(1, g_coeffs)
    target = rotate_exact(g, alpha) - g + TrigPoly.constant(1, complex(c))
    diff = f.to_float() - target
    N = max(8, 4 * max(f.max_frequency(), g.max_frequency(), 1))
    residual = float(np.max(np.abs(inverse_grid(diff, N)))) if diff.coeffs else 0.0
    return CohomSolution(g, c, residual)


def flow_cohom_solve(f: TrigPoly, flow: KroneckerFlowSpec, tol: float = 1e-9):
    """Solve f = X(g) + c along the Kronecker flow with direction alpha.

    g_k = f_k / (2 pi i k.alpha); an exactly resonant supported mode
    (k.alpha = 0) raises ObstructionError, near-resonances return a
    diagnostic.
    """
    if f.dims != flow.n:
        raise DimensionError("function and flow live on different tori")
    _require_real(f, "flow equation data")
    c = _to_complex(f.mean()).real

    def divisor(k):
        w, exactly_zero = _flow_frequency(flow, k)
        return f.coeffs[k], complex(0.0, TWO_PI * w), abs(w), exactly_zero

    g_coeffs, near, resonant = _divide_small_divisors(f.coeffs, divisor, tol)
    if resonant:
        raise ObstructionError("resonant flow modes with nonzero coefficients", modes=resonant)
    if near:
        return SmallDivisorDiagnostic("flow equation near-resonant modes", tol, near)

    g = TrigPoly(flow.n, g_coeffs)
    diff = f.to_float() - frame_derivative(g, flow.alpha_floats()) - TrigPoly.constant(
        flow.n, complex(c)
    )
    N = max(8, 4 * max(f.max_frequency(), 1))
    residual = float(np.max(np.abs(inverse_grid(diff, N)))) if diff.coeffs else 0.0
    return CohomSolution(g, c, residual)


# ----------------------------------------------------------------------
# cross-section straightening with an ODE verification


def _real_eval_factory(f: TrigPoly):
    """Fast real evaluation of a real trig polynomial on T^1."""
    terms = []
    const = 0.0
    for k, c in f.coeffs.items():
        cc = _to_complex(c)
        if k[0] == 0:
            const += cc.real
        elif k[0] > 0:
            terms.append((TWO_PI * k[0], 2.0 * cc.real, -2.0 * cc.imag))
    def ev(u: float) -> float:
        total = const
        for w, a, b in terms:
            total += a * math.cos(w * u) + b * math.sin(w * u)
        return total
    return ev


@dataclass(frozen=True)
class SectionStraightening:
    g: TrigPoly
    c: float
    max_deviation: float
    samples: int
    rk4_step: float
    trajectory: list = field(default_factory=list)  # (t, x, y) along one verified leg

    def to_json(self) -> dict:
        return {
            "g": self.g.to_json(),
            "c": self.c,
            "max_deviation": self.max_deviation,
            "samples": self.samples,
            "rk4_step": self.rk4_step,
            "trajectory": [{"t": t, "x": x, "y": y} for t, x, y in self.trajectory],
        }


def suspension_density(f: TrigPoly, alpha) -> TrigPoly:
    """Reparametrization density rho(x) whose scaled Kronecker flow has
    first return time f to the section y = 0.

    The return time of the flow (alpha, 1)/rho(x) from (x, 0) is the
    orbit integral of rho, which is f exactly when
    rho_k = f_k * (2 pi i k alpha)/(e^{2 pi i k alpha} - 1) for k != 0.
    Defined whenever no supported mode is resonant, i.e. whenever the
    circle equation for f is solvable.
    """
    alpha = as_scalar(alpha)
    af = alpha.to_float()
    out = {}
    for k, c in f.coeffs.items():
        if k[0] == 0:
            out[k] = _to_complex(c)
            continue
        div, _ = _circle_divisor(alpha, k[0])
        if div == 0:
            raise ObstructionError("resonant mode in return time", modes=[k])
        out[k] = _to_complex(c) * complex(0.0, TWO_PI * k[0] * af) / div
    return TrigPoly(1, out)


def straighten_cross_section(
    f: TrigPoly,
    alpha,
    tol: float = 1e-6,
    samples: int = 32,
    rk4_step: float | None = None,
):
    """Straighten the return time of a reparametrized suspension flow.

    Solves the circle equation for the return time f, then verifies
    numerically that the flowed section has constant return time c: the
    torus field (alpha, 1)/rho(x) built by suspension_density (whose first
    return time to y = 0 is f) is integrated with a fixed RK4 step from
    psi^{-g(x)}(x, 0) for time c and compared against
    psi^{-g(R_alpha x)}(R_alpha x, 0) at `samples` base points.
    """
    if samples < 32:
        raise EmptyRequestError("verification needs at least 32 sample points")
    _require_real(f, "return time")
    alpha = as_scalar(alpha)
    ev = _real_eval_factory(f)
    grid = [j / 256 for j in range(256)]
    if min(ev(u) for u in grid) <= 0:
        raise NonpositiveError("return time must be positive on the verification grid")

    sol = circle_cohom_solve(f, alpha, tol=min(tol, 1e-9))
    if isinstance(sol, SmallDivisorDiagnostic):
        return sol
    g, c = sol.g, sol.c

    rho = suspension_density(f, alpha)
    rho_ev = _real_eval_factory(rho)
    if min(rho_ev(u) for u in grid) <= 0:
        raise NonpositiveError(
            "reparametrization density is not positive; return time too wild to realize"
        )

    h = rk4_step if rk4_step is not None else min(1e-3, math.sqrt(tol))
    af = alpha.to_float()
    gev = _real_eval_factory(TrigPoly(1, {k: _to_complex(v) for k, v in g.coeffs.items()}))

    def field(x: float, y: float):
        s = 1.0 / rho_ev(x % 1.0)
        return af * s, s

    def integrate(x: float, y: float, T: float, trace=None):
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

    worst = 0.0
    trajectory: list = []
    for j in range(samples):
        x = j / samples
        rx = (x + af) % 1.0
        p = integrate(x, 0.0, -gev(x))
        q = integrate(rx, 0.0, -gev(rx))
        d = integrate(p[0], p[1], c, trace=trajectory if j == 0 else None)
        worst = max(worst, torus_dist(d, q))
    return SectionStraightening(g, c, worst, samples, h, trajectory)


# ----------------------------------------------------------------------
# invariant density and Birkhoff averages


def reparam_invariant_density(f: TrigPoly) -> TrigPoly:
    """Invariant density f / int(f) of the flow with vector field (1/f) X.

    X preserves Lebesgue measure, so the time-changed flow preserves
    f * Lebesgue; dividing every coefficient by the mean makes the zero mode
    exactly 1.
    """
    _require_real(f, "density data")
    ev = _real_eval_factory(f)
    if min(ev(j / 256) for j in range(256)) <= 0:
        raise NonpositiveError("density data must be positive")
    mean = _to_complex(f.mean())
    return TrigPoly(f.dims, {k: _to_complex(c) / mean for k, c in f.coeffs.items()})


def orbit_integral(f: TrigPoly, flow: KroneckerFlowSpec, x0, T: float) -> complex:
    """Exact modewise integral of f along the straight orbit through x0.

    int_0^T f(x0 + t alpha) dt = sum_k f_k e^{2 pi i k.x0} M_k with
    M_k = (e^{2 pi i T k.alpha} - 1)/(2 pi i k.alpha), and M_k = T on
    resonant modes.
    """
    pt = tuple(float(v) for v in x0)
    total = 0.0 + 0.0j
    for k, c in f.coeffs.items():
        base = _to_complex(c) * cmath.exp(2j * math.pi * sum(ki * xi for ki, xi in zip(k, pt)))
        freq = flow.frequency(k) if any(k) else None
        if freq is None:
            total += base * T
            continue
        if isinstance(freq, ExactCoeff):
            if freq.is_zero():
                total += base * T
                continue
            with mpmath.workdps(50):
                w = freq.to_mpf()
                theta = mpmath.mpf(T) * w
                phase = mpmath.expjpi(2 * (theta - mpmath.floor(theta)))
                factor = complex((phase - 1) / (2j * mpmath.pi * w))
            total += base * factor
        else:
            w = freq
            if w == 0.0:
                total += base * T
            else:
                theta = (T * w) % 1.0
                total += base * (cmath.exp(2j * math.pi * theta) - 1.0) / (2j * math.pi * w)
    return total


@dataclass(frozen=True)
class BirkhoffAverage:
    average: complex
    horizon: float
    curve: list  # (T, |average|)

    def to_json(self) -> dict:
        return {
            "average_re": self.average.real,
            "average_im": self.average.imag,
            "horizon": self.horizon,
            "curve": [{"T": t, "abs_average": v} for t, v in self.curve],
        }


def birkhoff_flow_average(
    flow: KroneckerFlowSpec, f: TrigPoly, x0, T: float, curve_points: int = 12
) -> BirkhoffAverage:
    """(1/T) int_0^T f along the Kronecker orbit, with a convergence curve."""
    if T <= 0:
        raise EmptyRequestError("horizon T must be positive")
    curve = []
    for i in range(1, curve_points + 1):
        t = T ** (i / curve_points)
        curve.append((t, abs(orbit_integral(f, flow, x0, t) / t)))
    avg = orbit_integral(f, flow, x0, T) / T
    return BirkhoffAverage(avg, T, curve)


def birkhoff_map_average(
    alpha, f: TrigPoly, x0, N: int, curve_points: int = 12
) -> BirkhoffAverage:
    """(1/N) sum_{j<N} f(x0 + j alpha) for the torus rotation by alpha."""
    if N < 1:
        raise EmptyRequestError("need at least one iterate")
    alphas = [as_scalar(a) for a in (alpha if isinstance(alpha, (list, tuple)) else [alpha])]
    if len(alphas) != f.dims:
        raise DimensionError("rotation vector dimension mismatch")
    pt = tuple(float(v) for v in (x0 if isinstance(x0, (list, tuple)) else [x0]))

    def partial(n: int) -> complex:
        total = 0.0 + 0.0j
        for k, c in f.coeffs.items():
            base = _to_complex(c) * cmath.exp(
                2j * math.pi * sum(ki * xi for ki, xi in zip(k, pt))
            )
            if not any(k):
                total += base
                continue
            total += base * _rotation_sum_factor(alphas, k, n)
        return total

    avg = partial(N)
    curve = []
    for i in range(1, curve_points + 1):
        n = max(1, int(round(N ** (i / curve_points))))
        curve.append((float(n), abs(partial(n))))
    return BirkhoffAverage(avg, float(N), curve)


def _rotation_sum_factor(alphas, k, n: int) -> complex:
    """(1/n) sum_{j<n} e^{2 pi i j (k.alpha)}."""
    # compute k.alpha mod 1 with exact reduction where possible
    theta = 0.0
    for ki, a in zip(k, alphas):
        if ki:
            theta += a.times_int(ki).frac().to_float()
    theta %= 1.0
    if theta == 0.0:
        return 1.0
    z = cmath.exp(2j * math.pi * theta)
    return (z**n - 1.0) / (n * (z - 1.0))


def coboundary_average_bound(f: TrigPoly, flow: KroneckerFlowSpec, T: float) -> float:
    """Closed-form bound (sum_k |f_k| / (pi |k.alpha|)) / T for zero-mean f.

    A supported mode with k.alpha exactly zero has no such bound and raises
    ObstructionError.
    """
    total = 0.0
    for k, c in f.coeffs.items():
        if not any(k):
            continue
        w, exactly_zero = _flow_frequency(flow, k)
        if exactly_zero:
            raise ObstructionError("resonant mode in the average bound", modes=[k])
        total += abs(_to_complex(c)) / (math.pi * abs(w))
    return total / T


# ----------------------------------------------------------------------
# skew-product obstruction functionals


@dataclass(frozen=True)
class ObstructionEntry:
    k: int
    r: int
    value: complex
    modulus: float
    exact_zero: bool | None = None

    def to_json(self) -> dict:
        out = {
            "k": self.k,
            "r": self.r,
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "modulus": self.modulus,
        }
        if self.exact_zero is not None:
            out["exact_zero"] = self.exact_zero
        return out


@dataclass(frozen=True)
class ObstructionReport:
    entries: list
    zero_section: object  # CohomSolution, SmallDivisorDiagnostic, or obstruction modes
    exact: bool
    all_zero: bool
    complete: bool = True  # every supported chain had |k| <= K

    def to_json(self) -> dict:
        if isinstance(self.zero_section, CohomSolution):
            zs = {"solved": True, "c": self.zero_section.c, "residual": self.zero_section.residual}
        elif isinstance(self.zero_section, SmallDivisorDiagnostic):
            zs = self.zero_section.to_json()
        elif self.zero_section is None:
            zs = None
        else:
            zs = {"obstructed_modes": [list(m) for m in self.zero_section]}
        return {
            "entries": [e.to_json() for e in self.entries],
            "zero_section": zs,
            "exact": self.exact,
            "all_zero": self.all_zero,
            "complete": self.complete,
        }


def skew_coboundary(g: TrigPoly, lam) -> TrigPoly:
    """g o F - g for F(x, y) = (x + y, y + lam), float coefficients."""
    lam = as_scalar(lam)
    out: dict = {}
    for (k, m), c in g.coeffs.items():
        cc = _to_complex(c)
        shifted = (k, m + k)
        out[shifted] = out.get(shifted, 0.0 + 0.0j) + cc * _phase_of_multiple(lam, m)
        out[(k, m)] = out.get((k, m), 0.0 + 0.0j) - cc
    return TrigPoly(2, out)


def skew_coboundary_exact(g_coeffs: dict, lam) -> TrigPoly:
    """Exact coboundary with PhaseCoeff coefficients.

    g_coeffs maps (k, m) to GaussianRational (or PhaseCoeff) values.
    """
    lam = as_scalar(lam)
    out: dict = {}

    def add(key, val: PhaseCoeff):
        cur = out.get(key)
        new = val if cur is None else cur + val
        if new.is_zero():
            out.pop(key, None)
        else:
            out[key] = new

    for (k, m), c in g_coeffs.items():
        pc = c if isinstance(c, PhaseCoeff) else PhaseCoeff.from_gaussian(lam, c)
        add((k, m + k), pc.shift_phase(m))
        add((k, m), -pc)
    return TrigPoly(2, out)


def katok_obstructions(
    f: TrigPoly, lam, K: int, tol: float = 1e-9, dps: int = 60
) -> ObstructionReport:
    """Obstruction values of f against the skew product F_lam, |k| up to K.

    The zero section (k = 0 modes) is the circle equation in the second
    variable, solved or diagnosed.  For each k != 0 and residue class
    r mod |k| meeting the support, the chain recursion
    g_{k,m} = e^{2 pi i (m-k) lam} g_{k,m-k} - f_{k,m} runs upward from zero
    below the support; the obstruction is the first value above the support
    (later ones have the same modulus).  All obstructions vanish iff the
    oscillating part of f is a coboundary of a trigonometric polynomial.

    With PhaseCoeff coefficients the recursion is carried exactly and also
    at dps-digit precision; a value is declared exactly zero only when the
    symbolic result is zero and the numeric lane is consistent with zero.
    """
    if f.dims != 2:
        raise DimensionError("skew obstructions live on T^2")
    if K < 1:
        raise EmptyRequestError("need K >= 1")
    lam = as_scalar(lam)
    exact = f.is_exact() and bool(f.coeffs)
    if exact and not lam.is_exact:
        raise ExactnessError("exact obstruction mode requires an exact slope")

    # zero section: circle equation in y
    zero_modes = {(m,): c for (k, m), c in f.coeffs.items() if k == 0}
    zero_section = None
    if zero_modes:
        fz = TrigPoly(1, {m: _to_complex(c) for m, c in zero_modes.items()})
        try:
            zero_section = _circle_solve_core(fz, lam, tol)
        except ObstructionError as e:
            zero_section = [tuple(m) for m in e.modes]

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
                    g_num = _phase_mpc(lam, m - k) * g_num
                    if fc is not None:
                        g_num -= _coeff_mpc(fc, dps)
                    if exact:
                        value_sym = value_sym.shift_phase(m - k)
                        if fc is not None:
                            value_sym = value_sym - _coeff_phase(fc, lam)
                else:
                    # g_{m+|k|} = (g_m + f_m) / phase(m-k)
                    if fc is not None:
                        g_num += _coeff_mpc(fc, dps)
                    g_num = g_num / _phase_mpc(lam, m - k)
                    if exact:
                        if fc is not None:
                            value_sym = value_sym + _coeff_phase(fc, lam)
                        value_sym = value_sym.shift_phase(-(m - k))
                err = err + (abs(g_num) + 1) * eps
        val = complex(g_num)
        if exact:
            sym_zero = value_sym.is_zero()
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
    return ObstructionReport(entries, zero_section, exact, all_zero, complete)


def _phase_mpc(lam: RealScalar, j: int):
    if j == 0:
        return mpmath.mpc(1)
    return mpmath.expjpi(2 * lam.times_int(j).frac().to_mpf())


def _coeff_mpc(c, dps: int):
    if isinstance(c, PhaseCoeff):
        return c.to_mpc(dps)
    if isinstance(c, ExactCoeff):
        return mpmath.mpc(c.to_complex())
    return mpmath.mpc(c)


def _coeff_phase(c, lam) -> PhaseCoeff:
    if isinstance(c, PhaseCoeff):
        return c
    raise ExactnessError("exact obstruction mode requires PhaseCoeff coefficients")
