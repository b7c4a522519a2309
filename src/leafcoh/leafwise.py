"""Leafwise exterior calculus on linear foliations of the torus.

A linear foliation of T^(p+q) is presented by its p x q slope matrix B in
coordinates (s, x): the leaves are tangent to the commuting global frame
X_i = d/ds_i + sum_j B[i][j] d/dx_j.  Leafwise forms are stored by their
components on increasing frame tuples (0-based), ambient forms by their
components on coordinate tuples.  Because the frame is global and constant,
no atlas machinery is needed and every operation is coefficientwise in
Fourier modes.

The degree-1 solver inverts the leafwise differential mode by mode through
the divisors m_i + (B n)_i, and the top-degree witness extends a leafwise
top form to a closed ambient form, which is the constructive content of
total minimizability for badly approximable slopes.

Every small-divisor division of the package (these two solvers and the
circle and Kronecker-flow equations of :mod:`leafcoh.skewflow`) goes
through one kernel, ``_divide_small_divisors``: each system supplies only
its divisor function.  ``leafwise_d`` and ``ambient_d`` share one
exterior-derivative routine, ``_exterior_d``, over the leaf frame and the
coordinate frame respectively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import (
    DimensionError,
    NotClosedError,
    ObstructionError,
)
from .exact import ExactCoeff, _exact_dot, _float_dot
from .fourier import TrigPoly, frame_derivative
from .scalars import as_scalar

TWO_PI = 2.0 * math.pi


class LinearFoliation:
    """Foliation F_B of T^(p+q) with slope matrix B (RealScalar entries)."""

    def __init__(self, p: int, q: int, B):
        if p < 1 or q < 1:
            raise DimensionError("need p >= 1 leaf and q >= 1 transverse dimensions")
        rows = [[as_scalar(e) for e in row] for row in B]
        if len(rows) != p or any(len(r) != q for r in rows):
            raise DimensionError(f"slope matrix must be {p}x{q}")
        self.p = p
        self.q = q
        self.B = rows

    @property
    def dims(self) -> int:
        return self.p + self.q

    @property
    def is_exact(self) -> bool:
        return all(s.is_exact for row in self.B for s in row)

    def frame_vector(self, i: int, exact: bool):
        """Coordinate components of X_i = d/ds_i + sum_j B[i][j] d/dx_j."""
        if exact:
            v: list = [0] * self.p + list(self.B[i])
            v[i] = 1
            return v
        v = [0.0] * self.dims
        v[i] = 1.0
        for j in range(self.q):
            v[self.p + j] = self.B[i][j].to_float()
        return v

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "B": [[s.to_json() for s in row] for row in self.B],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "LinearFoliation":
        from .scalars import scalar_from_json

        rows = []
        for row in obj["B"]:
            rows.append(
                [scalar_from_json(e) if isinstance(e, dict) else as_scalar(e) for e in row]
            )
        return cls(int(obj["p"]), int(obj["q"]), rows)

    def __repr__(self):
        return f"LinearFoliation(p={self.p}, q={self.q})"


class _Form:
    """Shared storage for antisymmetric forms: increasing index tuples -> TrigPoly."""

    def __init__(self, dims: int, degree: int, components=None):
        self.dims = dims
        self.degree = degree
        comps = {}
        if components:
            for idx, poly in components.items():
                key = tuple(idx)
                if list(key) != sorted(set(key)):
                    raise DimensionError(f"component index {key} must be strictly increasing")
                if len(key) != degree:
                    raise DimensionError("component index length must equal the degree")
                if poly.coeffs:
                    comps[key] = poly
        self.components = comps

    def component(self, idx) -> TrigPoly:
        return self.components.get(tuple(idx), TrigPoly.zero(self.dims))

    def sup_coeff(self) -> float:
        if not self.components:
            return 0.0
        return max(p.sup_coeff() for p in self.components.values())

    def is_zero(self) -> bool:
        return not self.components

    def is_exact(self) -> bool:
        return all(p.is_exact() for p in self.components.values())

    def _combine(self, other, sign):
        comps = dict(self.components)
        for idx, poly in other.components.items():
            cur = comps.get(idx)
            new = (cur + poly.scale(sign)) if cur is not None else poly.scale(sign)
            if new.coeffs:
                comps[idx] = new
            else:
                comps.pop(idx, None)
        return self._with(comps)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, s):
        return self._with({i: p.scale(s) for i, p in self.components.items()})

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "components": [
                {"idx": list(idx), "poly": self.components[idx].to_json()}
                for idx in sorted(self.components)
            ],
        }

    @classmethod
    def from_json(cls, space, obj: dict):
        """Inverse of to_json; space is the foliation or the torus dimension."""
        comps = {tuple(row["idx"]): TrigPoly.from_json(row["poly"]) for row in obj["components"]}
        return cls(space, int(obj["degree"]), comps)


class LeafwiseForm(_Form):
    """Degree-k form on the leaves, components indexed by frame tuples in {0..p-1}."""

    def __init__(self, foliation: LinearFoliation, degree: int, components=None):
        if degree < 0:
            raise DimensionError("negative degree")
        super().__init__(foliation.dims, degree, components)
        if any(v >= foliation.p for idx in self.components for v in idx):
            raise DimensionError("frame index out of range")
        self.foliation = foliation

    def _with(self, components) -> "LeafwiseForm":
        return LeafwiseForm(self.foliation, self.degree, components)

    @classmethod
    def from_function(cls, foliation, poly: TrigPoly) -> "LeafwiseForm":
        return cls(foliation, 0, {(): poly})

    def __repr__(self):
        return f"LeafwiseForm(degree={self.degree}, components={len(self.components)})"


class AmbientForm(_Form):
    """Degree-k form on T^n over the coordinate coframe, indices in {0..n-1}."""

    def __init__(self, dims: int, degree: int, components=None):
        super().__init__(dims, degree, components)
        if any(v >= dims for idx in self.components for v in idx):
            raise DimensionError("coordinate index out of range")

    def _with(self, components) -> "AmbientForm":
        return AmbientForm(self.dims, self.degree, components)

    def __repr__(self):
        return f"AmbientForm(dims={self.dims}, degree={self.degree})"


# ----------------------------------------------------------------------
# differentials


def _exterior_d(components: dict, degree: int, frames: list, dims: int) -> dict:
    """Components of d omega over a commuting constant frame.

    (d omega)_{j_0..j_k} = sum_a (-1)^a X_{j_a}(omega_{j_0..^j_a..j_k});
    the bracket terms vanish because the frame fields commute.  Input of
    top degree gives no components.
    """
    out: dict = {}
    for J in itertools.combinations(range(len(frames)), degree + 1):
        total = TrigPoly.zero(dims)
        for a, ja in enumerate(J):
            comp = components.get(J[:a] + J[a + 1:])
            if comp is None:
                continue
            term = frame_derivative(comp, frames[ja])
            total = total + (term if a % 2 == 0 else -term)
        if total.coeffs:
            out[J] = total
    return out


def leafwise_d(omega: LeafwiseForm) -> LeafwiseForm:
    """Leafwise exterior derivative over the frame X_0..X_{p-1}."""
    F = omega.foliation
    exact = F.is_exact and omega.is_exact()
    frames = [F.frame_vector(i, exact) for i in range(F.p)]
    comps = _exterior_d(omega.components, omega.degree, frames, F.dims)
    return LeafwiseForm(F, omega.degree + 1, comps)


def ambient_d(omega: AmbientForm) -> AmbientForm:
    """Coordinatewise exterior derivative on T^n (the unit frame)."""
    n = omega.dims
    one = 1 if omega.is_exact() and omega.components else 1.0
    frames = [[one if c == r else 0 for c in range(n)] for r in range(n)]
    return AmbientForm(n, omega.degree + 1, _exterior_d(omega.components, omega.degree, frames, n))


def _det(rows, exact: bool):
    """Determinant of a small square matrix of scalars (permutation expansion)."""
    k = len(rows)
    if k == 0:
        return ExactCoeff.from_fraction(1) if exact else 1.0
    total = ExactCoeff({}) if exact else 0.0
    for perm in itertools.permutations(range(k)):
        sign = 1
        seen = list(perm)
        for i in range(k):  # parity by counting inversions
            for j in range(i + 1, k):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ExactCoeff.from_fraction(sign) if exact else float(sign)
        for a in range(k):
            term = term * rows[a][perm[a]]
        total = total + term
    return total


def restrict(omega: AmbientForm, F: LinearFoliation) -> LeafwiseForm:
    """Restriction of an ambient form to the leaves.

    Components are obtained by evaluating the ambient form on frame tuples,
    using ds_i(X_j) = delta_ij and dx_j(X_i) = B[i][j].  This is a cochain
    map: restrict(d omega) = leafwise_d(restrict(omega)).
    """
    if omega.dims != F.dims:
        raise DimensionError("ambient form does not live on the foliation's torus")
    k = omega.degree
    if k > F.p:
        return LeafwiseForm(F, k, {})
    exact = F.is_exact and omega.is_exact() and bool(omega.components)
    if exact:
        frame_coords = [
            [ExactCoeff.from_fraction(v) if isinstance(v, int) else ExactCoeff.from_scalar(v)
             for v in F.frame_vector(i, True)]
            for i in range(F.p)
        ]
    else:
        frame_coords = [F.frame_vector(i, False) for i in range(F.p)]
    out: dict = {}
    for I in itertools.combinations(range(F.p), k):
        total = TrigPoly.zero(F.dims)
        for C, poly in omega.components.items():
            rows = [[frame_coords[i][c] for i in I] for c in C]
            det = _det(rows, exact)
            if det:
                total = total + poly.scale(det if exact else complex(det))
        if total.coeffs:
            out[I] = total
    return LeafwiseForm(F, k, out)


def iota_form(xi, F: LinearFoliation, exact: bool = False) -> LeafwiseForm:
    """Constant leafwise 1-form with frame components xi_i.

    Equals the restriction of sum_i xi_i ds_i; its class spans the image of
    the abelian Lie algebra cohomology inside H^1.
    """
    coeff = ExactCoeff.from_fraction if exact else complex
    return LeafwiseForm(F, 1, {(i,): TrigPoly.constant(F.dims, coeff(v)) for i, v in enumerate(xi)})


# ----------------------------------------------------------------------
# solvers


@dataclass(frozen=True)
class SmallDivisorDiagnostic:
    """Near-resonant modes that block a small-divisor division."""

    context: str
    tol: float
    modes: list = field(default_factory=list)  # (mode, max |divisor|)

    def to_json(self) -> dict:
        return {
            "diagnostic": self.context,
            "tol": self.tol,
            "modes": [{"k": list(m), "max_divisor": d} for m, d in self.modes],
        }


def _divide_small_divisors(modes, divisor, tol: float):
    """The small-divisor kernel: classify every nonzero mode, then divide.

    divisor(mode) returns (numerator, d, size, exactly_zero).  A mode is
    resonant when exactly_zero, near when size <= tol, and otherwise its
    numerator is divided by d: in the exact ring when d is an ExactCoeff,
    in complex floats otherwise.  Modes whose numerator is None are
    classified but not divided.  Returns (quotients, near, resonant) with
    near the sorted (mode, size) pairs and resonant the sorted modes.
    """
    quotients = {}
    near = []
    resonant = []
    for mode in modes:
        if not any(mode):
            continue
        num, d, size, exactly_zero = divisor(mode)
        if exactly_zero:
            resonant.append(mode)
        elif size <= tol:
            near.append((mode, size))
        elif num is not None:
            exact = isinstance(d, ExactCoeff)
            quotients[mode] = num * d.inverse() if exact else complex(num) / d
    return quotients, sorted(near), sorted(resonant)


def _frame_divisor(F: LinearFoliation, mode: tuple, exact: bool):
    """Largest frame divisor m_i + (B n)_i = mode . X_i of a mode, ties to
    the smallest i.

    Returns (i, d, size, exactly_zero).  The size and the zero test (every
    frame divisor vanishes) are exact whenever F is; d is an ExactCoeff
    when `exact` and a float otherwise.
    """
    F_exact = F.is_exact
    dot = _exact_dot if F_exact else _float_dot
    best = None
    all_zero = True
    for i in range(F.p):
        d = dot(mode, F.frame_vector(i, F_exact))
        size = abs(complex(d).real)
        all_zero = all_zero and not d
        if best is None or size > best[2]:
            best = (i, d, size)
    i, d, size = best
    if F_exact and not exact:
        d = _float_dot(mode, F.frame_vector(i, False))
    return i, d, size, all_zero


@dataclass(frozen=True)
class H1Solution:
    a: tuple[float, ...]
    g: TrigPoly
    residual: float

    def to_json(self) -> dict:
        return {"a": list(self.a), "g": self.g.to_json(), "residual": self.residual}


def solve_h1(omega: LeafwiseForm, F: LinearFoliation, tol: float = 1e-9):
    """Split a closed leafwise 1-form as sum_i a_i xi_i + d_F g.

    a is the zero-mode vector of the components; every other mode is divided
    by 2 pi i times the largest-modulus divisor among the frame directions
    (ties broken toward the smallest index, which minimizes amplification).
    The per-mode cross-component consistency delta_j w_i = delta_i w_j is
    exactly the closedness precondition checked up front.

    Returns an H1Solution, or a SmallDivisorDiagnostic when some supported
    mode has all divisors within tol of zero.  Exactly resonant supported
    modes raise ObstructionError (sorted): the class lies outside the span
    of the constant forms.
    """
    if omega.degree != 1:
        raise DimensionError("solve_h1 expects a leafwise 1-form")
    exact = F.is_exact and omega.is_exact()
    frames = [F.frame_vector(i, exact) for i in range(F.p)]

    closure_sup = 0.0
    for i in range(F.p):
        for j in range(i + 1, F.p):
            cij = frame_derivative(omega.component((j,)), frames[i]) - frame_derivative(
                omega.component((i,)), frames[j]
            )
            closure_sup = max(closure_sup, cij.sup_coeff())
    if closure_sup > (0.0 if exact else tol):
        raise NotClosedError(f"input 1-form is not closed (sup {closure_sup:.3e})")

    support = set()
    for i in range(F.p):
        support.update(omega.component((i,)).coeffs)

    def divisor(mode):
        i, delta, size, zero = _frame_divisor(F, mode, exact)
        d = delta.times_i().times_tau(1) if exact else complex(0.0, TWO_PI * delta)
        return omega.component((i,)).coeffs.get(mode), d, size, zero

    g_coeffs, near, resonant = _divide_small_divisors(support, divisor, tol)
    if resonant:
        raise ObstructionError(
            "exactly resonant modes carry nonzero coefficients; "
            "the class is not in the span of the constant forms",
            modes=resonant,
        )
    if near:
        return SmallDivisorDiagnostic("solve_h1 near-resonant modes", tol, near)

    means = [omega.component((i,)).mean() for i in range(F.p)]
    a = tuple(complex(m).real for m in means)
    g = TrigPoly(F.dims, g_coeffs)

    if exact:
        const = LeafwiseForm(
            F,
            1,
            {(i,): TrigPoly.constant(F.dims, m) for i, m in enumerate(means)},
        )
    else:
        const = iota_form(a, F)
    rec = leafwise_d(LeafwiseForm.from_function(F, g)) + const
    residual = (omega - rec).sup_coeff()
    return H1Solution(a, g, residual)


@dataclass(frozen=True)
class MinimizabilityWitness:
    mean: float
    eta: LeafwiseForm
    ambient: AmbientForm
    closure_sup: float
    restriction_residual: float

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "eta": self.eta.to_json(),
            "ambient": self.ambient.to_json(),
            "closure_sup": self.closure_sup,
            "restriction_residual": self.restriction_residual,
        }


def minimizability_witness(omega0: LeafwiseForm, F: LinearFoliation, tol: float = 1e-9):
    """Extend a leafwise top form to a closed ambient form restricting to it.

    Writes omega0 = c xi_0^..^xi_{p-1} + d_F eta modewise and returns the
    ambient form c ds_0^..^ds_{p-1} + d(eta~), where eta~ copies eta onto
    the corresponding ds monomials.  Succeeds exactly when no supported mode
    is near-resonant; this realizes the surjectivity of the restriction map
    in top degree for badly approximable slopes, which is the criterion for
    extending every leafwise volume form to a closed ambient form.
    """
    p = F.p
    if omega0.degree != p:
        raise DimensionError("witness expects a leafwise top form")
    top = tuple(range(p))
    exact = F.is_exact and omega0.is_exact()
    poly = omega0.component(top)

    sub_of = {}

    def divisor(mode):
        i, delta, size, zero = _frame_divisor(F, mode, exact)
        sign = -1 if i % 2 else 1
        sub_of[mode] = top[:i] + top[i + 1:]
        d = (delta.times_i().times_tau(1) * sign if exact
             else complex(0.0, sign * TWO_PI * delta))
        return poly.coeffs[mode], d, size, zero

    quotients, near, resonant = _divide_small_divisors(poly.coeffs, divisor, tol)
    if near or resonant:
        return SmallDivisorDiagnostic(
            "minimizability witness blocked by resonant modes",
            tol,
            sorted(near + [(m, 0.0) for m in resonant]),
        )

    c = poly.mean()
    eta_comps: dict = {}
    for mode, val in quotients.items():
        eta_comps.setdefault(sub_of[mode], {})[mode] = val
    eta = LeafwiseForm(
        F, p - 1, {idx: TrigPoly(F.dims, coeffs) for idx, coeffs in eta_comps.items()}
    )

    # ambient carrier: same components on the matching ds monomials
    eta_amb = AmbientForm(F.dims, p - 1, eta.components)
    ds_top = AmbientForm(F.dims, p, {top: TrigPoly.constant(F.dims, c)})
    ambient = ds_top + ambient_d(eta_amb)

    closure = ambient_d(ambient)
    closure_sup = closure.sup_coeff()
    back = restrict(ambient, F)
    residual = (back - omega0).sup_coeff()
    return MinimizabilityWitness(complex(c).real, eta, ambient, closure_sup, residual)
