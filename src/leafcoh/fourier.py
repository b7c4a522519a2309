"""Finitely supported Fourier series on the n-torus.

``TrigPoly`` is the universal function container of the package: a finite
map from integer frequency vectors to coefficients.  Coefficients are
complex float64 by default; the same container also carries the exact
coefficient rings from :mod:`leafcoh.exact` where distinguishing an exact
zero from 1e-17 matters (obstruction functionals, calculus identities).

Multiplication is support convolution, so trigonometric polynomials stay
closed and exact; no grid is involved except in the explicit transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguityError, DimensionError, EmptySupportError, ExactnessError
from .exact import ExactCoeff, PhaseCoeff, _exact_dot, _float_dot

TWO_PI = 2.0 * math.pi

ExactLike = (ExactCoeff, PhaseCoeff)


def _is_zero_coeff(c) -> bool:
    if isinstance(c, ExactLike):
        return c.is_zero()
    return c == 0


def _conj_coeff(c):
    if isinstance(c, ExactLike):
        return c.conj()
    return c.conjugate()


def _to_complex(c) -> complex:
    if isinstance(c, ExactLike):
        return c.to_complex()
    return complex(c)


class TrigPoly:
    """Trigonometric polynomial sum_k c_k e^{2 pi i k.x} on T^dims."""

    __slots__ = ("dims", "coeffs")

    def __init__(self, dims: int, coeffs=None):
        if dims < 1:
            raise DimensionError("dims must be >= 1")
        self.dims = dims
        store = {}
        if coeffs:
            for k, c in coeffs.items():
                key = (k,) if isinstance(k, int) else tuple(int(v) for v in k)
                if len(key) != dims:
                    raise DimensionError(f"frequency {key} has wrong length for T^{dims}")
                if not _is_zero_coeff(c):
                    store[key] = c
        self.coeffs = store

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, dims: int) -> "TrigPoly":
        return cls(dims, {})

    @classmethod
    def constant(cls, dims: int, c) -> "TrigPoly":
        return cls(dims, {(0,) * dims: c})

    @classmethod
    def mode(cls, dims: int, k, c=1.0 + 0.0j) -> "TrigPoly":
        return cls(dims, {tuple(k) if not isinstance(k, int) else (k,): c})

    def is_exact(self) -> bool:
        return all(isinstance(c, ExactLike) for c in self.coeffs.values())

    def to_float(self) -> "TrigPoly":
        return TrigPoly(self.dims, {k: _to_complex(c) for k, c in self.coeffs.items()})

    # ------------------------------------------------------------------
    # ring operations

    def _check_dims(self, other: "TrigPoly"):
        if self.dims != other.dims:
            raise DimensionError("mixing polynomials on tori of different dimension")

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        self._check_dims(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            if k in out:
                s = out[k] + c
                if _is_zero_coeff(s):
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = c
        return TrigPoly(self.dims, out)

    def __neg__(self) -> "TrigPoly":
        return TrigPoly(self.dims, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def scale(self, s) -> "TrigPoly":
        return TrigPoly(self.dims, {k: c * s for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, TrigPoly):
            return self.scale(other)
        self._check_dims(other)
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                p = c1 * c2
                if k in out:
                    s = out[k] + p
                    if _is_zero_coeff(s):
                        del out[k]
                    else:
                        out[k] = s
                elif not _is_zero_coeff(p):
                    out[k] = p
        return TrigPoly(self.dims, out)

    __rmul__ = __mul__

    def conj(self) -> "TrigPoly":
        return TrigPoly(
            self.dims,
            {tuple(-v for v in k): _conj_coeff(c) for k, c in self.coeffs.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, TrigPoly)
            and self.dims == other.dims
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.dims, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"TrigPoly(dims={self.dims}, modes={len(self.coeffs)})"

    # ------------------------------------------------------------------
    # queries

    def mean(self):
        """Coefficient of the zero mode."""
        z = (0,) * self.dims
        if z in self.coeffs:
            return self.coeffs[z]
        return ExactCoeff({}) if self.is_exact() and self.coeffs else 0.0 + 0.0j

    def max_frequency(self) -> int:
        """Largest absolute frequency entry over the support."""
        if not self.coeffs:
            return 0
        return max(max(abs(v) for v in k) for k in self.coeffs)

    def is_real(self, tol: float = 0.0) -> bool:
        """True when coefficients satisfy c(-k) = conj(c(k))."""
        for k, c in self.coeffs.items():
            mk = tuple(-v for v in k)
            other = self.coeffs.get(mk)
            if isinstance(c, ExactLike):
                target = _conj_coeff(c)
                if other is None or not _is_zero_coeff(other - target):
                    return False
            else:
                o = other if other is not None else 0.0 + 0.0j
                if abs(o - c.conjugate()) > tol:
                    return False
        return True

    def sup_coeff(self) -> float:
        """Max coefficient modulus (0 for the zero polynomial)."""
        if not self.coeffs:
            return 0.0
        return max(abs(_to_complex(c)) for c in self.coeffs.values())

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, x) -> complex:
        """Exact finite sum sum_k c_k e^{2 pi i k.x} at a point of T^n."""
        pt = (x,) if isinstance(x, (int, float)) else tuple(float(v) for v in x)
        if len(pt) != self.dims:
            raise DimensionError("point dimension mismatch")
        total = 0.0 + 0.0j
        for k, c in self.coeffs.items():
            phase = TWO_PI * sum(ki * xi for ki, xi in zip(k, pt))
            total += _to_complex(c) * complex(math.cos(phase), math.sin(phase))
        return total

    def rotate(self, shift) -> "TrigPoly":
        """Compose with the translation x -> x + shift (float coefficients)."""
        sh = (shift,) if isinstance(shift, (int, float)) else tuple(float(v) for v in shift)
        if len(sh) != self.dims:
            raise DimensionError("shift dimension mismatch")
        out = {}
        for k, c in self.coeffs.items():
            phase = TWO_PI * sum(ki * si for ki, si in zip(k, sh))
            out[k] = _to_complex(c) * complex(math.cos(phase), math.sin(phase))
        return TrigPoly(self.dims, out)

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        rows = []
        for k in sorted(self.coeffs):
            c = _to_complex(self.coeffs[k])
            rows.append({"k": list(k), "re": c.real, "im": c.imag})
        return {"dims": self.dims, "coeffs": rows}

    @classmethod
    def from_json(cls, obj: dict) -> "TrigPoly":
        coeffs = {}
        for row in obj["coeffs"]:
            coeffs[tuple(row["k"])] = complex(_num(row["re"]), _num(row["im"]))
        return cls(int(obj["dims"]), coeffs)


def _num(v) -> float:
    if isinstance(v, str):
        return float(Fraction(v))
    return float(v)


# ----------------------------------------------------------------------
# directional derivative along a constant vector field


def frame_derivative(f: TrigPoly, v) -> TrigPoly:
    """Derivative of f along the constant vector field sum_i v_i d/dx_i.

    Mode k picks up the factor 2 pi i (k . v).  With exact coefficients the
    factor is carried as i * (k.v) * tau in the exact ring, so repeated
    derivatives commute with exactly zero residue.
    """
    vv = list(v)
    if len(vv) != f.dims:
        raise DimensionError("direction dimension mismatch")
    out = {}
    if f.is_exact() and f.coeffs:
        if any(isinstance(c, PhaseCoeff) for c in f.coeffs.values()):
            raise ExactnessError("phase-valued polynomials do not support derivatives")
        for k, c in f.coeffs.items():
            factor = _exact_dot(k, vv).times_i().times_tau(1)
            p = c * factor if isinstance(c, ExactCoeff) else factor * c
            if not p.is_zero():
                out[k] = p
        return TrigPoly(f.dims, out)
    for k, c in f.coeffs.items():
        w = _float_dot(k, vv)
        if w != 0.0:
            out[k] = _to_complex(c) * complex(0.0, TWO_PI * w)
    return TrigPoly(f.dims, out)


# ----------------------------------------------------------------------
# grid transforms


def _centered_freq(idx: int, N: int) -> int:
    return idx - N if idx > N // 2 else idx


def grid_transform(samples, prune_rtol: float = 1e-12) -> TrigPoly:
    """Samples on the regular N^n grid -> TrigPoly with centered frequencies.

    Coefficients below prune_rtol * max|sample| are dropped as transform
    noise.  An even grid with content in the Nyquist bin is refused since
    that frequency cannot be folded unambiguously.
    """
    arr = np.asarray(samples, dtype=complex)
    n = arr.ndim
    N = arr.shape[0]
    if any(s != N for s in arr.shape):
        raise DimensionError("grid must be N^n")
    if N < 2:
        raise DimensionError("grid size must be at least 2")
    hat = np.fft.fftn(arr) / arr.size
    scale = max(np.max(np.abs(arr)), 1e-300)
    atol = prune_rtol * scale
    coeffs = {}
    nyquist_hits = []
    for idx in np.ndindex(*arr.shape):
        c = hat[idx]
        if abs(c) <= atol:
            continue
        k = tuple(_centered_freq(i, N) for i in idx)
        if N % 2 == 0 and any(i == N // 2 for i in idx):
            nyquist_hits.append((k, abs(c)))
            continue
        coeffs[k] = complex(c)
    if nyquist_hits:
        raise AmbiguityError(
            f"even grid N={N} carries Nyquist-frequency content at {nyquist_hits[:4]}"
        )
    return TrigPoly(n, coeffs)


def inverse_grid(f: TrigPoly, N: int):
    """Evaluate f on the regular N^dims grid (inverse of grid_transform).

    Requires N >= 2*max_frequency + 1 so that distinct frequencies map to
    distinct bins and the round trip is lossless.
    """
    m = f.max_frequency()
    if N < 2 * m + 1:
        raise AmbiguityError(f"grid size {N} too small for max frequency {m}")
    arr = np.zeros((N,) * f.dims, dtype=complex)
    for k, c in f.coeffs.items():
        idx = tuple(v % N for v in k)
        arr[idx] += _to_complex(c)
    return np.fft.ifftn(arr) * arr.size


# ----------------------------------------------------------------------
# smoothness diagnostics


@dataclass(frozen=True)
class DecayRow:
    exponent: float
    value: float
    witness: tuple


def decay_report(f: TrigPoly, exponents) -> list[DecayRow]:
    """For each r report sup over nonzero k of |c_k| |k|^r and the attaining k."""
    support = [(k, abs(_to_complex(c))) for k, c in f.coeffs.items() if any(k)]
    if not support:
        raise EmptySupportError("decay report needs at least one nonzero frequency")
    # smallest |k| wins ties, positive orientation preferred
    ordered = sorted(
        support,
        key=lambda t: (
            sum(v * v for v in t[0]),
            tuple(abs(v) for v in t[0]),
            tuple(-v for v in t[0]),
        ),
    )
    rows = []
    for r in exponents:
        best_val, best_k = -1.0, None
        for k, mag in ordered:
            norm = math.sqrt(sum(v * v for v in k))
            val = mag * norm ** float(r)
            if val > best_val and not math.isclose(val, best_val, rel_tol=1e-12):
                best_val, best_k = val, k
        rows.append(DecayRow(float(r), best_val, best_k))
    return rows
