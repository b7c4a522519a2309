"""Finitely supported Fourier series on the n-torus.

``TrigPoly`` is the universal function container of the package: a finite
map from integer frequency vectors to coefficients.  Coefficients are
complex float64 by default; the same container also carries the exact
coefficient rings from :mod:`leafcoh.exact` where distinguishing an exact
zero from 1e-17 matters (obstruction functionals, calculus identities).

Every coefficient answers Python's number protocol: ``bool(c)`` is false
exactly when c is zero, ``complex(c)`` is its float64 value and
``c.conjugate()`` its complex conjugate.  ``complex``, ``float`` and ``int``
answer natively, the exact rings with an exact zero test (see
:mod:`leafcoh.exact`).  The container drops zeros through ``bool`` and reads
values out through ``complex``; only ``is_exact``, ``is_real`` and the
refusal of phase-valued derivatives look at the coefficient type.

Multiplication is support convolution, so trigonometric polynomials stay
closed and exact; no grid is involved except in the explicit transforms.

The float lane runs on numpy arrays but keeps the arithmetic of the plain
Python loops bit for bit: every product and sum is the same IEEE operation
on the same operands, taken in the same order.  A product of two polynomials
with ``complex`` coefficients goes through ``_float_product``; ``evaluate``
sums its terms with a sequential ``np.add.accumulate`` (never the pairwise
``np.sum``).  Exact coefficients and mixed operands keep the dict loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguityError, DimensionError, EmptySupportError, ExactnessError
from .exact import ExactCoeff, PhaseCoeff, _exact_dot, _float_dot
from .scalars import finite_float

TWO_PI = 2.0 * math.pi

# frequencies inside +-2^62 keep every pair sum inside int64
_INT64_SAFE = 1 << 62

ExactLike = (ExactCoeff, PhaseCoeff)


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
                if c:
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
        return TrigPoly(self.dims, {k: complex(c) for k, c in self.coeffs.items()})

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
                if s:
                    out[k] = s
                else:
                    del out[k]
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
        """Product: support convolution, bit-identical to the dict loop.

        The reference is the loop over the modes k1 of ``self`` and, inside
        it, the modes k2 of ``other``, both in dict order: the product
        c1 * c2 is added to the coefficient of k1 + k2, a sum that is exactly
        0 deletes the key and a zero product is never inserted.  When both
        operands hold only ``complex`` coefficients, ``_float_product``
        replays that loop one row k1 at a time on arrays; coefficients,
        their type and the key order of the result are the same.  Exact or
        mixed coefficients, and the supports that ``_float_product`` turns
        down, run the loop itself.
        """
        if not isinstance(other, TrigPoly):
            return self.scale(other)
        self._check_dims(other)
        if _all_complex(self) and _all_complex(other):
            out = _float_product(self.coeffs, other.coeffs)
            if out is not None:
                return _wrap(self.dims, out)
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                p = c1 * c2
                if k in out:
                    s = out[k] + p
                    if s:
                        out[k] = s
                    else:
                        del out[k]
                elif p:
                    out[k] = p
        return _wrap(self.dims, out)

    __rmul__ = __mul__

    def conj(self) -> "TrigPoly":
        return TrigPoly(
            self.dims,
            {tuple(-v for v in k): c.conjugate() for k, c in self.coeffs.items()},
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
            other = self.coeffs.get(tuple(-v for v in k))
            if isinstance(c, ExactLike):
                if other is None or other - c.conjugate():
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
        return max(abs(complex(c)) for c in self.coeffs.values())

    # ------------------------------------------------------------------
    # evaluation

    def evaluate(self, x) -> complex:
        """Exact finite sum sum_k c_k e^{2 pi i k.x} at a point of T^n.

        Bit-identical to the loop that adds c_k * e^{2 pi i k.x} mode by
        mode, in dict order, from 0: the phase k.x is built one coordinate
        at a time from 0.0, the products are formed in real and imaginary
        parts as CPython's complex multiply forms them, and the terms are
        summed sequentially with ``np.add.accumulate``.  ``np.cos`` and
        ``np.sin`` agree with ``math.cos`` and ``math.sin`` to the bit
        (``tests/test_fourier.py`` checks this), and an infinite phase
        raises ValueError as ``math.cos`` does.

        The phase is a plain left-to-right float sum on every interpreter.
        The earlier loop built it with ``sum()``, which compensates float
        sums from Python 3.12 on, so on 3.12 and later an evaluation on
        T^3 and up can differ from that loop in the last bit.
        """
        pt = (x,) if isinstance(x, (int, float)) else tuple(float(v) for v in x)
        if len(pt) != self.dims:
            raise DimensionError("point dimension mismatch")
        if not self.coeffs:
            return 0.0 + 0.0j
        freqs = list(self.coeffs)
        c = np.array(list(self.coeffs.values()), dtype=complex)
        with np.errstate(all="ignore"):
            phase = np.zeros(len(freqs))
            for d, xd in enumerate(pt):
                if isinstance(xd, int):  # an integer point keeps k.x an exact integer
                    phase = phase + np.array([k[d] * xd for k in freqs], dtype=float)
                else:
                    phase = phase + np.array([k[d] for k in freqs], dtype=float) * xd
            phase = TWO_PI * phase
            if np.isinf(phase).any():
                raise ValueError("math domain error")
            cos, sin = np.cos(phase), np.sin(phase)
            terms = np.zeros((2, len(freqs) + 1))
            np.subtract(c.real * cos, c.imag * sin, out=terms[0, 1:])
            np.add(c.real * sin, c.imag * cos, out=terms[1, 1:])
            total = np.add.accumulate(terms, axis=1)[:, -1].tolist()
        return complex(total[0], total[1])

    # ------------------------------------------------------------------
    # serialization

    def to_json(self) -> dict:
        rows = []
        for k in sorted(self.coeffs):
            c = complex(self.coeffs[k])
            rows.append({"k": list(k), "re": c.real, "im": c.imag})
        return {"dims": self.dims, "coeffs": rows}

    @classmethod
    def from_json(cls, obj: dict) -> "TrigPoly":
        coeffs = {}
        for row in obj["coeffs"]:
            coeffs[tuple(row["k"])] = complex(_num(row["re"]), _num(row["im"]))
        return cls(int(obj["dims"]), coeffs)


def _wrap(dims: int, store: dict) -> TrigPoly:
    """TrigPoly around a store that already has int-tuple keys and no zeros."""
    f = TrigPoly.__new__(TrigPoly)
    f.dims, f.coeffs = dims, store
    return f


def _all_complex(f: TrigPoly) -> bool:
    return all(type(c) is complex for c in f.coeffs.values())


def _float_product(a: dict, b: dict) -> dict | None:
    """The dict-loop product of two stores of ``complex`` values, replayed on arrays.

    Every distinct sum k1 + k2 gets an id (``_pair_ids``).  The rows k1 of a
    are then taken in dict order; within one row the ids are distinct, so a
    row is one vector step: the products ar*br - ai*bi and ar*bi + ai*br
    (CPython's complex multiply, in separate float64 operations, never
    numpy's complex multiply), the sums with the live coefficients, the
    deletion of exact zeros, and an insertion stamp i * |b| + j for every
    key that turns live.  Sorting the live keys by stamp gives the dict
    order of the loop.  Memory is O(|a| |b|).  Frequencies outside +-2^62,
    and supports whose sums spread over more than 4 |a| |b| cells, return
    None: the caller runs the loop, which needs only O(output) memory.
    """
    if not a or not b:
        return {}
    try:
        ka = np.array(list(a), dtype=np.int64)
        kb = np.array(list(b), dtype=np.int64)
    except OverflowError:
        return None
    for k in (ka, kb):
        if k.min() <= -_INT64_SAFE or k.max() >= _INT64_SAFE:
            return None
    ids = _pair_ids(ka, kb)
    if ids is None:
        return None
    rows, m = ids
    va = np.array(list(a.values()), dtype=complex)
    vb = np.array(list(b.values()), dtype=complex)
    nb = len(kb)
    # row i of the products is xr * B + xi * Bs = (xr*br - xi*bi, xr*bi + xi*br)
    B = np.stack([vb.real, vb.imag], axis=1)
    Bs = np.stack([-vb.imag, vb.real], axis=1)
    # a key that is not live holds -0.0, and -0.0 + p == p to the bit
    acc = np.full(m, complex(-0.0, -0.0))
    live = np.zeros(m, dtype=bool)
    stamp = np.zeros(m, dtype=np.int64)
    cols = np.arange(nb)
    with np.errstate(all="ignore"):
        for i, (row, xr, xi) in enumerate(zip(rows, va.real.tolist(), va.imag.tolist())):
            s = acc[row] + (xr * B + xi * Bs).view(complex).ravel()
            nz = s != 0
            if not nz.all():
                s[~nz] = complex(-0.0, -0.0)
            acc[row] = s
            new = nz > live[row]
            live[row] = nz
            stamp[row[new]] = cols[new] + i * nb
    alive = np.flatnonzero(live)
    order = alive[np.argsort(stamp[alive])]
    first = stamp[order]
    keys = (ka[first // nb] + kb[first % nb]).tolist()
    return dict(zip(map(tuple, keys), acc[order].tolist()))


def _pair_ids(ka: np.ndarray, kb: np.ndarray):
    """Number the sums ka[i] + kb[j] by their cell in the bounding box of the sums.

    Returns the id rows (row i holds the ids of ka[i] + kb[j] for every j,
    computed when it is needed) and the number of cells m, or None when
    the box has more than 4 |a| |b| cells.
    """
    lo_a, lo_b = ka.min(axis=0), kb.min(axis=0)
    span_a, span_b = (ka.max(axis=0) - lo_a).tolist(), (kb.max(axis=0) - lo_b).tolist()
    span = [x + y + 1 for x, y in zip(span_a, span_b)]  # in Python ints: no overflow
    m = math.prod(span)
    if m > 4 * len(ka) * len(kb):
        return None
    stride = np.cumprod([1] + span[:0:-1])[::-1]
    cell_b = (kb - lo_b) @ stride
    return (i + cell_b for i in ((ka - lo_a) @ stride).tolist()), m


def _num(v) -> float:
    return finite_float(Fraction(v) if isinstance(v, str) else v)


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
    if f.is_exact() and f.coeffs:
        if any(isinstance(c, PhaseCoeff) for c in f.coeffs.values()):
            raise ExactnessError("phase-valued polynomials do not support derivatives")
        return TrigPoly(
            f.dims,
            {k: c * _exact_dot(k, vv).times_i().times_tau(1) for k, c in f.coeffs.items()},
        )
    out = {}
    for k, c in f.coeffs.items():
        w = _float_dot(k, vv)
        if w != 0.0:
            out[k] = complex(c) * complex(0.0, TWO_PI * w)
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
        arr[idx] += complex(c)
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
    support = [(k, abs(complex(c))) for k, c in f.coeffs.items() if any(k)]
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
