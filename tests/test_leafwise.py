import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    cat_map_foliation,
    random_exact_foliation,
    random_exact_leafwise_form,
    random_exact_poly,
    random_real_poly,
)
from leafcoh.errors import DimensionError, NotClosedError, ObstructionError
from leafcoh.exact import ExactCoeff
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
from leafcoh.scalars import QuadraticIrrational, Rational


def test_leafwise_d_constant_is_zero():
    F = cat_map_foliation()
    w = LeafwiseForm.from_function(F, TrigPoly.constant(2, 5.0))
    assert leafwise_d(w).is_zero()


def test_leafwise_d_single_mode_hand_value():
    # p = 2, B = 0, g = e^{2 pi i s_1}: d_F g = (2 pi i g, 0)
    F = LinearFoliation(2, 1, [[Rational(0)], [Rational(0)]])
    g = TrigPoly.mode(3, (1, 0, 0), 1.0)
    d = leafwise_d(LeafwiseForm.from_function(F, g))
    assert set(d.components) == {(0,)}
    assert d.components[(0,)].coeffs[(1, 0, 0)] == pytest.approx(2j * math.pi)


def test_d_squared_zero_float(rng):
    F = cat_map_foliation()
    for _ in range(5):
        g = random_real_poly(rng, 2, n_modes=5)
        dd = leafwise_d(leafwise_d(LeafwiseForm.from_function(F, g)))
        assert dd.sup_coeff() < 1e-9


def test_d_squared_zero_exact(rng):
    for _ in range(6):
        F = random_exact_foliation(rng)
        for degree in range(F.p):
            w = random_exact_leafwise_form(rng, F, degree)
            dd = leafwise_d(leafwise_d(w))
            assert dd.is_zero()


def test_top_degree_d_is_zero_form():
    F = cat_map_foliation()
    w = LeafwiseForm(F, 1, {(0,): TrigPoly.mode(2, (1, 0), 1.0)})
    out = leafwise_d(w)
    assert out.degree == 2 and out.is_zero()


def test_restrict_ds_and_dx():
    beta = QuadraticIrrational(1, -1, 2, 5)
    F = LinearFoliation(1, 1, [[beta]])
    ds = AmbientForm(2, 1, {(0,): TrigPoly.constant(2, 1.0)})
    r1 = restrict(ds, F)
    assert r1.components[(0,)].coeffs[(0, 0)] == pytest.approx(1.0)
    dx = AmbientForm(2, 1, {(1,): TrigPoly.constant(2, 1.0)})
    r2 = restrict(dx, F)
    assert r2.components[(0,)].coeffs[(0, 0)] == pytest.approx(beta.to_float())


def test_restrict_commutes_with_d_exact(rng):
    for _ in range(6):
        F = random_exact_foliation(rng)
        n = F.dims
        for degree in range(0, min(F.p + 1, n)):
            comps = {}
            for idx in itertools.combinations(range(n), degree):
                comps[idx] = random_exact_poly(rng, n, n_modes=2, max_freq=2)
            amb = AmbientForm(n, degree, comps)
            lhs = restrict(ambient_d(amb), F)
            rhs = leafwise_d(restrict(amb, F))
            assert (lhs - rhs).is_zero()


def test_restrict_commutes_with_d_float(rng):
    F = LinearFoliation(2, 1, [[Rational(1, 3)], [QuadraticIrrational(0, 1, 1, 2)]])
    for _ in range(5):
        comps = {}
        for idx in itertools.combinations(range(3), 1):
            comps[idx] = random_real_poly(rng, 3, n_modes=3)
        amb = AmbientForm(3, 1, comps)
        diff = restrict(ambient_d(amb), F) - leafwise_d(restrict(amb, F))
        assert diff.sup_coeff() < 1e-10


def test_iota_form_closed():
    F = LinearFoliation(2, 2, [[Rational(1, 2), Rational(0)], [Rational(1, 3), Rational(1, 7)]])
    w = iota_form([2.0, -1.5], F)
    assert leafwise_d(w).is_zero()
    z = iota_form([0.0, 0.0], F)
    assert z.is_zero()


def test_iota_equals_restricted_ds():
    F = cat_map_foliation()
    direct = iota_form([3.25], F)
    via = restrict(AmbientForm(2, 1, {(0,): TrigPoly.constant(2, 3.25)}), F)
    assert (direct - via).sup_coeff() == 0.0


def build_round_trip(rng, F, a):
    g_coeffs = {}
    for _ in range(8):
        k = tuple(rng.randint(-6, 6) for _ in range(F.dims))
        if not any(k):
            continue
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g_coeffs[k] = c
        g_coeffs[tuple(-v for v in k)] = c.conjugate()
    g = TrigPoly(F.dims, g_coeffs)
    omega = leafwise_d(LeafwiseForm.from_function(F, g)) + iota_form(a, F)
    return g, omega


def test_solve_h1_round_trip_cat_map(rng):
    F = cat_map_foliation()
    for _ in range(20):
        a = (rng.uniform(-2, 2),)
        g, omega = build_round_trip(rng, F, a)
        sol = solve_h1(omega, F)
        assert sol.a == pytest.approx(a, abs=0.0)
        assert sol.residual < 1e-12
        recovered = sol.g - (g - TrigPoly.constant(2, g.mean()))
        assert recovered.sup_coeff() < 1e-12


def test_solve_h1_injectivity_side():
    F = cat_map_foliation()
    sol = solve_h1(iota_form([4.75], F), F)
    assert sol.a == (4.75,)
    assert sol.g.coeffs == {}
    assert sol.residual == 0.0


def test_solve_h1_exact_mode(rng):
    F = cat_map_foliation()
    g = random_exact_poly(rng, 2, n_modes=4, real=True)
    g = g - TrigPoly.constant(2, g.mean())
    omega = leafwise_d(LeafwiseForm.from_function(F, g)) + LeafwiseForm(
        F, 1, {(0,): TrigPoly.constant(2, ExactCoeff.from_fraction(Fraction(3, 2)))}
    )
    sol = solve_h1(omega, F)
    assert sol.a == (1.5,)
    assert sol.residual == 0.0
    assert (sol.g - g).coeffs == {}


def test_solve_h1_obstruction_exact_resonance():
    F = LinearFoliation(1, 1, [[Rational(1, 2)]])
    resonant = [(-3, 6), (2, -4), (-2, 4), (1, -2), (3, -6), (-1, 2)]
    coeffs = {k: 1.0 for k in resonant}
    coeffs[(1, 1)] = 0.5  # a solvable mode does not hide the obstruction
    bad = LeafwiseForm(F, 1, {(0,): TrigPoly(2, coeffs)})
    with pytest.raises(ObstructionError) as exc:
        solve_h1(bad, F)
    assert exc.value.modes == sorted(resonant)
    # a resonant mode is reported even when the component it is divided
    # through (the first one, on ties) does not carry it
    F2 = LinearFoliation(2, 1, [[Rational(1, 2)], [Rational(1, 3)]])
    only_second = LeafwiseForm(F2, 1, {(1,): TrigPoly.mode(3, (-3, -2, 6), 1.0)})
    with pytest.raises(ObstructionError) as exc:
        solve_h1(only_second, F2)
    assert exc.value.modes == [(-3, -2, 6)]


def test_solve_h1_near_resonance_diagnostic():
    F = cat_map_foliation()
    w = LeafwiseForm(F, 1, {(0,): TrigPoly(2, {(1, 1): 1.0, (-1, -1): 1.0})})
    res = solve_h1(w, F, tol=10.0)  # coarse tol forces the diagnostic path
    assert isinstance(res, SmallDivisorDiagnostic)
    assert res.modes


def test_solve_h1_not_closed():
    F = LinearFoliation(2, 1, [[Rational(1, 3)], [Rational(1, 5)]])
    w = LeafwiseForm(F, 2, {})
    with pytest.raises(DimensionError):
        solve_h1(w, F)
    bad = LeafwiseForm(F, 1, {(0,): TrigPoly.mode(3, (0, 1, 0), 1.0)})
    with pytest.raises(NotClosedError):
        solve_h1(bad, F)


def test_solve_h1_soundness(rng):
    # every returned solution reconstructs within 10x the tolerance
    F = cat_map_foliation()
    tol = 1e-9
    for _ in range(10):
        g, omega = build_round_trip(rng, F, (rng.uniform(-1, 1),))
        sol = solve_h1(omega, F, tol=tol)
        assert sol.residual < 10 * tol


def test_minimizability_constant_form():
    F = LinearFoliation(2, 1, [[QuadraticIrrational(1, -1, 2, 5)], [Rational(1, 3)]])
    top = LeafwiseForm(F, 2, {(0, 1): TrigPoly.constant(3, 1.0)})
    w = minimizability_witness(top, F)
    assert w.mean == pytest.approx(1.0)
    assert w.eta.is_zero()
    assert w.closure_sup == 0.0
    assert w.restriction_residual == 0.0


def test_minimizability_cat_map_float(rng):
    F = cat_map_foliation()
    for _ in range(5):
        top = LeafwiseForm(F, 1, {(0,): random_real_poly(rng, 2, n_modes=5)})
        w = minimizability_witness(top, F)
        assert w.closure_sup < 1e-9
        assert w.restriction_residual < 1e-12
        assert ambient_d(w.ambient).sup_coeff() < 1e-9


def test_minimizability_exact_closure(rng):
    F = cat_map_foliation()
    for _ in range(5):
        top = LeafwiseForm(F, 1, {(0,): random_exact_poly(rng, 2, n_modes=4, real=True)})
        w = minimizability_witness(top, F)
        assert ambient_d(w.ambient).is_zero()
        assert w.restriction_residual == 0.0


def test_minimizability_resonant_diagnostic():
    F = LinearFoliation(1, 1, [[Rational(1, 2)]])
    top = LeafwiseForm(F, 1, {(0,): TrigPoly.mode(2, (1, -2), 1.0)})
    res = minimizability_witness(top, F)
    assert isinstance(res, SmallDivisorDiagnostic)


def test_form_json_round_trip(rng):
    F = cat_map_foliation()
    w = LeafwiseForm(F, 1, {(0,): random_real_poly(rng, 2, n_modes=3)})
    back = LeafwiseForm.from_json(F, w.to_json())
    assert (w - back).sup_coeff() == 0.0
    Fj = LinearFoliation.from_json(F.to_json())
    assert Fj.B[0][0] == F.B[0][0]


def test_solve_h1_exact_multi_radical_divisors(rng):
    # one frame direction mixes two radicands, so the exact small-divisor
    # inverse has to clear both square roots
    F = LinearFoliation(
        1, 2, [[QuadraticIrrational(0, 1, 1, 2), QuadraticIrrational(1, -1, 2, 5)]]
    )
    g = random_exact_poly(rng, 3, n_modes=4, real=True)
    g = g - TrigPoly.constant(3, g.mean())
    const = LeafwiseForm(
        F, 1, {(0,): TrigPoly.constant(3, ExactCoeff.from_fraction(Fraction(-7, 4)))}
    )
    omega = leafwise_d(LeafwiseForm.from_function(F, g)) + const
    sol = solve_h1(omega, F)
    assert sol.a == (-1.75,)
    assert sol.residual == 0.0
    assert (sol.g - g).coeffs == {}
