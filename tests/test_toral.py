import itertools
import json
import math

import mpmath
import numpy as np
import pytest

from leafcoh.diophantine import matrix_margin
from leafcoh.cli import main
from leafcoh.errors import (
    NotAutomorphismError,
    NotHyperbolicError,
    UnsupportedDegreeError,
)
from leafcoh.scalars import QuadraticIrrational
from leafcoh.toral import (
    CohomologyReport,
    certify_hyperbolic,
    char_poly,
    char_poly_irreducible,
    compound_matrix,
    int_det,
    kunneth_dims,
    stable_foliation,
    stable_slope_matrix,
    wang_cohomology,
)

CAT = [[2, 1], [1, 1]]
CUBIC = [[0, 0, 1], [1, 0, 1], [0, 1, 0]]  # companion of x^3 - x - 1


def test_char_poly_exact():
    assert char_poly(CAT) == [1, -3, 1]
    assert char_poly(CUBIC) == [-1, -1, 0, 1]
    assert char_poly([[1, 1], [0, 1]]) == [1, -2, 1]
    assert int_det(CAT) == 1 and int_det(CUBIC) == 1


def test_certify_cat_map():
    A = certify_hyperbolic(CAT)
    # quadratic formula on x^2 - 3x + 1
    lo = (3 - math.sqrt(5)) / 2
    hi = (3 + math.sqrt(5)) / 2
    assert A.moduli[0] == pytest.approx(lo, abs=1e-12)
    assert A.moduli[1] == pytest.approx(hi, abs=1e-12)
    assert A.stable_set == (0,) and A.unstable_set == (1,)


def test_certify_rotation_not_hyperbolic():
    with pytest.raises(NotHyperbolicError):
        certify_hyperbolic([[0, -1], [1, 0]])
    with pytest.raises(NotHyperbolicError):
        certify_hyperbolic([[1, 1], [0, 1]])  # parabolic, eigenvalue 1


def test_certify_cubic_root_isolation():
    A = certify_hyperbolic(CUBIC)
    # independent root isolation oracle at high precision
    with mpmath.workdps(50):
        roots = mpmath.polyroots([1, 0, -1, -1])
        real_root = float(max(abs(r) for r in roots))
        pair_mod = float(min(abs(r) for r in roots))
    assert A.moduli[2] == pytest.approx(real_root, abs=1e-12)
    assert A.moduli[0] == pytest.approx(pair_mod, abs=1e-12)
    assert real_root == pytest.approx(1.3247179572447460, abs=1e-12)
    assert pair_mod == pytest.approx(0.8688369618327093, abs=1e-12)
    assert A.stable_set == (0, 1)


def test_certify_rejects_non_automorphism():
    with pytest.raises(NotAutomorphismError):
        certify_hyperbolic([[2, 0], [0, 2]])


def test_stable_set_nonempty_for_hyperbolic():
    for M in (CAT, CUBIC, [[1, 1], [1, 2]]):
        A = certify_hyperbolic(M)
        assert A.stable_set


def test_stable_slope_cat_exact():
    A = certify_hyperbolic(CAT)
    B, split = stable_slope_matrix(A)
    assert B[0][0] == QuadraticIrrational(1, -1, 2, 5)
    assert split.leaf_coords == (1,) and split.transverse_coords == (0,)


def graph_vector(B, split, n, i=0):
    w = [0.0] * n
    w[split.leaf_coords[i]] = 1.0
    for j, tc in enumerate(split.transverse_coords):
        w[tc] = B[i][j].to_float()
    return w


def test_stable_slopes_of_inverse_complementary():
    # stable space of A^{-1} equals the unstable space of A
    A = certify_hyperbolic(CAT)
    Ainv = certify_hyperbolic([[1, -1], [-1, 2]])
    B, split = stable_slope_matrix(A)
    Binv, split_inv = stable_slope_matrix(Ainv)
    w = graph_vector(Binv, split_inv, 2)
    lam_u = (3 + math.sqrt(5)) / 2
    Aw = [sum(CAT[r][c] * w[c] for c in range(2)) for r in range(2)]
    assert Aw[0] == pytest.approx(lam_u * w[0], abs=1e-12)
    assert Aw[1] == pytest.approx(lam_u * w[1], abs=1e-12)
    # while the stable graph of A itself contracts
    ws = graph_vector(B, split, 2)
    Aws = [sum(CAT[r][c] * ws[c] for c in range(2)) for r in range(2)]
    lam_s = (3 - math.sqrt(5)) / 2
    assert Aws[0] == pytest.approx(lam_s * ws[0], abs=1e-12)


def graph_invariance_residual(matrix, B, split):
    n = len(matrix)
    p = len(B)
    Bf = [[e.to_float() for e in row] for row in B]
    worst = 0.0
    for i in range(p):
        w = [0.0] * n
        w[split.leaf_coords[i]] = 1.0
        for j, tc in enumerate(split.transverse_coords):
            w[tc] = Bf[i][j]
        Aw = [sum(matrix[r][c] * w[c] for c in range(n)) for r in range(n)]
        u = [Aw[r] for r in split.leaf_coords]
        for j, tc in enumerate(split.transverse_coords):
            pred = sum(Bf[i2][j] * u[i2] for i2 in range(p))
            worst = max(worst, abs(Aw[tc] - pred))
    return worst


def test_stable_graph_invariant_under_A():
    for M in (CAT, CUBIC):
        A = certify_hyperbolic(M)
        B, split = stable_slope_matrix(A)
        assert graph_invariance_residual(M, B, split) < 1e-10


def test_cubic_slope_margin_positive():
    A = certify_hyperbolic(CUBIC)
    F, split = stable_foliation(A)
    assert (F.p, F.q) == (2, 1)
    cert = matrix_margin(F.B, 2.0, 200)
    assert cert.margin > 0
    assert not cert.exact  # numeric eigenbasis entries are approximate


def test_wang_cat_and_cubic():
    assert wang_cohomology(certify_hyperbolic(CAT)).dims == (1, 1, 0)
    assert wang_cohomology(certify_hyperbolic(CUBIC)).dims == (1, 1, 0, 0)


def _unimodular_sample(rng, n, count):
    """Seeded integer matrices with det +-1: products of elementary matrices,
    rows permuted."""
    out = []
    while len(out) < count:
        M = np.eye(n, dtype=np.int64)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            E = np.eye(n, dtype=np.int64)
            E[i, j] = rng.choice((-1, 1))
            M = E @ M
        perm = list(range(n))
        rng.shuffle(perm)
        if np.abs(M).max() <= 12:
            out.append(M[perm].tolist())
    return out


def test_wang_matches_eigenvalue_product_oracle(rng):
    """Every certified 2x2 matrix with entries in [-3, 3] and a seeded sample
    of 3x3 and 4x4 ones: no product of stable eigenvalues comes within
    cert_tol of 1, and the dims are the closed form (1, 1, 0, ..., 0)."""
    cert_tol = 1e-8
    matrices = [[[a, b], [c, d]] for a, b, c, d in itertools.product(range(-3, 4), repeat=4)]
    matrices += _unimodular_sample(rng, 3, 20) + _unimodular_sample(rng, 4, 20)
    certified = 0
    for M in matrices:
        try:
            A = certify_hyperbolic(M, cert_tol=cert_tol)
        except (NotAutomorphismError, NotHyperbolicError):
            continue
        certified += 1
        eigs = A.stable_eigenvalues
        prods = []
        for k in range(1, len(eigs) + 1):
            for sub in itertools.combinations(eigs, k):
                z = 1.0 + 0.0j
                for v in sub:
                    z *= v
                prods.append(abs(z - 1.0))
        assert min(prods) > cert_tol, M
        assert wang_cohomology(A).dims == (1, 1) + (0,) * len(eigs), M
    assert certified > 100


def test_wang_ill_conditioned_tolerance(capsys):
    """An over-large tolerance is refused by certification, which is where
    --tol goes under toral: a certified A has every stable modulus below
    1 - cert_tol, so wang_cohomology itself has nothing to refuse."""
    with pytest.raises(NotHyperbolicError):
        certify_hyperbolic(CAT, cert_tol=0.99)
    with pytest.raises(ValueError):
        certify_hyperbolic(CAT, cert_tol=-1.0)  # an empty band would certify rotations
    assert main(["--tol", "0.99", "toral", "wang", "--matrix", "[[2,1],[1,1]]"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "NotHyperbolicError"


def test_compound_matrix_eigenvalues_are_products():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        M = rng.normal(size=(n, n))
        eig = np.linalg.eigvals(M)
        for k in range(1, n + 1):
            comp = compound_matrix(M, k)
            got = sorted(np.linalg.eigvals(comp), key=lambda z: (round(z.real, 8), round(z.imag, 8)))
            want = sorted(
                (np.prod([eig[i] for i in sub]) for sub in itertools.combinations(range(n), k)),
                key=lambda z: (round(z.real, 8), round(z.imag, 8)),
            )
            assert np.allclose(got, want, atol=1e-8)


def test_kunneth_identity_and_binomials():
    assert kunneth_dims([1, 1, 0], [1]).dims == (1, 1, 0)
    for p in range(1, 5):
        for q in range(1, 5):
            f = [math.comb(p, k) for k in range(p + 1)]
            g = [math.comb(q, k) for k in range(q + 1)]
            out = kunneth_dims(f, g).dims
            assert out == tuple(math.comb(p + q, k) for k in range(p + q + 1))
    assert kunneth_dims([1, 1, 0], [1, 1, 0]).dims == (1, 2, 1, 0, 0)


def test_kunneth_commutative_associative():
    a, b, c = [1, 2, 1], [1, 1], [2, 0, 3]
    assert kunneth_dims(a, b).dims == kunneth_dims(b, a).dims
    left = kunneth_dims(list(kunneth_dims(a, b).dims), c).dims
    right = kunneth_dims(a, list(kunneth_dims(b, c).dims)).dims
    assert left == right


def test_irreducibility():
    assert char_poly_irreducible(CAT) is True
    assert char_poly_irreducible([[1, 1], [0, 1]]) is False  # (x-1)^2
    assert char_poly_irreducible(CUBIC) is True
    # block diagonal cat (+) cat: char poly is a square
    block = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]
    assert char_poly_irreducible(block) is False
    with pytest.raises(UnsupportedDegreeError):
        char_poly_irreducible([[1 if i == j else 0 for j in range(7)] for i in range(7)])


def test_report_json():
    rep = CohomologyReport((1, 1, 0), "wang", ("note",))
    obj = rep.to_json()
    assert obj["dims"] == [1, 1, 0] and obj["provenance"] == "wang"


def test_wang_products_appear_in_integer_compound_spectrum():
    # independent route: k-fold stable eigenvalue products must appear among
    # the eigenvalues of the exact integer compound matrix of A itself
    for M in (CAT, CUBIC):
        A = certify_hyperbolic(M)
        stable = A.stable_eigenvalues
        for k in range(1, len(stable) + 1):
            comp = compound_matrix(M, k)
            spec = np.linalg.eigvals(comp)
            for sub in itertools.combinations(stable, k):
                prod = 1.0 + 0.0j
                for z in sub:
                    prod *= z
                assert min(abs(spec - prod)) < 1e-9
