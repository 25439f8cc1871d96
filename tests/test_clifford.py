"""Clifford algebra, Dirac operators, Cauchy kernel, and integral formulas."""

import cmath
import math

import numpy as np
import pytest

from cxpt.acceptance import clifford_test_field, ebp_oracle, maxwell_demo_field
from cxpt.errors import (
    AmbiguousBranchError,
    DimensionMismatchError,
    NotRegularError,
    OnBoundaryError,
    SingularPointError,
)
from cxpt.fields import TestField
from cxpt.geometry import ComplexPoint
from cxpt.numerics import FDScheme
from cxpt.clifford import (
    DIRAC_FD,
    Ball,
    Box,
    Cl,
    CliffordAlgebra,
    Multivector,
    MultivectorField,
    SpacetimeMultivectorField,
    borel_pompeiu,
    cauchy_kernel,
    cauchy_kernel_field,
    dirac_apply,
    dirac_field,
    dirac_tilde_apply,
    extended_borel_pompeiu,
    maxwell_extend,
    mv_mul,
    poly_field,
    regular_point,
    spacetime_algebra,
)
from cxpt.source import singular_action_r3
from cxpt.wave import (
    CauchyData,
    SpacetimeField,
    extend,
    from_cauchy_data,
    wave_residual,
)


def random_mv(alg, rng):
    return Multivector(alg, rng.normal(size=alg.dim) + 1j * rng.normal(size=alg.dim))


def test_anticommutation_examples():
    alg = Cl(3)
    e1, e2 = alg.basis(1), alg.basis(2)
    assert (e1 * e1).scalar_part == 1.0
    assert (e1 * e2).coeff((1, 2)) == 1.0
    assert (e2 * e1).coeff((1, 2)) == -1.0
    assert ((e1 * e2) + (e2 * e1)).norm() == 0.0


def test_vector_square_is_gamma_squared(rng):
    for n in (2, 3, 4):
        alg = Cl(n)
        for _ in range(10):
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            z = alg.vector(x + 1j * y)
            sq = z * z
            gamma = cmath.sqrt(complex(x @ x - y @ y, 2 * float(x @ y)))
            assert sq.scalar_part == pytest.approx(gamma**2, abs=1e-12)
            assert np.max(np.abs(sq.coeffs[1:])) <= 1e-14


def test_associativity_and_unit(rng):
    alg = Cl(4)
    one = alg.scalar(1.0)
    for _ in range(200):
        u, v, w = (random_mv(alg, rng) for _ in range(3))
        lhs = (u * v) * w
        rhs = u * (v * w)
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())
        assert (one * u - u).norm() == 0.0
        assert (u * one - u).norm() == 0.0


def test_algebra_mismatch():
    with pytest.raises(DimensionMismatchError):
        mv_mul(Cl(2).scalar(1.0), Cl(3).scalar(1.0))


def test_dirac_examples():
    alg = Cl(3)
    ident = poly_field(alg, 3, {(1,): {(1, 0, 0): 1.0},
                                (2,): {(0, 1, 0): 1.0},
                                (3,): {(0, 0, 1): 1.0}})
    out = dirac_apply(ident, [0.4, 0.5, 0.6])
    assert out.scalar_part == pytest.approx(3.0)
    assert np.max(np.abs(out.coeffs[1:])) == 0.0
    const = poly_field(alg, 3, {(1, 2): {(0, 0, 0): 2.0}})
    assert dirac_apply(const, [0.1, 0.2, 0.3]).norm() == 0.0
    fq = poly_field(alg, 3, {(1,): {(2, 0, 0): 1.0}})
    x = np.array([0.7, 0.0, 0.0])
    d1 = dirac_apply(fq, x)
    assert d1.scalar_part == pytest.approx(2 * x[0])
    d2 = dirac_field(dirac_field(fq)).value(x)
    assert d2.coeff((1,)) == pytest.approx(2.0)
    assert np.max(np.abs(d2.coeffs[: alg.mask_of((1,))])) == 0.0


def test_dirac_left_right_square_agree(rng):
    alg = Cl(3)
    f = poly_field(alg, 3, {
        (): {(2, 1, 0): 0.5, (0, 0, 3): -1.0},
        (1, 2): {(1, 1, 1): 2.0},
        (3,): {(0, 2, 0): 1.5},
    })
    dd_left = dirac_field(dirac_field(f, "left"), "left")
    dd_right = dirac_field(dirac_field(f, "right"), "right")
    for _ in range(5):
        x = rng.normal(size=3)
        lv = dd_left.value(x)
        rv = dd_right.value(x)
        assert (lv - rv).norm() <= 1e-12 * max(1.0, lv.norm())


def test_dirac_fd_matches_exact(rng):
    """A field without a table is differentiated by FD of its evaluator."""
    alg = Cl(3)
    f = poly_field(alg, 3, {(1,): {(2, 0, 0): 1.0, (0, 1, 1): -0.5},
                            (): {(1, 1, 0): 2.0}})
    g = MultivectorField(alg, 3, evaluator=f.batch)
    for _ in range(5):
        x = rng.normal(size=3)
        exact = dirac_apply(f, x)
        fd = dirac_apply(g, x, scheme=FDScheme(h=1e-4))
        assert 0.0 < (exact - fd).norm() <= 1e-8


def test_cauchy_kernel_values():
    ck = cauchy_kernel(np.array([1.0, 0.0, 0.0]))
    assert ck.coeff((1,)) == pytest.approx(1.0 / (4 * math.pi), abs=1e-14)
    ck2 = cauchy_kernel(np.array([0.0, 1.0]))
    assert ck2.coeff((2,)) == pytest.approx(1.0 / (2 * math.pi), abs=1e-14)
    with pytest.raises(SingularPointError):
        cauchy_kernel(np.zeros(3))
    with pytest.raises(SingularPointError):
        cauchy_kernel(ComplexPoint([1, 0, 0], [0, 0, 1]))
    with pytest.raises(AmbiguousBranchError):
        cauchy_kernel(ComplexPoint([0.5, 0, 0], [0, 0, 1]))
    # the kernel field takes its dimension from x0
    for x0 in ([5.0, 0.0, 0.0], [0.5, -1.0]):
        field = cauchy_kernel_field(x0)
        x = np.full(len(x0), 0.3)
        assert field.algebra.dim == 2 ** len(x0)
        assert (field.value(x) - cauchy_kernel(x - np.asarray(x0))).norm() <= 1e-15


def test_kernel_is_monogenic_fd(rng):
    field = cauchy_kernel_field(np.zeros(3))
    scheme = FDScheme(h=1e-5, order=4, richardson=True)
    for _ in range(50):
        x = rng.normal(size=3)
        if np.linalg.norm(x) < 0.4:
            continue
        dv = dirac_apply(field, x, scheme=scheme)
        assert dv.norm() <= 1e-6


def test_kernel_oddness(rng):
    for _ in range(20):
        x = rng.normal(size=3)
        y = rng.normal(size=3) * 0.5
        z = ComplexPoint(x, y)
        try:
            c1 = cauchy_kernel(z)
            c2 = cauchy_kernel(-z)
        except (SingularPointError, AmbiguousBranchError):
            continue
        assert (c1 + c2).norm() <= 1e-12 * max(1.0, c1.norm())


def test_regular_point_cases():
    ball = Ball(np.zeros(3), 1.0)
    assert regular_point(ComplexPoint([0.3, 0, 0], [0, 0, 0]), ball)
    assert not regular_point(ComplexPoint([1.0, 0, 0], [0, 0, 0]), ball, tol=1e-6)
    assert regular_point(ComplexPoint([3.0, 0, 0], [0, 0, 0.1]), ball)
    # disk reaching the boundary is not regular
    assert not regular_point(ComplexPoint([0.95, 0, 0], [0, 0, 0.2]), ball)


def test_borel_pompeiu_ball():
    alg = Cl(3)
    ball = Ball(np.zeros(3), 1.0)
    fc = poly_field(alg, 3, {(): {(0, 0, 0): 2.0 + 1.0j}})
    x0 = np.array([0.0, 0.0, 0.0])
    assert (borel_pompeiu(fc, ball, x0) - alg.scalar(2.0 + 1.0j)).norm() <= 1e-4
    assert borel_pompeiu(fc, ball, np.array([2.0, 0, 0])).norm() <= 1e-4
    f = poly_field(alg, 3, {(1,): {(1, 0, 0): 1.0, (0, 2, 0): 0.5},
                            (2,): {(0, 0, 1): 1.0},
                            (): {(0, 0, 0): 0.3}})
    x1 = np.array([0.3, -0.2, 0.1])
    rel = (borel_pompeiu(f, ball, x1) - f.value(x1)).norm() / f.value(x1).norm()
    assert rel <= 1e-4
    assert borel_pompeiu(f, ball, np.array([1.5, 0.5, 0.0])).norm() <= 1e-4
    with pytest.raises(OnBoundaryError):
        borel_pompeiu(f, ball, np.array([1.0, 0.0, 0.0]))


def test_borel_pompeiu_monogenic_boundary_only():
    """For a monogenic field the volume term vanishes; the boundary alone
    reproduces the value (Cauchy integral formula)."""
    ball = Ball(np.zeros(3), 1.0)
    field = cauchy_kernel_field([5.0, 0.0, 0.0])
    x = np.array([0.3, -0.2, 0.1])
    total = borel_pompeiu(field, ball, x)
    assert (total - field.value(x)).norm() <= 1e-8
    # isolate the volume term: it integrates C . Df with Df ~ 0
    from cxpt.clifford import _dirac_evaluator

    pts, wts = ball.volume_quadrature()
    dv = _dirac_evaluator(field, "left", FDScheme(h=1e-5, order=4, richardson=True))(pts)
    assert float(np.max(np.abs(dv))) * float(np.sum(wts)) <= 1e-6


def test_borel_pompeiu_box():
    alg = Cl(3)
    box = Box(np.array([-0.5, -0.6, -0.4]), np.array([0.7, 0.5, 0.6]), face_order=24)
    fc = poly_field(alg, 3, {(): {(0, 0, 0): 1.5}})
    x0 = np.array([0.05, -0.1, 0.1])
    assert (borel_pompeiu(fc, box, x0) - alg.scalar(1.5)).norm() <= 1e-3
    assert borel_pompeiu(fc, box, np.array([2.0, 0.0, 0.0])).norm() <= 1e-6


def test_extended_bp_real_reduction_and_oracle():
    alg = Cl(3)
    ball = Ball(np.zeros(3), 1.0)
    f = poly_field(alg, 3, {(1,): {(1, 0, 0): 1.0, (0, 2, 0): 0.5},
                            (2,): {(0, 0, 1): 1.0},
                            (): {(0, 0, 0): 0.3}})
    zr = ComplexPoint([0.3, -0.2, 0.1], [0.0, 0.0, 0.0])
    assert (extended_borel_pompeiu(f, ball, zr) - f.value(zr.x)).norm() <= 1e-10
    # complex z with the source disk inside: match the convolution oracle
    z = ComplexPoint([0.3, 0.0, 0.0], [0.0, 0.0, 0.05])
    got = extended_borel_pompeiu(f, ball, z)
    oracle = np.zeros(alg.dim, dtype=complex)
    for mask, table in f.poly.items():
        def ev(pts, table=table):
            sh = pts + z.x[None, :]
            out = np.zeros(pts.shape[0], dtype=complex)
            for alpha, c in table.items():
                term = np.full(pts.shape[0], complex(c))
                for kk, e in enumerate(alpha):
                    if e:
                        term = term * sh[:, kk] ** e
                out += term
            return out

        oracle[mask] = singular_action_r3(TestField(ev), -z.y).value
    assert (got - Multivector(alg, oracle)).norm() <= 1e-4
    # constant field: continuous limit toward c as |y| -> 0
    fc = poly_field(alg, 3, {(): {(0, 0, 0): 2.0}})
    for ay in (0.1, 0.01):
        val = extended_borel_pompeiu(fc, ball, ComplexPoint([0.2, 0, 0], [0, 0, ay]))
        assert (val - alg.scalar(2.0)).norm() <= 1e-6


def test_extended_bp_general_position():
    """Off-axis imaginary part, off-center ball, bivector-bearing field."""
    alg = Cl(3)
    ball = Ball(np.array([0.1, -0.1, 0.2]), 1.3)
    f = poly_field(alg, 3, {(1,): {(1, 0, 0): 1.0, (0, 2, 0): 0.5, (0, 0, 3): -0.2},
                            (2, 3): {(1, 1, 0): 0.7},
                            (): {(0, 0, 0): 0.3, (0, 0, 1): 0.4}})
    yv = 0.12 * np.array([1.0, 2.0, 2.0]) / 3.0
    z = ComplexPoint([0.25, 0.1, -0.05], yv)
    got = extended_borel_pompeiu(f, ball, z)
    oracle = np.zeros(alg.dim, dtype=complex)
    for mask, table in f.poly.items():
        def ev(pts, table=table):
            sh = pts + z.x[None, :]
            out = np.zeros(pts.shape[0], dtype=complex)
            for alpha, c in table.items():
                term = np.full(pts.shape[0], complex(c))
                for kk, e in enumerate(alpha):
                    if e:
                        term = term * sh[:, kk] ** e
                out += term
            return out

        oracle[mask] = singular_action_r3(TestField(ev), -z.y).value
    assert (got - Multivector(alg, oracle)).norm() <= 1e-6


@pytest.mark.parametrize("x, a", [([0.25, 0.1, -0.05], 0.12), ([1.8, 0.4, -0.3], 0.12),
                                  ([0.1, 0.2, 0.0], 0.0)],
                         ids=["disk-inside", "disk-outside", "real-z"])
def test_extended_bp_evaluator_only_field_matches_table(x, a):
    """Without a table, EBP takes the FD Dirac field chunk by chunk and agrees.

    At real z (a = 0) it is the Borel-Pompeiu formula, whose boundary and
    volume terms are chunked the same way.
    """
    alg = Cl(3)
    ball = Ball(np.array([0.1, -0.1, 0.2]), 1.3)
    f = poly_field(alg, 3, {(1,): {(1, 0, 0): 1.0, (0, 2, 0): 0.5, (0, 0, 3): -0.2},
                            (2, 3): {(1, 1, 0): 0.7},
                            (): {(0, 0, 0): 0.3, (0, 0, 1): 0.4}})
    sizes = []

    def ev(pts):
        sizes.append(pts.shape[0])
        return f.batch(pts)

    g = MultivectorField(alg, 3, evaluator=ev)
    z = ComplexPoint(x, a * np.array([1.0, 2.0, 2.0]) / 3.0)
    want = extended_borel_pompeiu(f, ball, z)
    got = extended_borel_pompeiu(g, ball, z)
    assert (got - want).norm() <= 1e-12
    assert sizes and max(sizes) <= 1024


@pytest.mark.parametrize("call, cost", [
    (lambda g, M: extended_borel_pompeiu(g, M, ComplexPoint([0.3, 0, 0], [0, 0, 0.05])),
     (614, 604_800, 1008)),
    (lambda g, M: extended_borel_pompeiu(g, M, ComplexPoint([2, 0.3, 0], [0, 0.1, 0.2])),
     (218, 222_336, 1024)),
    (lambda g, M: borel_pompeiu(g, M, [0.3, -0.2, 0.1]), (218, 222_336, 1024)),
    (lambda g, M: borel_pompeiu(g, M, [1.6, 0.4, 0.0]), (218, 222_336, 1024)),
], ids=["ebp-disk-inside", "ebp-disk-outside", "bp-inside", "bp-outside"])
def test_borel_pompeiu_evaluator_cost(call, cost):
    """Evaluator calls, points and the largest call of an evaluator-only field
    at default quadrature: the FD Dirac derivative and every layer's chunks
    of at most 1,024 points cost exactly this much."""
    f = clifford_test_field()
    sizes = []

    def ev(pts):
        sizes.append(pts.shape[0])
        return f.batch(pts)

    call(MultivectorField(f.algebra, 3, evaluator=ev), Ball(np.zeros(3), 1.0))
    assert (len(sizes), sum(sizes), max(sizes)) == cost


@pytest.mark.parametrize("a", [0.02, 0.035])
def test_extended_bp_small_imaginary_part(a):
    """Criterion 11's 1e-4 against the source-action oracle at small |y|."""
    f = clifford_test_field()
    z = ComplexPoint([0.3, 0.0, 0.0], [0.0, 0.0, a])
    got = extended_borel_pompeiu(f, Ball(np.zeros(3), 1.0), z)
    assert (got - ebp_oracle(f, z)).norm() <= 1e-4


def test_extended_bp_box_domain():
    """The complex-argument formula also holds on a box domain."""
    alg = Cl(3)
    box = Box(np.array([-1.0, -0.9, -1.1]), np.array([1.1, 1.0, 0.9]), face_order=20)
    f = poly_field(alg, 3, {(1,): {(1, 0, 0): 1.0, (0, 2, 0): 0.5},
                            (): {(0, 0, 0): 0.3, (0, 0, 1): -0.2}})
    z = ComplexPoint([0.2, 0.0, -0.1], [0.0, 0.0, 0.06])
    got = extended_borel_pompeiu(f, box, z)
    oracle = np.zeros(alg.dim, dtype=complex)
    for mask, table in f.poly.items():
        def ev(pts, table=table):
            sh = pts + z.x[None, :]
            out = np.zeros(pts.shape[0], dtype=complex)
            for alpha, c in table.items():
                term = np.full(pts.shape[0], complex(c))
                for kk, e in enumerate(alpha):
                    if e:
                        term = term * sh[:, kk] ** e
                out += term
            return out

        oracle[mask] = singular_action_r3(TestField(ev), -z.y).value
    assert (got - Multivector(alg, oracle)).norm() <= 1e-4


def test_extended_bp_disk_outside():
    alg = Cl(3)
    ball = Ball(np.zeros(3), 1.0)
    f = poly_field(alg, 3, {(): {(0, 0, 0): 1.0, (1, 0, 0): 0.5}})
    z = ComplexPoint([3.0, 0.0, 0.0], [0.0, 0.0, 0.2])
    # source support lies outside M: the extension of chi_M f vanishes
    assert extended_borel_pompeiu(f, ball, z).norm() <= 1e-6


def test_extended_bp_not_regular():
    alg = Cl(3)
    ball = Ball(np.zeros(3), 1.0)
    f = poly_field(alg, 3, {(): {(0, 0, 0): 1.0}})
    with pytest.raises(NotRegularError):
        extended_borel_pompeiu(f, ball, ComplexPoint([0.95, 0, 0], [0, 0, 0.2]))


def _cos_bivector_field():
    st = spacetime_algebra(3)
    mask01 = st.mask_of((0, 1))

    def ev(pts):
        out = np.zeros((pts.shape[0], st.dim), dtype=complex)
        out[:, mask01] = np.cos(pts[:, 1])
        return out

    return st, SpacetimeMultivectorField(
        st, 3, ev,
        s_derivative=lambda pts: np.zeros((pts.shape[0], st.dim), dtype=complex),
    )


def test_maxwell_closed_form():
    st, f = _cos_bivector_field()
    x = np.array([0.3, 0.7, -0.2])
    t = 0.6
    ft, jt, res = maxwell_extend(f, x, 0.0, t)
    assert ft.coeff((0, 1)) == pytest.approx(math.cos(x[1]) * math.cos(t), abs=1e-9)
    assert jt.coeff((0, 1, 2)) == pytest.approx(-math.sin(x[1]) * math.cos(t), abs=1e-7)
    assert jt.coeff((1,)) == pytest.approx(1j * math.cos(x[1]) * math.sin(t), abs=1e-7)
    assert res <= 1e-4


def test_maxwell_initial_conditions():
    st, f = _cos_bivector_field()
    x = np.array([0.1, -0.4, 0.8])
    ft, jt, _ = maxwell_extend(f, x, 0.0, 0.0)
    assert ft.coeff((0, 1)) == pytest.approx(math.cos(x[1]), abs=1e-12)
    # j~(t=0) = D f + e0 f_s = -sin(x2) e2 e0 e1 = -sin(x2) e012
    assert jt.coeff((0, 1, 2)) == pytest.approx(-math.sin(x[1]), abs=1e-8)


#: Criterion 11's three points, and one time of each sign near and far from 0.
MAXWELL_POINTS = [((0.3, 0.7, -0.2), 0.6), ((0.0, 0.2, 0.5), 1.1), ((-0.4, 1.0, 0.0), 0.3),
                  ((0.3, 0.7, -0.2), -0.7), ((0.3, 0.7, -0.2), 0.02)]


def _demo_current(st, x, t):
    """j~ of cos(x_2) e0e1: (-sin x_2 cos t) e2 e0e1 + (i cos x_2 sin t) e0 e0e1."""
    e01 = st.blade((0, 1))
    return (st.basis(2) * e01 * (-math.sin(x[1]) * math.cos(t))
            + st.basis(0) * e01 * (1j * math.cos(x[1]) * math.sin(t)))


@pytest.mark.parametrize("xt", MAXWELL_POINTS)
def test_maxwell_current_from_one_jet(xt):
    """j~ from the sphere moments about x: the closed form, the nested-FD oracle
    (D~ by DIRAC_FD over ``extend``), and f~ equal to ``extend``'s value."""
    f = maxwell_demo_field()
    st = f.algebra
    x, t = np.asarray(xt[0]), xt[1]
    ft, jt, _ = maxwell_extend(f, x, 0.0, t)
    assert (jt - _demo_current(st, x, t)).norm() <= 1e-10
    coeffs = SpacetimeField(f.batch, f.s_derivative)
    oracle = dirac_tilde_apply(lambda xx, tt: extend(coeffs, xx, 0.0, tt), st, x, t, DIRAC_FD)
    assert np.max(np.abs(jt.coeffs - oracle)) <= 1e-9
    want = extend(coeffs, x, 0.0, t)
    assert np.max(np.abs(ft.coeffs - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.all(np.delete(ft.coeffs, st.mask_of((0, 1))) == 0.0)


def test_maxwell_current_without_s_derivative():
    """A field without an exact s-derivative takes w from the S_FD stencil in s."""
    f = maxwell_demo_field()
    seen_s = set()

    def ev(pts):
        seen_s.update(np.unique(pts[:, -1]).tolist())
        return f.evaluator(pts)

    bare = SpacetimeMultivectorField(f.algebra, 3, ev)
    for xx, t in MAXWELL_POINTS:
        x = np.asarray(xx)
        _, jt, _ = maxwell_extend(bare, x, 0.0, t)
        assert (jt - _demo_current(f.algebra, x, t)).norm() <= 1e-8
    assert len(seen_s) > 1


def test_maxwell_evaluator_cost():
    """One maxwell_extend is 17 jets (the point and the residual's 16 stencil
    points), each one sphere of 1,152 points at 7 radii per field."""
    f = maxwell_demo_field()
    sizes = []

    def ev(pts):
        sizes.append(pts.shape[0])
        return f.evaluator(pts)

    g = SpacetimeMultivectorField(f.algebra, 3, ev, s_derivative=f.s_derivative)
    maxwell_extend(g, np.array([0.3, 0.7, -0.2]), 0.0, 0.6)
    assert (len(sizes), sum(sizes), max(sizes)) == (119, 137_088, 1152)


def test_dirac_tilde_squared_matches_wave_residual():
    """D~^2 f~ equals the wave-operator residual on a shared lattice."""
    st = spacetime_algebra(3)
    from cxpt.fields import cosine_wave, gaussian

    k = np.array([0.5, -0.3, 0.2])
    v = cosine_wave(k)
    w = gaussian(2.0)
    fa = from_cauchy_data(v, w)

    def ev(pts):
        out = np.zeros((pts.shape[0], st.dim), dtype=complex)
        out[:, 0] = fa.evaluate(pts)
        return out

    def evs(pts):
        out = np.zeros((pts.shape[0], st.dim), dtype=complex)
        out[:, 0] = np.asarray(fa.s_derivative(pts))
        return out

    f_mv_st = SpacetimeField(ev, s_derivative=evs)
    big_h = 0.1
    sch = FDScheme(h=big_h / 2.0, order=2, richardson=False)

    def ftil(xx, tt):
        return extend(f_mv_st, xx, 0.0, tt)

    def inner(xx, tt):
        return dirac_tilde_apply(ftil, st, xx, tt, sch)

    x0 = np.array([0.2, 0.1, -0.3])
    t0 = 0.5
    dd = dirac_tilde_apply(inner, st, x0, t0, sch)
    res = wave_residual(CauchyData(v, w, 3), x0, t0, h=big_h, half_points=1)
    # D~^2 = Lap - d_t^2 = -(u_tt - Lap u) on the scalar blade; identical stencils,
    # and wave_residual returns |u_tt - Lap u|
    assert abs(dd[0]) == pytest.approx(res, abs=1e-6 * max(1.0, res))
    assert np.max(np.abs(dd[1:])) <= 1e-10


def test_maxwell_component_matches_scalar_extend():
    """The array-valued extension of maxwell_extend agrees with the scalar path."""
    from cxpt.wave import harmonic_mode

    st = spacetime_algebra(3)
    mode = harmonic_mode([0.7, 0.0, 0.5])
    mask = st.mask_of((0, 2))

    def ev(pts):
        out = np.zeros((pts.shape[0], st.dim), dtype=complex)
        out[:, mask] = mode.evaluate(pts)
        return out

    def evs(pts):
        out = np.zeros((pts.shape[0], st.dim), dtype=complex)
        out[:, mask] = np.asarray(mode.s_derivative(pts))
        return out

    f = SpacetimeMultivectorField(st, 3, ev, s_derivative=evs)
    x = np.array([0.3, -0.1, 0.2])
    s, t = 0.25, 0.8
    coeffs = maxwell_extend(f, x, s, t)[0].coeffs
    scalar = extend(mode, x, s, t)
    assert coeffs[mask] == pytest.approx(scalar, abs=1e-12)
    others = np.delete(coeffs, mask)
    assert np.max(np.abs(others)) == 0.0


def test_mv_repr_and_grade():
    alg = Cl(3)
    m = alg.blade((1, 2), 2.0) + alg.scalar(1.0)
    assert "e12" in repr(m)
    assert m.grade(2).coeff((1, 2)) == 2.0
    assert m.grade(2).scalar_part == 0.0
    assert np.allclose(alg.vector([1, 2, 3]).vector_components(), [1, 2, 3])


def test_poly_and_evaluator_agree(rng):
    """When both representations are present they must evaluate identically."""
    alg = Cl(3)
    mask = alg.mask_of((1, 3))

    def ev(pts):
        out = np.zeros((pts.shape[0], alg.dim), dtype=complex)
        out[:, mask] = pts[:, 0] ** 2 - 0.5 * pts[:, 1] * pts[:, 2]
        return out

    from cxpt.clifford import MultivectorField

    f = MultivectorField(alg, 3, evaluator=ev,
                         poly={mask: {(2, 0, 0): 1.0, (0, 1, 1): -0.5}})
    pts = rng.normal(size=(100, 3))
    from_eval = ev(pts)
    from_poly = f.batch(pts)  # poly takes precedence
    assert np.max(np.abs(from_eval - from_poly)) <= 1e-12


def test_algebra_cache_accepts_any_sequence():
    assert CliffordAlgebra.get([1, 2, 3]) is CliffordAlgebra.get((1, 2, 3)) is Cl(3)
    assert CliffordAlgebra.get(range(4)) is spacetime_algebra(3)
    with pytest.raises(ValueError):
        CliffordAlgebra.get([2, 1])


def test_domain_validation():
    with pytest.raises(ValueError):
        Ball(np.zeros(3), -1.0)
    with pytest.raises(ValueError):
        Box(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert box.contains(np.array([0.5, 0.5]))
    assert not box.contains(np.array([1.5, 0.0]))
    assert box.signed_boundary_distance(np.array([0.5, 0.0])) == pytest.approx(0.5)
    assert box.signed_boundary_distance(np.array([2.0, 0.0])) == pytest.approx(-1.0)
