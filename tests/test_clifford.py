"""Clifford algebra, Dirac operators, Cauchy kernel, and integral formulas."""

import cmath
import math
import warnings

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
from cxpt.fields import TestField, poly_diff
from cxpt.geometry import ComplexPoint, oblate_rho_zeta
from cxpt.numerics import (
    INTERVAL_ORDER,
    SLOPE_FD,
    SPHERE_LADDER,
    FDScheme,
    gauss_legendre,
    sphere_area,
    sphere_levels,
)
from cxpt.clifford import (
    CONTINUITY_FD,
    _batch_mul,
    _dirac_evaluator,
    _dirac_tilde,
    _dirac_tilde_stencil,
    _dirac_tilde_sum,
    _kernel_batch,
    _ring,
    _vectors,
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
    extended_borel_pompeiu,
    maxwell_extend,
    mv_mul,
    poly_field,
    regular_point,
    spacetime_algebra,
)
from cxpt import wave
from cxpt.source import singular_action_r3
from cxpt.wave import (
    CauchyData,
    SpacetimeField,
    extend,
    extend_jet,
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
        fd = dirac_apply(g, x)
        assert 0.0 < (exact - fd).norm() <= 1e-8


def test_dirac_refuses_an_unknown_side():
    """``side`` is 'left' or 'right': anything else raises, where it used to act
    from the right."""
    alg = Cl(3)
    f = poly_field(alg, 3, {(1,): {(1, 0, 0): 1.0}, (2,): {(0, 0, 1): 2.0}})
    with pytest.raises(ValueError, match="side"):
        dirac_field(f, "up")
    for g in (f, MultivectorField(alg, 3, evaluator=f.batch)):
        with pytest.raises(ValueError, match="side"):
            dirac_apply(g, [0.1, 0.2, 0.3], side="up")


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
    for _ in range(50):
        x = rng.normal(size=3)
        if np.linalg.norm(x) < 0.4:
            continue
        dv = dirac_apply(field, x)
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
    dv = _dirac_evaluator(field, "left")(pts)
    assert float(np.max(np.abs(dv))) * float(np.sum(wts)) <= 1e-6


def test_box_rules_follow_the_interval_order(monkeypatch):
    """A box's faces and volume take INTERVAL_ORDER Gauss-Legendre nodes per side,
    the constant as ``clifford`` reads it when the rules are built."""
    from cxpt import clifford

    box = Box(np.array([-0.5, -0.6, -0.4]), np.array([0.7, 0.5, 0.6]))
    for order in (INTERVAL_ORDER, 7):
        monkeypatch.setattr(clifford, "INTERVAL_ORDER", order)
        pts, normals, wts = box.boundary_quadrature()
        assert pts.shape == normals.shape == (6 * order**2, 3) and wts.shape == (6 * order**2,)
        vpts, vwts = box.volume_quadrature()
        assert vpts.shape == (order**3, 3) and vwts.shape == (order**3,)
        assert np.sum(vwts) == pytest.approx(np.prod(box.hi - box.lo), rel=1e-14)


def test_borel_pompeiu_box():
    alg = Cl(3)
    box = Box(np.array([-0.5, -0.6, -0.4]), np.array([0.7, 0.5, 0.6]))
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
     (267, 229_914, 1008)),
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


def _per_point_ebp(f, M, z, orders):
    """The disk-inside branch of ``extended_borel_pompeiu`` with every layer's
    kernel and Clifford products taken point by point, on the (q, phi) rule
    ``orders`` and the Duffy square of ``INTERVAL_ORDER``, without chunks."""
    alg, x, y = f.algebra, z.x, z.y
    dirac = _dirac_evaluator(f, "left")
    a = float(np.linalg.norm(y))
    big_p = math.sqrt((0.8 * M.signed_boundary_distance(x)) ** 2 - a**2)
    yhat = -y / a
    q_order, nphi = orders
    sig = _ring(-y, nphi)

    def ring_means(p, q, w, term):
        rho, zeta = oblate_rho_zeta(p, q, a)
        u = (zeta[:, None, None] * yhat + rho[:, None, None] * sig).reshape(-1, 3)
        vals = term(np.repeat(p, nphi), np.repeat(q, nphi), u)
        return w @ vals.reshape(p.size, nphi, -1).mean(axis=1)

    def kernel(p, q, u):
        return _kernel_batch(u, y, alg, p + 1j * q)

    def boundary(p, q, u):
        normal = (p[:, None] * u - q[:, None] * y) / np.sqrt(
            (a**2 + p**2) * (p**2 + q**2))[:, None]
        return _batch_mul(alg, _batch_mul(alg, kernel(p, q, u), _vectors(alg, normal)),
                          f.batch(x + u))

    leg = gauss_legendre(q_order)
    qn = a * leg.nodes
    area = 2.0 * np.pi * math.sqrt(a**2 + big_p**2) / a * np.sqrt(big_p**2 + qn**2)
    term_b = ring_means(np.full_like(qn, big_p), qn, a * leg.weights * area, boundary)
    duffy = gauss_legendre(INTERVAL_ORDER)
    t, wt = 0.5 * (duffy.nodes + 1.0), 0.5 * duffy.weights
    uu, vv = np.meshgrid(t, t, indexing="ij")
    ps = np.concatenate([(big_p * uu).ravel(), (big_p * uu * vv).ravel()] * 2)
    qs = np.concatenate([s * a * g.ravel() for s in (1.0, -1.0) for g in (uu * vv, uu)])
    ws = (np.tile((np.outer(wt, wt) * big_p * a * uu).ravel(), 4)
          * sphere_area(2) / a * (ps**2 + qs**2))
    term_v = ring_means(ps, qs, ws, lambda p, q, u: _batch_mul(alg, kernel(p, q, u),
                                                              dirac(x + u)))
    q0 = 0.5 * a * (leg.nodes + 1.0)
    yhat_mv = _vectors(alg, yhat[None, :])
    term_d = ring_means(np.zeros_like(q0), q0, 0.5 * a * leg.weights,
                        lambda p, q, u: 1j * _batch_mul(alg, yhat_mv, dirac(x + u)))
    return term_b - term_v - term_d


def _kept_rungs(monkeypatch, gaps=None):
    """The rungs ``extended_borel_pompeiu``'s ladder walks return, in call order, and
    their disagreements in ``gaps``, if given."""
    from cxpt import clifford

    kept, walk = [], clifford.walk_ladder

    def recording(*args, **kwargs):
        rung = walk(*args, **kwargs)
        kept.append(rung[0])
        if gaps is not None:
            gaps.append(rung[-1])
        return rung

    monkeypatch.setattr(clifford, "walk_ladder", recording)
    return kept


def _random_cl3_field(rng, degree):
    """Cl(3) polynomial field with four complex terms of degree <= ``degree`` per blade."""
    tables = {}
    for blade in ((), (1,), (2,), (1, 2), (1, 2, 3)):
        tables[blade] = {}
        while len(tables[blade]) < 4:
            alpha = tuple(int(e) for e in rng.integers(0, degree + 1, size=3))
            if sum(alpha) <= degree:
                tables[blade][alpha] = complex(*rng.normal(size=2))
    return poly_field(Cl(3), 3, tables)


def _disk_inside_point(rng, ball, a, clearance):
    """z = x + iy with |y| = a and the inscribed spheroid's semi-axis clearance * a."""
    x = rng.normal(size=3)
    x *= (ball.radius - clearance * a / 0.8) / np.linalg.norm(x)
    y = rng.normal(size=3)
    return ComplexPoint(ball.center + x, a * y / np.linalg.norm(y))


def test_extended_bp_ring_moments_match_per_point_layers(monkeypatch):
    """The ring-moment layers agree with per-point products on the rule the ladder keeps."""
    rng = np.random.default_rng(7)
    kept = _kept_rungs(monkeypatch)
    for _ in range(5):
        f = _random_cl3_field(rng, 4)
        ball = Ball(0.1 * rng.normal(size=3), 1.0 + 0.3 * rng.random())
        z = _disk_inside_point(rng, ball, rng.uniform(0.05, 0.2), rng.uniform(1.5, 5.0))
        got = extended_borel_pompeiu(f, ball, z).coeffs
        want = _per_point_ebp(f, ball, z, kept[-1])
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), kept[-1]
    assert len(set(kept)) > 1 and sphere_levels(2) not in kept


def _closed_form(f, z):
    """f(x + iy) + (a^2 / 2) Lap f, blade by blade: the extension of a degree-2 field."""
    w = z.x + 1j * z.y
    out = np.zeros(f.algebra.dim, dtype=complex)

    def value(table):
        return sum(c * np.prod(w ** np.asarray(alpha)) for alpha, c in table.items())

    for mask, table in f.poly.items():
        lap = sum(value(poly_diff(poly_diff(table, k), k)) for k in range(3))
        out[mask] = value(table) + 0.5 * float(z.y @ z.y) * lap
    return out


@pytest.mark.parametrize("field, clearance, lowest", [
    (lambda rng: clifford_test_field(), (2.0, 5.0), 0),
    (lambda rng: _random_cl3_field(rng, 2), (1.15, 1.8), 2),
], ids=["criterion-11-field", "tight-clearance"])
def test_extended_bp_matches_the_closed_form(monkeypatch, field, clearance, lowest):
    """On degree-2 fields at |y| >= 0.08 the ladder's value is as close to
    f(x + iy) + (a^2/2) Lap f as the per-point layers on the rule of
    SPHERE_ORDER, to 1e-12.

    A spheroid that barely clears the disk makes the boundary's kernel
    sharp in q, and the ladder climbs to rung ``lowest`` or above there."""
    rng = np.random.default_rng(19)
    kept = _kept_rungs(monkeypatch)
    ball = Ball(np.zeros(3), 1.0)
    for _ in range(4):
        f = field(rng)
        z = _disk_inside_point(rng, ball, rng.uniform(0.08, 0.2), rng.uniform(*clearance))
        want = _closed_form(f, z)
        got = extended_borel_pompeiu(f, ball, z).coeffs
        fixed = _per_point_ebp(f, ball, z, sphere_levels(2))
        assert np.linalg.norm(got - want) <= np.linalg.norm(fixed - want) + 1e-12
    ladder = [sphere_levels(2, order) for order in SPHERE_LADDER]
    assert min(ladder.index(rung) for rung in kept) >= lowest, kept


def _oscillating_field(alg, frequency, sizes):
    """exp(i frequency x_1) as the scalar blade of an evaluator-only Cl(3) field,
    logging each evaluation's size."""
    def ev(pts):
        sizes.append(pts.shape[0])
        out = np.zeros((pts.shape[0], alg.dim), dtype=complex)
        out[:, 0] = np.exp(1j * frequency * pts[:, 0])
        return out

    return MultivectorField(alg, 3, evaluator=ev)


def test_extended_bp_without_an_agreeing_rung_takes_the_finest_rule(monkeypatch):
    """exp(i 160 x_1) agrees on no pair of rungs up to the top, (48, 96): the value
    is that rule's, from its own probe's boundary sums.  The probes' boundary rings
    of all 11 rungs (16,182 points, 13 evaluations each for f and its FD Dirac
    derivative) and the top rule's 1,072 volume and branch-cut rings (102,912
    points, 12 evaluations each for Df) take 1,445,310 points."""
    alg, sizes, gaps = Cl(3), [], []
    kept = _kept_rungs(monkeypatch, gaps)
    f, ball = _oscillating_field(alg, 160.0, sizes), Ball(np.zeros(3), 1.0)
    z = ComplexPoint([0.3, 0.0, 0.0], [0.0, 0.0, 0.05])
    got = extended_borel_pompeiu(f, ball, z).coeffs
    points = sum(sizes)
    top = sphere_levels(2, SPHERE_LADDER[-1])
    assert kept == [top] and gaps[0] > 0.0
    want = _per_point_ebp(f, ball, z, top)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    assert points == 1_445_310


def test_extended_bp_climbs_past_order_24(monkeypatch):
    """exp(i 80 x_1), whose top pair of rungs up to (24, 48) disagreed by 0.30 of
    the field scale: the walk climbs and keeps (42, 84), which agrees with
    (48, 96), and its value is within 1e-10 of the per-point layers on (48, 96)."""
    alg, gaps = Cl(3), []
    kept = _kept_rungs(monkeypatch, gaps)
    f, ball = _oscillating_field(alg, 80.0, []), Ball(np.zeros(3), 1.0)
    z = ComplexPoint([0.3, 0.0, 0.0], [0.0, 0.0, 0.05])
    got = extended_borel_pompeiu(f, ball, z).coeffs
    assert kept == [(42, 84)] and gaps == [0.0]
    want = _per_point_ebp(f, ball, z, sphere_levels(2, SPHERE_LADDER[-1]))
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


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
    box = Box(np.array([-1.0, -0.9, -1.1]), np.array([1.1, 1.0, 0.9]))
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


@pytest.mark.parametrize("x1, diff", [(0.9, 1e-12), (0.93, 1e-12), (0.94, None)])
def test_extended_bp_near_the_boundary(x1, diff):
    """With the disk inside, the clearance check alone decides: points within the
    boundary rule's mesh spacing of the sphere (0.129 on the unit ball) are regular."""
    f = clifford_test_field()
    ball = Ball(np.zeros(3), 1.0)
    z = ComplexPoint([x1, 0.0, 0.0], [0.0, 0.0, 0.05])
    if diff is None:
        with pytest.raises(NotRegularError, match="insufficient clearance"):
            extended_borel_pompeiu(f, ball, z)
    else:
        assert (extended_borel_pompeiu(f, ball, z) - ebp_oracle(f, z)).norm() <= diff


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_maxwell_refuses_non_finite_arguments(bad):
    _, f = _cos_bivector_field()
    x = np.array([0.1, -0.4, 0.8])
    for name, args in (("x", ([0.1, bad, 0.8], 0.0, 0.6)), ("s", (x, bad, 0.6)),
                       ("t", (x, 0.0, bad))):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            maxwell_extend(f, *args)


#: Criterion 11's three points, and one time of each sign near and far from 0.
MAXWELL_POINTS = [((0.3, 0.7, -0.2), 0.6), ((0.0, 0.2, 0.5), 1.1), ((-0.4, 1.0, 0.0), 0.3),
                  ((0.3, 0.7, -0.2), -0.7), ((0.3, 0.7, -0.2), 0.02)]


def dirac_tilde_apply(g, algebra, x, t, scheme):
    """Nested-FD oracle: D~ = D - i e0 d_t by ``scheme`` over coefficient rows
    g(x, t), one call of g per stencil point (e_1..e_n for n = ``x.size``)."""
    xs, ts, weights = _dirac_tilde_stencil(x, t, scheme)
    return _dirac_tilde_sum(algebra, weights, [g(xx, float(tt)) for xx, tt in zip(xs, ts)])


def _demo_current(st, x, t):
    """j~ of cos(x_2) e0e1: (-sin x_2 cos t) e2 e0e1 + (i cos x_2 sin t) e0 e0e1."""
    e01 = st.blade((0, 1))
    return (st.basis(2) * e01 * (-math.sin(x[1]) * math.cos(t))
            + st.basis(0) * e01 * (1j * math.cos(x[1]) * math.sin(t)))


@pytest.mark.parametrize("xt", MAXWELL_POINTS)
def test_maxwell_current_from_one_jet(xt):
    """j~ from the sphere moments about x: the closed form, the nested-FD oracle
    (D~ by SLOPE_FD over ``extend``), and f~ equal to ``extend``'s value."""
    f = maxwell_demo_field()
    st = f.algebra
    x, t = np.asarray(xt[0]), xt[1]
    ft, jt, _ = maxwell_extend(f, x, 0.0, t)
    assert (jt - _demo_current(st, x, t)).norm() <= 1e-10
    coeffs = SpacetimeField(f.batch, f.s_derivative)
    oracle = dirac_tilde_apply(lambda xx, tt: extend(coeffs, xx, 0.0, tt), st, x, t, SLOPE_FD)
    assert np.max(np.abs(jt.coeffs - oracle)) <= 1e-9
    want = extend(coeffs, x, 0.0, t)
    assert np.max(np.abs(ft.coeffs - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.all(np.delete(ft.coeffs, st.mask_of((0, 1))) == 0.0)


def test_maxwell_at_rest_evaluates_f_once():
    """At t = 0, f~ is f at the one point: maxwell_extend makes 32 evaluator calls
    on 6,247 points (85 on 6,259 while each t = 0 jet of the continuity batch also
    evaluated f, and the batch discarded it; 84 while the jets took one sphere a
    call)."""
    f = maxwell_demo_field()
    sizes = []
    counted = SpacetimeMultivectorField(
        f.algebra, 3, lambda pts: sizes.append(len(pts)) or f.evaluator(pts), f.s_derivative)
    x = np.array([0.3, -0.2, 0.1])
    ft, _, residual = maxwell_extend(counted, x, 0.0, 0.0)
    assert (len(sizes), sum(sizes)) == (32, 6247)
    assert np.array_equal(ft.coeffs, f.value(x, 0.0).coeffs)
    assert residual <= 1e-20


def test_maxwell_current_without_s_derivative():
    """A field without an exact s-derivative takes w from the SLOPE_FD stencil in s."""
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


@pytest.mark.parametrize("xt", MAXWELL_POINTS[:3])
def test_maxwell_continuity_on_the_ladder(xt):
    """At criterion 11's points the continuity residual of the jets, each on the
    rung its probe keeps, stays at rounding level (2.5e-11 at most)."""
    _, _, residual = maxwell_extend(maxwell_demo_field(), np.asarray(xt[0]), 0.0, xt[1])
    assert residual <= 1e-9


#: ``repr`` of criterion 11's first Maxwell point (the demo field at x = (0.3, 0.7,
#: -0.2), s = 0, t = 0.6): the blade coefficients of f~ and j~ and the continuity
#: residual, recorded before the wave solver's sphere passes were made lean.
PINNED_MAXWELL = (
    "([0j, 0j, 0j, (0.6312514969513089+0j), 0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j, 0j, "
    "0j], [0j, (-1.5363217064264418e-13+0j), 0.4318623844161016j, 0j, 0j, 0j, 0j, "
    "(-0.5316958010324924+0j), 0j, 0j, 0j, (1.2250501539116477e-12+0j), 0j, 0j, 0j, 0j], "
    "7.350390237635524e-12)")


def test_maxwell_extend_keeps_its_bits():
    ft, jt, residual = maxwell_extend(maxwell_demo_field(), np.array([0.3, 0.7, -0.2]), 0.0, 0.6)
    got = ([complex(c) for c in ft.coeffs], [complex(c) for c in jt.coeffs], residual)
    assert repr(got) == PINNED_MAXWELL


def test_maxwell_evaluator_cost():
    """One maxwell_extend is the point's jet and one batch of the residual's 16
    stencil jets.  The jet probes v on the (6, 12) and (9, 18) rules of S^2 (72
    and 162 points), which agree, then takes the 6 radii inside the probe's on
    the (6, 12) rule, three a call (216 points, within MAX_POINTS / 16 for the 16
    blade coefficients): 4 calls and 666 points of v (w comes from the exact
    s-derivative).  The batch probes the outermost sphere of its latest jet
    (t + 0.06) the same way, then takes its other 111 distinct spheres on
    (6, 12), three a call: 39 calls and 8,226 points, against 16 x 8 calls and
    16 x 666 points with one walk per jet, and 121 calls in all with one
    sphere a call."""
    f = maxwell_demo_field()
    sizes = []

    def ev(pts):
        sizes.append(pts.shape[0])
        return f.evaluator(pts)

    g = SpacetimeMultivectorField(f.algebra, 3, ev, s_derivative=f.s_derivative)
    maxwell_extend(g, np.array([0.3, 0.7, -0.2]), 0.0, 0.6)
    assert (len(sizes), sum(sizes), max(sizes)) == (43, 8_892, 216)


@pytest.mark.parametrize("xt", MAXWELL_POINTS[:1] + [((0.1, -0.4, 0.8), 0.0)])
def test_maxwell_walks_the_ladder_at_most_twice(monkeypatch, xt):
    """The point's jet takes one ladder walk and the 16 stencil jets one more
    (a walk per jet made 17)."""
    walks, walk = [], wave.walk_ladder

    def spy(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    monkeypatch.setattr(wave, "walk_ladder", spy)
    maxwell_extend(maxwell_demo_field(), np.asarray(xt[0]), 0.0, xt[1])
    assert walks == [2, 2]


@pytest.mark.parametrize("xt", MAXWELL_POINTS)
def test_maxwell_fields_keep_their_bits(xt):
    """f~ and j~ come from a lone ``extend_jet`` at (x, t) on its own walk, bit for
    bit, whatever rung the stencil's batch keeps."""
    f = maxwell_demo_field()
    x, t = np.asarray(xt[0]), xt[1]
    ft, jt, _ = maxwell_extend(f, x, 0.0, t)
    u, grad, u_t = extend_jet(SpacetimeField(f.batch, f.s_derivative), x, 0.0, t)
    assert ft.coeffs.tobytes() == np.asarray(u, dtype=complex).tobytes()
    assert jt.coeffs.tobytes() == _dirac_tilde(f.algebra, grad, u_t).tobytes()


@pytest.mark.parametrize("xt", MAXWELL_POINTS)
def test_stacked_dirac_tilde_matches_one_jet_at_a_time(xt):
    """D~ of the 16 continuity jets, stacked (16, 4, dim) into one product, is bit
    for bit D~ of each jet alone, and so is the residual ``maxwell_extend`` sums
    from them."""
    f = maxwell_demo_field()
    x, t = np.asarray(xt[0]), xt[1]
    xs, ts, weights = _dirac_tilde_stencil(x, t, CONTINUITY_FD)
    _, grads, u_ts = wave._extension_jets(SpacetimeField(f.batch, f.s_derivative), xs, 0.0, ts)
    one_by_one = np.array([_dirac_tilde(f.algebra, g, d) for g, d in zip(grads, u_ts)])
    assert grads.shape == (16, 3, f.algebra.dim)
    assert _dirac_tilde(f.algebra, grads, u_ts).tobytes() == one_by_one.tobytes()
    residual = abs(_dirac_tilde_sum(f.algebra, weights, list(one_by_one))[0])
    assert repr(maxwell_extend(f, x, 0.0, t)[2]) == repr(float(residual))


#: ``repr`` of the continuity residual at criterion 11's points, recorded while
#: every jet of ``maxwell_extend`` walked the ladder alone.
PINNED_RESIDUALS = [7.350390237635524e-12, 2.544809416348832e-11, 5.135032276900541e-12]


@pytest.mark.parametrize("xt, residual", zip(MAXWELL_POINTS[:3], PINNED_RESIDUALS))
def test_maxwell_residual_keeps_its_bits(xt, residual):
    """At criterion 11's points the batch keeps every jet's rung, so the residual
    is the one of 16 jets on their own walks."""
    _, _, got = maxwell_extend(maxwell_demo_field(), np.asarray(xt[0]), 0.0, xt[1])
    assert repr(got) == repr(residual)


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


def test_domains_refuse_non_finite_geometry():
    """A centre or bound that is not finite would put inf or NaN into every rule node."""
    for center in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="center"):
            Ball(center, 1.0)
    for lo, hi in (([-np.inf, -1.0, -1.0], [1.0, 1.0, 1.0]),
                   ([-1.0, -1.0, -1.0], [1.0, np.inf, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            Box(lo, hi)


@pytest.mark.parametrize("call, name", [
    (lambda f, M: borel_pompeiu(f, M, [np.nan, 0.0, 0.0]), "x"),
    (lambda f, M: borel_pompeiu(f, M, [0.2, np.inf, 0.0]), "x"),
    (lambda f, M: extended_borel_pompeiu(f, M, ComplexPoint([np.nan, 0, 0], [0, 0, 0.1])),
     "z.x"),
    (lambda f, M: extended_borel_pompeiu(f, M, ComplexPoint([0.2, 0, 0], [0, 0, np.inf])),
     "z.y"),
    (lambda f, M: regular_point(ComplexPoint([0.2, 0, 0], [np.nan, 0, 0]), M), "z.y"),
    (lambda f, M: regular_point(ComplexPoint([0.2, -np.inf, 0], [0, 0, 0.1]), M), "z.x"),
], ids=["bp-nan-x", "bp-inf-x", "ebp-nan-x", "ebp-inf-y", "regular-nan-y", "regular-inf-x"])
def test_borel_pompeiu_refuses_non_finite_points(call, name):
    """A point that is not finite is refused by name before any work, also
    where numpy's warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(clifford_test_field(), Ball(np.zeros(3), 1.0))


@pytest.mark.parametrize("call, message", [
    (lambda M: borel_pompeiu(clifford_test_field(), M, [0.2, 0.1]),
     "x has dimension 2, domain has dimension 3"),
    (lambda M: extended_borel_pompeiu(clifford_test_field(), M,
                                      ComplexPoint([0.2, 0.1], [0.0, 0.1])),
     "z.x has dimension 2, domain has dimension 3"),
    (lambda M: regular_point(ComplexPoint([0.2, 0.1], [0.0, 0.1]), M),
     "z.x has dimension 2, domain has dimension 3"),
    (lambda M: borel_pompeiu(poly_field(Cl(2), 2, {(): {(1, 0): 1.0}}), M, [0.2, 0.1, 0.0]),
     "field has dimension 2, domain has dimension 3"),
    (lambda M: extended_borel_pompeiu(poly_field(Cl(2), 2, {(): {(1, 0): 1.0}}), M,
                                      ComplexPoint([0.2, 0.1, 0.0], [0.0, 0.0, 0.1])),
     "field has dimension 2, domain has dimension 3"),
], ids=["bp-point", "ebp-point", "regular-point", "bp-field", "ebp-field"])
def test_borel_pompeiu_refuses_mismatched_dimensions(call, message):
    with pytest.raises(ValueError, match=message):
        call(Ball(np.zeros(3), 1.0))
