"""Extended source functionals: oracles, identities, and limits."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from conftest import random_poly_field
from cxpt import source
from cxpt.errors import (
    ConvergenceError,
    InsufficientSmoothnessError,
    InvalidIndexError,
    NonFiniteIntegrandError,
    UnsupportedDimensionError,
    WindowTooSmallError,
)
from cxpt.fields import (
    TestField,
    bump,
    constant,
    coordinate,
    gaussian,
    plane_wave,
    polynomial,
)
from cxpt.geometry import ComplexPoint, oblate_rho_zeta
from cxpt import numerics
from cxpt.numerics import (
    MAX_POINTS,
    SPHERE_LADDER,
    SPHERE_ORDER,
    IntervalIntegral,
    integrate_interval,
    mean_on_sphere,
    sphere_area,
    sphere_levels,
    sphere_rule,
)
from cxpt.source import (
    _AxialField,
    _regularized,
    centroid,
    descent_check,
    lambda_coeff,
    moments,
    regularized_action,
    singular_action,
    singular_action_even,
    singular_action_odd,
    singular_action_r3,
    singular_action_r4,
)

# Frozen oracle: action of the n=3 source (a=1) on exp(-r^2).  The circle
# means are exact (the field is radial), leaving the single-layer integral
# e^{-1} (1 - Int_0^1 (e^{q^2}-1)/q^2 dq) with the integral summed as the
# series sum_m 1/(m! (2m-1)); thirty terms give full double precision.
GAUSSIAN_R3_ACTION = -0.07615901382553684


def gaussian_r3_series_oracle() -> float:
    s = sum(1.0 / (math.factorial(m) * (2 * m - 1)) for m in range(1, 30))
    return math.exp(-1.0) * (1.0 - s)


def test_frozen_oracle_matches_series():
    assert gaussian_r3_series_oracle() == pytest.approx(GAUSSIAN_R3_ACTION, abs=1e-15)


def test_lambda_coefficients():
    assert lambda_coeff(1, 0, 1.0) == pytest.approx(math.pi)
    assert lambda_coeff(2, 0, 1.0) == pytest.approx(2.0)
    assert lambda_coeff(3, 0, 1.0) == 0.0
    assert lambda_coeff(4, 2, 2.0) == pytest.approx(1.0)  # lambda_2 at a=2
    with pytest.raises(InvalidIndexError):
        lambda_coeff(2, 2, 1.0)
    with pytest.raises(InvalidIndexError):
        lambda_coeff(0, 0, 1.0)


def test_lambda_against_eps_integral_oracle():
    """lambda^m_k(0) is the eps->0 limit of int i^m q^m / (eps+iq)^k dq."""
    a = 1.0
    eps_list = [1.6e-2, 8e-3, 4e-3, 2e-3]

    def lam_eps(eps, m, k):
        def g(q):
            return (1j * q) ** m / (eps + 1j * q) ** k

        total = 0.0 + 0.0j
        # dyadic panels toward the eps-scale peak at q = 0
        edges = [0.0, eps]
        while edges[-1] < a:
            edges.append(min(a, 2 * edges[-1]))
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += integrate_interval(g, lo, hi, order=24).value
            total += integrate_interval(g, -hi, -lo, order=24).value
        return total

    def neville_at_zero(eps_vals, vals):
        v = list(vals)
        for j in range(1, len(v)):
            for i in range(len(v) - 1, j - 1, -1):
                v[i] = v[i] + (v[i] - v[i - 1]) * eps_vals[i] / (
                    eps_vals[i - j] - eps_vals[i])
        return v[-1]

    for k in (1, 2, 3, 4):
        for m in range(k):
            vals = [lam_eps(e, m, k) for e in eps_list]
            extrap = neville_at_zero(eps_list, vals)
            assert extrap == pytest.approx(lambda_coeff(k, m, a), abs=5e-6)


def test_r3_examples():
    y = np.array([0.0, 0.0, 1.0])
    assert singular_action_r3(constant(1.0), y).value == pytest.approx(1.0, abs=1e-12)
    # dipole along the axis
    val = singular_action_r3(coordinate(2), y).value
    assert val == pytest.approx(-1j, abs=1e-10)
    # transverse coordinate is annihilated by the circle means
    assert abs(singular_action_r3(coordinate(0), y).value) <= 1e-12
    # Gaussian against the frozen series oracle
    act = singular_action_r3(gaussian(1.0), y)
    assert act.value == pytest.approx(GAUSSIAN_R3_ACTION, abs=1e-8)
    assert act.err_estimate <= 1e-8
    # parts sum exactly to the value
    assert act.value == act.parts["rim"] + act.parts["single_layer"] + act.parts["double_layer"]


def test_r3_dense_quadrature_oracle(rng):
    """Independent evaluation of L0, L1, L2 with a dense trapezoid/GL scheme."""
    y = np.array([0.0, 0.0, 1.0])
    a = 1.0
    f = gaussian(1.0, center=[0.3, -0.1, 0.2])
    m = 4096
    th = 2 * np.pi * np.arange(m) / m
    circle = np.stack([np.cos(th), np.sin(th), np.zeros(m)], axis=1)

    def circle_means(rho, zeta, block=8):
        """Trapezoid means over the circles (rho_i, zeta), a block of circles at a time."""
        out = []
        for i in range(0, rho.size, block):
            pts = rho[i:i + block, None, None] * circle + [0.0, 0.0, zeta]
            out.append(f.evaluate(pts.reshape(-1, 3)).reshape(-1, m).mean(axis=1))
        return np.concatenate(out)

    # q-parametrized integrals on a dense 5000-node Gauss grid; scipy builds
    # it without numpy's 5000 x 5000 eigenproblem, agreeing to 1e-13
    nodes, weights = roots_legendre(5000)
    qs = 0.5 * a * (nodes + 1.0)
    wq = 0.5 * a * weights
    rho = np.sqrt(a**2 - qs**2)
    l0 = circle_means(np.array([a]), 0.0)[0]
    hz = 1e-5
    l1 = np.dot(wq, (circle_means(rho, 0.0) - l0) / qs**2)
    l2 = np.dot(wq, (circle_means(rho, hz) - circle_means(rho, -hz)) / (2 * hz))
    oracle = l0 - a * l1 - 1j * l2
    got = singular_action_r3(f, y).value
    assert got == pytest.approx(oracle, abs=1e-8)


def test_r3_point_source_when_y_zero():
    f = gaussian(1.0, center=[0.2, 0.0, 0.0])
    act = singular_action_r3(f, np.zeros(3))
    assert act.value == complex(f.evaluate(np.zeros(3)))
    assert act.parts["single_layer"] == 0.0


def test_r4_examples():
    y = np.array([0.0, 0.0, 0.0, 1.0])
    assert singular_action_r4(constant(1.0), y) == pytest.approx(1.0, abs=1e-12)
    assert singular_action_r4(coordinate(3), y) == pytest.approx(-1j, abs=1e-10)
    r2 = polynomial(4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0,
                        (0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
    assert singular_action_r4(r2, y) == pytest.approx(3.0, abs=1e-9)
    for a in (0.5, 2.0):
        assert singular_action_r4(r2, a * y) == pytest.approx(3 * a**2, rel=1e-9)


def test_even_formula_consistency(rng):
    y4 = np.array([0.0, 0.3, -0.2, 0.9])
    for _ in range(10):
        f = random_poly_field(rng, 4)
        a_val = singular_action_even(f, y4, 4)
        b_val = singular_action_r4(f, y4)
        assert a_val == pytest.approx(b_val, abs=1e-8)
    # n = 6 charge normalization
    y6 = np.zeros(6)
    y6[-1] = 1.0
    assert singular_action_even(constant(1.0), y6, 6) == pytest.approx(1.0, abs=1e-8)
    # odd parity in a transverse direction is annihilated
    odd_f = coordinate(0)
    assert abs(singular_action_even(odd_f, y6, 6)) <= 1e-10
    with pytest.raises(UnsupportedDimensionError):
        singular_action_even(constant(1.0), y6, 8)
    with pytest.raises(UnsupportedDimensionError):
        singular_action_even(constant(1.0), np.array([0, 0, 1.0]), 3)


def test_odd_formula_consistency(rng):
    y3 = np.array([0.1, 0.4, 0.8])
    for _ in range(10):
        f = random_poly_field(rng, 3)
        a_val = singular_action_odd(f, y3, 3)
        b_val = singular_action_r3(f, y3).value
        assert a_val == pytest.approx(b_val, abs=1e-8)
    y5 = np.zeros(5)
    y5[-1] = 1.0
    assert singular_action_odd(constant(1.0), y5, 5) == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(UnsupportedDimensionError):
        singular_action_odd(constant(1.0), np.zeros(7), 7)


def test_odd_point_source_trend():
    f = gaussian(2.0)
    errs = []
    for a in (0.5, 0.25, 0.125):
        y = np.array([0.0, 0.0, a])
        errs.append(abs(singular_action_odd(f, y, 3) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.5 * 0.125  # error <= C a with modest C


def test_moments_and_rotation_covariance():
    q_val, p_vec = moments(3, [0.0, 1.0, 0.0])
    assert q_val == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(p_vec, [0.0, -1j, 0.0], atol=1e-9)
    q4, p4 = moments(4, [0.0, 0.0, 0.0, 1.0])
    assert q4 == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(p4, [0, 0, 0, -1j], atol=1e-9)


def test_moment_identities_across_scales(rng):
    for n in (3, 4, 5, 6):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        for a in (0.5, 1.0, 2.0):
            y = a * direction
            q_val, p_vec = moments(n, y)
            assert abs(q_val - 1.0) <= 1e-6
            assert np.max(np.abs(p_vec + 1j * y)) <= 1e-6


def test_centroid():
    z0 = ComplexPoint([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(centroid(z0), [0, 0, 1j], atol=1e-9)
    z_real = ComplexPoint([0.4, -0.2, 0.7], [0.0, 0.0, 0.0])
    assert np.allclose(centroid(z_real), z_real.x, atol=1e-12)
    z1 = ComplexPoint([1.0, 2.0, 0.0], [0.0, 0.0, 1.0])
    assert np.allclose(centroid(z1), np.array([1.0, 2.0, 0.0]) + 1j * np.array([0, 0, 1.0]),
                       atol=1e-6)


def test_linearity(rng):
    y = np.array([0.2, -0.4, 0.9])
    f = gaussian(1.3)
    g = polynomial(3, {(1, 0, 0): 0.3, (0, 0, 2): 1.0})
    alpha, beta = 1.7 - 0.4j, -0.6 + 1.1j
    for n, yy in ((3, y), (4, np.append(y, 0.3))):
        fn = gaussian(1.3) if n == 3 else gaussian(1.3, center=np.zeros(n))
        gn = random_poly_field(rng, n, degree=2)
        lhs = singular_action(fn.scaled(alpha) + gn.scaled(beta), yy, n)
        rhs = alpha * singular_action(fn, yy, n) + beta * singular_action(gn, yy, n)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


def test_regularized_examples_and_convergence():
    y = np.array([0.0, 0.0, 1.0])
    # constant field: I_eps = 1 for every eps (exact cancellation)
    assert regularized_action(constant(1.0), y, 3, 1e-3) == pytest.approx(1.0, abs=2e-3)
    g = gaussian(1.0)
    target = singular_action_r3(g, y).value
    errs = [abs(regularized_action(g, y, 3, eps) - target) for eps in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    y4 = np.array([0.0, 0.0, 0.0, 1.0])
    target4 = singular_action_r4(g, y4)
    errs4 = [abs(regularized_action(g, y4, 4, eps) - target4) for eps in (1e-1, 1e-2, 1e-3)]
    assert errs4[0] > errs4[1] > errs4[2]


def test_regularized_small_a_limit():
    """a -> 0 at fixed eps: I_eps -> fbar#(eps) + eps fbar#_p(eps) / (n-2)."""
    eps = 0.05
    f = gaussian(1.0, center=[0.1, 0.0, 0.0])
    for a in (1e-2, 5e-3):
        y = np.array([0.0, 0.0, a])
        af = _AxialField(f, y, 3)
        # the spheroid's equator: rho = sqrt(a^2 + eps^2), d rho/dp = eps / rho, zeta = 0
        rho = math.hypot(a, eps)
        fbar, slope = af.sample(rho, 0.0, ((eps / rho, 0.0),))
        limit = fbar + eps * slope
        val = regularized_action(f, y, 3, eps)
        assert abs(val - limit) <= 5.0 * a


def test_regularized_smoothness_guard():
    rough = TestField(lambda pts: np.ones(pts.shape[0]), smoothness=0)
    with pytest.raises(InsufficientSmoothnessError):
        regularized_action(rough, np.array([0, 0, 1.0]), 3, 1e-2)


def test_parity_of_parametrized_halves():
    """The sphere means behind the two q-halves of the single layer agree (even in rho)."""
    f = gaussian(1.0, center=[0.3, 0.2, -0.1])
    y = np.array([0.0, 0.0, 1.0])
    af = _AxialField(f, y, 3)
    a = 1.0
    for q in (0.2, 0.5, 0.8):
        rho = math.sqrt(a**2 - q**2)
        g_plus = af.sample(rho, 0.0, ((0.0, 1.0),))[0]
        g_minus = af.sample(-rho, 0.0, ((0.0, 1.0),))[0]
        assert g_plus == pytest.approx(g_minus, abs=1e-12)


def test_support_confined_to_disk():
    """Perturbing the field outside r = a + margin leaves the action unchanged."""
    y = np.array([0.0, 0.0, 1.0])
    base = gaussian(1.0)
    far = bump(0.3, center=[0.0, 1.8, 0.0])  # support disjoint from r <= a + 10h
    v1 = singular_action_r3(base, y).value
    v2 = singular_action_r3(base + far, y).value
    assert abs(v1 - v2) <= 1e-12


def test_descent_identity():
    y = np.array([0.2, -0.3, 0.9])
    for f in (constant(1.0), gaussian(1.5)):
        lhs, rhs = descent_check(f, y)
        assert abs(lhs - rhs) <= 1e-6
    yhat = y / np.linalg.norm(y)
    f_axis = polynomial(3, {(1, 0, 0): yhat[0], (0, 1, 0): yhat[1], (0, 0, 1): yhat[2]})
    lhs, rhs = descent_check(f_axis, y)
    assert lhs == pytest.approx(-1j * np.linalg.norm(y), abs=1e-9)
    assert abs(lhs - rhs) <= 1e-6


@pytest.mark.parametrize("a", [0.5, 0.97, 2.0])
@pytest.mark.parametrize("f", [gaussian(1.5), plane_wave([0.7, -0.4, 0.3])],
                         ids=["gaussian", "plane_wave"])
def test_descent_lift_carries_the_gradient(f, a):
    """The lifted field takes [grad f, 0] on the slab, so the right side has exact
    slopes and meets the left at rounding level (FD slopes left 1e-11)."""
    y = np.array([0.2, -0.3, 0.9])
    lhs, rhs = descent_check(f, a * y / np.linalg.norm(y))
    assert abs(lhs - rhs) <= 1e-13


def test_descent_window_guard():
    with pytest.raises(WindowTooSmallError):
        descent_check(constant(1.0), np.array([0, 0, 1.0]), window=0.5)


def test_descent_chain_higher_dimensions():
    """The descent identity also couples (4 <-> 5) and (5 <-> 6), giving a
    dual route through the general odd/even formulas."""
    y4 = np.array([0.1, -0.2, 0.3, 0.9])
    f4 = gaussian(1.5, center=[0.1, 0.0, 0.0, 0.2])
    lifted5 = TestField(lambda pts: f4.evaluate(pts[:, :4]))
    lhs4 = singular_action_r4(f4, y4)
    rhs5 = singular_action_odd(lifted5, np.append(y4, 0.0), 5)
    assert abs(lhs4 - rhs5) <= 1e-6

    y5 = np.array([0.0, 0.1, -0.2, 0.3, 0.8])
    f5 = gaussian(1.5, center=[0.1, 0.0, 0.0, 0.0, 0.2])
    lifted6 = TestField(lambda pts: f5.evaluate(pts[:, :5]))
    lhs5 = singular_action_odd(f5, y5, 5)
    rhs6 = singular_action_even(lifted6, np.append(y5, 0.0), 6)
    assert abs(lhs5 - rhs6) <= 1e-5


def test_regularized_convergence_n5():
    y5 = np.zeros(5)
    y5[-1] = 1.0
    g5 = gaussian(1.5)
    target = singular_action_odd(g5, y5, 5)
    errs = [abs(regularized_action(g5, y5, 5, eps) - target) for eps in (1e-1, 1e-2, 1e-3)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 5e-3


def test_action_smoothness_guards():
    rough = TestField(lambda pts: np.ones(pts.shape[0]), smoothness=0)
    y = np.array([0.0, 0.0, 1.0])
    with pytest.raises(InsufficientSmoothnessError):
        singular_action_r3(rough, y)
    with pytest.raises(InsufficientSmoothnessError):
        singular_action_odd(rough, np.zeros(5) + np.array([0, 0, 0, 0, 1.0]), 5)


def test_gradient_and_stencil_slopes_agree(rng):
    """Exact-gradient slopes and the FD stencils of a field without one agree."""
    for n in (3, 4, 5, 6):
        f = gaussian(1.3, center=0.2 * rng.normal(size=n))
        stencil_only = dataclasses.replace(f, gradient=None)
        y = rng.normal(size=n)
        y *= 0.9 / np.linalg.norm(y)
        assert singular_action(f, y, n) == pytest.approx(
            singular_action(stencil_only, y, n), abs=1e-8)
        for eps in {3: (1e-1, 1e-2), 4: (1e-1, 1e-2), 5: (1e-1,), 6: ()}[n]:
            assert regularized_action(f, y, n, eps) == pytest.approx(
                regularized_action(stencil_only, y, n, eps), abs=1e-8)


def _counting(f):
    """Copy of f whose evaluator and gradient log the number of points of each call."""
    sizes = {"evaluate": [], "gradient": []}

    def logged(kind, fn):
        def wrapper(pts):
            sizes[kind].append(pts.shape[0])
            return fn(pts)
        return wrapper

    counted = dataclasses.replace(f, evaluator=logged("evaluate", f.evaluator),
                                  gradient=logged("gradient", f.gradient))
    return counted, sizes


def test_descent_lift_takes_each_distinct_point_once(monkeypatch):
    """descent_check's lifted sphere is the S^2 rule (24, 48) in y-perp with the
    lifted axis s as its polar axis, folded onto s >= 0: the lift's evaluator and
    gradient each get the 576 distinct points once (1,152 before the fold), and the
    right side stays within rounding of the unfolded r4 action of the same lift
    (2.8e-14 relative apart)."""
    lift, seen = source._lift, []

    def logged(kind, fn):
        def wrapped(pts):
            seen.append((kind, pts))
            return fn(pts)
        return wrapped

    def logged_lift(f, window):
        lifted = lift(f, window)
        return dataclasses.replace(lifted, evaluator=logged("evaluate", lifted.evaluator),
                                   gradient=logged("gradient", lifted.gradient))

    monkeypatch.setattr(source, "_lift", logged_lift)
    f, y = gaussian(1.5), np.array([0.2, -0.3, 0.9])
    _, rhs = descent_check(f, y)
    assert sorted((kind, pts.shape) for kind, pts in seen) == [("evaluate", (576, 4)),
                                                               ("gradient", (576, 4))]
    for _, pts in seen:
        assert (pts[:, 3] >= 0.0).all() and len(np.unique(pts[:, :3], axis=0)) == 576
    unfolded = singular_action_r4(lift(f, 2.0 * np.linalg.norm(y)), np.append(y, 0.0))
    assert abs(rhs - unfolded) <= 1e-13 * abs(unfolded)


def test_sphere_means_are_batched_and_chunked():
    counted, sizes = _counting(gaussian(1.0, center=[0.3, -0.1, 0.2]))
    singular_action(counted, [0.2, -0.4, 0.9], 3)
    assert 0 < len(sizes["evaluate"]) <= 40
    assert len(sizes["gradient"]) >= 1
    for n in (5, 6):
        counted, sizes = _counting(gaussian(1.3, center=np.full(n, 0.1)))
        y = np.zeros(n)
        y[-1] = 0.8
        singular_action(counted, y, n)
        if n == 5:
            regularized_action(counted, y, 5, 1e-1)
        assert max(sizes["evaluate"] + sizes["gradient"]) <= 4096


def _calls(sizes):
    return {kind: (len(points), sum(points)) for kind, points in sizes.items()}


def test_one_sphere_pass_per_sample():
    """A mean and its slopes come from one evaluator and one gradient call per block
    of nodes; the singular actions add only the rim pass of |f|."""
    counted, sizes = _counting(gaussian(1.3, center=np.full(4, 0.1)))
    singular_action_r4(counted, [0.1, 0.2, 0.9, 0.3])
    assert sizes == {"evaluate": [1152], "gradient": [1152]}   # both directions, one sphere

    counted, sizes = _counting(gaussian(1.3, center=np.full(3, 0.1)))
    # was 9 calls on 16,064 points and 1 on 1,024; the lifted sphere folded takes
    # 576 points, not 1,152 (2,240 and 2,176 points before the fold)
    descent_check(counted, [0.1, 0.2, 0.9])
    assert _calls(sizes) == {"evaluate": (3, 1664), "gradient": (2, 1600)}

    counted, sizes = _counting(gaussian(1.3, center=np.full(3, 0.1)))
    singular_action_r3(counted, [0.1, 0.2, 0.9])
    assert len(sizes["evaluate"]) == len(sizes["gradient"]) + 1

    counted, sizes = _counting(gaussian(1.3, center=np.full(3, 0.1)))
    regularized_action(counted, [0.1, 0.2, 0.9], 3, 1e-2)
    assert _calls(sizes)["evaluate"] == _calls(sizes)["gradient"]


def test_gradient_free_slopes_share_the_centre_values():
    """Without a gradient f is evaluated once per sphere point for all of a node's
    slope directions: singular_action_r4 takes 1,152 x (1 + 2 x 4) = 10,368 points
    for the 4 nodes of SLOPE_FD per direction (14,976 with the 6 nodes of the
    Richardson stencil before it, 16,128 when each direction evaluated the centre
    again), with the means and slopes bit for bit those of one direction at a time."""
    exact = gaussian(1.3, center=np.full(4, 0.1))
    sizes = []
    free = TestField(lambda pts: sizes.append(pts.shape[0]) or exact.evaluator(pts))
    y = np.array([0.1, 0.2, 0.9, 0.3])
    singular_action_r4(free, y)
    assert sum(sizes) == 10_368 and max(sizes) <= MAX_POINTS
    af = _AxialField(free, y, 4)
    fbar, d_rho, d_zeta = af.sample(af.a, 0.0, ((1.0, 0.0), (0.0, 1.0)))
    fbar_rho, d_rho_alone = af.sample(af.a, 0.0, ((1.0, 0.0),))
    fbar_zeta, d_zeta_alone = af.sample(af.a, 0.0, ((0.0, 1.0),))
    assert fbar == fbar_rho == fbar_zeta
    assert (d_rho, d_zeta) == (d_rho_alone, d_zeta_alone)


def test_gradient_free_sample_is_one_pass(monkeypatch):
    """Without a gradient a mean and its slope still take one kernel pass: f at each
    sphere point and at its 4 SLOPE_FD nodes together, at most MAX_POINTS per call.
    All 14 theta-panels at eps = 1e-3 share that pass, as one integrand call.  The
    rule choice's pass, counted apart, takes the three rungs the walk probes (16,
    24 and 32 circle nodes, the lowest kept) together, in one kernel pass."""
    passes, integrand_calls = {"probe": 0, "action": 0}, []
    sizes, where = {"probe": [], "action": []}, ["action"]
    kernel, integrate, fit = source.sphere_sums, source.integrate_interval, _AxialField.fit_rule

    def counted_kernel(*args, **kwargs):
        passes[where[-1]] += 1
        return kernel(*args, **kwargs)

    def counted_integrate(g, lo, hi, **kwargs):
        return integrate(lambda t: integrand_calls.append(1) or g(t), lo, hi, **kwargs)

    def counted_fit(self, *args):
        where.append("probe")
        try:
            return fit(self, *args)
        finally:
            where.pop()

    monkeypatch.setattr(source, "sphere_sums", counted_kernel)
    monkeypatch.setattr(source, "integrate_interval", counted_integrate)
    monkeypatch.setattr(_AxialField, "fit_rule", counted_fit)
    exact = gaussian(1.3, center=np.full(3, 0.1))
    free = TestField(lambda pts: sizes[where[-1]].append(pts.shape[0]) or exact.evaluator(pts))
    value = regularized_action(free, [0.3, 0.0, 0.8], 3, 1e-3)
    # 14, one per panel, before the panels shared a call; 98 before that
    assert passes == {"probe": 1, "action": 1} and len(integrand_calls) == 1
    # 7 probe circles of 16 + 24 + 32 nodes, 9 points each, in one stencil call: its
    # 4,536 points take 2 calls of at most MAX_POINTS (3 calls, one per rung, before)
    assert (len(sizes["probe"]), sum(sizes["probe"])) == (2, 4_536)
    assert max(sizes["probe"]) <= MAX_POINTS
    # 462 circles of 16 nodes, 5 points each; 39 calls on 147,840 points with the
    # unprobed 64-node circle, 56 calls on 206,976 points with the 6-node Richardson
    # stencil before SLOPE_FD
    assert (len(sizes["action"]), sum(sizes["action"])) == (10, 36_960)
    assert max(sizes["action"]) == 4080 <= MAX_POINTS
    assert value == pytest.approx(regularized_action(exact, [0.3, 0.0, 0.8], 3, 1e-3),
                                  abs=1e-13)


def _cubic(n):
    """Re (x_1 + i x_2)^3, harmonic: its action is Re (-i y_1 + y_2)^3 at y."""
    return polynomial(n, {(3,) + (0,) * (n - 1): 1.0, (1, 2) + (0,) * (n - 2): -3.0})


def test_probe_passes_are_counted_apart(monkeypatch):
    """The rule choice takes its first rungs in one sphere pass: on a cubic the two
    lowest, which agree (one pass per rung before).  The action then takes one pass
    per u-panel, plus the rim pass of |f| at even n; at odd n the probe's first
    radius is the rim."""
    passes, where = {"probe": 0, "action": 0}, ["action"]
    kernel, fit = source.sphere_sums, _AxialField.fit_rule

    def counted_kernel(*args, **kwargs):
        passes[where[-1]] += 1
        return kernel(*args, **kwargs)

    def counted_fit(self, *args):
        where.append("probe")
        try:
            return fit(self, *args)
        finally:
            where.pop()

    monkeypatch.setattr(source, "sphere_sums", counted_kernel)
    monkeypatch.setattr(_AxialField, "fit_rule", counted_fit)
    for n, action_passes in ((5, 1), (6, 2)):
        passes.update(probe=0, action=0)
        y = np.zeros(n)
        y[0], y[-1] = 0.6, 0.8
        assert singular_action(_cubic(n), y, n) == pytest.approx(0.216j, abs=1e-13)
        assert passes == {"probe": 1, "action": action_passes}, n


def test_n6_cubic_evaluator_points():
    """Machine-independent cost of an n = 6 action: 340,000 points with the finest
    S^4 rule at its 16 u-nodes and the rim (17 x 20,000); now the probe's 4 x 32 and
    4 x 162 points on the two lowest rungs, which agree, and 17 x 32 with the lowest
    rule, (2, 2, 2, 4)."""
    counted, sizes = _counting(_cubic(6))
    y = np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8])
    assert singular_action(counted, y, 6) == pytest.approx(0.216j, abs=1e-13)
    assert sum(sizes["evaluate"]) == 1_320


def _probed_rungs(monkeypatch):
    """Every rung the source actions' ladder walks probe, in call order."""
    probed, walk = [], source.walk_ladder

    def spy(dim, probe, *args, **kwargs):
        def logged(orders):
            probed.append(orders)
            return probe(orders)

        return walk(dim, logged, *args, **kwargs)

    monkeypatch.setattr(source, "walk_ladder", spy)
    return probed


def test_fit_rule_starts_from_the_fixed_rule(monkeypatch):
    """Each call starts from the rule of SPHERE_ORDER and chooses afresh, and a field
    that vanishes on every probe sphere (here x_1^20 x_n^2 on the spheres about 0 in
    y-perp) keeps that rule, probing no rung above it."""
    y = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    radii = np.sqrt(source.PROBE_U)
    af = _AxialField(_cubic(6), y, 6)
    fixed = af._rule.weights.size
    assert fixed == math.prod(sphere_levels(4))
    af.fit_rule(radii, 0.0, source.U_NODES)
    lowest = af._rule.weights.size
    af.fit_rule(radii, 0.0, source.U_NODES)
    assert af._rule.weights.size == lowest < fixed and af.rule_error == 0.0
    probed = _probed_rungs(monkeypatch)
    af.f = polynomial(6, {(20, 0, 0, 0, 0, 2): 1.0})
    af.fit_rule(radii, 0.0, source.U_NODES)
    assert af._rule.weights.size == fixed and af.rule_error == 0.0
    assert probed == [sphere_levels(4, order) for order in SPHERE_LADDER
                      if order <= SPHERE_ORDER]


@pytest.mark.parametrize("n, field", [(4, "exp(100 x_1 x_n)"), (5, "exp(100 x_1 x_n)"),
                                      (6, "exp(100 x_1 x_n)"), (4, "x_1^20 x_n^2"),
                                      (5, "x_1^20 x_n^2")])
def test_regularized_rule_is_probed_off_the_plane(monkeypatch, n, field):
    """About y = e_n these fields do not separate: on the sphere about zeta y_hat of
    radius rho exp(c x_1 x_n) is exp(c zeta rho omega_1), flat at zeta = 0 and sharp
    at |zeta| near eps, and x_1^20 x_n^2 vanishes at zeta = 0.  Probes on the spheres
    the spheroid's mean takes see that; probes about 0 alone would keep rules off by
    up to 26% (exp, n = 6) and 360% (x_1^20 x_n^2, n = 5) of the action."""
    if field == "x_1^20 x_n^2":
        f = polynomial(n, {(20,) + (0,) * (n - 2) + (2,): 1.0})
    else:
        def ev(pts):
            return np.exp(100.0 * pts[:, 0] * pts[:, -1])

        def grad(pts):
            out = np.zeros_like(pts)
            out[:, 0], out[:, -1] = 100.0 * pts[:, -1], 100.0 * pts[:, 0]
            return out * ev(pts)[:, None]

        f = TestField(ev, gradient=grad, name=field)
    y = np.eye(n)[-1]
    got = _regularized(f, y, n, 0.1)
    want = _forced_fixed(monkeypatch, lambda: _regularized(f, y, n, 0.1).value)
    assert abs(got.value - want) <= 1e-12 * abs(want)
    assert got.err_estimate <= 1e-4 * abs(want)


def _forced_fixed(monkeypatch, act):
    """``act()`` with the rule of SPHERE_ORDER forced: ``fit_rule`` keeps it unprobed,
    and gives a regularized action, which counts no spheres, the means of |f| on
    the probe spheres that its zero-action floor takes."""
    def fixed(self, rho, zeta, spheres=None):
        return None if spheres is not None else self.magnitude(*np.broadcast_arrays(rho, zeta))

    with monkeypatch.context() as patch:
        patch.setattr(_AxialField, "fit_rule", fixed)
        return act()


def _ladder_fields(n):
    f_sharp, _ = _harmonic_exponential(n, 2.5)
    free = TestField(gaussian(1.3, center=np.full(n, 0.1)).evaluator, name="gradient-free")
    # the rim sphere of y below passes 0.93 from the centre: there |f| is about 1e-6
    narrow = gaussian(0.25, center=np.r_[0.55, np.zeros(n - 2), 0.3])
    return {"sharp harmonic": f_sharp, "gradient-free": free, "narrow off-axis": narrow}


@pytest.mark.parametrize("field", ["sharp harmonic", "gradient-free", "narrow off-axis"])
@pytest.mark.parametrize("kind", ["singular", "regularized"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_rule_ladder_matches_the_finest_rule(monkeypatch, n, kind, field):
    """The rule each action picks gives its value with the finest rule within the odd-n
    rim floor, on fewer points where the field is smooth."""
    f = _ladder_fields(n)[field]
    y = np.zeros(n)
    y[0], y[-1] = 0.6, 0.8

    def act():
        sizes = []
        counted = dataclasses.replace(
            f, evaluator=lambda pts: sizes.append(pts.shape[0]) or f.evaluator(pts))
        value = (singular_action(counted, y, n) if kind == "singular"
                 else regularized_action(counted, y, n, 0.3))
        return value, sum(sizes)

    (got, points), (want, finest_points) = act(), _forced_fixed(monkeypatch, act)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    if field == "gradient-free" and (n > 4 or kind == "regularized"):
        assert points < finest_points / 1.5


def test_rule_fallback_joins_the_error_estimate():
    """exp(i k.x), k = 20 (1, i, 0, 0), about y = (0.6, 0, 0, 0, 0.8) at eps = 0.3
    needs more than the top S^3 rule (28, 28, 56): no pair of rungs agrees, and the
    top pair's disagreement (2.6e-8 of the field scale) joins the estimate, which
    then covers the error against the closed form f(-iy), 7.5e-9 relative."""
    f, k = _harmonic_exponential(5, 20j)
    y = np.array([0.6, 0.0, 0.0, 0.0, 0.8])
    act = _regularized(f, y, 5, 0.3)
    want = np.exp(k @ (-1j * y))
    assert abs(act.value - want) <= act.err_estimate <= 1e-6 * abs(want)
    assert abs(act.value - want) >= 1e-9 * abs(want)


def test_regularized_action_climbs_past_order_24():
    """exp(k.x) with k = 20 (i, -1, 0, 0) about y = (0.6, 0, 0, 0.8) at eps = 0.1:
    no pair of S^2 rungs up to (24, 48) agrees (that rule was off by 1.7e-5
    relative), so the walk climbs until one does, and the action is within 1e-9
    relative of the closed form f(-iy)."""
    f, k = _harmonic_exponential(4, 20j)
    y = np.array([0.6, 0.0, 0.0, 0.8])
    act = _regularized(f, y, 4, 0.1)
    want = np.exp(k @ (-1j * y))
    assert abs(act.value - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("gradient", [True, False])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zero_regularized_action_stops_at_rounding(n, gradient):
    """x_1 x_2 about y = 0.6 e_1 + 0.8 e_n has zero means on the spheroid, so the
    panel sums are rounding noise; the halving stops at the floor of the field's
    scale there, with or without a gradient."""
    f = polynomial(n, {(1, 1) + (0,) * (n - 2): 1.0})
    if not gradient:
        f = TestField(f.evaluator, name="gradient-free")
    y = np.zeros(n)
    y[0], y[-1] = 0.6, 0.8
    assert abs(regularized_action(f, y, n, 0.1)) <= 1e-13


def test_gradient_free_sample_shapes():
    """The mean and each pair's slope keep the shape of (rho, zeta), for pairs of
    numbers and of arrays of that shape alike, as with an exact gradient, whose
    values the stencil matches."""
    exact = gaussian(1.3, center=np.full(4, 0.1))
    y = [0.1, 0.2, 0.9, 0.3]
    rho = np.array([[0.5], [0.8], [1.0]])
    pairs = ((1.0, 0.0), (0.0, 1.0), (rho, 1.0 - rho))
    mean, *slopes = _AxialField(TestField(exact.evaluator), y, 4).sample(rho, 0.1, pairs)
    ref_mean, *ref_slopes = _AxialField(exact, y, 4).sample(rho, 0.1, pairs)
    assert mean.shape == (3, 1) and [slope.shape for slope in slopes] == [(3, 1)] * 3
    assert np.allclose(mean, ref_mean, rtol=0.0, atol=1e-15)
    assert np.allclose(slopes, ref_slopes, rtol=0.0, atol=1e-11)


def test_r3_on_several_u_panels(monkeypatch):
    """A narrow off-axis Gaussian splits [0, a^2] into 5 u-panels, so the single
    layer's tail is carried through 1/q^2 on the inner ones."""
    f = gaussian(0.3, center=[0.1, -0.2, 0.05])
    y = np.array([0.6, 0.0, 0.8])
    af = _AxialField(f, y, 3)
    assert len(af.g_panels(af.fit_disk_rule(af.a))) == 5
    act = singular_action_r3(f, y)
    assert act.value == pytest.approx(singular_action_odd(f, y, 3), abs=1e-12)
    with monkeypatch.context() as patch:   # S^1 takes 128 nodes, the order-48 rule's
        patch.setattr(source, "walk_ladder", lambda dim, *args: (
            numerics.sphere_levels(dim, SPHERE_LADDER[-1]), None, 0.0))
        patch.setattr(source, "INTERVAL_ORDER", 24)
        dense = singular_action_r3(f, y).value
    assert act.value == pytest.approx(dense, abs=1e-12)
    assert 0.0 < act.err_estimate <= 1e-11


def test_errors_reach_the_caller():
    calls = []

    def bad_integrand(q):
        calls.append(q)
        raise ValueError("integrand")

    with pytest.raises(ValueError, match="integrand"):
        integrate_interval(bad_integrand, 0.0, 1.0)
    assert len(calls) == 1

    def bad_evaluator(pts):
        raise ValueError("evaluator")

    with pytest.raises(ValueError, match="evaluator"):
        mean_on_sphere(bad_evaluator, np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="evaluator"):
        singular_action(TestField(bad_evaluator), [0.0, 0.0, 1.0], 3)


def _harmonic_exponential(n, s):
    """exp(k.x) with k = (s, i s, 0, ...): k.k = 0, so the field is harmonic and
    its action is f(-iy)."""
    k = np.zeros(n, dtype=complex)
    k[:2] = s, 1j * s

    def ev(pts):
        return np.exp(pts @ k)

    return TestField(ev, gradient=lambda pts: k[None, :] * ev(pts)[:, None],
                     name=f"exp(k.x), s={s}"), k


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n, s, rel", [(5, 1.0, 1e-8), (5, 2.0, 1e-8), (5, 3.0, 1e-8),
                                       (6, 1.0, 1e-9)])
def test_harmonic_exponential_actions(n, s, rel, a):
    f, k = _harmonic_exponential(n, s)
    y = np.zeros(n)
    y[0], y[-1] = 0.6 * a, 0.8 * a
    want = np.exp(k @ (-1j * y))
    assert abs(singular_action(f, y, n) - want) <= rel * max(1.0, abs(want))


def test_larger_sphere_order_resolves_a_sharp_n6_harmonic(monkeypatch):
    """The S^4 rule of SPHERE_ORDER, (10, 10, 10, 20), leaves exp(3 x_1 + 3i x_2)
    about |y| = 2 off by 9e-4 at n = 6, and no pair of rungs up to it agrees; the
    walk climbs to a larger sphere order, which resolves it within 1e-8."""
    f, k = _harmonic_exponential(6, 3.0)
    y = 2.0 * np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8])
    want = np.exp(k @ (-1j * y))
    probed = _probed_rungs(monkeypatch)
    assert abs(singular_action(f, y, 6) - want) < 1e-8
    assert probed[-1][0] > sphere_levels(4)[0]


def _radial_gaussian_n5_oracle(width, a):
    """<delta~, exp(-|x|^2/w^2)> for n = 5 from the closed-form means.

    The sphere means are exactly exp(-beta u) (beta = 1/w^2), so F(u) =
    u exp(-beta u); the Taylor-subtracted V-integrand is summed as a
    series where beta q^2 < 1 and in closed form elsewhere, on a dense
    Gauss-Legendre grid.
    """
    beta = 1.0 / width**2
    ratio = sphere_area(5) / sphere_area(4)
    nodes, weights = roots_legendre(4000)
    q = 0.5 * a * (nodes + 1.0)
    s = q**2
    quotient = np.empty_like(s)
    small = beta * s < 1.0
    ss = s[small]
    quotient[small] = sum(beta**j * ss ** (j - 2) / math.factorial(j) * (a**2 - j / beta)
                          for j in range(2, 40))
    xs, sl = beta * s[~small], s[~small]
    quotient[~small] = a**2 * (np.expm1(xs) - xs) / sl**2 - np.expm1(xs) / sl
    quotient *= math.exp(-beta * a**2)
    v_n = 2.0 * a / ratio * np.dot(0.5 * a * weights, quotient)
    t0 = a**2 * math.exp(-beta * a**2)
    t2 = -math.exp(-beta * a**2) * (1.0 - beta * a**2)
    return v_n - 2.0 / ratio * (t0 / (3.0 * a**2) + t2)


@pytest.mark.parametrize("width, a", [(1.0, 1.0), (0.5, 2.0), (0.2, 2.0), (0.15, 2.0),
                                      (0.1, 2.0)])
def test_radial_gaussian_n5_oracle(width, a):
    """Sharper fields need narrower u-panels near u = 0; the action keeps its relative accuracy."""
    y = np.zeros(5)
    y[-1] = a
    got = singular_action(gaussian(width), y, 5)
    assert got == pytest.approx(_radial_gaussian_n5_oracle(width, a), rel=1e-10)


@pytest.mark.parametrize("width, a", [(1.0, 1.0), (0.7, 2.0), (0.5, 2.0), (0.3, 2.0),
                                      (0.2, 2.0), (0.1, 2.0)])
def test_radial_gaussian_n6_closed_form(width, a):
    """exp(-|x|^2/w^2) has means exp(-beta u), so the n = 6 action is
    (a sqrt(pi)/Gamma(5/2)) D_u^2 [u^{3/2} exp(-beta u)] at u = a^2.  The rim
    value falls to 4e-169 at w = 0.1; the panel about the rim is resolved against it."""
    beta, u, p = 1.0 / width**2, a**2, 1.5
    d2 = math.exp(-beta * u) * (p * (p - 1.0) * u ** (p - 2.0) - 2.0 * p * beta * u ** (p - 1.0)
                                + beta**2 * u**p)
    y = np.zeros(6)
    y[-1] = a
    got = singular_action(gaussian(width), y, 6)
    assert got == pytest.approx(a * math.sqrt(math.pi) / math.gamma(2.5) * d2, rel=1e-10)


def test_unresolved_field_raises_convergence_error():
    """gaussian(0.05) about |y| = 2 needs u-panels narrower than a^2 / 256 at u = 0;
    with u-differences and 96 direct q-samples its n = 3 action was off by 4 %."""
    with pytest.raises(ConvergenceError, match="not resolved on panels of a\\^2 / 2\\^8"):
        singular_action(gaussian(0.05), [0.0, 0.0, 2.0], 3)


def test_r3_error_estimate_covers_the_error():
    y = np.array([0.0, 0.0, 1.0])
    act = singular_action_r3(gaussian(1.0), y)
    assert abs(act.value - GAUSSIAN_R3_ACTION) <= act.err_estimate <= 1e-12


@pytest.mark.parametrize("n, eps_set", [(3, (1e-1, 1e-2, 1e-3)), (4, (1e-1, 1e-2, 1e-3)),
                                        (5, (1e-1, 1e-2)), (6, (1e-1,))])
def test_regularized_error_estimate_covers_the_error(n, eps_set):
    """On a harmonic field I_eps = f(-iy) for every eps, so the whole error is numerical."""
    f, k = _harmonic_exponential(n, 1.0)
    y = np.zeros(n)
    y[0], y[-1] = 0.48, 0.64
    want = np.exp(k @ (-1j * y))
    for eps in eps_set:
        act = _regularized(f, y, n, eps)
        assert act.value == regularized_action(f, y, n, eps)
        assert abs(act.value - want) <= act.err_estimate <= 1e-6 * abs(want), eps


#: ``repr`` of ``_regularized``'s (value, err_estimate), recorded while each theta-panel
#: took its own integrand call: one call per panel set keeps them bit for bit.  The
#: fields are exp(k.x) with k = (1, i, 0, ...) about y = 0.48 e_1 + 0.64 e_n, a
#: gradient-free Gaussian, and k = 20 (1, i, 0), whose theta-panels are halved.  The
#: n = 3 entries but "halving" were recorded again once the n = 3 action probed its
#: circle rule and kept 16 nodes (the unprobed rule had 64); their errors against
#: f(-iy) went from 4.0e-16, 2.4e-15 and 1.1e-13 to 1.3e-15, 1.1e-14 and 2.3e-14.
#: "halving" was recorded again once the omega-slope became one product of the
#: gradients with w * omega: it was ((162754.79141968268+7.899687261669896e-08j),
#: 2.43527885961521e-08), 4.19859e-12 relative from f(-iy), now 4.19924e-12.
PINNED_REGULARIZED = {
    "n3-eps0.1": "((0.8869949227792854-0.46177917554148323j), 8.578673011348653e-15)",
    "n3-eps0.01": "((0.8869949227792949-0.46177917554148057j), 4.139588696843367e-13)",
    "n3-eps0.001": "((0.8869949227793069-0.46177917554148484j), 4.477975216898916e-12)",
    "n4-eps0.1": "((0.8869949227792898-0.46177917554148384j), 1.6085476510109144e-13)",
    "n4-eps0.01": "((0.8869949227796674-0.4617791755416237j), 7.415624930132072e-11)",
    "n4-eps0.001": "((0.8869949228415628-0.4617791755415081j), 7.525052876764928e-09)",
    "n5-eps0.1": "((0.8869949227793595-0.46177917554161657j), 6.9003181727945155e-12)",
    "gradient-free": "((0.3443420254865246-0.0969152659823058j), 3.284513297878031e-12)",
    "halving": "((162754.79141968273+7.940105206216686e-08j), 2.4471054252146358e-08)",
}


@pytest.mark.parametrize("case", sorted(PINNED_REGULARIZED))
def test_regularized_actions_keep_their_bits(case):
    if case == "gradient-free":
        f = TestField(gaussian(1.3, center=np.full(3, 0.1)).evaluator)
        act = _regularized(f, [0.3, 0.0, 0.8], 3, 1e-3)
    elif case == "halving":
        act = _regularized(_harmonic_exponential(3, 20j)[0], [0.6, 0.0, 0.8], 3, 0.1)
    else:
        n, eps = int(case[1]), float(case.split("eps")[1])
        y = np.zeros(n)
        y[0], y[-1] = 0.48, 0.64
        act = _regularized(_harmonic_exponential(n, 1.0)[0], y, n, eps)
    assert repr((act.value, act.err_estimate)) == PINNED_REGULARIZED[case]


#: ``repr`` of actions on a gradient-free Gaussian, whose slopes all come from the
#: SLOPE_FD stencils of ``_AxialField.sample``, recorded while ``sample`` took
#: (drho, dzeta) as two arrays broadcast against the nodes; the regularized entries
#: are (value, err_estimate) of ``_regularized`` at eps = 0.1.  The descent entry's
#: right side was re-recorded when the lifted sphere was folded onto its 576
#: distinct points; it was (0.6019569117554906-0.10033665734392384j).
PINNED_GRADIENT_FREE = {
    "singular-n3": "(0.1891770338015516-0.11173879520941292j)",
    "singular-n4": "(-0.09444387811341526-0.08996616635499269j)",
    "singular-n5": "(-0.31332147816591416-0.07087480253355238j)",
    "singular-n6": "(-0.47604198748874954-0.05421905842188114j)",
    "even-n4": "(-0.09444387811356124-0.08996616635499517j)",
    "even-n6": "(-0.47604198748874954-0.05421905842188114j)",
    "odd-n3": "(0.1891770338015516-0.11173879520944724j)",
    "odd-n5": "(-0.31332147816591416-0.07087480253355238j)",
    "r4": "(-0.06538469084855647-0.0991734663319922j)",
    "descent": "((0.6019569117553752-0.10033665734392554j), "
               "(0.6019569117554915-0.10033665734392383j))",
    "regularized-n4": "((0.005671742301064201-0.08977782763957001j), 4.749683646627519e-13)",
    "regularized-n5": "((-0.14755124366055578-0.07165763368228972j), 1.2869894368746614e-11)",
    "regularized-n6": "((-0.2671755295954113-0.055921157895025775j), 2.2649452150874935e-10)",
}


@pytest.mark.parametrize("case", sorted(PINNED_GRADIENT_FREE))
def test_gradient_free_actions_keep_their_bits(case):
    kind, n = case.rsplit("-n", 1) if "-n" in case else (case, "3")
    n = int(n)
    f = TestField(gaussian(1.3, center=np.full(n, 0.1)).evaluator, name="gradient-free")
    y = np.zeros(n)
    y[0], y[-1] = 0.6, 0.8
    if kind == "singular":
        got = singular_action(f, y, n)
    elif kind == "even":
        got = singular_action_even(f, y, n)
    elif kind == "odd":
        got = singular_action_odd(f, y, n)
    elif kind == "r4":
        got = singular_action_r4(TestField(gaussian(1.3, center=np.full(4, 0.1)).evaluator),
                                 [0.1, 0.2, 0.9, 0.3])
    elif kind == "descent":
        got = descent_check(f, [0.3, 0.2, 0.5])
    else:
        act = _regularized(f, y, n, 0.1)
        got = (act.value, act.err_estimate)
    assert repr(got) == PINNED_GRADIENT_FREE[case]


#: ``repr`` of actions on the Gaussian exp(-|x - 0.1|^2 / 1.69) with its exact gradient
#: about y = 0.6 e_1 + 0.8 e_n (r4 about (0.1, 0.2, 0.9, 0.3), the descent about
#: (0.3, 0.2, 0.5)), and of ``fit_rule``'s kept rung and means of |f| on the
#: regularized action's 7 probe spheres at eps = 0.1, recorded while the omega-slope
#: was summed point by point and each probe rung took its own pass.  The three that
#: take the omega-slope were recorded again once it became one product of the
#: gradients with w * omega: singular-n4 was (-0.0944438781135567-0.08996616635505199j),
#: 3.48e-14 relative from even-n4, now 3.65e-14; r4 (-0.06538469084870024-
#: 0.09917346633206028j), 1.19e-14 from the even-n4 formula, now 4.6e-15; the
#: descent's right side (0.6019569117554042-0.10033665734399329j), 4.75e-14 from its
#: left, now 4.82e-14.
PINNED_EXACT = {
    "singular-n3": "(0.1891770338015516-0.11173879520948748j)",
    "singular-n4": "(-0.09444387811355648-0.08996616635505199j)",
    "singular-n5": "(-0.31332147816591416-0.07087480253299216j)",
    "singular-n6": "(-0.476041987488434-0.054219058421894714j)",
    "even-n4": "(-0.09444387811356124-0.08996616635505221j)",
    "even-n6": "(-0.476041987488434-0.054219058421894714j)",
    "odd-n3": "(0.1891770338015516-0.11173879520948998j)",
    "odd-n5": "(-0.31332147816591416-0.07087480253299216j)",
    "r4": "(-0.06538469084869858-0.09917346633206028j)",
    "descent": "((0.6019569117553752-0.1003366573439932j), "
               "(0.6019569117554047-0.10033665734399329j))",
    "fit-n3": ("((16,), [0.8310820448949103, 0.7193523545611119, 0.6231405162187722, "
               "0.5424223980116868, 0.6335507381814907, 0.736406338622608, "
               "0.8552768520330121])"),
    "fit-n4": ("((6, 12), [0.8264126177817689, 0.7155129053400635, "
               "0.6199897169056432, 0.5398321412654414, 0.630347301430487, "
               "0.7324758659894507, 0.850471486610119])"),
    "fit-n5": ("((5, 5, 10), [0.8216532475476833, 0.7114928240458797, "
               "0.6165935044358271, 0.5369509229726354, 0.6268943516362263, "
               "0.7283604789638237, 0.845573559604629])"),
    "fit-n6": ("((5, 5, 5, 10), [0.8168750835624684, 0.7074153328207903, "
               "0.613111933143485, 0.5339644014172977, 0.6233546170099508, "
               "0.7241863209662923, 0.8406562917164889])"),
}


@pytest.mark.parametrize("case", sorted(PINNED_EXACT))
def test_exact_gradient_actions_keep_their_bits(case):
    kind, n = case.rsplit("-n", 1) if "-n" in case else (case, "3")
    n = int(n)
    f = gaussian(1.3, center=np.full(n, 0.1))
    y = np.zeros(n)
    y[0], y[-1] = 0.6, 0.8
    if kind == "singular":
        got = singular_action(f, y, n)
    elif kind == "even":
        got = singular_action_even(f, y, n)
    elif kind == "odd":
        got = singular_action_odd(f, y, n)
    elif kind == "r4":
        got = singular_action_r4(gaussian(1.3, center=np.full(4, 0.1)), [0.1, 0.2, 0.9, 0.3])
    elif kind == "descent":
        got = descent_check(f, [0.3, 0.2, 0.5])
    else:
        af = _AxialField(f, y, n)
        q = af.a * np.sqrt(1.0 - np.array(source.PROBE_U))
        magnitude = af.fit_rule(*oblate_rho_zeta(0.1, np.unique(np.concatenate([q, -q])), af.a))
        got = (af._rule.orders, magnitude.tolist())
    assert repr(got) == PINNED_EXACT[case]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_folded_omega_slope_is_the_point_sum(rng, n):
    """The omega-slope, one product of a sphere's gradients with the rule's w * omega,
    is within 4 ulps of sum_j w_j sum_d |omega_jd d_d f| of the point-by-point sum
    sum_j w_j omega_j . grad f, for polynomials (real gradients) and exponentials
    (complex ones) on the ladder's lowest rules; and each sphere's is, bit for bit,
    that of the sphere alone."""
    k = rng.normal(size=n) + 1j * rng.normal(size=n)
    fields = [random_poly_field(rng, n),
              TestField(lambda p: np.exp(p @ k), gradient=lambda p: k * np.exp(p @ k)[:, None])]
    rho, zeta = rng.uniform(0.1, 1.5, size=5), rng.uniform(-1.0, 1.0, size=5)
    for f in fields:
        af = _AxialField(f, rng.normal(size=n), n)
        for order in SPHERE_LADDER[:4]:
            af._use_rule(sphere_levels(n - 2, order))
            dirs, w = af._rule.dirs, af._rule.weights
            _, slope = af.sample(rho, zeta, ((1.0, 0.0),))
            for i in range(rho.size):
                terms = (w[:, None] * dirs * f.gradient_at(zeta[i] * af.yhat + rho[i] * dirs)).ravel()
                want = math.fsum(terms.real) + 1j * math.fsum(np.imag(terms))
                scale = np.abs(terms.real).sum() + np.abs(np.imag(terms)).sum()
                assert abs(slope[i] - want) <= 4 * np.finfo(float).eps * scale
                _, alone = af.sample(rho[i], zeta[i], ((1.0, 0.0),))
                assert alone.tobytes() == slope[i].tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_first_probe_rungs_take_one_call(n):
    """The walk always probes its 2 lowest rungs (3 on S^1, where a rung kept needs the
    next two): one sample pass takes them, one evaluator and one gradient call on the
    probe spheres of all of them.  On a cubic the lowest is kept, probed no higher."""
    counted, sizes = _counting(_cubic(n))
    y = np.zeros(n)
    y[0], y[-1] = 0.6, 0.8
    af = _AxialField(counted, y, n)
    af.fit_rule(af.a * np.sqrt(source.PROBE_U), 0.0)
    rungs = [sphere_levels(n - 2, order) for order in SPHERE_LADDER[:3 if n == 3 else 2]]
    points = len(source.PROBE_U) * sum(math.prod(orders) for orders in rungs)
    assert sizes == {"evaluate": [points], "gradient": [points]}
    assert af._rule.orders == rungs[0]


def test_rule_directions_are_built_on_first_use():
    """An n = 6 _AxialField builds no directions (20,000 x 6 on the rule of
    SPHERE_ORDER) before its first pass, nor for the rule a probing walk replaces;
    a pass builds them, and w * omega only once a pair asks for the omega-slope."""
    y = np.zeros(6)
    y[0], y[-1] = 0.6, 0.8
    af = _AxialField(gaussian(1.3, center=np.full(6, 0.1)), y, 6)
    fixed = af._rule
    assert fixed._dirs is None and fixed.weights.size == 20_000
    af.fit_rule(af.a * np.sqrt(source.PROBE_U), 0.0)
    assert af._rule is not fixed and fixed._dirs is None
    af._use_rule(fixed.orders)
    af.sample(af.a, 0.0, ((0.0, 1.0),))
    assert af._rule._dirs.shape == (20_000, 6) and af._rule._fold is None
    af.sample(af.a, 0.0, ((1.0, 0.0),))
    assert af._rule._fold.shape == (20_000, 6)


_F = gaussian(1.0)
_COLUMN = np.full((3, 1), 0.5)


@pytest.mark.parametrize("act, message", [
    (lambda: regularized_action(_F, [0.5] * 4, 3, 0.1), r"shape \(3,\) for n = 3, got shape \(4,\)"),
    (lambda: singular_action_r3(_F, [0.5] * 4), r"shape \(3,\) for n = 3, got shape \(4,\)"),
    (lambda: singular_action_r4(_F, [0.5] * 3), r"shape \(4,\) for n = 4, got shape \(3,\)"),
    (lambda: singular_action_even(_F, [0.5] * 5, 6), r"shape \(6,\) for n = 6, got shape \(5,\)"),
    (lambda: singular_action_odd(_F, [0.5] * 4, 5), r"shape \(5,\) for n = 5, got shape \(4,\)"),
    (lambda: singular_action(_F, 0.5, 3), r"shape \(3,\) for n = 3, got shape \(\)"),
    (lambda: singular_action(_F, 0.5), r"be a 1-D vector, got shape \(\)"),
    (lambda: singular_action(_F, _COLUMN), r"be a 1-D vector, got shape \(3, 1\)"),
    (lambda: singular_action(_F, _COLUMN, 3), r"shape \(3,\) for n = 3, got shape \(3, 1\)"),
    (lambda: regularized_action(_F, _COLUMN, 3, 0.1), r"shape \(3,\) for n = 3, got shape \(3, 1\)"),
    (lambda: moments(3, _COLUMN), r"shape \(3,\) for n = 3, got shape \(3, 1\)"),
    (lambda: descent_check(_F, _COLUMN), r"shape \(3,\) for n = 3, got shape \(3, 1\)"),
])
def test_actions_check_the_axis_shape(act, message):
    """An axis of the wrong shape raises ValueError naming its shape and n; these
    raised numpy's matmul, broadcast and index errors from inside the actions."""
    with pytest.raises(ValueError, match="axis vector y must " + ".*" + message):
        act()


@pytest.mark.parametrize("eps", [1e-3, 0.1, 2.0])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_regularized_action_probes(monkeypatch, n, eps):
    """The first pass of a regularized action takes the 33 theta-nodes' spheres of at
    least two geometric panels (one on each side of theta = 0 once eps / a passes
    pi / 2), 66 spheres, more than one field call holds even on the 64-node circle:
    so the walk always probes, and the probe's means of |f| give the zero-action
    floor its scale."""
    walks, walk = [], source.walk_ladder

    def spy(*args, **kwargs):
        walks.append(walk(*args, **kwargs))
        return walks[-1]

    monkeypatch.setattr(source, "walk_ladder", spy)
    y = np.zeros(n)
    y[0], y[-1] = 0.6, 0.8
    _regularized(_harmonic_exponential(n, 1.0)[0], y, n, eps)
    assert len(walks) == 1
    (orders, payload, _), = walks
    assert payload is not None and payload.shape == (7,) and np.all(payload > 0.0)


def _circle_mode(m):
    """(x_1 + i x_2)^m, harmonic, with its exact gradient: about y = e_3 its action is
    f(-iy) = 0, and on each circle about that axis it is the Fourier mode m."""
    def ev(pts):
        return (pts[:, 0] + 1j * pts[:, 1]) ** m

    def grad(pts):
        d = m * (pts[:, 0] + 1j * pts[:, 1]) ** (m - 1)
        return np.column_stack([d, 1j * d, np.zeros_like(d)])

    return TestField(ev, gradient=grad, name=f"(x_1 + i x_2)^{m}")


@pytest.mark.parametrize("m", [48, 64])
def test_n3_regularized_circle_rule_is_not_aliased(m):
    """An N-node circle rule takes the mode m for a constant where N divides m.  The
    unprobed 64-node circle returned |value| 13.8 for m = 64 (estimate 1.3e-12);
    the rungs of 16 and 24 nodes both alias m = 48, and a walk that kept a circle
    rung on one agreeing pair returned 11.1 for it.  Keeping a rung only when the
    next two agree resolves both."""
    assert abs(regularized_action(_circle_mode(m), [0.0, 0.0, 1.0], 3, 0.1)) <= 1e-12


def test_n3_regularized_keeps_the_16_node_circle(monkeypatch):
    """On the harmonic cubic at n = 3, eps = 0.1 the walk probes circles of 16, 24 and
    32 nodes on the spheroid's 7 probe spheres and keeps 16 nodes for the 6 geometric
    theta-panels' 198 circles: 7 x 72 + 198 x 16 = 3,672 points of f and of its
    gradient, against 198 x 64 = 12,672 on the unprobed 64-node circle."""
    probed = _probed_rungs(monkeypatch)
    counted, sizes = _counting(_cubic(3))
    got = regularized_action(counted, [0.6, 0.0, 0.8], 3, 0.1)
    assert got == pytest.approx(0.216j, abs=1e-13)
    assert probed == [(16,), (24,), (32,)]
    assert sum(sizes["evaluate"]) == sum(sizes["gradient"]) == 3_672


def test_regularized_refines_a_sharp_field(monkeypatch):
    """exp(i k.x) with isotropic k = 20 (1, i, 0) is harmonic; its theta-panels are halved
    until |K - G| reaches rounding, and the action still equals f(-iy)."""
    panels = []

    def counted(g, lo, hi, *args, **kwargs):
        panels.extend(zip(lo, hi))
        return integrate_interval(g, lo, hi, *args, **kwargs)

    monkeypatch.setattr(source, "integrate_interval", counted)
    y = np.array([0.6, 0.0, 0.8])
    regularized_action(constant(1.0), y, 3, 0.1)
    geometric = len(panels)
    panels.clear()
    f, k = _harmonic_exponential(3, 20j)
    got = regularized_action(f, y, 3, 0.1)
    want = np.exp(k @ (-1j * y))
    assert len(panels) > geometric
    assert abs(got - want) <= 1e-9 * abs(want)


def test_regularized_unresolved_field_raises_convergence_error():
    """A radial step has a jump in q that no halving of a theta-panel resolves."""
    step = TestField(lambda pts: (np.sum(pts**2, axis=1) < 0.5).astype(float), name="step")
    with pytest.raises(ConvergenceError, match="theta-panels halved 8 times"):
        regularized_action(step, [0.0, 0.0, 1.0], 3, 0.1)


def test_regularized_nonfinite_estimate_stops_at_once(monkeypatch):
    """A NaN estimate neither passes nor drives the halving: it raises at once."""
    calls = []

    def nan_estimate(g, lo, hi, *args, **kwargs):
        calls.append(len(lo))
        return [IntervalIntegral(1.0 + 0.0j, math.nan) for _ in lo]

    monkeypatch.setattr(source, "integrate_interval", nan_estimate)
    with pytest.raises(NonFiniteIntegrandError):
        regularized_action(gaussian(1.0), [0.0, 0.0, 1.0], 3, 0.1)
    assert calls == [6]     # one call of the geometric panels, none halved
    monkeypatch.undo()
    nan_field = TestField(lambda pts: np.full(pts.shape[0], math.nan))
    with pytest.raises(NonFiniteIntegrandError):
        regularized_action(nan_field, [0.0, 0.0, 1.0], 3, 0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_regularized_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        regularized_action(gaussian(1.0), [0.0, 0.0, 1.0], 3, eps)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_actions_reject_nonfinite_axis(bad):
    for n in (3, 4, 5, 6):
        y = np.zeros(n)
        y[0], y[-1] = bad, 1.0
        with pytest.raises(ValueError, match="axis vector y must be finite"):
            singular_action(gaussian(1.0), y, n)
    with pytest.raises(ValueError, match="axis vector y must be finite"):
        regularized_action(gaussian(1.0), [0.0, bad, 1.0], 3, 0.1)


def test_regularized_q_node_count():
    """Three theta-panels a side of 33 Gauss-Kronrod nodes: 198 q-nodes (dyadic
    panels of G_16 + G_32 took 480)."""
    counted, sizes = _counting(gaussian(1.3))
    y = np.zeros(5)
    y[-1] = 0.8
    regularized_action(counted, y, 5, 0.1)
    q_nodes = sum(sizes["evaluate"]) / sphere_rule(3).nodes.shape[0]
    assert q_nodes <= 200
