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
from cxpt.geometry import ComplexPoint
from cxpt.numerics import (
    MAX_POINTS,
    IntervalIntegral,
    Quadrature,
    integrate_interval,
    mean_on_sphere,
    sphere_area,
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
        fbar, slope = af.sample(rho, 0.0, eps / rho, 0.0)
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
        g_plus = af.sample(rho, 0.0, 0.0, 1.0)[0]
        g_minus = af.sample(-rho, 0.0, 0.0, 1.0)[0]
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
    descent_check(counted, [0.1, 0.2, 0.9])     # was 9 calls on 16,064 points and 1 on 1,024
    assert _calls(sizes) == {"evaluate": (3, 2240), "gradient": (2, 2176)}

    counted, sizes = _counting(gaussian(1.3, center=np.full(3, 0.1)))
    singular_action_r3(counted, [0.1, 0.2, 0.9])
    assert len(sizes["evaluate"]) == len(sizes["gradient"]) + 1

    counted, sizes = _counting(gaussian(1.3, center=np.full(3, 0.1)))
    regularized_action(counted, [0.1, 0.2, 0.9], 3, 1e-2)
    assert _calls(sizes)["evaluate"] == _calls(sizes)["gradient"]


def test_gradient_free_sample_is_one_pass(monkeypatch):
    """Without a gradient a mean and its slope still take one kernel pass: f at each
    sphere point and at its 6 stencil nodes together, at most MAX_POINTS per call."""
    passes, integrand_calls, sizes = [], [], []
    kernel, integrate = source.sphere_sums, source.integrate_interval

    def counted_kernel(*args, **kwargs):
        passes.append(1)
        return kernel(*args, **kwargs)

    def counted_integrate(g, lo, hi, **kwargs):
        return integrate(lambda t: integrand_calls.append(1) or g(t), lo, hi, **kwargs)

    monkeypatch.setattr(source, "sphere_sums", counted_kernel)
    monkeypatch.setattr(source, "integrate_interval", counted_integrate)
    exact = gaussian(1.3, center=np.full(3, 0.1))
    free = TestField(lambda pts: sizes.append(pts.shape[0]) or exact.evaluator(pts))
    value = regularized_action(free, [0.3, 0.0, 0.8], 3, 1e-3)
    assert len(passes) == len(integrand_calls) == 14     # 98 passes before
    assert (len(sizes), sum(sizes)) == (56, 206976)      # 98 calls on the same points before
    assert max(sizes) <= MAX_POINTS
    assert value == pytest.approx(regularized_action(exact, [0.3, 0.0, 0.8], 3, 1e-3),
                                  abs=1e-13)


def test_gradient_free_sample_shapes():
    """The mean keeps the shape of (rho, zeta) and the slope takes that of all four,
    as with an exact gradient, whose values the stencil matches."""
    exact = gaussian(1.3, center=np.full(4, 0.1))
    y = [0.1, 0.2, 0.9, 0.3]
    rho = np.array([[0.5], [0.8], [1.0]])
    dirs = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    mean, slope = _AxialField(TestField(exact.evaluator), y, 4).sample(rho, 0.1, *dirs)
    ref_mean, ref_slope = _AxialField(exact, y, 4).sample(rho, 0.1, *dirs)
    assert mean.shape == (3, 1) and slope.shape == (3, 2)
    assert np.allclose(mean, ref_mean, rtol=0.0, atol=1e-15)
    assert np.allclose(slope, ref_slope, rtol=0.0, atol=1e-11)


def test_r3_on_several_u_panels():
    """A narrow off-axis Gaussian splits [0, a^2] into 5 u-panels, so the single
    layer's tail is carried through 1/q^2 on the inner ones."""
    f = gaussian(0.3, center=[0.1, -0.2, 0.05])
    y = np.array([0.6, 0.0, 0.8])
    assert len(_AxialField(f, y, 3).g_panels()) == 5
    act = singular_action_r3(f, y)
    assert act.value == pytest.approx(singular_action_odd(f, y, 3), abs=1e-12)
    dense = Quadrature(circle_order=128, interval_order=48)
    assert act.value == pytest.approx(singular_action_r3(f, y, dense).value, abs=1e-12)
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


def test_larger_sphere_order_resolves_a_sharp_n6_harmonic():
    """The default S^4 rule (10, 10, 10, 20) leaves exp(3 x_1 + 3i x_2) about
    |y| = 2 off by 9e-4 at n = 6; sphere_order 36, (15, 15, 15, 30), resolves it."""
    f, k = _harmonic_exponential(6, 3.0)
    y = 2.0 * np.array([0.6, 0.0, 0.0, 0.0, 0.0, 0.8])
    want = np.exp(k @ (-1j * y))
    assert abs(singular_action(f, y, 6, Quadrature(sphere_order=36)) - want) < 1e-8


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


def test_regularized_refines_a_sharp_field(monkeypatch):
    """exp(i k.x) with isotropic k = 20 (1, i, 0) is harmonic; its theta-panels are halved
    until |K - G| reaches rounding, and the action still equals f(-iy)."""
    panels = []

    def counted(g, lo, hi, *args, **kwargs):
        panels.append((lo, hi))
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
    panels = []

    def nan_estimate(g, lo, hi, *args, **kwargs):
        panels.append((lo, hi))
        return IntervalIntegral(1.0 + 0.0j, math.nan)

    monkeypatch.setattr(source, "integrate_interval", nan_estimate)
    with pytest.raises(NonFiniteIntegrandError):
        regularized_action(gaussian(1.0), [0.0, 0.0, 1.0], 3, 0.1)
    assert len(panels) == 6     # the geometric panels, none halved
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
