"""Complex distance, branch handling, and the adapted coordinates."""

import cmath
import math

import numpy as np
import pytest

from cxpt.clifford import cauchy_kernel
from cxpt.errors import AmbiguousBranchError, AxisDegenerateError, SingularPointError, YZeroError
from cxpt.fields import gaussian
from cxpt.geometry import (
    ComplexPoint,
    OblateCoords,
    PointClass,
    classify_point,
    complex_distance,
    from_oblate,
    grad_pq,
    jacobian_volume,
    oblate_rho_zeta,
    to_cylindrical,
    to_oblate,
)
from cxpt.geometry import _branch_gamma
from cxpt.potential import holomorphic_potential
from cxpt.numerics import (
    FDScheme,
    fd_gradient,
    fd_laplacian,
    gauss_legendre,
    mean_on_sphere,
    sphere_area,
)


def principal_gamma(x, y):
    """Oracle: principal square root of z.z via cmath."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = complex(x @ x - y @ y, 2.0 * (x @ y))
    return cmath.sqrt(w)


def test_gamma_axis_example():
    d = complex_distance(ComplexPoint([2, 0, 0], [0, 0, 1]))
    assert d.p == pytest.approx(math.sqrt(3.0), abs=1e-14)
    assert d.q == 0.0


def test_gamma_is_finite_for_large_and_tiny_inputs():
    """Squares of entries near 1e300 overflow and near 1e-300 underflow; pytest turns
    numpy's overflow warning into an error, so these pass only without one."""
    d = complex_distance(ComplexPoint([1e300, 0, 0], [0, 0, 1]))
    assert (d.p, d.q) == (1e300, 0.0)
    d = complex_distance(ComplexPoint([3e200, 0, 0], [4e200, 0, 0]))
    assert (d.p, d.q) == (3e200, 4e200)
    d = complex_distance(ComplexPoint([3e-300, 0, 0], [0, 4e-300, 0]))
    assert d.p == 0.0 and d.q == pytest.approx(math.sqrt(7.0) * 1e-300, rel=1e-15)


def test_gamma_reduces_to_r_when_y_zero(rng):
    for _ in range(10):
        x = rng.normal(size=4)
        d = complex_distance(ComplexPoint(x, np.zeros(4)))
        assert d.p == pytest.approx(float(np.linalg.norm(x)), abs=1e-13)
        assert d.q == 0.0


def test_gamma_against_principal_sqrt(rng):
    z = ComplexPoint([0, 0, 1], [0, 0, 1])
    assert complex_distance(z).gamma == pytest.approx(1 + 1j, abs=1e-14)
    for _ in range(50):
        x = rng.normal(size=3)
        y = rng.normal(size=3)
        got = complex_distance(ComplexPoint(x, y)).gamma
        assert got == pytest.approx(principal_gamma(x, y), abs=1e-12)


def test_gamma_on_rim_is_zero():
    z = ComplexPoint([1, 0, 0], [0, 0, 1])
    d = complex_distance(z)
    assert d.p == 0.0 and d.q == 0.0
    assert classify_point(z.x, z.y) is PointClass.ON_RIM


def test_disk_sides():
    z = ComplexPoint([0.5, 0, 0], [0, 0, 1])
    front = complex_distance(z, side=1)
    back = complex_distance(z, side=-1)
    assert front.p == 0.0
    assert front.q == pytest.approx(math.sqrt(1 - 0.25), abs=1e-14)
    assert back.q == -front.q


def test_branch_identities(rng):
    for n in (2, 3, 4, 5):
        for _ in range(250):
            x = rng.normal(size=n) * 2.0
            y = rng.normal(size=n)
            if np.linalg.norm(y) < 1e-6:
                continue
            z = ComplexPoint(x, y)
            d = complex_distance(z)
            scale = max(1.0, z.r**2 + z.a**2)
            assert d.p >= 0.0
            assert abs(d.p**2 - d.q**2 - (z.r**2 - z.a**2)) <= 1e-12 * scale
            assert abs(d.p * d.q - float(x @ y)) <= 1e-12 * scale
            assert abs(d.q) <= z.a + 1e-12


def test_classify_examples():
    assert classify_point([0.5, 0, 0], [0, 0, 1]) is PointClass.ON_DISK_FRONT
    assert classify_point([0.5, 0, 0], [0, 0, 1], side=-1) is PointClass.ON_DISK_BACK
    assert classify_point([1, 0, 0], [0, 0, 1]) is PointClass.ON_RIM
    assert classify_point([0, 0, 3], [0, 0, 1]) is PointClass.AXIS_DEGENERATE
    assert classify_point([1, 1, 1], [0, 0, 0]) is PointClass.Y_ZERO
    assert classify_point([0.3, 0.4, 0.5], [0, 0, 1]) is PointClass.REGULAR


def test_to_oblate_example():
    c = to_oblate([1, 0, 1], [0, 0, 1])
    oracle = cmath.sqrt(1 + 2j)
    assert c.p == pytest.approx(oracle.real, abs=1e-12)
    assert c.q == pytest.approx(oracle.imag, abs=1e-12)
    assert c.p * c.q == pytest.approx(1.0, abs=1e-12)  # p q = a zeta
    assert np.allclose(c.sigma, [1.0, 0.0], atol=1e-12)


def test_oblate_roundtrip(rng):
    for n in (3, 4):
        for _ in range(30):
            x = rng.normal(size=n) * 1.5
            y = rng.normal(size=n)
            if np.linalg.norm(y) < 0.2:
                y[0] += 1.0
            try:
                c = to_oblate(x, y)
            except AxisDegenerateError:
                continue
            back = from_oblate(c, y)
            assert np.max(np.abs(back - x)) <= 1e-10 * max(1.0, np.linalg.norm(x))


def test_from_oblate_degenerate_axis_point():
    # p=2, q=1, a=1 gives rho = 0: the axis point zeta = pq/a = 2
    out = from_oblate(OblateCoords(2.0, 1.0, None), [0, 0, 1])
    assert np.allclose(out, [0, 0, 2.0], atol=1e-12)


def test_from_oblate_disk_front():
    # p=0, q=+sqrt(1-rho^2): front-side disk point at radius rho
    rho = 0.6
    q = math.sqrt(1 - rho**2)
    out = from_oblate(OblateCoords(0.0, q, np.array([1.0, 0.0])), [0, 0, 1])
    assert np.allclose(out, [rho, 0.0, 0.0], atol=1e-12)
    d = complex_distance(ComplexPoint(out, [0, 0, 1]))
    assert d.q == pytest.approx(q, abs=1e-12)


def test_oblate_rho_zeta_arrays_match_points(rng):
    """The vectorized (p, q) -> (rho, zeta) map gives from_oblate's point, node by node."""
    y = np.array([0.0, 0.6, 0.8]) * 1.7
    a = float(np.linalg.norm(y))
    p = rng.uniform(0.0, 2.0, size=20)
    q = rng.uniform(-a, a, size=20)
    q[0] = a * (1.0 + 1e-13)    # rounding past the rim clips rho to 0
    rho, zeta = oblate_rho_zeta(p, q, a)
    assert rho[0] == 0.0
    for pk, qk, rk, zk in zip(p[1:], q[1:], rho[1:], zeta[1:]):
        cyl = to_cylindrical(from_oblate(OblateCoords(pk, qk, np.array([1.0, 0.0])), y), y)
        assert cyl.rho == pytest.approx(rk, rel=1e-12)
        assert cyl.zeta == pytest.approx(zk, abs=1e-12)


def test_oblate_errors():
    with pytest.raises(YZeroError):
        to_oblate([1, 0, 0], [0, 0, 0])
    with pytest.raises(AxisDegenerateError):
        to_oblate([0, 0, 2.0], [0, 0, 1])
    with pytest.raises(AxisDegenerateError):
        from_oblate(OblateCoords(1.0, 0.5, None), [0, 0, 1])


def test_jacobian_examples():
    assert jacobian_volume(1.0, 0.5, 1.0, 3) == pytest.approx(2 * math.pi * 1.25)
    assert jacobian_volume(0.0, 0.0, 1.0, 3) == 0.0
    assert jacobian_volume(0.0, 0.0, 1.0, 4) == 0.0


def test_grad_pq_example_and_identities(rng):
    gp, gq = grad_pq([2, 0, 0], [0, 0, 1])
    assert np.allclose(gp, [2 / math.sqrt(3), 0, 0], atol=1e-12)
    scheme = FDScheme(h=1e-4, order=4, richardson=True)
    for _ in range(100):
        x = rng.normal(size=3) * 1.5
        y = rng.normal(size=3)
        d = complex_distance(ComplexPoint(x, y))
        if d.p < 0.3 or np.linalg.norm(y) < 0.3:
            continue
        gp, gq = grad_pq(x, y)
        assert abs(float(gp @ gq)) <= 1e-10
        assert float(gp @ gp - gq @ gq) == pytest.approx(1.0, abs=1e-10)
        # FD cross-check of the closed forms
        gp_fd = np.real(fd_gradient(lambda p: complex_distance(ComplexPoint(p, y)).p,
                                    x, scheme))
        assert np.max(np.abs(gp_fd - gp)) <= 1e-8


def test_grad_singular_raises():
    with pytest.raises(SingularPointError):
        grad_pq([1, 0, 0], [0, 0, 1])


def test_gradient_magnitude_and_laplacian_identities(rng):
    scheme = FDScheme(h=1e-3, order=4, richardson=True)
    for n in (3, 4):
        count = 0
        while count < 20:
            x = rng.normal(size=n) * 1.5
            y = rng.normal(size=n)
            a = float(np.linalg.norm(y))
            if a < 0.4:
                continue
            d = complex_distance(ComplexPoint(x, y))
            if d.p < 0.4:
                continue
            count += 1
            denom = d.p**2 + d.q**2

            def p_of(pt):
                return complex_distance(ComplexPoint(pt, y)).p

            def q_of(pt):
                return complex_distance(ComplexPoint(pt, y)).q

            gp = np.real(fd_gradient(p_of, x, scheme))
            gq = np.real(fd_gradient(q_of, x, scheme))
            assert float(gp @ gp) == pytest.approx((a**2 + d.p**2) / denom, abs=1e-8)
            assert float(gq @ gq) == pytest.approx((a**2 - d.q**2) / denom, abs=1e-8)
            lap_p = np.real(fd_laplacian(p_of, x, scheme))
            lap_q = np.real(fd_laplacian(q_of, x, scheme))
            ref = max(1.0, abs(d.p / denom))
            assert abs(lap_p - (n - 1) * d.p / denom) / ref <= 1e-6
            assert abs(lap_q + (n - 1) * d.q / denom) / ref <= 1e-6


def test_level_sets(rng):
    # fixed p: oblate spheroid rho^2/(a^2+p^2) + zeta^2/p^2 = 1
    # fixed q: one-sheet hyperboloid rho^2/(a^2-q^2) - zeta^2/q^2 = 1
    y = np.array([0.0, 0.5, 1.2])
    a = float(np.linalg.norm(y))
    for _ in range(20):
        p = float(rng.uniform(0.2, 2.0))
        q = float(rng.uniform(-0.9, 0.9)) * a
        sig = rng.normal(size=2)
        sig /= np.linalg.norm(sig)
        x = from_oblate(OblateCoords(p, q, sig), y)
        cyl = to_cylindrical(x, y)
        if q != 0.0:
            hyp = cyl.rho**2 / (a**2 - q**2) - cyl.zeta**2 / q**2
            assert hyp == pytest.approx(1.0, abs=1e-10)
        sph = cyl.rho**2 / (a**2 + p**2) + cyl.zeta**2 / p**2
        assert sph == pytest.approx(1.0, abs=1e-10)


def test_volume_identity_oblate_vs_cartesian():
    """Integrating a smooth localized function in both coordinate systems.

    The probe is an off-center Gaussian, whose Cartesian integral is the
    translation-invariant closed form (w sqrt(pi))^n.
    """
    width = 1.2
    for n in (3, 4):
        y = np.zeros(n)
        y[-1] = 1.0
        a = 1.0
        center = np.zeros(n)
        center[0] = 0.25
        center[-1] = -0.3
        g = gaussian(width, center=center)
        cart = (width * math.sqrt(math.pi)) ** n

        # Oblate: int dp dq jacobian * (normalized sigma-mean of g).  The
        # jacobian's (a^2 - q^2)^{(n-3)/2} endpoint factor goes into a
        # Gauss-Jacobi weight so the remaining q-integrand is smooth.
        from scipy.special import roots_jacobi

        nu = (n - 3) / 2.0
        leg_p = gauss_legendre(48)
        xi, wxi = roots_jacobi(24, nu, nu)
        pmax = 9.0
        p_nodes = 0.5 * pmax * (leg_p.nodes + 1.0)
        p_wts = 0.5 * pmax * leg_p.weights
        q_nodes = a * xi
        q_wts = a ** (2 * nu + 1) * wxi
        total = 0.0
        for p, wp in zip(p_nodes, p_wts):
            for q, wq in zip(q_nodes, q_wts):
                rho = math.sqrt((a**2 + p**2) * (a**2 - q**2)) / a
                zeta = p * q / a
                mean = mean_on_sphere(g, zeta * y / a, rho, sphere_dim=n - 2, axis=y)
                smooth_jac = jacobian_volume(p, q, a, n) / (a**2 - q**2) ** nu
                total += wp * wq * smooth_jac * float(np.real(mean))
        assert abs(total - cart) / abs(cart) <= 1e-6


def test_point_struct_helpers():
    z = ComplexPoint([1, 2, 3], [0, 0, 1])
    assert z.n == 3
    assert z.r == pytest.approx(math.sqrt(14))
    assert z.a == 1.0
    assert np.allclose((-z).x, [-1, -2, -3])
    with pytest.raises(ValueError):
        ComplexPoint([1, 2], [1, 2, 3])


def test_sphere_area_in_jacobian():
    # n=3 jacobian uses omega_2 = 2 pi
    assert jacobian_volume(1.0, 0.0, 2.0, 3) == pytest.approx(sphere_area(2) / 2.0)


def test_branch_gamma_refuses_the_singular_set():
    """The one branch-checked gamma: the rim raises, an odd-n disk point needs a
    side, even n takes it (gamma^{2-n} is single valued there), and side picks the sheet."""
    with pytest.raises(SingularPointError):
        _branch_gamma(ComplexPoint([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]), 3)
    disk = ComplexPoint([0.6, 0.0, 0.0], [0.0, 0.0, 1.0])
    with pytest.raises(AmbiguousBranchError):
        _branch_gamma(disk, 3)
    assert _branch_gamma(disk, 3, side=1) == pytest.approx(0.8j, abs=1e-15)
    assert _branch_gamma(disk, 3, side=-1) == pytest.approx(-0.8j, abs=1e-15)
    disk4 = ComplexPoint([0.6, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0])
    assert _branch_gamma(disk4, 4) == _branch_gamma(disk4, 4, side=1)
    assert _branch_gamma(disk4, 4) == pytest.approx(0.8j, abs=1e-15)


@pytest.mark.parametrize("kind", ["potential", "kernel"])
def test_potential_and_kernel_share_the_branch_rules(kind):
    """holomorphic_potential and cauchy_kernel raise alike and take side's sheet."""
    def value(z, side=None):
        if kind == "potential":
            return holomorphic_potential(z, z.n, side=side)
        return cauchy_kernel(z, side=side).coeffs

    with pytest.raises(SingularPointError):
        value(ComplexPoint([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]))
    disk = ComplexPoint([0.6, 0.0, 0.0], [0.0, 0.0, 1.0])
    with pytest.raises(AmbiguousBranchError):
        value(disk)
    value(ComplexPoint([0.6, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]))
    # gamma = +-0.8i on the two sheets, and both gamma^-1 and gamma^-3 change sign
    assert np.allclose(value(disk, side=-1), -value(disk, side=1), rtol=1e-14, atol=0.0)
