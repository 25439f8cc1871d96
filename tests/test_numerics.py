"""Quadrature and finite-difference kernels against closed-form oracles."""

import ast
import math
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import roots_jacobi

from cxpt.errors import (
    InvalidRadiusError,
    NonFiniteIntegrandError,
)
from cxpt.fields import constant, cosine_wave, gaussian, plane_wave, polynomial
from cxpt.numerics import (
    INTERVAL_ORDER,
    MAX_POINTS,
    SLOPE_FD,
    SPHERE_LADDER,
    SPHERE_ORDER,
    U_ROUNDING,
    _gauss,
    _jacobi_recurrence,
    FDScheme,
    IntervalIntegral,
    circle_rule,
    derivative,
    fd_stencil,
    gauss_kronrod,
    gauss_legendre,
    integrate_interval,
    mean_on_sphere,
    orthonormal_complement_frame,
    point_values,
    sphere_area,
    sphere_levels,
    sphere_rule,
    sphere_sums,
    walk_ladder,
)

E_MINUS_1 = math.e - 1.0  # closed-form antiderivative of exp on [0, 1]


def test_interval_constant_exact():
    val, err = integrate_interval(lambda q: 1.0 + 0.0j, -1.0, 1.0, order=8)
    assert val == pytest.approx(2.0, abs=1e-14)


def test_interval_quadratic_exact():
    val, _ = integrate_interval(lambda q: q**2, 0.0, 1.0, order=8)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_interval_exponential():
    val, err = integrate_interval(lambda q: np.exp(q), 0.0, 1.0, order=16)
    assert abs(val - E_MINUS_1) <= 1e-12
    assert err <= 1e-12


def test_interval_nonfinite_raises():
    with pytest.raises(NonFiniteIntegrandError):
        integrate_interval(lambda q: np.inf * np.ones_like(np.atleast_1d(q)), 0.0, 1.0)


def test_gauss_legendre_polynomial_exactness():
    # order m integrates degree <= 2m-1 exactly
    for m in (4, 8, 12):
        rule = gauss_legendre(m)
        for deg in range(2 * m):
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            got = float(rule.weights @ rule.nodes**deg)
            assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


@pytest.mark.parametrize("order", [4, 7, 8, 16, 32])
def test_gauss_kronrod_nests_gauss_legendre(order):
    rule, gauss = gauss_kronrod(order), gauss_legendre(order)
    assert rule.nodes.shape == (2 * order + 1,)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.abs(rule.nodes[1::2] - gauss.nodes).max() <= 1e-15
    assert np.abs(rule.gauss_weights[1::2] - gauss.weights).max() <= 1e-14
    assert np.all(rule.gauss_weights[::2] == 0.0)
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("order", [4, 7, 8, 16, 32])
def test_gauss_kronrod_polynomial_exactness(order):
    rule = gauss_kronrod(order)
    for deg in range(3 * order + 2):
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        assert abs(rule.weights @ rule.nodes**deg - exact) <= 1e-14, deg


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_gauss_jacobi_matches_scipy(alpha):
    """The in-house Gauss-Jacobi rules of (1 - x^2)^alpha against SciPy's, N = 1..64.

    Weights are normalized to sum 1 and compared as vectors: SciPy's
    smallest weights are themselves off by up to 3e-12 relative at these
    orders, so an elementwise comparison would measure SciPy.
    """
    for order in range(1, 65):
        nodes, weights = _gauss(*_jacobi_recurrence(alpha, order), order)
        ref_nodes, ref_weights = roots_jacobi(order, alpha, alpha)
        assert weights.sum() == pytest.approx(ref_weights.sum(), rel=1e-14)  # the mass b_0
        weights, ref_weights = weights / weights.sum(), ref_weights / ref_weights.sum()
        assert np.array_equal(nodes, -nodes[::-1])
        assert np.abs(nodes - ref_nodes).max() <= 1e-15, order
        assert (np.linalg.norm(weights - ref_weights)
                <= 1e-13 * np.linalg.norm(ref_weights)), order
        for k in range(order):
            # E[x^{2k}] of the normalized weight: prod_{j<k} (j + 1/2) / (j + alpha + 3/2)
            exact = math.prod((j + 0.5) / (j + alpha + 1.5) for j in range(k))
            assert abs(weights @ nodes ** (2 * k) - exact) <= 2e-15, (order, k)


@pytest.mark.parametrize("orders", [(0, 8), (-2, 8), (2.5, 8), (6, 0, 12), (6, 1.5, 12)])
def test_sphere_rule_rejects_bad_polar_orders(orders):
    with pytest.raises(ValueError):
        sphere_rule(len(orders), orders)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pad is glibc's")
def test_import_pads_the_heap():
    """After ``import cxpt``, freed 320 KB arrays are reused, not faulted in again.

    Without the pad, glibc maps or trims such arrays afresh: this loop
    costs about 124,000 minor page faults.
    """
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH"))
                                          if p))
    probe = (
        "import resource, numpy as np, cxpt\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(1000):\n"
        "    a = np.ones(20_000, complex); b = a * 2.0; del a, b\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert int(done.stdout) < 10_000


def test_interval_one_call_on_kronrod_nodes():
    """One integrand call on the 2N+1 nodes; the estimate is |K - G| on the same values."""
    calls = []

    def g(q):
        calls.append(q.size)
        return q**40

    val, err = integrate_interval(g, 0.0, 1.0, order=8)
    assert calls == [17]
    assert val == pytest.approx(1.0 / 41.0, rel=1e-3)   # beyond K's degree 25
    rule = gauss_kronrod(8)
    x = 0.5 * (rule.nodes + 1.0)
    assert err == pytest.approx(abs(0.5 * ((rule.weights - rule.gauss_weights) @ x**40)),
                                rel=1e-12)


#: Panels of mixed widths and signs, a tiny one and a wide one among them.
PANELS = ([-1.3, -0.2, 0.0, 0.7, 1e-6, 2.5], [-0.4, -0.05, 0.7, 3.0, 2e-6, 2.5000001])


@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("g", [lambda q: np.exp(-q**2) * np.cos(7.0 * q),
                               lambda q: np.exp(5j * q) / (0.1 + 1j * q) ** 2],
                         ids=["real", "complex"])
def test_interval_panels_match_one_panel_calls(order, g):
    """A panel set takes one integrand call, on every panel's nodes in turn, and each
    panel's value and estimate are, bit for bit, those of a call with it alone."""
    seen = []

    def recorded(q):
        seen.append(q.copy())
        return g(q)

    lo, hi = PANELS
    parts = integrate_interval(recorded, np.array(lo), np.array(hi), order=order)
    assert len(seen) == 1 and seen[0].shape == (len(lo) * (2 * order + 1),)
    batch_nodes = seen.pop()
    alone = [integrate_interval(recorded, l, h, order=order) for l, h in zip(lo, hi)]
    assert np.array_equal(batch_nodes, np.concatenate(seen))
    assert repr(parts) == repr(alone)


def test_interval_nonfinite_names_the_first_bad_panel():
    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5, 2.5])
    with pytest.raises(NonFiniteIntegrandError, match=r"on \[1\.0, 1\.5\]$"):
        integrate_interval(lambda q: np.where(q > 1.0, np.inf, q), lo, hi)


def test_interval_scalar_call_keeps_its_types():
    """Numbers give one IntervalIntegral of a complex and a float; arrays, a list."""
    for lo, hi in ((0.0, 1.0), (0, 1), (np.float64(0.0), np.float64(1.0))):
        part = integrate_interval(np.exp, lo, hi)
        assert type(part) is IntervalIntegral
        assert (type(part.value), type(part.error)) == (complex, float)
    (one,) = integrate_interval(np.exp, np.array([0.0]), np.array([1.0]))
    assert repr(one) == repr(part)
    assert (type(one.value), type(one.error)) == (complex, float)


def test_interval_panels_reject_bad_ends():
    with pytest.raises(ValueError, match="equal-length 1-D arrays"):
        integrate_interval(np.exp, np.zeros(2), np.ones(3))
    with pytest.raises(ValueError, match="equal-length 1-D arrays"):
        integrate_interval(np.exp, np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(ValueError, match=r"lo < hi, got \[1\.0, 1\.0\]"):
        integrate_interval(np.exp, np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_rule_weight_sums():
    assert gauss_legendre(10).weights.sum() == pytest.approx(2.0, abs=1e-14)
    for dim in (1, 2, 3, 4):
        assert sphere_rule(dim).weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.linalg.norm(sphere_rule(dim).nodes, axis=1), 1.0)


def test_trapezoid_spectral_convergence():
    # smooth periodic integrand: doubling the nodes gains >= 100x until the floor
    from scipy.special import iv

    def mean_with(order):
        rule = circle_rule(order)
        return float(rule.weights @ np.exp(rule.nodes[:, 0]))  # exp(cos theta)

    exact = float(iv(0, 1.0))  # circle mean of exp(cos theta)
    errs = [abs(mean_with(m) - exact) for m in (4, 8, 16, 32)]
    for a, b in zip(errs, errs[1:]):
        if a > 1e-12:
            assert b <= a / 100.0 or b <= 1e-12


def test_mean_constant_any_sphere():
    for dim, n in ((1, 3), (2, 3), (2, 4), (3, 5)):
        center = np.linspace(0.0, 1.0, n)
        axis = np.zeros(n)
        axis[-1] = 1.0
        kwargs = {"axis": axis} if dim == n - 2 else {}
        val = mean_on_sphere(lambda pts: np.full(pts.shape[0], 3.25), center, 0.7,
                             sphere_dim=dim, **kwargs)
        assert val == pytest.approx(3.25, abs=1e-12)


def test_mean_linear_is_center_value():
    f = polynomial(3, {(1, 0, 0): 2.0, (0, 1, 0): -1.0, (0, 0, 1): 0.5})
    center = np.array([0.4, -0.3, 0.9])
    val = mean_on_sphere(f, center, 1.3)
    assert val == pytest.approx(complex(f.evaluate(center)), abs=1e-12)


def test_mean_plane_wave_sinc():
    # mean of cos(k.x) over the full sphere of radius t in R^3 is sin(|k|t)/(|k|t)
    k = np.array([0.0, 1.0, 0.0])
    for t in (0.3, 1.0, 2.4):
        val = mean_on_sphere(cosine_wave(k), np.zeros(3), t)
        assert val == pytest.approx(math.sin(t) / t, abs=1e-12)


def test_mean_odd_function_cancels(rng):
    f = polynomial(3, {(1, 0, 0): 1.0, (0, 3, 0): 2.0, (1, 1, 1): -0.7})
    for _ in range(5):
        c = rng.normal(size=3)
        shifted = f.shifted(-c)  # odd about the center c
        val = mean_on_sphere(lambda pts: shifted.evaluate(pts) - shifted.evaluate(2 * c - pts),
                             c, 0.9)
        assert abs(val) <= 1e-12


def test_mean_negative_radius_raises():
    with pytest.raises(InvalidRadiusError):
        mean_on_sphere(lambda pts: np.ones(pts.shape[0]), np.zeros(3), -0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mean_refuses_non_finite_arguments(bad):
    """A non-finite centre or radius is named in a ValueError, not turned into NaN, a
    mean of 1 - 4e-16 (NaN radius) or a RuntimeWarning (infinite radius)."""
    with pytest.raises(ValueError, match="^center must be finite"):
        mean_on_sphere(constant(1.0), np.array([0.0, bad, 0.0]), 0.5)
    with pytest.raises(ValueError, match="^radius must be finite"):
        mean_on_sphere(constant(1.0), np.zeros(3), bad)


def test_rule_defaults_are_the_fixed_orders():
    """integrate_interval's default rule is the Gauss-Kronrod rule of INTERVAL_ORDER,
    16, and sphere_rule's default orders are those of SPHERE_ORDER."""
    assert INTERVAL_ORDER == 16
    default = integrate_interval(np.exp, 0.0, 1.0)
    assert default == integrate_interval(np.exp, 0.0, 1.0, order=INTERVAL_ORDER)
    assert default != integrate_interval(np.exp, 0.0, 1.0, order=8)
    expected = {1: (64,), 2: (24, 48), 3: (14, 14, 28), 4: (10, 10, 10, 20)}
    for dim in range(1, 5):
        orders = sphere_levels(dim)
        assert orders == expected[dim]
        default, explicit = sphere_rule(dim), sphere_rule(dim, orders)
        assert np.array_equal(default.nodes, explicit.nodes)
        assert np.array_equal(default.weights, explicit.weights)


def test_ladder_keeps_the_old_rungs_up_to_the_fixed_order():
    """Up to SPHERE_ORDER the ladder's rungs are those of the ladder that sphere order
    24 used to set (its eighths 2 to 7, then 24 itself); above it they climb on,
    each rung a larger rule than the one below."""
    old = {
        2: [(6, 12), (9, 18), (12, 24), (15, 30), (18, 36), (21, 42), (24, 48)],
        3: [(3, 3, 6), (5, 5, 10), (7, 7, 14), (8, 8, 16), (10, 10, 20), (12, 12, 24),
            (14, 14, 28)],
        4: [(2, 2, 2, 4), (3, 3, 3, 6), (5, 5, 5, 10), (6, 6, 6, 12), (7, 7, 7, 14),
            (8, 8, 8, 16), (10, 10, 10, 20)],
    }
    for dim, rungs in old.items():
        ladder = [sphere_levels(dim, order) for order in SPHERE_LADDER]
        assert ladder[:len(rungs)] == rungs and ladder[len(rungs) - 1] == sphere_levels(dim)
        assert all(math.prod(a) < math.prod(b) for a, b in zip(ladder, ladder[1:]))
    assert SPHERE_LADDER.index(SPHERE_ORDER) == 6 and SPHERE_LADDER[-1] == 48


def _ladder_probe(values, size=1.0):
    """A probe whose sums on the i-th rung it is asked for are values[i]; its payload
    is the rung's orders.  Returns the probe and the list of rungs it took."""
    probed = []

    def probe(orders):
        probed.append(orders)
        return np.array([[values[len(probed) - 1]]]), size, orders

    return probe, probed


def test_walk_ladder_keeps_the_first_agreeing_pair():
    """Rungs 3 and 4 agree: the walk keeps the lower rung 3 with the payload of
    that rung's probe, and probes no rung above 4."""
    values = [1.0, 0.5, 0.3, 0.2, 0.2 + 0.5 * U_ROUNDING] + [0.0] * 6
    ladder = [sphere_levels(2, order) for order in SPHERE_LADDER]
    probe, probed = _ladder_probe(values)
    assert walk_ladder(2, probe) == (ladder[3], ladder[3], 0.0)
    assert probed == ladder[:5]


def test_walk_ladder_climbs_to_the_top_and_reports_the_gap():
    """No pair agrees: the walk probes every rung and keeps the top one, with the
    top pair's disagreement in units of the largest size or |sum| probed."""
    values = [(-1.0) ** i * 0.1 for i in range(len(SPHERE_LADDER))]
    probe, probed = _ladder_probe(values, size=2.0)
    top = sphere_levels(3, SPHERE_LADDER[-1])
    assert walk_ladder(3, probe) == (top, top, pytest.approx(0.1))
    assert len(probed) == len(SPHERE_LADDER)


def test_walk_ladder_stops_at_the_fixed_rule_on_a_zero_field():
    """A field whose sums and size are 0 on every probe keeps the rule of
    SPHERE_ORDER, with no disagreement, and no rung above it is probed."""
    probe, probed = _ladder_probe([0.0] * len(SPHERE_LADDER), size=0.0)
    assert walk_ladder(4, probe) == (sphere_levels(4), sphere_levels(4), 0.0)
    assert probed[-1] == sphere_levels(4) and len(probed) == 7


def test_walk_ladder_keeps_the_fixed_rule_unprobed_where_it_fits():
    """Told how many spheres its caller samples, the walk keeps the rule of
    SPHERE_ORDER without a probe, with a payload of None, when that many of its
    spheres fit in one MAX_POINTS call (3 of 1,152 nodes on S^2), and walks from
    one sphere more; without a count it always walks."""
    values = [1.0, 0.5, 0.3, 0.2, 0.2] + [0.0] * 6
    fits = MAX_POINTS // math.prod(sphere_levels(2))
    assert fits == 3
    probe, probed = _ladder_probe(values)
    assert walk_ladder(2, probe, spheres=fits) == (sphere_levels(2), None, 0.0)
    assert probed == []
    kept = sphere_levels(2, SPHERE_LADDER[3])
    for spheres in (fits + 1, None):
        probe, probed = _ladder_probe(values)
        assert walk_ladder(2, probe, spheres=spheres) == (kept, kept, 0.0)
        assert len(probed) == 5


def test_walk_ladder_keeps_a_circle_rung_that_the_next_two_agree_with():
    """Equispaced circle rules alias shared modes: 16 and 24 nodes both take the
    mode 48 for a constant, so on S^1 a rung is kept only when the next two rungs
    agree with it.  Here rungs 0 and 1 agree and rung 2 does not, so the walk goes
    on to keep rung 2, which rungs 3 and 4 agree with.  On S^2 the first agreeing
    pair is kept."""
    values = [0.5, 0.5, 0.2, 0.2, 0.2 + 0.5 * U_ROUNDING] + [0.0] * 6
    circle = [sphere_levels(1, order) for order in SPHERE_LADDER]
    probe, probed = _ladder_probe(values)
    assert walk_ladder(1, probe) == (circle[2], circle[2], 0.0)
    assert probed == circle[:5]
    probe, probed = _ladder_probe(values)
    assert walk_ladder(2, probe) == (sphere_levels(2, SPHERE_LADDER[0]),) * 2 + (0.0,)
    assert len(probed) == 2


def test_walk_ladder_on_the_circle_reports_the_last_check():
    """No circle rung has two agreeing rungs above it, though the top pair agrees:
    the walk keeps the top rung and reports the largest disagreement of the last
    rung checked, the third from the top, with the two above it."""
    values = [(-1.0) ** ((i + 1) // 2) * 0.1 for i in range(len(SPHERE_LADDER))]
    assert values[-1] == values[-2] != values[-3]
    probe, probed = _ladder_probe(values, size=2.0)
    top = sphere_levels(1, SPHERE_LADDER[-1])
    assert walk_ladder(1, probe) == (top, top, pytest.approx(0.1))
    assert len(probed) == len(SPHERE_LADDER)


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_sphere_sums_matches_direct_means(rng, dim):
    """One multi-radius kernel call equals per-radius weights @ f(center + r nodes)."""
    rule = sphere_rule(dim)
    n = dim + 1
    k = rng.normal(size=n)
    radii = np.array([0.0, 0.05, 0.3, 0.3, 1.2, 2.0, 0.7])
    centers = rng.normal(size=(radii.size, n))
    sizes = []

    def scalar(pts):
        sizes.append(pts.shape[0])
        return np.exp(1j * pts @ k) + pts[:, 0] ** 2

    def rows(pts):
        sizes.append(pts.shape[0])
        return np.column_stack([np.exp(1j * pts @ k), pts[:, -1], np.cos(pts @ k) * pts[:, 0]])

    for fn in (scalar, rows):
        for c in (centers, centers[0]):
            got = sphere_sums(point_values(fn), c, radii, rule.nodes, rule.weights)
            assert max(sizes) <= MAX_POINTS
            cs = np.broadcast_to(c, centers.shape)
            want = np.array([np.tensordot(rule.weights, fn(ci + r * rule.nodes), axes=1)
                             for ci, r in zip(cs, radii)])
            assert got.shape == want.shape
            # the 20,000-node S^4 rule is summed in slices of at most MAX_POINTS,
            # so its sums differ from one dot product by ~sqrt(m) eps, not eps
            tol = 1e-14 if rule.weights.size <= MAX_POINTS else 1e-13
            assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))
            sizes.clear()


@pytest.mark.parametrize("max_points", [MAX_POINTS, 500])
def test_sphere_sums_weight_matrix_matches_columns(rng, max_points):
    """An (m, q) weight matrix gives the q sums of q separate 1-D calls."""
    rule = sphere_rule(2)
    k = rng.normal(size=3)
    radii = np.array([0.0, 0.3, 1.2, -0.7])
    cols = np.column_stack([rule.weights, rule.weights[:, None] * rule.nodes])

    def scalar(pts):
        return np.exp(1j * pts @ k) + pts[:, 0] ** 2

    def rows(pts):
        return np.column_stack([np.exp(1j * pts @ k), pts[:, -1], np.cos(pts @ k) * pts[:, 0]])

    for fn in (scalar, rows):
        got = sphere_sums(point_values(fn), np.zeros(3), radii, rule.nodes, cols, max_points)
        want = np.stack([sphere_sums(point_values(fn), np.zeros(3), radii, rule.nodes,
                                     np.ascontiguousarray(c), max_points) for c in cols.T], axis=1)
        assert got.shape == want.shape == (radii.size, 4) + want.shape[2:]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dim, max_points", [(2, MAX_POINTS), (2, 500), (4, MAX_POINTS)])
def test_sphere_sums_of_values_and_sizes(rng, dim, max_points):
    """values returning (f, |f|) give f's sums and |f|'s sums, each with every
    weight column and bit for bit the sums of a call with that array alone, also
    where the rule is cut into slices (S^4)."""
    rule = sphere_rule(dim)
    k = rng.normal(size=dim + 1)
    radii = np.array([0.0, 0.3, 1.2, -0.7])
    centers = rng.normal(size=(radii.size, dim + 1))
    values = point_values(lambda pts: np.exp(1j * pts @ k) + pts[:, 0] ** 2)

    def sized(pts, dirs, nodes):
        return np.abs(values(pts, dirs, nodes))

    for weights in (rule.weights, np.column_stack([rule.weights, rule.weights * rule.nodes[:, 0]])):
        got, sizes = sphere_sums(lambda *args: (values(*args), sized(*args)), centers, radii,
                                 rule.nodes, weights, max_points)
        assert np.array_equal(got, sphere_sums(values, centers, radii, rule.nodes, weights,
                                               max_points))
        assert np.array_equal(sizes, sphere_sums(sized, centers, radii, rule.nodes, weights,
                                                 max_points))


@pytest.mark.parametrize("dim, order, max_points",
                         [(2, 24, MAX_POINTS), (2, 9, 500), (3, 9, 500), (4, 24, MAX_POINTS)])
def test_sphere_sums_do_not_depend_on_what_shares_a_call(rng, dim, order, max_points):
    """With several spheres a call (one a call, in slices, for the 20,000-node S^4
    rule), each sphere's sums are, bit for bit, those of a call with that sphere
    alone: (m,) and (m, dim) values, 1-D and 2-D weights, one centre or one
    centre per radius, and tuples of arrays."""
    rule = sphere_rule(dim, sphere_levels(dim, order))
    k = rng.normal(size=dim + 1)
    radii = np.array([0.0, 0.05, 0.3, 0.3, 1.2, -0.7, 2.0])
    centers = rng.normal(size=(radii.size, dim + 1))
    scalar = point_values(lambda pts: np.exp(1j * pts @ k) + pts[:, 0] ** 2)
    rows = point_values(lambda pts: np.column_stack([np.exp(1j * pts @ k), pts[:, -1]]))
    packed = []

    def both(pts, dirs, nodes):
        packed.append(pts.shape[0])  # spheres in the call
        return scalar(pts, dirs, nodes), rows(pts, dirs, nodes)

    columns = np.column_stack([rule.weights, rule.weights[:, None] * rule.nodes])
    for weights in (rule.weights, columns):
        for c in (centers, centers[0]):
            for values in (scalar, rows, both):
                got = sphere_sums(values, c, radii, rule.nodes, weights, max_points)
                for i in range(radii.size):
                    alone = sphere_sums(values, c if c.ndim == 1 else c[i:i + 1],
                                        radii[i:i + 1], rule.nodes, weights, max_points)
                    for g, a in zip(got if values is both else (got,),
                                    alone if values is both else (alone,)):
                        assert g[i].tobytes() == a[0].tobytes()
    # every call but the S^4 rule's slices holds several spheres
    assert max(packed) == (1 if rule.weights.size > MAX_POINTS else max_points // rule.weights.size)


@pytest.mark.parametrize("dim, max_points",
                         [(1, MAX_POINTS), (2, 600), (4, MAX_POINTS), (3, 100)])
def test_sphere_sums_of_several_rules(rng, dim, max_points):
    """A list of rules gives each rule's sums bit for bit as a call with that rule
    alone.  When a sphere on every rule fits in max_points, each call holds whole
    spheres on all of them; otherwise (the three lowest S^3 rungs' 990 directions
    against 100) each rule takes its own calls."""
    rules = [sphere_rule(dim, sphere_levels(dim, order)) for order in SPHERE_LADDER[:3]]
    k = rng.normal(size=dim + 1)
    radii = np.array([0.0, 0.3, 1.2, -0.7, 2.0])
    centers = rng.normal(size=(radii.size, dim + 1))
    calls = []

    def values(pts, dirs, nodes):
        calls.append(pts.shape[:2])
        return np.exp(1j * pts @ k) + pts[..., 0] ** 2, np.abs(pts[..., -1])

    together = sum(rule.weights.size for rule in rules)
    got = sphere_sums(values, centers, radii, [rule.nodes for rule in rules],
                      [rule.weights for rule in rules], max_points)
    shared, calls[:] = list(calls), []
    for rule, sums in zip(rules, got):
        alone = sphere_sums(values, centers, radii, rule.nodes, rule.weights, max_points)
        assert all(g.tobytes() == a.tobytes() for g, a in zip(sums, alone))
    if together <= max_points:
        assert {s for _, s in shared} == {together} and sum(b for b, _ in shared) == radii.size
    else:
        assert shared == calls
    assert max(b * s for b, s in shared) <= max_points


@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("dim, max_points", [(2, MAX_POINTS), (2, 500), (4, MAX_POINTS)])
def test_sphere_sums_fold_a_trailing_axis(rng, dim, max_points, complex_values):
    """A tuple of weightings pairs each array that values returns with its own: the
    mean takes the weights, and the gradient the fold w * dirs, whose sums run over
    the directions and the gradient's axis, within 4 ulps of sum |terms| of the exact
    sum, each sphere's bit for bit that of the sphere alone, also where the rule
    (S^4's 20,000 directions) is cut into slices."""
    rule = sphere_rule(dim)
    n = dim + 1
    k = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_values else 0.0)
    radii = np.array([0.0, 0.3, 1.2, -0.7])
    centers = rng.normal(size=(radii.size, n))
    fold = rule.weights[:, None] * rule.nodes

    def values(pts, dirs, nodes):
        e = np.exp(pts @ k)
        return e, e[..., None] * k

    means, slopes = sphere_sums(values, centers, radii, rule.nodes, (rule.weights, fold),
                                max_points)
    assert np.array_equal(means, sphere_sums(lambda *args: values(*args)[0], centers, radii,
                                             rule.nodes, rule.weights, max_points))
    for i, (c, r) in enumerate(zip(centers, radii)):
        terms = (fold * np.exp((c + r * rule.nodes) @ k)[:, None] * k).ravel()
        want = math.fsum(terms.real) + 1j * math.fsum(np.imag(terms))
        scale = np.abs(terms.real).sum() + np.abs(np.imag(terms)).sum()
        assert abs(slopes[i] - want) <= 4 * np.finfo(float).eps * scale
        _, alone = sphere_sums(values, c[None], radii[i:i + 1], rule.nodes,
                               (rule.weights, fold), max_points)
        assert alone[0].tobytes() == slopes[i].tobytes()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("scheme", [FDScheme(h=5e-2, order=4, richardson=True),
                                    FDScheme(h=5e-2, order=2, richardson=False)])
def test_fd_stencil_is_the_derivative_stencil(order, scheme):
    nodes, weights = fd_stencil(0.3, scheme, order)
    assert np.unique(nodes).size == nodes.size
    want = derivative(np.exp, 0.3, scheme, order)
    # both round differently; a stencil of order d amplifies rounding by (2/h)^d
    assert weights @ np.exp(nodes) == pytest.approx(want, abs=1e-14 * (2.0 / scheme.h) ** order)


def test_fd_stencil_merges_shared_richardson_nodes():
    nodes, _ = fd_stencil(0.5, FDScheme(h=1e-2, order=4, richardson=True), 1)
    assert sorted(nodes) == pytest.approx([0.48, 0.49, 0.495, 0.505, 0.51, 0.52], abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("scheme", [FDScheme(h=5e-2, order=4, richardson=True),
                                    FDScheme(h=5e-2, order=2, richardson=True),
                                    FDScheme(h=5e-2, order=4, richardson=False)])
def test_derivative_evaluates_each_stencil_node_once(order, scheme):
    calls = []

    def g(t):
        calls.append(t)
        return np.exp(t)

    got = derivative(g, 0.3, scheme, order)
    nodes, weights = fd_stencil(0.3, scheme, order)
    assert sorted(calls) == sorted(nodes)
    assert got == pytest.approx(weights @ np.exp(nodes), abs=1e-14 * (2.0 / scheme.h) ** order)


def test_derivative_examples():
    assert derivative(lambda x: x**2, 1.0, SLOPE_FD) == pytest.approx(2.0, abs=1e-10)
    scheme = FDScheme(h=1e-4, order=4, richardson=False)
    assert derivative(np.sin, 0.0, scheme) == pytest.approx(1.0, abs=1e-8)
    # second derivatives need a roundoff-aware step (eps/h^2 floor)
    assert derivative(lambda x: x**3, 2.0, FDScheme(h=1e-2),
                      order_of_derivative=2) == pytest.approx(12.0, abs=1e-8)


def test_derivative_orders_3_4():
    scheme = FDScheme(h=5e-2, order=4, richardson=True)
    assert derivative(np.sin, 0.4, scheme, 3) == pytest.approx(-math.cos(0.4), abs=1e-9)
    assert derivative(np.exp, 0.2, scheme, 4) == pytest.approx(math.exp(0.2), abs=1e-7)


def test_src_builds_four_fd_schemes():
    """The library constructs exactly four FDSchemes, each a named module constant:
    the one first-derivative stencil of a field without an exact derivative, the
    wave solver's radial stencils, the Maxwell continuity residual and the
    acceptance oracles' own stencil, which must not share the code it checks."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "cxpt"
    built, named = 0, set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FDScheme":
                built += 1
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "FDScheme"):
                named |= {f"{path.stem}.{target.id}" for target in node.targets}
    assert built == len(named) == 4
    assert named == {"numerics.SLOPE_FD", "wave.RADIAL_FD", "clifford.CONTINUITY_FD",
                     "acceptance._ORACLE_FD"}


def _slope_layer(layer: str, seen: list) -> tuple[np.ndarray, list[np.ndarray]]:
    """Take one first derivative of a field without an exact one in ``layer``,
    recording every point it evaluates in ``seen``; returns the points the
    derivative is taken about and its directions."""
    from cxpt.clifford import Cl, MultivectorField, _dirac_evaluator
    from cxpt.fields import TestField
    from cxpt.source import _AxialField
    from cxpt.wave import SpacetimeField, _slices

    def record(pts, width=()):
        seen.append(np.array(pts, dtype=float))
        return np.zeros((len(pts),) + width, dtype=complex)

    if layer == "source-slopes":
        af = _AxialField(TestField(record), np.array([0.0, 0.0, 0.8]), 3)
        af.sample(0.8, 0.0, ((0.0, 1.0),))
        return 0.8 * af._rule.dirs, [af.yhat]
    if layer == "extension-w":
        xs = np.array([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.5]])
        _slices(SpacetimeField(record), 0.3).w.evaluate(xs)
        return np.column_stack([xs, np.full(2, 0.3)]), [np.eye(4)[3]]
    x = np.array([[0.1, 0.2, 0.3]])
    _dirac_evaluator(MultivectorField(Cl(3), 3, evaluator=lambda p: record(p, (8,))), "left")(x)
    return x, list(np.eye(3))


@pytest.mark.parametrize("layer", ["source-slopes", "extension-w", "dirac"])
def test_fields_without_derivatives_share_one_stencil(layer):
    """The source actions' slopes, the w = i f_s of an extension's Cauchy data and
    the Dirac derivative of a field without a polynomial table each evaluate f at
    the 4 nodes +-1e-3, +-2e-3 of SLOPE_FD along each direction about every point
    (the source slopes also take f at the point itself, for its mean)."""
    seen = []
    centres, directions = _slope_layer(layer, seen)
    points = np.concatenate(seen)
    nearest = np.argmin(np.linalg.norm(points[:, None] - centres[None], axis=2), axis=1)
    offsets = points - centres[nearest]
    moved = np.any(offsets != 0.0, axis=1)
    assert np.count_nonzero(~moved) in (0, len(centres))
    got = sorted(map(tuple, np.round(offsets[moved] / 1e-3, 6)))
    want = sorted(tuple(k * d) for d in directions for k in (-2, -1, 1, 2) for _ in centres)
    assert got == want


def test_derivative_matches_exact_gradients(rng):
    # built-in fields carry exact gradients; FD must agree to 1e-6 relative
    fields = [gaussian(1.3), plane_wave([0.7, -0.2, 0.4]),
              polynomial(3, {(2, 1, 0): 1.5, (0, 0, 3): -0.8})]
    from cxpt.numerics import fd_gradient

    for f in fields:
        for _ in range(3):
            x = rng.normal(size=3)
            got = fd_gradient(f, x, SLOPE_FD)
            exact = f.gradient_at(x)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.max(np.abs(got - exact)) / scale <= 1e-6


def test_orthonormal_frame_properties(rng):
    for n in (2, 3, 4, 6):
        for _ in range(5):
            y = rng.normal(size=n)
            frame = orthonormal_complement_frame(y)
            assert frame.shape == (n, n - 1)
            assert np.allclose(frame.T @ frame, np.eye(n - 1), atol=1e-12)
            assert np.max(np.abs(frame.T @ y)) <= 1e-12 * np.linalg.norm(y)


def test_frame_axis_aligned_is_identity_pair():
    frame = orthonormal_complement_frame(np.array([0.0, 0.0, 2.0]))
    assert np.allclose(frame[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(frame[:, 1], [0.0, 1.0, 0.0])


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2)
