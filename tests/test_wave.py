"""Spherical-means propagator: closed-form solutions and PDE structure."""

import itertools
import math
import re

import numpy as np
import pytest

from cxpt.errors import (
    InsufficientSmoothnessError,
    NonFiniteIntegrandError,
    UnsupportedDimensionError,
)
from cxpt.fields import TestField, bump, constant, cosine_wave, gaussian, plane_wave
from cxpt.numerics import MAX_POINTS, SPHERE_LADDER, SPHERE_ORDER, sphere_levels
from cxpt import wave
from cxpt.wave import (
    CauchyData,
    SpacetimeField,
    extend,
    extend_jet,
    from_cauchy_data,
    harmonic_mode,
    solve_cauchy,
    wave_residual,
)

K_UNIT = np.array([0.6, -0.48, 0.64])
K_UNIT /= np.linalg.norm(K_UNIT)


def test_linear_time_solution():
    data = CauchyData(constant(0.0), constant(1.0), 3)
    for t in (0.3, 1.7, -0.9):
        assert solve_cauchy(data, np.zeros(3), t) == pytest.approx(t, abs=1e-12)


def test_plane_wave_n3():
    data_v = CauchyData(cosine_wave(K_UNIT), constant(0.0), 3)
    data_w = CauchyData(constant(0.0), cosine_wave(K_UNIT), 3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=3)
        t = float(rng.uniform(-2, 2))
        c = math.cos(float(K_UNIT @ x))
        assert solve_cauchy(data_v, x, t) == pytest.approx(c * math.cos(t), abs=1e-6)
        assert solve_cauchy(data_w, x, t) == pytest.approx(c * math.sin(t), abs=1e-6)


def test_plane_wave_n2_descent():
    k2 = np.array([0.8, 0.6])
    data = CauchyData(cosine_wave(k2), constant(0.0), 2)
    x = np.array([0.4, -0.2])
    for t in (0.5, 1.2):
        exact = math.cos(float(k2 @ x)) * math.cos(t)
        assert solve_cauchy(data, x, t) == pytest.approx(exact, abs=1e-9)


def test_plane_wave_n5_both_paths():
    """The expanded radial form holds at small and moderate |t| and both signs."""
    k5 = np.zeros(5)
    k5[0] = 1.0
    data_v = CauchyData(cosine_wave(k5), constant(0.0), 5)
    data_w = CauchyData(constant(0.0), cosine_wave(k5), 5)
    x = np.array([0.2, 0.1, 0.0, -0.3, 0.0])
    c = math.cos(x[0])
    for t in (0.15, 0.25, 0.3, -0.3, 0.4, 0.5, 0.7, 0.9, -0.9, 1.1):
        assert solve_cauchy(data_v, x, t) == pytest.approx(c * math.cos(t), abs=1e-9)
        assert solve_cauchy(data_w, x, t) == pytest.approx(c * math.sin(t), abs=1e-9)


def test_initial_conditions():
    data = CauchyData(cosine_wave(K_UNIT), constant(0.0), 3)
    x = np.array([0.3, 0.1, -0.2])
    assert solve_cauchy(data, x, 0.0) == complex(data.v.evaluate(x))
    assert abs(solve_cauchy(data, x, 1e-4) - data.v.evaluate(x)) <= 1e-6
    data_w = CauchyData(constant(0.0), gaussian(2.0), 3)
    h = 1e-3
    ut = (solve_cauchy(data_w, x, h) - solve_cauchy(data_w, x, -h)) / (2 * h)
    assert abs(ut - data_w.w.evaluate(x)) <= 1e-4


def test_time_symmetry_backward_then_forward():
    """Solve to -t0, use the result as new Cauchy data, solve forward."""
    t0 = 0.4
    data = CauchyData(cosine_wave(K_UNIT), constant(0.0), 3)

    def u_back(pts):
        return np.asarray([solve_cauchy(data, p, -t0) for p in np.atleast_2d(pts)])

    def ut_back(pts):
        h = 1e-2
        out = []
        for p in np.atleast_2d(pts):
            vals = [solve_cauchy(data, p, -t0 + k * h) for k in (-2, -1, 1, 2)]
            out.append((vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h))
        return np.asarray(out)

    data2 = CauchyData(TestField(u_back), TestField(ut_back), 3)
    x = np.array([0.2, -0.1, 0.3])
    u_round = solve_cauchy(data2, x, t0)
    assert u_round == pytest.approx(complex(data.v.evaluate(x)), abs=1e-6)


def test_huygens_thin_shell():
    base = CauchyData(bump(0.5), bump(0.4, amplitude=0.7), 3)
    x0 = np.array([2.0, 0.0, 0.0])
    t = 1.3
    inner = bump(t - 0.4, center=x0, amplitude=0.3)
    pert = CauchyData(base.v + inner, base.w + inner, 3)
    assert abs(solve_cauchy(base, x0, t) - solve_cauchy(pert, x0, t)) <= 1e-8
    # off the light cone the solution vanishes
    assert abs(solve_cauchy(base, x0, 1.0)) <= 1e-8
    assert abs(solve_cauchy(base, x0, 3.0)) <= 1e-8


def test_causality_n2():
    x2 = np.array([0.0, 0.0])
    t2 = 0.8
    far = bump(0.2, center=[t2 + 0.6, 0.0])
    c1 = CauchyData(bump(0.5), bump(0.5, amplitude=0.5), 2)
    c2 = CauchyData(bump(0.5) + far, bump(0.5, amplitude=0.5) + far, 2)
    assert abs(solve_cauchy(c1, x2, t2) - solve_cauchy(c2, x2, t2)) <= 1e-10


def test_extend_t_zero_and_adapter():
    f = harmonic_mode([1.0, 0.0, 0.0])
    x = np.array([0.3, -0.5, 0.2])
    s = 0.4
    assert extend(f, x, s, 0.0) == complex(f.evaluate(np.append(x, s)))
    # adapter: f(x, s) = v(x) - i s w(x) has (f, i f_s)|_{s=0} = (v, w)
    v, w = cosine_wave(K_UNIT), gaussian(2.0)
    fa = from_cauchy_data(v, w)
    pt = np.append(x, 0.0)
    assert fa.evaluate(pt) == pytest.approx(complex(v.evaluate(x)), abs=1e-14)
    ws = 1j * np.asarray(fa.s_derivative(pt[None, :]))[0]
    assert ws == pytest.approx(complex(w.evaluate(x)), abs=1e-14)


def test_extend_harmonic_mode_is_analytic_continuation():
    """For f harmonic in (x, s), f~(x, s+it) is the continuation in s + it."""
    k = np.array([0.8, 0.0, 0.6])
    f = harmonic_mode(k)
    mag = float(np.linalg.norm(k))
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(size=3) * 0.7
        s = float(rng.uniform(-0.4, 0.4))
        t = float(rng.uniform(-1.0, 1.0))
        got = extend(f, x, s, t)
        oracle = np.exp(1j * (k @ x) + mag * complex(s, t))
        assert got == pytest.approx(oracle, abs=1e-9 * max(1.0, abs(oracle)))


def test_extend_cauchy_riemann_at_t0():
    f = from_cauchy_data(cosine_wave(K_UNIT), gaussian(2.0))
    x = np.array([0.1, 0.2, -0.3])
    s, h = 0.0, 1e-3
    ds = (extend(f, x, s + h, 1e-9) - extend(f, x, s - h, 1e-9)) / (2 * h)
    dt = (extend(f, x, s, h) - extend(f, x, s, -h)) / (2 * h)
    assert abs(ds + 1j * dt) <= 1e-6


def test_extend_jet_harmonic_mode():
    """(f~, grad f~, d_t f~) from one centre: the continuation exp(i k.x + |k| (s + it))
    and its derivatives i k f~ and i |k| f~, with u equal to ``extend``'s value; a
    copy without the exact s-derivative takes the SLOPE_FD stencil in s."""
    k = np.array([0.8, 0.0, 0.6])
    f = harmonic_mode(k)
    bare = SpacetimeField(f.evaluator)
    x = np.array([0.3, 0.7, -0.2])
    for s, t in ((0.1, 0.6), (-0.2, 1.1), (0.0, -0.7), (0.0, 0.02), (0.0, 0.0)):
        want = np.exp(1j * (k @ x) + complex(s, t))
        for field in (f, bare):
            u, grad, u_t = extend_jet(field, x, s, t)
            assert u == extend(field, x, s, t)
            assert abs(u - want) <= 1e-12
            assert np.max(np.abs(grad - 1j * k * want)) <= 1e-10
            assert abs(u_t - 1j * want) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_exact_slope_matches_stencil_and_closed_form(n):
    """v with an exact gradient takes one sphere at the signed radius t; an
    evaluator-only copy takes the radial stencil.  Both solve the plane wave."""
    k = K_UNIT if n == 3 else np.array([0.8, 0.6])
    x = np.array([0.3, 0.1, -0.2])[:n]
    pw = plane_wave(k)
    bare = TestField(pw.evaluator)
    for t in (-0.7, 0.02, 0.6, 1.1):
        exact = np.exp(1j * (k @ x)) * (math.cos(t) + math.sin(t))
        got = solve_cauchy(CauchyData(pw, pw, n), x, t)
        assert abs(got - exact) <= 1e-14
        assert abs(got - solve_cauchy(CauchyData(bare, bare, n), x, t)) <= 1e-12


def test_gradient_solve_takes_one_sphere():
    """An n = 3 solve with an exact gradient of v evaluates v, its gradient and
    w once each, on the 1,152 points of one sphere."""
    calls = []

    def logged(name, fn):
        def wrapped(pts):
            calls.append((name, pts.shape[0]))
            return fn(pts)
        return wrapped

    pw, cw = plane_wave(K_UNIT), cosine_wave(K_UNIT)
    data = CauchyData(TestField(logged("v", pw.evaluator), gradient=logged("grad", pw.gradient)),
                      TestField(logged("w", cw.evaluator)), 3)
    solve_cauchy(data, np.full(3, 0.1), 0.7)
    assert sorted(calls) == [("grad", 1152), ("v", 1152), ("w", 1152)]


@pytest.mark.parametrize("with_gradient", [True, False])
def test_n2_solve_takes_each_distinct_point_once(with_gradient):
    """Hadamard descent samples S^2 rules folded about the lifted axis: their levels
    +-xi meet the plane at the same points, so every call hands a field distinct
    2-D points.  With a gradient the solve is one sphere on the default rule
    (24, 48): 576 points for each of v, grad v and w, not 1,152.  Without one the
    walk probes (6, 12) and (9, 18), folded to 36 and 90 points (the level xi = 0
    of an odd count once), and keeps (6, 12) for the other 5 spheres of v."""
    calls = []

    def logged(name, fn):
        def wrapped(pts):
            assert pts.shape[1] == 2 and len(np.unique(pts, axis=0)) == len(pts)
            calls.append((name, len(pts)))
            return fn(pts)
        return wrapped

    k = np.array([0.8, 0.6])
    pw, cw = plane_wave(k), cosine_wave(k)
    v = TestField(logged("v", pw.evaluator),
                  gradient=logged("grad", pw.gradient) if with_gradient else None)
    solve_cauchy(CauchyData(v, TestField(logged("w", cw.evaluator)), 2), np.full(2, 0.1), 0.7)
    if with_gradient:
        assert sorted(calls) == [("grad", 576), ("v", 576), ("w", 576)]
    else:
        assert calls == [("v", 36), ("w", 36), ("v", 90), ("w", 90), ("v", 5 * 36), ("w", 36)]


@pytest.mark.parametrize("n, x, error", [
    (3, 0.5, "()"), (3, np.ones((3, 1)), "(3, 1)"), (2, np.ones((2, 1)), "(2, 1)"),
    (3, np.ones(2), "(2,)"), (5, np.ones(3), "(3,)")])
def test_solve_refuses_a_point_of_the_wrong_shape(n, x, error):
    """A point must have shape (n,): a scalar, a column or a point of another
    dimension raises ValueError naming its shape (a scalar used to raise
    IndexError, and a column a numpy broadcast or concatenate error)."""
    data = CauchyData(plane_wave(np.ones(n)), constant(0.0), n)
    with pytest.raises(ValueError, match=re.escape(f"point has shape {error}, data has n={n}")):
        solve_cauchy(data, x, 0.5)


#: ``repr`` of single solves, recorded before every solve became a batch of
#: ``_solve_lattice``: a batch of one point keeps them bit for bit.  The n = 2
#: entry also kept its bits when its lifted sphere was folded onto the disk.
PINNED_SOLVES = {
    "n2-gradient": "np.complex128(1.3461263134937858+0.4164056653169955j)",
    "n3-gradient": "np.complex128(1.4090486020582127+0.0056362244681286144j)",
    "n3-gradient-free": "np.complex128(0.7215026903961128+0.0028860261537404838j)",
    "n5": "np.complex128(1.4247009703000693+0.57732021081021j)",
    "extend_jet": "((0.8308738278891943+0.7287327632877243j), "
                  "[(-0.5829862106294175+0.6646990623110314j), "
                  "(-4.79063904408916e-13+3.920573927040073e-13j), "
                  "(-0.43723965797188524+0.4985242967332203j)], "
                  "(-0.7287327633050054+0.8308738278864192j))",
    # recorded before the sphere passes were made lean and n = 2 was folded
    "n3-gaussian-gradient": "np.complex128(0.8199888798786358+0j)",
    "n3-gaussian-gradient-free": "np.complex128(-0.9447369502945479+0j)",
    "n5-gaussian": "np.complex128(-0.5239818410784449-0.21797268214351065j)",
    "extend": "np.complex128(0.8308738278891943+0.7287327632877243j)",
    "extend-s-fd": "np.complex128(0.7299543760146133+0.3707919294870807j)",
    "wave_residual": "0.00018068995041599272",
}


@pytest.mark.parametrize("case", sorted(PINNED_SOLVES))
def test_single_solves_keep_their_bits(case):
    x = np.array([0.3, 0.1, -0.2, 0.05, 0.4])
    mode = harmonic_mode([0.8, 0.0, 0.6])
    bell, cw = gaussian(0.9, center=[0.1, 0.0, -0.2]), cosine_wave(K_UNIT)
    if case == "extend_jet":
        u, grad, u_t = extend_jet(mode, x[:3], 0.1, 0.6)
        got = (complex(u), [complex(g) for g in grad], complex(u_t))
    elif case == "extend":
        got = extend(mode, x[:3], 0.1, 0.6)
    elif case == "extend-s-fd":
        got = extend(SpacetimeField(mode.evaluator), x[:3], -0.2, 0.35)
    elif case == "wave_residual":
        pw = plane_wave(K_UNIT)
        got = wave_residual(CauchyData(pw, pw, 3), np.array([0.2, 0.0, 0.1]), 0.4,
                            h=0.05, half_points=2)
    elif case == "n3-gaussian-gradient":
        got = solve_cauchy(CauchyData(bell, cw, 3), x[:3], 0.45)
    elif case == "n3-gaussian-gradient-free":
        got = solve_cauchy(CauchyData(TestField(bell.evaluator), cw, 3), x[:3], -0.8)
    elif case == "n5-gaussian":
        got = solve_cauchy(CauchyData(gaussian(1.1), plane_wave(np.array([0.5, 0.3, -0.2, 0.1, 0.4])),
                                      5), x, -0.6)
    else:
        n, t = {"n2-gradient": (2, 0.7), "n3-gradient": (3, 0.7),
                "n3-gradient-free": (3, -0.25), "n5": (5, 0.7)}[case]
        pw = plane_wave({2: np.array([0.8, 0.6]), 3: K_UNIT,
                         5: np.array([0.5, 0.3, -0.2, 0.1, 0.4])}[n])
        v = TestField(pw.evaluator) if case == "n3-gradient-free" else pw
        got = solve_cauchy(CauchyData(v, v, n), x[:n], t)
    assert repr(got) == PINNED_SOLVES[case]


def _complex_source(n, s, y):
    """Cauchy data of the complex-source wave Psi = sigma^(-(n-1)/2), where
    sigma = (x - iy).(x - iy) - (t - is)^2, and Psi itself.  With s > |y|, sigma
    never vanishes at real (x, t), so Psi solves the wave equation everywhere;
    n = 2 takes the principal branch, which is continuous for y = 0 (sigma is
    real only at t = 0, where it is |x|^2 + s^2 > 0)."""
    a, y = -(n - 1) / 2.0, np.asarray(y, dtype=float)

    def sigma0(pts):
        d = pts - 1j * y
        return np.sum(d * d, axis=1) + s * s

    v = TestField(lambda pts: sigma0(pts) ** a,
                  gradient=lambda pts: (2 * a * sigma0(pts) ** (a - 1))[:, None] * (pts - 1j * y))
    w = TestField(lambda pts: 2j * s * a * sigma0(pts) ** (a - 1))

    def psi(x, t):
        d = np.asarray(x) - 1j * y
        return complex(d @ d - (t - 1j * s) ** 2) ** a

    return CauchyData(v, w, n), psi


#: Ten times the worst relative error against Psi (s = 1, y = 0) of the solves at
#: ``test_complex_source_wave``'s points, single and as one lattice: 3.0e-16 and
#: 1.2e-14 (n = 2), 4.6e-16 and 2.0e-13 (n = 3), 6.4e-13 and 6.4e-13 (n = 5).
COMPLEX_SOURCE_BOUNDS = {2: (3e-15, 1.3e-13), 3: (4.6e-15, 2.1e-12), 5: (6.4e-12, 6.4e-12)}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_complex_source_wave(n):
    """The complex-source wave at s = 1, y = 0, at random x in [-1, 1]^n and
    |t| <= 1.5 (4 points, 2 for n = 5), solved one point at a time and as one
    lattice.  A single n = 2 or 3 solve takes one unprobed sphere of sphere order
    24; a lattice keeps the rung its probe at the largest |t| keeps."""
    data, psi = _complex_source(n, 1.0, np.zeros(n))
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1.0, 1.0, size=(4 if n < 5 else 2, n))
    ts = rng.uniform(-1.5, 1.5, size=len(xs))
    want = np.array([psi(x, t) for x, t in zip(xs, ts)])
    single = np.array([solve_cauchy(data, x, t) for x, t in zip(xs, ts)])
    lattice = wave._solve_lattice(data, xs, ts)
    for got, bound in zip((single, lattice), COMPLEX_SOURCE_BOUNDS[n]):
        assert np.max(np.abs(got - want) / np.abs(want)) <= bound


def test_wave_residual_zero_data():
    data = CauchyData(constant(0.0), constant(0.0), 3)
    assert wave_residual(data, np.zeros(3), 0.5, h=0.05, half_points=1) == 0.0


def test_wave_residual_plane_wave_and_gaussian():
    pw = plane_wave(K_UNIT)
    res = wave_residual(CauchyData(pw, pw, 3), np.array([0.2, 0.0, 0.1]), 0.4,
                        h=0.05, half_points=1)
    assert res <= 1e-3
    res_g = wave_residual(CauchyData(gaussian(1.5), constant(0.0), 3),
                          np.array([0.3, 0.1, 0.0]), 0.6, h=0.05, half_points=1)
    assert res_g <= 1e-3


def test_wave_residual_rejects_bad_lattices():
    data = CauchyData(plane_wave(K_UNIT), constant(0.0), 3)
    for h in (0.0, -0.05, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            wave_residual(data, np.zeros(3), 0.4, h=h, half_points=1)
    for half in (0, -1):
        with pytest.raises(ValueError):
            wave_residual(data, np.zeros(3), 0.4, h=0.05, half_points=half)


def test_wave_residual_refuses_a_step_whose_square_leaves_the_float_range():
    """h^2 is the divisor of the second differences: below about 1.49e-154 it
    underflows and above about 1.34e154 it overflows, and the step is refused by
    name instead of giving inf, nan or an OverflowError."""
    data = CauchyData(constant(0.0), constant(1.0), 3)
    for h in (1e-160, 1e-200, 1e-300, 1e155):
        with pytest.raises(ValueError, match=re.escape(f"got h = {h}") + "$"):
            wave_residual(data, np.zeros(3), 0.3, h=h, half_points=1)
    assert wave_residual(data, np.zeros(3), 0.3, h=1e-150, half_points=1) == 0.0


def test_wave_residual_non_finite_sample_raises():
    nan = TestField(lambda pts: np.full(pts.shape[0], np.nan + 0j))
    with pytest.raises(NonFiniteIntegrandError):
        wave_residual(CauchyData(nan, constant(0.0), 3), np.zeros(3), 0.4,
                      h=0.05, half_points=1)


def _counted(field, sizes, gradient=False):
    """``field``'s evaluator (and its gradient, if asked), logging each call's size."""
    def logged(fn):
        def wrapped(pts):
            sizes.append(pts.shape[0])
            return fn(pts)
        return wrapped

    return TestField(logged(field.evaluate), smoothness=field.smoothness,
                     gradient=logged(field.gradient) if gradient else None)


def _residual_oracle(data, x_center, t_center, h, m, solve=None):
    """max |u_tt - Lap u| from one ``solve_cauchy`` (or ``solve(x, t)``) per lattice
    point, each interior point's stencil summed point by point."""
    n = data.n
    samples = {}
    solve = solve or (lambda x, t: solve_cauchy(data, x, t))

    def u(offs):
        if offs not in samples:
            x = np.asarray(x_center, dtype=float) + np.asarray(offs[:n], dtype=float) * h
            samples[offs] = solve(x, t_center + offs[n] * h)
        return samples[offs]

    def second(offs, axis):
        up, down = list(offs), list(offs)
        up[axis] += 1
        down[axis] -= 1
        return (u(tuple(up)) - 2.0 * u(offs) + u(tuple(down))) / h**2

    worst = 0.0
    for offs in itertools.product(range(1 - m, m), repeat=n + 1):
        lap = 0.0
        for axis in range(n):
            lap = lap + second(offs, axis)
        worst = max(worst, abs(second(offs, n) - lap))
    return worst


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["plane_wave", "gaussian"])
@pytest.mark.parametrize("t_center", [0.4, -0.7, 0.05])
def test_batched_residual_matches_per_point_solves(n, kind, t_center):
    """v with a gradient: the batched lattice agrees with a solve per point within
    1e-10, also where the lattice crosses t = 0 (t_center 0.05, m = 2)."""
    if kind == "plane_wave":
        k = np.array([0.6, -0.48, 0.64, 0.3])[:n]
        data = CauchyData(plane_wave(k), plane_wave(k), n)
    else:
        data = CauchyData(gaussian(1.2), gaussian(0.9), n)
    x = np.array([0.2, 0.0, 0.1])[:n]
    got = wave_residual(data, x, t_center, h=0.05, half_points=2)
    assert abs(got - _residual_oracle(data, x, t_center, 0.05, 2)) <= 1e-10


def test_batched_residual_evaluator_cost():
    """The 297 samples of criterion 9's lattice (plane wave, n = 3, m = 2, h = 0.05)
    probe the 27 spheres of largest |t| on the rules (6, 12) and (9, 18), which
    agree, and take the other 270 on the lower, (6, 12): 27 x (72 + 162) + 270 x 72
    = 25,758 points for each of v, grad v and w, in 24 calls of at most MAX_POINTS
    points, against 891 calls on 1,026,432 points with one finest-rule sphere per
    solve."""
    sizes = []
    pw = plane_wave(K_UNIT)
    data = CauchyData(_counted(pw, sizes, gradient=True), _counted(pw, sizes), 3)
    wave_residual(data, np.array([0.2, 0.0, 0.1]), 0.4, h=0.05, half_points=2)
    assert (len(sizes), sum(sizes)) == (24, 77_274)
    assert max(sizes) <= MAX_POINTS


#: Rounding floor of n = 5 values from RADIAL_FD's stencils: on the plane wave of
#: ``test_lattice_residual_matches_per_point_solves`` a lattice's values and a solve
#: per point differ by up to 1.6e-11, each within 1.2e-11 of the closed form.
N5_FLOOR = 2e-11


@pytest.mark.parametrize("case", ["gradient-free", "n5"])
def test_lattice_residual_matches_per_point_solves(monkeypatch, case):
    """Gradient-free v and n = 5 take their lattice in one batch on one ladder walk.
    The gradient-free residual is within 1e-10 of the point-by-point sum's; the
    n = 5 one within its values' stencil floor times the 20 / h^2 that the residual's
    second differences weigh them with."""
    if case == "n5":
        k = np.array([0.5, 0.3, -0.2, 0.1, 0.4])
        data, x, m = CauchyData(plane_wave(k), plane_wave(k), 5), np.full(5, 0.1), 1
        tol = 20 * N5_FLOOR / 0.05**2
    else:
        bare = TestField(plane_wave(K_UNIT).evaluator)
        data, x, m, tol = CauchyData(bare, bare, 3), np.array([0.2, 0.0, 0.1]), 2, 1e-10
    with monkeypatch.context() as patch:
        kept, _ = _walks(patch)
        got = wave_residual(data, x, 0.6, h=0.05, half_points=m)
    assert len(kept) == 1
    assert abs(got - _residual_oracle(data, x, 0.6, 0.05, m)) <= tol


def test_batched_residual_fallback():
    """k = (20, 0, 0) at t = 1: no pair of rungs up to (24, 48) agrees, so the walk
    climbs until (30, 60) agrees with (36, 72).  The probed layer pays every rung to
    (36, 72) (8,046 points a sphere) and the other 270 spheres take the lower,
    (30, 60): 3 x (27 x 8,046 + 270 x 1,800) = 2,109,726 points.  The residual
    stays within 1e-10 of that of the closed-form solution on the same lattice."""
    sizes = []
    k = np.array([20.0, 0.0, 0.0])
    pw = plane_wave(k)
    data = CauchyData(_counted(pw, sizes, gradient=True), _counted(pw, sizes), 3)
    x = np.full(3, 0.1)
    got = wave_residual(data, x, 1.0, h=0.05, half_points=2)
    assert sum(sizes) == 2_109_726 == 3 * (27 * 8_046 + 270 * 1_800)

    def exact(x, t):
        return np.exp(1j * (k @ x)) * (math.cos(20.0 * t) + math.sin(20.0 * t) / 20.0)

    assert abs(got - _residual_oracle(data, x, 1.0, 0.05, 2, exact)) <= 1e-10


def test_batched_residual_non_finite_sample_raises():
    nan = TestField(lambda pts: np.full(pts.shape[0], np.nan + 0j),
                    gradient=lambda pts: np.full(pts.shape, np.nan + 0j))
    with pytest.raises(NonFiniteIntegrandError):
        wave_residual(CauchyData(nan, constant(0.0), 3), np.zeros(3), 0.4,
                      h=0.05, half_points=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arguments_are_refused(bad):
    """Each solver entry point names its non-finite argument instead of returning
    NaN (or warning, for an infinite t)."""
    data = CauchyData(plane_wave(K_UNIT), plane_wave(K_UNIT), 3)
    f = harmonic_mode([0.8, 0.0, 0.6])
    x, x_bad = np.zeros(3), np.array([0.1, bad, 0.0])
    calls = {
        "x": [lambda: solve_cauchy(data, x_bad, 0.5), lambda: extend(f, x_bad, 0.0, 0.5),
              lambda: extend_jet(f, x_bad, 0.0, 0.5)],
        "t": [lambda: solve_cauchy(data, x, bad), lambda: extend(f, x, 0.0, bad),
              lambda: extend_jet(f, x, 0.0, bad)],
        "s": [lambda: extend(f, x, bad, 0.5), lambda: extend_jet(f, x, bad, 0.5)],
        "x_center": [lambda: wave_residual(data, x_bad, 0.5)],
        "t_center": [lambda: wave_residual(data, x, bad)],
    }
    for name, refused in calls.items():
        for call in refused:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                call()


def _rung_points(n):
    """Points of each rule of the sphere ladder on S^{n-1}, lowest first."""
    return [math.prod(sphere_levels(n - 1, order)) for order in SPHERE_LADDER]


@pytest.mark.parametrize("n, means, rule_points", [(3, 7, 1152), (5, 14, 20000)])
def test_solve_takes_each_stencil_radius_once(n, means, rule_points):
    """One solve probes v and w on the outermost sphere of its stencils, one rung
    of the ladder at a time, until a rung agrees with the next one up, then
    evaluates each other distinct |r| of its radial stencils once per field on
    that rung, and takes the outermost one's sums from the probe (v's for
    n = 3, whose w takes only |t|; v's and w's for n = 5): at t = 0.7 the
    (6, 12) rule on S^2 (2 x (72 + 162) + 6 x 72 = 900 points, against
    7 x 1,152 on the rule of SPHERE_ORDER) and the (6, 6, 6, 12) rule on S^4
    (2 x 8,838 + 12 x 2,592 = 48,780 points, against 14 x 20,000).  After the
    probe each pass packs whole spheres up to MAX_POINTS points a call: v's
    other 5 spheres on S^2 in one call of 360 points, then w's one, but one
    S^4 sphere of 2,592 points a call."""
    k = np.linspace(0.4, 0.9, n)
    sizes = []
    data = CauchyData(_counted(plane_wave(k), sizes), _counted(cosine_wave(k), sizes), n)
    points = _rung_points(n)
    assert points[SPHERE_LADDER.index(SPHERE_ORDER)] == rule_points
    reused = {3: 1, 5: 2}[n]

    def cost(rung):
        return 2 * sum(points[:rung + 2]) + (means - reused) * points[rung]

    for t in (0.7, -0.25, 0.015):
        sizes.clear()
        solve_cauchy(data, np.full(n, 0.1), t)
        assert sum(sizes) in [cost(rung) for rung in range(len(points) - 1)]
        assert max(sizes) <= MAX_POINTS
    sizes.clear()
    solve_cauchy(data, np.full(n, 0.1), 0.7)
    kept = {3: 0, 5: 3}[n]
    assert sum(sizes) == cost(kept) < means * rule_points
    rest = {3: [5 * points[kept], points[kept]], 5: [points[kept]] * (means - reused)}[n]
    assert sizes[-len(rest):] == rest


def test_moment_batches_pack_whole_spheres():
    """A batch of jets packs whole spheres into each evaluator call, as a lattice
    of solves does: three jets probe v on the outermost sphere of the latest
    (t = 1.1) on (6, 12), (9, 18) and (12, 24), keep (9, 18), and take their
    other 20 spheres in one call of 3,240 points.  The latest jet keeps, bit for
    bit, its values alone (its walk probes the same sphere), since each sphere is
    summed as alone whatever shares its call."""
    mode = harmonic_mode([0.8, 0.0, 0.6])
    sizes = []

    def ev(pts):
        sizes.append(pts.shape[0])
        return mode.evaluator(pts)

    xs = np.array([[0.3, 0.1, -0.2], [0.0, 0.2, 0.5], [-0.4, 1.0, 0.0]])
    ts = np.array([0.6, 1.1, 0.3])
    jets = wave._extension_jets(SpacetimeField(ev, mode.s_derivative), xs, 0.1, ts)
    assert sizes == [72, 162, 288, 20 * 162]
    alone = wave._extension_jets(mode, xs[1:2], 0.1, ts[1:2])
    for got, want in zip(jets, alone):
        assert got[1].tobytes() == want[0].tobytes()
    sizes.clear()
    wave._solve_lattice(CauchyData(_counted(plane_wave(K_UNIT), sizes), constant(0.0), 3),
                        xs, ts)
    assert max(sizes) > max(_rung_points(3)[:SPHERE_LADDER.index(SPHERE_ORDER) + 1])


def test_wide_fields_keep_to_the_point_budget():
    """A field of (m, 16) values gets whole spheres, at most MAX_POINTS // 16 points
    a call, or one sphere where a sphere alone is larger, once a probe has read its
    width.  Four jets probe their two latest outermost spheres on (6, 12) in one
    call (the width is not known yet), then one on (9, 18) a call, keep (6, 12),
    and take their other 26 spheres three a call."""
    mode = harmonic_mode([0.8, 0.0, 0.6])
    scale = np.arange(1.0, 17.0)
    sizes = []

    def ev(pts):
        sizes.append(pts.shape[0])
        return mode.evaluator(pts)[:, None] * scale

    field = SpacetimeField(ev, lambda pts: mode.s_derivative(pts)[:, None] * scale)
    xs = np.array([[0.3, 0.1, -0.2], [0.0, 0.2, 0.5], [-0.4, 1.0, 0.0], [0.1, 0.1, 0.1]])
    wave._extension_jets(field, xs, 0.1, np.array([0.2, 0.3, 0.25, 0.3]))
    assert sizes == [2 * 72, 162, 162] + [3 * 72] * 8 + [2 * 72]
    assert all(size <= MAX_POINTS // 16 or size in _rung_points(3) for size in sizes[1:])


@pytest.mark.parametrize("t", [0.1, 1.0, -1.0])
def test_plane_wave_n5_on_the_ladder(t):
    """n = 5 plane waves with |k| <= 1.5 stay within 1e-10 of the closed form on
    the rung each solve keeps."""
    rng = np.random.default_rng(17)
    for _ in range(6):
        k = rng.normal(size=5)
        k *= rng.uniform(0.5, 1.5) / np.linalg.norm(k)
        x = 0.5 * rng.normal(size=5)
        data = CauchyData(plane_wave(k), plane_wave(k), 5)
        want = np.exp(1j * (k @ x)) * (math.cos(np.linalg.norm(k) * t)
                                      + math.sin(np.linalg.norm(k) * t) / np.linalg.norm(k))
        assert abs(solve_cauchy(data, x, t) - want) <= 1e-10


def _walks(monkeypatch):
    """The rung and disagreement of each of ``wave``'s ladder walks, and every rung
    its probes take, in call order."""
    kept, probed, walk = [], [], wave.walk_ladder

    def spy(dim, probe, *args, **kwargs):
        def logged(orders):
            probed.append(orders)
            return probe(orders)

        rung, payload, gap = walk(dim, logged, *args, **kwargs)
        kept.append((rung, gap))
        return rung, payload, gap

    monkeypatch.setattr(wave, "walk_ladder", spy)
    return kept, probed


@pytest.mark.parametrize("n, k0", [(5, 3.0), (3, 20.0)])
def test_unresolved_solve_keeps_the_finest_rule(monkeypatch, n, k0):
    """At |k| t = 24 (n = 5) or 60 (n = 3, v without a gradient) no pair of rungs
    agrees, up to the top of the ladder (sphere order 48), so the solve takes the
    top rule and reports the top pair's disagreement to the walk.  It reuses the
    probe's sums of its outermost sphere, which are bit for bit those it would
    take itself on that rule."""
    k = np.zeros(n)
    k[0] = k0
    t = {5: 8.0, 3: 3.0}[n]
    pw = plane_wave(k)
    data = CauchyData(pw if n == 5 else TestField(pw.evaluator), constant(0.0), n)
    with monkeypatch.context() as patch:
        kept, _ = _walks(patch)
        got = solve_cauchy(data, np.full(n, 0.1), t)
    top = sphere_levels(n - 1, SPHERE_LADDER[-1])
    assert kept == [(top, kept[0][1])] and kept[0][1] > 0.0
    # the top rule without a probe, every sphere taken by the solve itself
    monkeypatch.setattr(wave, "walk_ladder", lambda dim, probe, **_: (top, None, 0.0))
    assert got == solve_cauchy(data, np.full(n, 0.1), t)


def test_n5_plane_wave_climbs_past_order_24(monkeypatch):
    """exp(8 i x_1) with v = w at x = 0, t = 2: no pair of rungs up to sphere order
    24 agrees (that rule was off by 6.6e-2), so the walk climbs.  The top pair
    still differs by 2.6e-10 of the field scale, and the top rule's solve is
    within 1e-10 of cos 16 + sin(16) / 8."""
    k = np.array([8.0, 0.0, 0.0, 0.0, 0.0])
    kept, _ = _walks(monkeypatch)
    got = solve_cauchy(CauchyData(plane_wave(k), plane_wave(k), 5), np.zeros(5), 2.0)
    assert abs(got - (math.cos(16.0) + math.sin(16.0) / 8.0)) <= 1e-10
    (rung, gap), = kept
    assert rung[0] > sphere_levels(4)[0] and 0.0 < gap < 1e-9


@pytest.mark.parametrize("n", [3, 5])
def test_zero_data_keep_the_fixed_rule_unprobed_above_it(monkeypatch, n):
    """Data that vanish on every probe sphere keep the rule of SPHERE_ORDER, and no
    rung above it is probed: the batched residual (n = 3) and a stencil solve
    (n = 5) cost what they did when that rule topped the ladder."""
    kept, probed = _walks(monkeypatch)
    zero = CauchyData(constant(0.0), constant(0.0), n)
    if n == 3:
        assert wave_residual(zero, np.zeros(3), 0.5, h=0.05, half_points=1) == 0.0
    else:
        assert solve_cauchy(zero, np.zeros(5), 0.7) == 0.0
    fixed = sphere_levels(n - 1)
    below = [sphere_levels(n - 1, order) for order in SPHERE_LADDER if order <= SPHERE_ORDER]
    assert kept == [(fixed, 0.0)] and probed == below


def test_energy_conservation_periodic_cell():
    """E(t) = Int (u_t^2 + |grad u|^2) over one periodic cell stays constant."""
    data = CauchyData(cosine_wave([1.0, 0.0, 0.0]), constant(0.0), 3)
    m = 6
    cell = 2.0 * math.pi
    grid1d = cell * np.arange(m) / m
    h = 2e-2

    def energy(t):
        total = 0.0
        for ix in grid1d:
            for iy in grid1d:
                for iz in grid1d:
                    x = np.array([ix, iy, iz])
                    ut = (solve_cauchy(data, x, t + h)
                          - solve_cauchy(data, x, t - h)) / (2 * h)
                    grad_sq = 0.0
                    for axis in range(3):
                        step = np.zeros(3)
                        step[axis] = h
                        dux = (solve_cauchy(data, x + step, t)
                               - solve_cauchy(data, x - step, t)) / (2 * h)
                        grad_sq += abs(dux) ** 2
                    total += abs(ut) ** 2 + grad_sq
        return total * (cell / m) ** 3

    e_vals = [energy(t) for t in (0.0, 0.5, 1.0)]
    for e in e_vals[1:]:
        assert abs(e - e_vals[0]) / e_vals[0] <= 0.01


def test_guards():
    with pytest.raises(UnsupportedDimensionError):
        solve_cauchy(CauchyData(constant(0.0), constant(0.0), 4), np.zeros(4), 0.1)
    rough = TestField(lambda pts: np.ones(pts.shape[0]), smoothness=1)
    with pytest.raises(InsufficientSmoothnessError):
        solve_cauchy(CauchyData(rough, constant(0.0), 3), np.zeros(3), 0.1)
    with pytest.raises(UnsupportedDimensionError):
        extend(SpacetimeField(lambda pts: np.ones(pts.shape[0])), np.zeros(5), 0.0, 0.1)
