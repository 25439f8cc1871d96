"""Spherical-means solver of the wave-equation Cauchy problem.

For odd space dimension n = 2k+1, the unique classical solution of

    u_tt = Lap u,   u(x, 0) = v(x),   u_t(x, 0) = w(x),

is, in terms of means vbar(x, r), wbar(x, r) of the data over spheres of
radius r about x (unit-mass measure),

    u(x, t) = c_n [ d/dt (1/t d/dt)^{k-1} (t^{2k-1} vbar(x, t))
                  +      (1/t d/dt)^{k-1} (t^{2k-1} wbar(x, t)) ],
    c_n = 1 / (n-2)!!,

so u = d/dt(t vbar) + t wbar for n = 3 (Kirchhoff) and the k = 2 form for
n = 5.  Even n = 2 is obtained by Hadamard descent: lift the data to R^3
constant in the suppressed coordinate and evaluate the n = 3 formula.
No sign of t is assumed; t < 0 solves the final-value problem.

The same machinery evaluates the extension f~(x, s+it) of a field f(x, s)
on Euclidean spacetime: solve the Cauchy problem with v = f(., s) and
w = i f_s(., s).  Then f~ -> f as t -> 0, f~ obeys the wave equation in
(x, t), and (d_s + i d_t) f~ = 0 at t = 0; when f is harmonic in (x, s)
the extension coincides with the analytic continuation in s + it.

One solve first collects every radius its Richardson radial stencils
touch (``numerics.fd_stencil``), as |r| since the means are even in r,
and takes the means of v and of w at the distinct radii with one call of
the shared kernel ``numerics.sphere_sums`` per field; the stencil sums
are then weighted sums of those means.  An n = 3 solve takes 7 means (6
of v, 1 of w) and an n = 5 solve 14 (7 of each).  The evaluator gets one
sphere per call, cut into slices of at most ``numerics.MAX_POINTS``
points where the rule is larger (S^4 has 20,000 nodes).

Evaluators may be array-valued, mapping (m, n) points to (m, dim) rows:
sphere means and radial derivatives act row-wise, so ``solve_cauchy``
and ``extend`` then return a (dim,) array.  ``clifford.maxwell_extend``
extends all blade coefficients of a multivector field this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InsufficientSmoothnessError,
    NonFiniteIntegrandError,
    UnsupportedDimensionError,
)
from .fields import TestField, _single
from .numerics import (
    FDScheme,
    Quadrature,
    derivative,
    fd_stencil,
    point_values,
    sphere_rule,
    sphere_sums,
)

__all__ = [
    "CauchyData",
    "SpacetimeField",
    "from_cauchy_data",
    "harmonic_mode",
    "solve_cauchy",
    "extend",
    "wave_residual",
    "wave_residual_at",
]


#: Radial stencils of the Kirchhoff and Poisson formulas, and the s-stencil of
#: ``extend`` for fields without an exact s-derivative.
RADIAL_FD = FDScheme(h=1e-2, order=4, richardson=True)
S_FD = FDScheme(h=1e-3, order=4, richardson=True)


@dataclass(frozen=True)
class CauchyData:
    """Initial value v and initial time-derivative w on R^n."""

    v: TestField
    w: TestField
    n: int


@dataclass(frozen=True)
class SpacetimeField:
    """Field f(x, s) on Euclidean spacetime R^{n+1} (last column is s)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    s_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    smoothness: float = math.inf
    name: str = ""

    def evaluate(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return _single(self.evaluator(pts[None, :]))
        return np.asarray(self.evaluator(pts))


def from_cauchy_data(v: TestField, w: TestField) -> SpacetimeField:
    """Adapter f(x, s) = v(x) - i s w(x), so that (f, i f_s)|_{s=0} = (v, w)."""

    def ev(pts: np.ndarray) -> np.ndarray:
        return v.evaluate(pts[:, :-1]) - 1j * pts[:, -1] * w.evaluate(pts[:, :-1])

    return SpacetimeField(
        evaluator=ev,
        s_derivative=lambda pts: -1j * w.evaluate(pts[:, :-1]),
        smoothness=min(v.smoothness, w.smoothness),
        name="cauchy-adapter",
    )


def harmonic_mode(k: Sequence[float]) -> SpacetimeField:
    """exp(i k.x + |k| s): harmonic in (x, s), analytic in s."""
    kv = np.asarray(k, dtype=float)
    mag = float(np.linalg.norm(kv))

    def ev(pts: np.ndarray) -> np.ndarray:
        return np.exp(1j * (pts[:, :-1] @ kv) + mag * pts[:, -1])

    return SpacetimeField(
        evaluator=ev,
        s_derivative=lambda pts: mag * ev(pts),
        name=f"harmonic_mode(k={kv.tolist()})",
    )


def _radial_means(field: TestField, x: np.ndarray, rule, radii) -> np.ndarray:
    """Means of ``field`` over the spheres of radii |r| about x, one kernel call.

    Each distinct |r| is evaluated once; the result has one row per
    entry of ``radii``.  The evaluator gets one sphere per call (or a
    slice of one, past ``MAX_POINTS``): an array-valued evaluator returns
    dim values per point, and for the 16 blade coefficients of
    ``maxwell_extend`` several spheres' worth of rows per call (0.9 MB)
    cost more per point than one sphere's worth, while a scalar
    evaluator costs the same per point either way.
    """
    mags = np.abs(np.asarray(radii, dtype=float)).tolist()
    distinct = sorted(set(mags))
    means = sphere_sums(point_values(field), x, distinct, rule.nodes, rule.weights,
                        max_points=rule.weights.size)
    return means[[distinct.index(r) for r in mags]]


def _kirchhoff3(data: CauchyData, x: np.ndarray, rule, t: float):
    """n = 3: u = d/dr(r vbar)|_{r=t} + t wbar(|t|)."""
    r, c = fd_stencil(t, RADIAL_FD, 1)
    mv = _radial_means(data.v, x, rule, r)
    mw = _radial_means(data.w, x, rule, [t])
    return (c * r) @ mv + t * mw[0]


def _poisson5(data: CauchyData, x: np.ndarray, rule, t: float):
    """n = 5 (k = 2) in expanded radial form, valid for every t:

    u = m + (5/3) t m' + (1/3) t^2 m'' + t w + (1/3) t^2 w'.
    """
    r1, c1 = fd_stencil(t, RADIAL_FD, 1)
    r2, c2 = fd_stencil(t, RADIAL_FD, 2)
    k1 = r1.size
    mv = _radial_means(data.v, x, rule, np.concatenate([[t], r1, r2]))
    mw = _radial_means(data.w, x, rule, np.concatenate([[t], r1]))
    m0, m1, m2 = mv[0], c1 @ mv[1:1 + k1], c2 @ mv[1 + k1:]
    w0, w1 = mw[0], c1 @ mw[1:]
    return m0 + (5.0 / 3.0) * t * m1 + (t * t / 3.0) * m2 + t * w0 + (t * t / 3.0) * w1


def _check_smoothness(data: CauchyData, k: int) -> None:
    if data.v.smoothness < k + 2:
        raise InsufficientSmoothnessError(
            f"initial value must be C^{k + 2}, declared {data.v.smoothness}"
        )
    if data.w.smoothness < k + 1:
        raise InsufficientSmoothnessError(
            f"initial derivative must be C^{k + 1}, declared {data.w.smoothness}"
        )


def solve_cauchy(data: CauchyData, x: Sequence[float] | np.ndarray, t: float,
                 quadrature: Quadrature = Quadrature()):
    """Wave-equation solution u(x, t) from Cauchy data at t = 0 (n in {2, 3, 5})."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != data.n:
        raise ValueError(f"point has dimension {x.shape[0]}, data has n={data.n}")
    if data.n == 2:
        lifted = CauchyData(_lift_planar(data.v), _lift_planar(data.w), 3)
        return solve_cauchy(lifted, np.append(x, 0.0), t, quadrature)
    if data.n not in (3, 5):
        raise UnsupportedDimensionError(f"solver supports n in {{2, 3, 5}}, got {data.n}")
    k = (data.n - 1) // 2
    _check_smoothness(data, k)
    if t == 0.0:
        return data.v.evaluate(x)
    rule = sphere_rule(data.n - 1, quadrature.sphere_orders(data.n - 1))
    if data.n == 3:
        return _kirchhoff3(data, x, rule, t)
    return _poisson5(data, x, rule, t)


def _lift_planar(field: TestField) -> TestField:
    """Extend a field on R^2 to R^3, constant in the third coordinate."""
    return TestField(
        evaluator=lambda pts: field.evaluate(pts[:, :2]),
        smoothness=field.smoothness,
        support_radius=None,
        name=f"lift2to3[{field.name}]",
    )


def extend(f: SpacetimeField, x: Sequence[float] | np.ndarray, s: float, t: float,
           quadrature: Quadrature = Quadrature()):
    """Extension f~(x, s + it) of a Euclidean-spacetime field (n = 3).

    Solves the Cauchy problem with v = f(., s) and w = i f_s(., s); the
    s-derivative uses the exact evaluator when the field carries one.
    ``x`` must be a 3-vector.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise UnsupportedDimensionError("extend is implemented for n = 3")
    if t == 0.0:
        return f.evaluate(np.append(x, s))

    def v_eval(pts: np.ndarray) -> np.ndarray:
        return f.evaluate(np.column_stack([pts, np.full(pts.shape[0], s)]))

    if f.s_derivative is not None:
        def w_eval(pts: np.ndarray) -> np.ndarray:
            cols = np.column_stack([pts, np.full(pts.shape[0], s)])
            return 1j * np.asarray(f.s_derivative(cols))
    else:
        def w_eval(pts: np.ndarray) -> np.ndarray:
            def slice_at(ss: float) -> np.ndarray:
                return f.evaluate(np.column_stack([pts, np.full(pts.shape[0], ss)]))

            return 1j * derivative(slice_at, s, S_FD, 1)

    data = CauchyData(
        TestField(v_eval, smoothness=f.smoothness, name="extend-v"),
        TestField(w_eval, smoothness=f.smoothness, name="extend-w"),
        3,
    )
    return solve_cauchy(data, x, t, quadrature)


def _check_step(h: float) -> None:
    if not h > 0:
        raise ValueError(f"wave residual needs a lattice step h > 0, got {h}")


def wave_residual_at(data: CauchyData, x: Sequence[float] | np.ndarray, t: float,
                     h: float = 0.05, quadrature: Quadrature = Quadrature()) -> complex:
    """u_tt - Lap u at one spacetime point, by 2nd-order FD on solver samples."""
    _check_step(h)
    x = np.asarray(x, dtype=float)

    def u(dx: np.ndarray, dt: float):
        return solve_cauchy(data, x + dx, t + dt, quadrature)

    zero = np.zeros_like(x)
    center = u(zero, 0.0)
    u_tt = (u(zero, h) - 2.0 * center + u(zero, -h)) / h**2
    lap = 0.0
    for axis in range(x.shape[0]):
        step = np.zeros_like(x)
        step[axis] = h
        lap = lap + (u(step, 0.0) - 2.0 * center + u(-step, 0.0)) / h**2
    return u_tt - lap


def wave_residual(data: CauchyData, x_center: Sequence[float] | np.ndarray,
                  t_center: float, h: float = 0.05, half_points: int = 2,
                  quadrature: Quadrature = Quadrature()) -> float:
    """Max |u_tt - Lap u| over the interior of a (2m+1)^{n+1} lattice.

    The lattice is centered at (x_center, t_center) with spacing ``h`` >
    0 and ``half_points`` >= 1; solver samples are cached and shared
    between neighboring stencils.  A non-finite sample raises
    ``NonFiniteIntegrandError`` rather than dropping out of the maximum.
    """
    _check_step(h)
    if half_points < 1:
        raise ValueError(f"wave_residual needs half_points >= 1, got {half_points}")
    x_center = np.asarray(x_center, dtype=float)
    n = data.n
    m = half_points
    cache: dict[tuple[int, ...], complex] = {}

    def uval(offs: tuple[int, ...]):
        if offs not in cache:
            dx = np.asarray(offs[:n], dtype=float) * h
            val = solve_cauchy(data, x_center + dx, t_center + offs[n] * h, quadrature)
            if not np.all(np.isfinite(val)):
                raise NonFiniteIntegrandError(
                    f"solver sample at lattice offset {offs} is not finite")
            cache[offs] = val
        return cache[offs]

    def bump_axis(offs: tuple[int, ...], axis: int, step: int) -> tuple[int, ...]:
        lst = list(offs)
        lst[axis] += step
        return tuple(lst)

    worst = 0.0
    interior = range(-(m - 1), m)
    for idx in np.ndindex(*((2 * m - 1,) * (n + 1))):
        offs = tuple(interior[i] for i in idx)
        center = uval(offs)
        u_tt = (uval(bump_axis(offs, n, 1)) - 2.0 * center
                + uval(bump_axis(offs, n, -1))) / h**2
        lap = 0.0
        for axis in range(n):
            lap = lap + (uval(bump_axis(offs, axis, 1)) - 2.0 * center
                         + uval(bump_axis(offs, axis, -1))) / h**2
        worst = max(worst, abs(u_tt - lap))
    return worst
