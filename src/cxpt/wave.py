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

When v carries an exact gradient, an n = 3 solve is one sphere at the
signed radius t: d/dt(t vbar) = vbar + t mean(omega . grad v), so
u = mean(v + t omega . grad v + t w) over x + t omega (n = 2 lifts the
gradient as [grad v, 0]).  Otherwise a solve first collects every radius
its Richardson radial stencils touch (``numerics.fd_stencil``), as |r|
since the means are even in r, and takes the means of v and of w at the
distinct radii with one call of the shared kernel ``numerics.sphere_sums``
per field; the stencil sums are then weighted sums of those means.  Such
an n = 3 solve takes 7 means (6 of v, 1 of w) and an n = 5 solve 14 (7 of
each; n = 5 keeps its stencils, since its second radial derivative would
need a Hessian).  The evaluator gets one sphere per call, cut into slices
of at most ``numerics.MAX_POINTS`` points where the rule is larger (S^4
has 20,000 nodes).

``extend_jet`` differentiates the n = 3 solution under the sphere means:
the means M and first moments N_l = mean(omega_l f(x + r omega)) of v and
w at the 7 radii of the first- and second-derivative stencils about t,
from one kernel call per field with the weight columns [w, w omega], give
grad u and d_t u through d_l M = r^-2 d_r(r^2 N_l) (the divergence
theorem), so the x- and t-derivatives of an extension cost no solves at
shifted points.

Evaluators may be array-valued, mapping (m, n) points to (m, dim) rows:
sphere means and radial derivatives act row-wise, so ``solve_cauchy``
and ``extend`` then return a (dim,) array.  ``clifford.maxwell_extend``
extends all blade coefficients of a multivector field this way, and
takes its current from ``extend_jet``.
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
from .fields import TestField, _lift, _single
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
    "extend_jet",
    "wave_residual",
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


def _radial_means(field: TestField, x: np.ndarray, rule, radii,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """Means of ``field`` over the spheres of radii |r| about x, one kernel call.

    Each distinct |r| is evaluated once; the result has one row per
    entry of ``radii``.  ``weights`` replaces the rule's weights, and an
    (m, q) matrix gives q sums per radius (``_moments``).  The evaluator
    gets one sphere per call (or a slice of one, past ``MAX_POINTS``):
    an array-valued evaluator returns dim values per point, and for the
    16 blade coefficients of ``maxwell_extend`` several spheres' worth of
    rows per call (0.9 MB) cost more per point than one sphere's worth,
    while a scalar evaluator costs the same per point either way.
    """
    mags = np.abs(np.asarray(radii, dtype=float)).tolist()
    distinct = sorted(set(mags))
    means = sphere_sums(point_values(field), x, distinct, rule.nodes,
                        rule.weights if weights is None else weights,
                        max_points=rule.weights.size)
    return means[[distinct.index(r) for r in mags]]


def _moments(field: TestField, x: np.ndarray, rule, radii) -> np.ndarray:
    """Mean M and first moments N_l = mean(omega_l f(x + r omega)) at signed radii.

    Row i is [M, N_1, N_2, N_3] at radii[i], (4,) or (4, dim): one kernel
    call with the weight columns [w, w omega_1, w omega_2, w omega_3],
    each distinct |r| once.  M is even in r and N odd, so the moments of
    a negative radius are those of |r| with their sign flipped.
    """
    radii = np.asarray(radii, dtype=float)
    cols = np.column_stack([rule.weights, rule.weights[:, None] * rule.nodes])
    out = _radial_means(field, x, rule, radii, cols)
    out[:, 1:] *= np.sign(radii).reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def _kirchhoff(t: float, r: np.ndarray, c: np.ndarray, mv: np.ndarray, mw_t):
    """u = d/dr(r vbar)|_{r=t} + t wbar(t), from vbar at the stencil nodes r (weights c)."""
    return (c * r) @ mv + t * mw_t


def _kirchhoff3(data: CauchyData, x: np.ndarray, rule, t: float):
    """n = 3: u = d/dr(r vbar)|_{r=t} + t wbar(t).

    When v carries an exact gradient, d/dr(r vbar) = vbar + r mean(omega.grad v),
    so u is one sphere at the signed radius t: the mean of v + t omega.grad v
    + t w over x + t omega.  Otherwise vbar is sampled at the radii of
    ``RADIAL_FD``'s stencil about t.
    """
    if data.v.gradient is not None:
        v_vals, w_vals = point_values(data.v), point_values(data.w)

        def values(pts: np.ndarray, dirs: np.ndarray, nodes: slice) -> np.ndarray:
            grad = data.v.gradient_at(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape)
            slope = np.einsum("bsn,sn->bs", grad, dirs)
            return v_vals(pts, dirs, nodes) + t * (slope + w_vals(pts, dirs, nodes))

        return sphere_sums(values, x, [t], rule.nodes, rule.weights,
                           max_points=rule.weights.size)[0]
    r, c = fd_stencil(t, RADIAL_FD, 1)
    mv = _radial_means(data.v, x, rule, r)
    mw = _radial_means(data.w, x, rule, [t])
    return _kirchhoff(t, r, c, mv, mw[0])


def _kirchhoff3_jet(data: CauchyData, x: np.ndarray, rule, t: float):
    """(u, grad_x u, d_t u) of the n = 3 solution from the sphere samples about x.

    The means M and moments N of v and w at the 7 distinct radii of
    ``RADIAL_FD``'s first- and second-derivative stencils about t give,
    with the divergence theorem d_l M(x, r) = r^-2 d_r(r^2 N_l(x, r)),

        grad u = 3 N_v' + t N_v'' + 2 N_w + t N_w',
        d_t u  = 2 M_v' + t M_v'' + M_w + t M_w',

    and u is ``_kirchhoff3``'s stencil sum (v at t = 0).
    """
    r1, c1 = fd_stencil(t, RADIAL_FD, 1)
    r2, c2 = fd_stencil(t, RADIAL_FD, 2)
    k1 = r1.size
    radii = np.concatenate([[t], r1, r2])
    mv = _moments(data.v, x, rule, radii)
    mw = _moments(data.w, x, rule, radii)
    v1 = np.tensordot(c1, mv[1:1 + k1], axes=1)
    v2 = np.tensordot(c2, mv[1 + k1:], axes=1)
    w0, w1 = mw[0], np.tensordot(c1, mw[1:1 + k1], axes=1)
    u = data.v.evaluate(x) if t == 0.0 else _kirchhoff(t, r1, c1, mv[1:1 + k1, 0], w0[0])
    grad = 3.0 * v1[1:] + t * v2[1:] + 2.0 * w0[1:] + t * w1[1:]
    u_t = 2.0 * v1[0] + t * v2[0] + w0[0] + t * w1[0]
    return u, grad, u_t


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
        lifted = CauchyData(_lift(data.v), _lift(data.w), 3)
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


def _extension_point(x: Sequence[float] | np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise UnsupportedDimensionError("extend is implemented for n = 3")
    return x


def _slices(f: SpacetimeField, s: float) -> CauchyData:
    """Cauchy data v = f(., s) and w = i f_s(., s) of the extension at s (n = 3).

    w uses the exact s-derivative when the field carries one, else the
    ``S_FD`` stencil in s.
    """
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

    return CauchyData(
        TestField(v_eval, smoothness=f.smoothness, name="extend-v"),
        TestField(w_eval, smoothness=f.smoothness, name="extend-w"),
        3,
    )


def extend(f: SpacetimeField, x: Sequence[float] | np.ndarray, s: float, t: float,
           quadrature: Quadrature = Quadrature()):
    """Extension f~(x, s + it) of a Euclidean-spacetime field (n = 3).

    Solves the Cauchy problem with v = f(., s) and w = i f_s(., s); the
    s-derivative uses the exact evaluator when the field carries one.
    ``x`` must be a 3-vector.
    """
    x = _extension_point(x)
    if t == 0.0:
        return f.evaluate(np.append(x, s))
    return solve_cauchy(_slices(f, s), x, t, quadrature)


def extend_jet(f: SpacetimeField, x: Sequence[float] | np.ndarray, s: float, t: float,
               quadrature: Quadrature = Quadrature()):
    """f~(x, s + it), its x-gradient and its t-derivative, from one centre (n = 3).

    Returns (u, grad, u_t): u is ``extend``'s value, grad has one row per
    axis of x.  All three come from the sphere means and first moments
    of v and w about x at the 7 radii of ``RADIAL_FD``'s first- and
    second-derivative stencils about t, so no solve is repeated at
    shifted points.
    """
    x = _extension_point(x)
    data = _slices(f, s)
    _check_smoothness(data, 1)
    return _kirchhoff3_jet(data, x, sphere_rule(2, quadrature.sphere_orders(2)), t)


def wave_residual(data: CauchyData, x_center: Sequence[float] | np.ndarray,
                  t_center: float, h: float = 0.05, half_points: int = 2,
                  quadrature: Quadrature = Quadrature()) -> float:
    """Max |u_tt - Lap u| over the interior of a (2m+1)^{n+1} lattice.

    The lattice is centered at (x_center, t_center) with spacing ``h`` >
    0 and ``half_points`` >= 1; solver samples are cached and shared
    between neighboring stencils.  A non-finite sample raises
    ``NonFiniteIntegrandError`` rather than dropping out of the maximum.
    """
    if not h > 0:
        raise ValueError(f"wave residual needs a lattice step h > 0, got {h}")
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
