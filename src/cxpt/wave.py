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
gradient as [grad v, 0]), on the rule of ``numerics.SPHERE_ORDER``.
``wave_residual`` takes all its lattice points as one such batch
(``_kirchhoff_spheres``): several spheres per evaluator call, on one rule
for the batch that its probe of the points of largest |t| keeps (below).
Otherwise a solve first collects every radius its Richardson radial
stencils touch (``numerics.fd_stencil``), as |r| since the means are even
in r, and takes the means of v and of w at the distinct radii with one
call of the shared kernel ``numerics.sphere_sums`` per field; the stencil
sums are then weighted sums of those means.  Such an n = 3 solve takes 7
means (6 of v, 1 of w) and an n = 5 solve 14 (7 of each; n = 5 keeps its
stencils, since its second radial derivative would need a Hessian).  The
evaluator gets one sphere per call, cut into slices of at most
``numerics.MAX_POINTS`` points where the rule is larger (S^4 has 20,000
nodes at sphere order 24).

These stencil solves take their means on the smallest rule that agrees
with the next one up (``_fit_rule``): once per call, v and w are probed
on the outermost sphere of the stencils, one ``sphere_sums`` pass per
field and rung of ``numerics.SPHERE_LADDER``, and ``numerics.walk_ladder``,
the walk the source actions use, keeps the first rung whose sums agree
with the next rung's to ``U_ROUNDING`` of the field scale, climbing past
sphere order 24 where no lower pair agrees, up to the top rung.  The
probe's sums on the kept rung stand for the solve's own on that sphere,
so each sphere is still taken once.  A smooth n = 5 solve at t = 0.7
takes 48,780 points; the plane wave k = 8 e_1 at t = 2, which no pair up
to order 24 resolves, climbs to the top rung at 5,173,588 points.  A
single one-sphere solve skips the probe, which would cost more than it
saves, and takes the rule of ``SPHERE_ORDER``.  The residual's batch
walks the same ladder once: it probes only its spheres of largest |t|,
each rung in one pass, and every sphere takes the upper rule of the
first agreeing pair, on which the probe has already summed the outermost
ones.  Criterion 9's lattice of 297 solves evaluates 150,174 points in
42 calls; a lattice that climbs (k = (20, 0, 0) at t = 1, to (36, 72))
pays its probed layer on every rung up to the one kept, 2,751,246 points.

``extend_jet`` differentiates the n = 3 solution under the sphere means:
the means M and first moments N_l = mean(omega_l f(x + r omega)) of v and
w at the 7 radii of the first- and second-derivative stencils about t,
from one kernel call per field with the weight columns [w, w omega], give
grad u and d_t u through d_l M = r^-2 d_r(r^2 N_l) (the divergence
theorem), so the x- and t-derivatives of an extension cost no solves at
shifted points.  Its probe takes the same weight columns.

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
    _check_finite,
    derivative,
    fd_stencil,
    point_values,
    sphere_levels,
    sphere_rule,
    sphere_sums,
    walk_ladder,
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


def _columns(rule) -> np.ndarray:
    """Weight columns [w, w omega_1, w omega_2, w omega_3] of a mean and its first moments."""
    return np.column_stack([rule.weights, rule.weights[:, None] * rule.nodes])


def _fit_rule(data: CauchyData, x: np.ndarray, radius: float, moments: bool = False):
    """The rule of the first rung of the sphere-rule ladder that agrees with the next.

    The probe takes, per rung, one ``sphere_sums`` pass for v and one for w
    on the sphere of ``radius`` about x, the outermost the solve samples,
    with the weights the solve uses (the rule's, or ``_columns`` for
    moments), and the mean of |f| from the same evaluations;
    ``numerics.walk_ladder`` keeps the first rung whose sums of both fields
    agree with the next rung's to ``U_ROUNDING`` of the field scale.

    Returns the rule and, per field, the probe's sums of that sphere on it
    as {radius: sums} for ``_radial_means``, so the solve does not take it
    again.  Both sum one sphere per kernel call with the same weights, so
    the sums are those the solve would take.
    """
    dim = data.n - 1

    def probe(orders: tuple[int, ...]):
        rule = sphere_rule(dim, orders)
        weights = _columns(rule) if moments else rule.weights
        sums, size = [], 0.0
        for field in (data.v, data.w):
            values, magnitudes = point_values(field), []

            def recorded(pts: np.ndarray, dirs: np.ndarray, nodes: slice) -> np.ndarray:
                vals = values(pts, dirs, nodes)
                magnitudes.append(np.abs(vals[0]))
                return vals

            sums.append(sphere_sums(recorded, x, [radius], rule.nodes, weights,
                                    max_points=rule.weights.size)[0])
            size = max(size, float(np.max(rule.weights @ np.concatenate(magnitudes))))
        return np.concatenate([np.ravel(s) for s in sums]), size, [{radius: s} for s in sums]

    rung, known, _ = walk_ladder(dim, probe)
    return sphere_rule(dim, rung), known


def _radial_means(field: TestField, x: np.ndarray, rule, radii,
                  weights: np.ndarray | None = None,
                  known: dict[float, np.ndarray] | None = None) -> np.ndarray:
    """Means of ``field`` over the spheres of radii |r| about x, one kernel call.

    Each distinct |r| is evaluated once, and none of ``known``'s, whose
    sums (``_fit_rule``'s probe) are taken as they are; the result has one
    row per entry of ``radii``.  ``weights`` replaces the rule's weights,
    and an (m, q) matrix gives q sums per radius (``_moments``).  The
    evaluator gets one sphere per call (or a slice of one, past
    ``MAX_POINTS``): an array-valued evaluator returns dim values per
    point, and for the 16 blade coefficients of ``maxwell_extend`` several
    spheres' worth of rows per call (0.9 MB) cost more per point than one
    sphere's worth, while a scalar evaluator costs the same per point
    either way.
    """
    mags = np.abs(np.asarray(radii, dtype=float)).tolist()
    sums = dict(known or {})
    todo = sorted(set(mags) - sums.keys())
    if todo:
        sums.update(zip(todo, sphere_sums(point_values(field), x, todo, rule.nodes,
                                          rule.weights if weights is None else weights,
                                          max_points=rule.weights.size)))
    return np.stack([sums[r] for r in mags])


def _moments(field: TestField, x: np.ndarray, rule, radii,
             known: dict[float, np.ndarray] | None = None) -> np.ndarray:
    """Mean M and first moments N_l = mean(omega_l f(x + r omega)) at signed radii.

    Row i is [M, N_1, N_2, N_3] at radii[i], (4,) or (4, dim): one kernel
    call with the weight columns [w, w omega_1, w omega_2, w omega_3],
    each distinct |r| once (``known`` as in ``_radial_means``).  M is even
    in r and N odd, so the moments of a negative radius are those of |r|
    with their sign flipped.
    """
    radii = np.asarray(radii, dtype=float)
    out = _radial_means(field, x, rule, radii, _columns(rule), known)
    out[:, 1:] *= np.sign(radii).reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def _kirchhoff(t: float, r: np.ndarray, c: np.ndarray, mv: np.ndarray, mw_t):
    """u = d/dr(r vbar)|_{r=t} + t wbar(t), from vbar at the stencil nodes r (weights c)."""
    return (c * r) @ mv + t * mw_t


def _kirchhoff_spheres(data: CauchyData, xs: np.ndarray, ts: np.ndarray, fit: bool = True):
    """Kirchhoff's u_i = mean(v + t_i omega.grad v + t_i w) over x_i + t_i omega.

    For n = 3 data whose v carries a gradient, at (k, 3) centres ``xs`` and
    k nonzero signed radii ``ts``: d/dr(r vbar) = vbar + r mean(omega.grad v),
    so each solve is one sphere.  The spheres go to ``sphere_sums`` with one
    centre per radius, several per evaluator call up to ``MAX_POINTS``.

    With ``fit`` the rule comes from one ``walk_ladder`` on S^2 for the
    whole batch, probing only the spheres of largest |t| (a lattice's
    outermost layer, the hardest to resolve), with the mean of |v| +
    |t|(|omega.grad v| + |w|) as the field's size.  Every sphere takes the
    upper rule of the first agreeing pair, on which the probe has already
    summed the outermost spheres, or the top rule when no pair agrees.
    Without it, as for one solve, every sphere takes the rule of
    ``SPHERE_ORDER`` unprobed.
    """
    v_vals, w_vals = point_values(data.v), point_values(data.w)

    def sums(orders: tuple[int, ...], chosen: np.ndarray, sizes: bool = False):
        rule = sphere_rule(2, orders)
        radii = ts[chosen]

        def values(pts: np.ndarray, dirs: np.ndarray, nodes: slice) -> np.ndarray:
            grad = data.v.gradient_at(pts.reshape(-1, pts.shape[-1])).reshape(pts.shape)
            slope = np.einsum("bsn,sn->bs", grad, dirs)
            v, w, t = v_vals(pts, dirs, nodes), w_vals(pts, dirs, nodes), radii[nodes, None]
            u = v + t * (slope + w)
            if not sizes:
                return u
            return np.stack([u, np.abs(v) + np.abs(t) * (np.abs(slope) + np.abs(w))], axis=-1)

        return sphere_sums(values, xs[chosen], radii, rule.nodes, rule.weights)

    if not fit:
        return sums(sphere_levels(2), np.ones(ts.shape, dtype=bool))

    outer = np.abs(ts) == np.abs(ts).max()

    def probe(orders: tuple[int, ...]):
        found = sums(orders, outer, sizes=True)
        return found[:, :1], float(found[:, 1].real.max()), found[:, 0]

    kept, outermost, _ = walk_ladder(2, probe, upper=True)
    out = np.empty(ts.shape, dtype=complex)
    out[outer] = outermost
    if not outer.all():
        out[~outer] = sums(kept, ~outer)
    return out


def _kirchhoff3(data: CauchyData, x: np.ndarray, t: float):
    """n = 3: u = d/dr(r vbar)|_{r=t} + t wbar(t).

    When v carries an exact gradient, u is one sphere at the signed radius
    t on the rule of ``SPHERE_ORDER`` (``_kirchhoff_spheres`` unfitted).
    Otherwise vbar is sampled at the radii of ``RADIAL_FD``'s stencil about
    t, on the rule of ``_fit_rule``.
    """
    if data.v.gradient is not None:
        return _kirchhoff_spheres(data, x[None, :], np.array([t]), fit=False)[0]
    r, c = fd_stencil(t, RADIAL_FD, 1)
    rule, (known_v, _) = _fit_rule(data, x, float(np.abs(r).max()))
    mv = _radial_means(data.v, x, rule, r, known=known_v)
    mw = _radial_means(data.w, x, rule, [t])
    return _kirchhoff(t, r, c, mv, mw[0])


def _kirchhoff3_jet(data: CauchyData, x: np.ndarray, t: float):
    """(u, grad_x u, d_t u) of the n = 3 solution from the sphere samples about x.

    The means M and moments N of v and w at the 7 distinct radii of
    ``RADIAL_FD``'s first- and second-derivative stencils about t, on the
    rule of ``_fit_rule``, give, with the divergence theorem
    d_l M(x, r) = r^-2 d_r(r^2 N_l(x, r)),

        grad u = 3 N_v' + t N_v'' + 2 N_w + t N_w',
        d_t u  = 2 M_v' + t M_v'' + M_w + t M_w',

    and u is ``_kirchhoff3``'s stencil sum (v at t = 0).
    """
    r1, c1 = fd_stencil(t, RADIAL_FD, 1)
    r2, c2 = fd_stencil(t, RADIAL_FD, 2)
    k1 = r1.size
    radii = np.concatenate([[t], r1, r2])
    rule, (known_v, known_w) = _fit_rule(data, x, float(np.abs(radii).max()), moments=True)
    mv = _moments(data.v, x, rule, radii, known_v)
    mw = _moments(data.w, x, rule, radii, known_w)
    v1 = np.tensordot(c1, mv[1:1 + k1], axes=1)
    v2 = np.tensordot(c2, mv[1 + k1:], axes=1)
    w0, w1 = mw[0], np.tensordot(c1, mw[1:1 + k1], axes=1)
    u = data.v.evaluate(x) if t == 0.0 else _kirchhoff(t, r1, c1, mv[1:1 + k1, 0], w0[0])
    grad = 3.0 * v1[1:] + t * v2[1:] + 2.0 * w0[1:] + t * w1[1:]
    u_t = 2.0 * v1[0] + t * v2[0] + w0[0] + t * w1[0]
    return u, grad, u_t


def _poisson5(data: CauchyData, x: np.ndarray, t: float):
    """n = 5 (k = 2) in expanded radial form, valid for every t:

    u = m + (5/3) t m' + (1/3) t^2 m'' + t w + (1/3) t^2 w',

    from the means at the radii of ``RADIAL_FD``'s stencils about t on the
    rule of ``_fit_rule``.
    """
    r1, c1 = fd_stencil(t, RADIAL_FD, 1)
    r2, c2 = fd_stencil(t, RADIAL_FD, 2)
    k1 = r1.size
    radii = np.concatenate([[t], r1, r2])
    rule, (known_v, known_w) = _fit_rule(data, x, float(np.abs(radii).max()))
    mv = _radial_means(data.v, x, rule, radii, known=known_v)
    mw = _radial_means(data.w, x, rule, radii[:1 + k1], known=known_w)
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


def solve_cauchy(data: CauchyData, x: Sequence[float] | np.ndarray, t: float):
    """Wave-equation solution u(x, t) from Cauchy data at t = 0 (n in {2, 3, 5}).

    x and t must be finite.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x=x, t=t)
    if x.shape[0] != data.n:
        raise ValueError(f"point has dimension {x.shape[0]}, data has n={data.n}")
    if data.n == 2:
        lifted = CauchyData(_lift(data.v), _lift(data.w), 3)
        return solve_cauchy(lifted, np.append(x, 0.0), t)
    if data.n not in (3, 5):
        raise UnsupportedDimensionError(f"solver supports n in {{2, 3, 5}}, got {data.n}")
    k = (data.n - 1) // 2
    _check_smoothness(data, k)
    if t == 0.0:
        return data.v.evaluate(x)
    if data.n == 3:
        return _kirchhoff3(data, x, t)
    return _poisson5(data, x, t)


def _extension_point(x: Sequence[float] | np.ndarray, s: float, t: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _check_finite(x=x, s=s, t=t)
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


def extend(f: SpacetimeField, x: Sequence[float] | np.ndarray, s: float, t: float):
    """Extension f~(x, s + it) of a Euclidean-spacetime field (n = 3).

    Solves the Cauchy problem with v = f(., s) and w = i f_s(., s); the
    s-derivative uses the exact evaluator when the field carries one.
    ``x`` must be a finite 3-vector, and s and t finite.
    """
    x = _extension_point(x, s, t)
    if t == 0.0:
        return f.evaluate(np.append(x, s))
    return solve_cauchy(_slices(f, s), x, t)


def extend_jet(f: SpacetimeField, x: Sequence[float] | np.ndarray, s: float, t: float):
    """f~(x, s + it), its x-gradient and its t-derivative, from one centre (n = 3).

    Returns (u, grad, u_t): u is ``extend``'s value, grad has one row per
    axis of x.  All three come from the sphere means and first moments
    of v and w about x at the 7 radii of ``RADIAL_FD``'s first- and
    second-derivative stencils about t, so no solve is repeated at
    shifted points.  x, s and t must be finite.
    """
    x = _extension_point(x, s, t)
    data = _slices(f, s)
    _check_smoothness(data, 1)
    return _kirchhoff3_jet(data, x, t)


def _solve_lattice(data: CauchyData, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``solve_cauchy`` at every (xs[i], ts[i]), one row each.

    When v carries a gradient and n is 3 (or 2, lifted), the points with
    t != 0 are one ``_kirchhoff_spheres`` batch on the ladder of S^2, and
    those with t = 0 are v(x).  Otherwise each point is its own solve.
    """
    if data.v.gradient is None or data.n not in (2, 3):
        return np.stack([np.asarray(solve_cauchy(data, x, t))
                         for x, t in zip(xs, ts)])
    if data.n == 2:
        data = CauchyData(_lift(data.v), _lift(data.w), 3)
        xs = np.column_stack([xs, np.zeros(len(xs))])
    _check_smoothness(data, 1)
    out = np.empty(ts.shape, dtype=complex)
    still = ts == 0.0
    if still.any():
        out[still] = data.v.evaluate(xs[still])
    if not still.all():
        out[~still] = _kirchhoff_spheres(data, xs[~still], ts[~still])
    return out


def wave_residual(data: CauchyData, x_center: Sequence[float] | np.ndarray,
                  t_center: float, h: float = 0.05, half_points: int = 2) -> float:
    """Max |u_tt - Lap u| over the interior of a (2m+1)^{n+1} lattice.

    The lattice is centred at the finite (x_center, t_center) with a
    spacing ``h`` > 0 whose square, the divisor of the second differences,
    is a finite normal float (h between about 1.5e-154 and 1.3e154), and
    ``half_points`` m >= 1.  The solver is
    sampled once at each interior point and each face neighbour of one
    (297 points for n = 3 and m = 2), all in one ``_solve_lattice`` call:
    when v carries a gradient (n = 3, or 2), that is one batch of
    one-sphere solves on the rule its probe of the points of largest |t|
    keeps.  The second differences are then array slices.  A non-finite
    sample raises ``NonFiniteIntegrandError`` rather than dropping out of
    the maximum.
    """
    if not (h > 0 and np.finfo(float).tiny <= h * h < math.inf):
        raise ValueError(f"wave residual needs a lattice step h > 0 whose square h^2 "
                         f"neither underflows nor overflows, got h = {h}")
    if half_points < 1:
        raise ValueError(f"wave_residual needs half_points >= 1, got {half_points}")
    x_center = np.asarray(x_center, dtype=float)
    _check_finite(x_center=x_center, t_center=t_center)
    n, m = data.n, half_points
    if x_center.shape != (n,):
        raise ValueError(f"x_center has shape {x_center.shape}, data has n={n}")
    offsets = np.indices((2 * m + 1,) * (n + 1)).reshape(n + 1, -1).T - m
    offsets = offsets[np.sum(np.abs(offsets) == m, axis=1) <= 1]
    u = _solve_lattice(data, x_center + offsets[:, :n] * h, t_center + offsets[:, n] * h)
    finite = np.isfinite(u).reshape(len(u), -1).all(axis=1)
    if not finite.all():
        raise NonFiniteIntegrandError("solver sample at lattice offset "
                                      f"{tuple(offsets[~finite][0].tolist())} is not finite")
    grid = np.zeros((2 * m + 1,) * (n + 1) + u.shape[1:], dtype=complex)
    grid[tuple((offsets + m).T)] = u
    inner = (slice(1, -1),) * (n + 1)

    def second(axis: int) -> np.ndarray:
        """(u[+1] - 2 u + u[-1]) / h^2 along ``axis`` at the interior points."""
        lo, hi = list(inner), list(inner)
        lo[axis], hi[axis] = slice(None, -2), slice(2, None)
        return (grid[tuple(hi)] - 2.0 * grid[inner] + grid[tuple(lo)]) / h**2

    lap = 0.0
    for axis in range(n):
        lap = lap + second(axis)
    gap = second(n) - lap
    # hypot is the scalar abs; numpy's vectorised complex abs can differ in the last bit
    return float(np.max(np.hypot(gap.real, gap.imag)))
