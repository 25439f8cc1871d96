"""Spherical-means solver of the wave-equation Cauchy problem.

For odd space dimension n = 2k+1, the unique classical solution of

    u_tt = Lap u,   u(x, 0) = v(x),   u_t(x, 0) = w(x),

is, in terms of means vbar(x, r), wbar(x, r) of the data over spheres of
radius r about x (unit-mass measure),

    u(x, t) = c_n [ d/dt (1/t d/dt)^{k-1} (t^{2k-1} vbar(x, t))
                  +      (1/t d/dt)^{k-1} (t^{2k-1} wbar(x, t)) ],
    c_n = 1 / (n-2)!!,

so u = d/dt(t vbar) + t wbar for n = 3 (Kirchhoff) and the k = 2 form for
n = 5.  Even n = 2 is obtained by Hadamard descent: the n = 3 formula for
the data lifted to R^3, constant in the suppressed coordinate.  A sphere
of R^3 meets the plane twice over, so the S^2 rule, whose polar axis is
the suppressed coordinate, is folded onto its upper half: its levels +-xi
at doubled weight and the level xi = 0 once (``numerics._folded_rule``).
That is a rule on the unit disk, and the data are evaluated once at each
of its 2-D points (576 for the rule (24, 48), not 1,152).
No sign of t is assumed; t < 0 solves the final-value problem.

The same machinery evaluates the extension f~(x, s+it) of a field f(x, s)
on Euclidean spacetime: solve the Cauchy problem with v = f(., s) and
w = i f_s(., s).  Then f~ -> f as t -> 0, f~ obeys the wave equation in
(x, t), and (d_s + i d_t) f~ = 0 at t = 0; when f is harmonic in (x, s)
the extension coincides with the analytic continuation in s + it.

Every solve is a batch: ``_solve_lattice`` solves a whole lattice of
points (x_i, t_i) in one pass, and ``solve_cauchy`` is a batch of one
point.  Each formula samples through one sampler, ``_sample``, which hands
``numerics.sphere_sums`` one centre per sphere and takes each distinct
sphere once, calling the fields' evaluators and gradients directly on
the (m, n) point blocks:

* When v carries an exact gradient, an n = 3 solve is one sphere at the
  signed radius t: d/dt(t vbar) = vbar + t mean(omega . grad v), so
  u = mean(v + t omega . grad v + t w) over x + t omega (at n = 2, omega
  is a node of the folded rule and omega . grad v takes its 2-D part).
* Otherwise a solve samples every radius its Richardson radial stencils
  touch (``numerics.fd_stencil``), as |r| since the means are even in r,
  and its stencil sums are weighted sums of those means: 7 means for
  n = 3 (6 of v, 1 of w) and 14 for n = 5 (7 of each; n = 5 keeps its
  stencils, since its second radial derivative would need a Hessian).
* ``extend_jet`` differentiates the n = 3 solution under the sphere
  means: the means M and first moments N_l = mean(omega_l f(x + r omega))
  of v and w at the 7 radii of the first- and second-derivative stencils
  about t, taken with the weight columns [w, w omega], give grad u and
  d_t u through d_l M = r^-2 d_r(r^2 N_l) (the divergence theorem), so
  the x- and t-derivatives of an extension cost no solves at shifted
  points.  It is a batch of one point of ``_extension_jets``, whose
  batches of several points serve ``clifford.maxwell_extend``'s
  continuity stencil.

A batch takes one rule for all its spheres, from one
``numerics.walk_ladder``, the walk the source actions use, told how many
distinct spheres the batch takes.  When they fit in one evaluator call on
the rule of ``numerics.SPHERE_ORDER`` (at most ``numerics.MAX_POINTS``
points, as for a single one-sphere solve), the walk keeps that rule
unprobed: a probe would cost more than it saves, and no probe sphere is
built.  Otherwise it probes the fields on the outermost sphere of each
point of largest |t| (the hardest to resolve), summing what the batch sums, one
``sphere_sums`` pass for all fields per rung of ``numerics.SPHERE_LADDER``.
It keeps the lower rung of the first pair whose sums agree to
``U_ROUNDING`` of the field scale, climbing past sphere order 24 where no
lower pair agrees, up to the top rung, and the probe's sums on that rung
stand for the batch's own on those spheres, so each sphere is still
taken once.  A probe visits only the spheres of largest |t|, so a lattice
pays one walk, not one per point.

Every pass hands the evaluator whole spheres, as many as fit in
``MAX_POINTS`` points divided by the number of components of the
values the pass has already seen (the last probe's sums), and fields
left with the same spheres (v and w of ``_poisson5`` and of
``_kirchhoff3_jet``) share one pass.  ``sphere_sums`` sums each sphere
as alone, so no value depends on which spheres share a call: a single
solve keeps the bits it has as a batch of one point, and a point of a
batch keeps those of the same batch of it alone wherever the batch keeps
its rung.

Evaluators may be array-valued, mapping (m, n) points to (m, dim) rows:
sphere means and radial derivatives act row-wise, so ``solve_cauchy``
and ``extend`` then return a (dim,) array.  ``clifford.maxwell_extend``
extends all blade coefficients of a multivector field this way, takes
its current from ``extend_jet`` and its continuity residual from one
``_extension_jets`` batch of 16 points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InsufficientSmoothnessError,
    NonFiniteIntegrandError,
    UnsupportedDimensionError,
)
from .fields import TestField, _single
from .numerics import (
    MAX_POINTS,
    SLOPE_FD,
    FDScheme,
    _check_finite,
    _folded_rule,
    derivative,
    fd_stencil,
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


#: Radial stencils of the Kirchhoff and Poisson formulas.
RADIAL_FD = FDScheme(h=1e-2, order=4, richardson=True)


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


def _rule(n: int, orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights of a solve's sphere rule in R^n on the rung ``orders``.

    S^{n-1}'s rule, and for n = 2 (Hadamard descent) ``numerics._folded_rule``:
    the S^2 rule whose polar axis is the lifted coordinate, folded onto its
    upper half and projected to the plane of the data, so each distinct
    point of a lifted sphere is evaluated once.
    """
    if n == 2:
        rule = _folded_rule(orders)
        return rule.nodes[:, :2], rule.weights
    rule = sphere_rule(n - 1, orders)
    return rule.nodes, rule.weights


def _columns(dirs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weight columns [w, w omega_1, w omega_2, w omega_3] of a mean and its first moments."""
    return np.column_stack([weights, weights[:, None] * dirs])


def _point_field(f: TestField):
    """``_sample``'s form of a field: ``field(pts, dirs, r, sized)`` gives its values
    at the (b, s, n) points of spheres of radii r as a 1-tuple, and with ``sized``
    them and their moduli."""
    evaluator = f.evaluator

    def field(pts: np.ndarray, dirs: np.ndarray, r: np.ndarray, sized: bool) -> tuple:
        vals = np.asarray(evaluator(pts.reshape(-1, pts.shape[-1])))
        vals = vals.reshape(pts.shape[:2] + vals.shape[1:])
        return (vals, np.abs(vals)) if sized else (vals,)

    return field


def _slope_field(data: CauchyData):
    """Kirchhoff's one-sphere integrand v + r (omega . grad v + w) at the signed radii r,
    sized by |v| + |r| (|omega . grad v| + |w|): data whose v carries a gradient, in
    the form of ``_point_field``."""
    v, gradient, w = data.v.evaluator, data.v.gradient, data.w.evaluator

    def field(pts: np.ndarray, dirs: np.ndarray, r: np.ndarray, sized: bool) -> tuple:
        flat, shape = pts.reshape(-1, pts.shape[-1]), pts.shape[:2]
        terms = np.asarray(gradient(flat)).reshape(pts.shape) * dirs
        slope = terms[..., 0]
        for axis in range(1, dirs.shape[1]):   # omega . grad v, summed axis by axis
            slope = slope + terms[..., axis]
        vals, wvals, t = np.asarray(v(flat)), np.asarray(w(flat)), r[:, None]
        vals, wvals = vals.reshape(shape + vals.shape[1:]), wvals.reshape(shape + wvals.shape[1:])
        u = vals + t * (slope + wvals)
        return (u, np.abs(vals) + np.abs(t) * (np.abs(slope) + np.abs(wvals))) if sized else (u,)

    return field


def _sample(fields, xs: np.ndarray, ts: np.ndarray, radii, moments: bool = False) -> list:
    """Sums of each field over its spheres about the k centres ``xs``, on one rule.

    Field j (``_point_field`` or ``_slope_field``) is summed over the spheres
    of radii ``radii[j]``, a (k, p_j) array, about xs, each distinct
    (point, radius) once, with the rule's weights or, with ``moments``,
    ``_columns``: one (k, p_j, ...) array per field.  The rule is ``_rule``'s
    for the points' dimension n, so n = 2 takes the folded S^2 rule on the
    disk.  ``numerics.walk_ladder`` is told the number of distinct spheres
    of all fields: when they fit in one evaluator call on the rule of
    ``SPHERE_ORDER`` (``MAX_POINTS`` points; spheres of the unfolded S^2
    at n = 2 too, so the fold leaves every choice of rule as it was), it
    keeps that rule unprobed, and no probe sphere is built.  Otherwise it probes all fields in one
    ``sphere_sums`` pass per rung, with the same weights, on the outermost
    sphere of each point of largest |t| (the hardest to resolve), and the
    largest mean size of a field there is the field's size; the batch
    takes the lower rung of the first agreeing pair, and the probe's sums
    on it stand for the batch's own on those spheres.  Fields left with
    the same spheres share one pass.  Every pass hands each evaluator
    whole spheres, as many as fit in ``MAX_POINTS`` points divided by the
    largest number of components of a field's values in the last probe's
    sums (one before any probe), or one sphere (cut into slices past
    ``MAX_POINTS``) where a sphere alone is larger; ``sphere_sums`` sums
    each sphere as alone, so no sum depends on how the spheres are packed.
    """
    n = xs.shape[1]
    rows = [rad.tolist() for rad in radii]
    spheres = [sorted({(i, r) for i, row in enumerate(f) for r in row}) for f in rows]
    width = 1  # components of the widest field's values, read from the last probe
    probed: list[tuple[int, float]] = []   # the probe's spheres, built by its first rung

    def weighted(orders: tuple[int, ...]):
        dirs, weights = _rule(n, orders)
        return dirs, _columns(dirs, weights) if moments else weights

    def sums(group, dirs: np.ndarray, weights: np.ndarray, at, r, sized: bool = False) -> tuple:
        at, r = np.array(at), np.array(r)
        if len(group) == 1:
            field = fields[group[0]]

            def values(pts: np.ndarray, dirs: np.ndarray, nodes: slice) -> tuple:
                return field(pts, dirs, r[nodes], sized)
        else:
            def values(pts: np.ndarray, dirs: np.ndarray, nodes: slice) -> tuple:
                return tuple(chain.from_iterable(fields[j](pts, dirs, r[nodes], sized)
                                                 for j in group))

        return sphere_sums(values, xs[at], r, dirs, weights, max(len(dirs), MAX_POINTS // width))

    def probe(orders: tuple[int, ...]):
        nonlocal width
        if not probed:
            # the outermost sphere of each point of largest |t|
            for i in np.flatnonzero(np.abs(ts) == np.abs(ts).max()).tolist():
                probed.append((i, max(chain(*(f[i] for f in rows)), key=abs)))
        found = sums(range(len(fields)), *weighted(orders), *zip(*probed), sized=True)
        found, sizes = found[0::2], found[1::2]
        width = max(math.prod(s.shape[1 + moments:]) for s in found)
        return (np.column_stack([s.reshape(len(probed), -1) for s in found]),
                max(float((s[:, 0] if moments else s).real.max()) for s in sizes), found)

    orders, known, _ = walk_ladder(max(n - 1, 2), probe, spheres=sum(map(len, spheres)))
    ruled, done = weighted(orders), set(probed)
    known = [None] * len(fields) if known is None else list(known)   # None: kept unprobed
    todo = [[sphere for sphere in f if sphere not in done] for f in spheres] if done else spheres
    passes: dict[tuple, list[int]] = {}
    for j, left in enumerate(todo):
        if left:
            passes.setdefault(tuple(left), []).append(j)
    for left, group in passes.items():
        for j, taken in zip(group, sums(group, *ruled, *zip(*left))):
            known[j] = taken if known[j] is None else np.concatenate([known[j], taken])
    out = []
    for f, rad, left, got in zip(rows, radii, todo, known):
        if not done and len(left) == rad.size and all(row == sorted(row) for row in f):
            # the rows of got are the spheres of f in order
            out.append(got.reshape(rad.shape + got.shape[1:]))
            continue
        # the rows of got are the probe's spheres' sums, then those of the rest
        row_of = {sphere: j for j, sphere in enumerate(probed + left)}
        out.append(got[[[row_of[i, r] for r in row] for i, row in enumerate(f)]])
    return out


def _stencil_sum(c: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Row i is c_i @ means[i], for (p,) or (k, p) weights c and (k, p, ...) means."""
    k, p = means.shape[:2]
    return np.matmul(c[..., None, :], means.reshape(k, p, -1)).reshape((k,) + means.shape[2:])


def _kirchhoff3(data: CauchyData, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """n = 3: u = d/dr(r vbar)|_{r=t} + t wbar(t) at every (xs[i], ts[i]), t != 0.

    When v carries an exact gradient, d/dr(r vbar) = vbar + r mean(omega . grad v),
    so each u is one sphere at the signed radius t (``_slope_field``).
    Otherwise vbar is sampled at the radii of ``RADIAL_FD``'s stencil about t.
    """
    if data.v.gradient is not None:
        return _sample([_slope_field(data)], xs, ts, [ts[:, None]])[0][:, 0]
    r, c = fd_stencil(ts[:, None], RADIAL_FD, 1)
    mv, mw = _sample([_point_field(data.v), _point_field(data.w)], xs, ts,
                     [np.abs(r), np.abs(ts)[:, None]])
    t = ts.reshape((-1,) + (1,) * (mv.ndim - 2))
    return _stencil_sum(c * r, mv) + t * mw[:, 0]


def _kirchhoff3_jet(data: CauchyData, xs: np.ndarray, ts: np.ndarray):
    """(u, grad_x u, d_t u) of the n = 3 solution at every (xs[i], ts[i]), one row each.

    The means M and moments N of v and w at the 7 distinct radii of
    ``RADIAL_FD``'s first- and second-derivative stencils about each t,
    from one ``_sample`` batch with the weight columns ``_columns``, give,
    with the divergence theorem d_l M(x, r) = r^-2 d_r(r^2 N_l(x, r)),

        grad u = 3 N_v' + t N_v'' + 2 N_w + t N_w',
        d_t u  = 2 M_v' + t M_v'' + M_w + t M_w',

    and u is ``_kirchhoff3``'s stencil sum.  M is even in r
    and N odd, so the moments of a negative radius are those of |r| with N
    negated.  grad[i] has one row per axis of x.  The batch's spheres share
    one rule, so a point's values are those of a batch of it alone wherever
    the batch keeps the rung that point would keep.
    """
    r1, c1 = fd_stencil(ts[:, None], RADIAL_FD, 1)
    r2, c2 = fd_stencil(ts[:, None], RADIAL_FD, 2)
    k1 = r1.shape[1]
    radii = np.concatenate([ts[:, None], r1, r2], axis=1)
    mv, mw = _sample([_point_field(data.v), _point_field(data.w)], xs, ts,
                     [np.abs(radii)] * 2, moments=True)
    for m in (mv, mw):
        m[:, :, 1:] *= np.sign(radii).reshape(radii.shape + (1,) * (m.ndim - 2))
    v1, v2 = _stencil_sum(c1, mv[:, 1:1 + k1]), _stencil_sum(c2, mv[:, 1 + k1:])
    w0, w1 = mw[:, 0], _stencil_sum(c1, mw[:, 1:1 + k1])
    t = ts.reshape((-1,) + (1,) * (mv.ndim - 2))
    u = _stencil_sum(c1 * r1, mv[:, 1:1 + k1, 0]) + t[:, 0] * w0[:, 0]
    grad = 3.0 * v1[:, 1:] + t * v2[:, 1:] + 2.0 * w0[:, 1:] + t * w1[:, 1:]
    u_t = 2.0 * v1[:, 0] + t[:, 0] * v2[:, 0] + w0[:, 0] + t[:, 0] * w1[:, 0]
    return u, grad, u_t


def _poisson5(data: CauchyData, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """n = 5 (k = 2) in expanded radial form, valid for every t:

    u = m + (5/3) t m' + (1/3) t^2 m'' + t w + (1/3) t^2 w',

    from the means at the radii of ``RADIAL_FD``'s stencils about each t.
    """
    r1, c1 = fd_stencil(ts[:, None], RADIAL_FD, 1)
    r2, c2 = fd_stencil(ts[:, None], RADIAL_FD, 2)
    k1 = r1.shape[1]
    radii = np.abs(np.concatenate([ts[:, None], r1, r2], axis=1))
    mv, mw = _sample([_point_field(data.v), _point_field(data.w)], xs, ts,
                     [radii, radii[:, :1 + k1]])
    t = ts.reshape((-1,) + (1,) * (mv.ndim - 2))
    m0, m1, m2 = mv[:, 0], _stencil_sum(c1, mv[:, 1:1 + k1]), _stencil_sum(c2, mv[:, 1 + k1:])
    w0, w1 = mw[:, 0], _stencil_sum(c1, mw[:, 1:])
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

    A batch of one point of ``_solve_lattice``, whose t = 0 value v(x) is
    returned as ``TestField.evaluate`` returns a point's.  x must be a
    finite point of shape (n,) and t finite.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x=x, t=t)
    if x.shape != (data.n,):
        raise ValueError(f"point has shape {x.shape}, data has n={data.n}")
    u = _solve_lattice(data, x[None, :], np.array([t], dtype=float))
    return _single(u) if t == 0.0 else u[0]


def _extension_point(x: Sequence[float] | np.ndarray, s: float, t: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    _check_finite(x=x, s=s, t=t)
    if x.shape != (3,):
        raise UnsupportedDimensionError("extend is implemented for n = 3")
    return x


def _slices(f: SpacetimeField, s: float) -> CauchyData:
    """Cauchy data v = f(., s) and w = i f_s(., s) of the extension at s (n = 3).

    w uses the exact s-derivative when the field carries one, else the
    ``numerics.SLOPE_FD`` stencil in s.
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

            return 1j * derivative(slice_at, s, SLOPE_FD)

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
    shifted points; at t = 0, u is f(x, s), as ``extend`` returns it.  A
    batch of one point of ``_extension_jets``.  x, s and t must be finite.
    """
    x = _extension_point(x, s, t)
    u, grad, u_t = _extension_jets(f, x[None, :], s, np.array([t], dtype=float))
    return f.evaluate(np.append(x, s)) if t == 0.0 else u[0], grad[0], u_t[0]


def _extension_jets(f: SpacetimeField, xs: np.ndarray, s: float, ts: np.ndarray):
    """``extend_jet`` at every (xs[i], s + i ts[i]) as one ``_kirchhoff3_jet`` batch:
    (u, grad, u_t) with one row each."""
    data = _slices(f, s)
    _check_smoothness(data, 1)
    return _kirchhoff3_jet(data, xs, ts)


def _solve_lattice(data: CauchyData, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``solve_cauchy`` at every (xs[i], ts[i]), one row each, as one batch.

    The points with t = 0 are v(x); the others are one ``_kirchhoff3``
    (n = 2 and 3) or ``_poisson5`` call, whose spheres ``_sample`` takes on
    one rule.  n = 2 is Hadamard descent: the n = 3 formula for data lifted
    to R^3, constant in the lifted coordinate, whose spheres ``_rule`` folds
    onto the disk, so the data are evaluated on the plane.
    """
    if data.n not in (2, 3, 5):
        raise UnsupportedDimensionError(f"solver supports n in {{2, 3, 5}}, got {data.n}")
    _check_smoothness(data, data.n // 2)   # n = 2 needs the smoothness of n = 3
    solve, still = _poisson5 if data.n == 5 else _kirchhoff3, ts == 0.0
    if not still.any():
        return solve(data, xs, ts)
    v = data.v.evaluate(xs[still])
    out = np.empty((len(ts),) + v.shape[1:], dtype=complex)
    out[still] = v
    if not still.all():
        out[~still] = solve(data, xs[~still], ts[~still])
    return out


def wave_residual(data: CauchyData, x_center: Sequence[float] | np.ndarray,
                  t_center: float, h: float = 0.05, half_points: int = 2) -> float:
    """Max |u_tt - Lap u| over the interior of a (2m+1)^{n+1} lattice.

    The lattice is centred at the finite (x_center, t_center) with a
    spacing ``h`` > 0 whose square, the divisor of the second differences,
    is a finite normal float (h between about 1.5e-154 and 1.3e154), and
    ``half_points`` m >= 1.  The solver is
    sampled once at each interior point and each face neighbour of one
    (297 points for n = 3 and m = 2), all in one ``_solve_lattice`` batch
    on one rule, for every n and whether or not v carries a gradient.  The
    second differences are then array slices.  A non-finite sample raises
    ``NonFiniteIntegrandError`` rather than dropping out of the maximum.
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
