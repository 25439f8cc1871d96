"""Extended point-source distributions as numerically evaluated functionals.

The holomorphic potential phi(z) has source delta~(z) = Lap phi(z), a
generalized function of x for each fixed axis y.  With a = |y| and the
sphere means

    fbar(rho, zeta) = mean of f over the (n-2)-sphere of radius rho
                      centered at zeta y_hat in the hyperplane y-perp,

its action takes closed quadrature-ready forms:

* n = 3 (rim + single layer + double layer):
      <delta~, f> = L0 + L1 + i L2,
      L0 = fbar(a, 0),
      L1 = -a Int_0^a (fbar(rho(q), 0) - fbar(a, 0)) / q^2 dq,
      L2 = -Int_0^a fbar_zeta(rho(q), 0) dq,        rho(q) = sqrt(a^2 - q^2).
* even n = 2k+2 in {4, 6}:
      <delta~, f> = (a sqrt(pi) / Gamma(k+1/2)) D_rho^k F(rho) |_{rho=a},
      D_rho = d/d(rho^2),
      F(rho) = rho^{2k-1} [fbar(rho,0) + i (a^2-rho^2)/(2ka) fbar_zeta(rho,0)].
* odd n = 2k+3 in {3, 5} (Taylor-subtracted principal-value form):
      <delta~, f> = V_n(f) + (2 (-1)^k / A_n) Sum_{l=0}^k a^{2l-2k} T_{2l} / (2k-2l+1),
      V_n(f) = (2 i^{1-n} a / A_n) Int_0^a (F(iq) - Sum_m T_m q^m) / q^{n-1} dq,
      T_{2m} = ((-1)^m / m!) D_rho^m F(rho) |_{rho=a},   A_n = omega_n / omega_{n-1}.
* regularized (support on the spheroid p = eps):
      I_eps = ((a^2+eps^2)^{nu+1} / (a^{n-2} A_n))
              Int_{-a}^{a} F#(eps+iq) / (eps+iq)^{n-1} dq,    nu = (n-3)/2,
      F#(gamma) = (a^2-q^2)^nu [f#bar(gamma) + gamma f#bar_p(gamma)/(n-2)].

The monopole is Q = 1, the dipole P = -iy, and the centroid of a source
at z_S is z_S itself; as a -> 0 every action contracts to f(0).

Every formula reaches the field only through the means fbar and one
slope of them at the same nodes (fbar_zeta, fbar_rho or d/dp fbar#),
which ``_AxialField.sample`` gives at whole arrays of nodes through the
shared kernel ``numerics.sphere_sums`` (at most ``numerics.MAX_POINTS``
points per field call): one pass over f and its exact gradient when the
field has one, and when it does not one pass over f at each sphere point
and at the 4 nodes of ``numerics.SLOPE_FD`` (step 1e-3) along each slope
direction.  With a gradient, the slope across the axis is summed only
when asked for (the u-panels take fbar_zeta alone), as one product a
sphere of the gradients with the rule's weights times its directions;
a rule's directions are built by the first pass on it.

Once, at its start, each action calls ``_AxialField.fit_rule``, which
probes the field on spheres that span those the action samples: about 0
at four radii up to the largest (a for n = 3, 5, a sqrt(1.5) for the
n = 6 panel) for the singular actions, and on the spheroid p = eps at
seven q of both signs for the regularized one.  The shared walk
``numerics.walk_ladder`` climbs the fixed ladder
``numerics.SPHERE_LADDER`` (sphere orders 6 to 48) and keeps the first
rung whose probe agrees with the next rung's (the next two rungs' on
S^1, whose equispaced rules alias shared modes) to ``U_ROUNDING`` of the
field scale; if none does, the top rung stays, and the walk's last
disagreement joins the n = 3 and regularized error estimates.  A walk
that probes always probes the lowest rung and the one (two on S^1) it is
checked against, so one pass takes those rungs together, one field call
for all their probe spheres, and each rung above takes a pass of its
own.  Each singular action tells the walk how many spheres it samples
in one pass: ``U_NODES`` for a u-panel, 1 for ``singular_action_r4``.
Where that many spheres of the rule of ``numerics.SPHERE_ORDER`` fit in
one field call, the walk keeps that rule unprobed: the n = 3 singular
actions and the one-sphere n = 4 singular action.  The regularized action always
probes: its first pass takes the spheres of the 33 theta-nodes of at
least two geometric panels, more than one call holds on any such rule,
and its probe's means of |f| give the scale of its zero-action floor.
The wave solver's stencil solves walk the same ladder (see ``wave``).

The singular actions interpolate the means in u = rho^2, where they
are smooth, on 16-node Chebyshev panels in u that are halved until their
trailing coefficients reach rounding level, or raise
``ConvergenceError`` below a^2 / 2^8.  The even-n actions take their rim
derivatives inside one panel centred on u = a^2.  The odd-n ones take
the rim Taylor terms and the Taylor-subtracted q-quotient by exact
division on the panel ending at the rim, and the quotients directly
elsewhere, where nothing cancels.  Each u-panel's q-integral is one
Gauss-Kronrod call of order ``numerics.INTERVAL_ORDER``.

The regularized action integrates over theta-panels (q = a sin theta)
that grow by ``THETA_GROWTH`` from eps / a, on both sides of theta = 0,
all in one Gauss-Kronrod call of the same order (so one field pass), and
halves the panel with the largest |K - G|, its two halves in one call
(one pass each halving), until the estimates sum to ``U_ROUNDING`` of
Sum |K|, raising ``ConvergenceError`` once a panel has been halved
``U_SPLITS`` times.  A zero action stops at rounding instead:
halving stops once Sum |K| is below ``U_ROUNDING`` of the Sum |K| a field
as large as f's means of |f| on the spheroid would give.  ``_regularized`` also returns its error
estimate, (Sum |K - G| + (2^-52 + rule_error) Sum |K|) times the
prefactor; the 2^-52 term is the rounding floor of the kernel's
cancellation at small eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import Chebyshev

from .errors import (
    ConvergenceError,
    InsufficientSmoothnessError,
    InvalidIndexError,
    NonFiniteIntegrandError,
    UnsupportedDimensionError,
    WindowTooSmallError,
)
from .fields import TestField, _lift, constant, coordinate
from .geometry import oblate_rho_zeta
from .numerics import (
    INTERVAL_ORDER,
    MAX_POINTS,
    SLOPE_FD,
    SPHERE_LADDER,
    U_ROUNDING,
    _folded_rule,
    fd_stencil,
    integrate_interval,
    orthonormal_complement_frame,
    point_values,
    sphere_area,
    sphere_levels,
    sphere_rule,
    sphere_sums,
    walk_ladder,
)

__all__ = [
    "SourceAction",
    "lambda_coeff",
    "regularized_action",
    "singular_action_r3",
    "singular_action_r4",
    "singular_action_even",
    "singular_action_odd",
    "singular_action",
    "moments",
    "centroid",
    "descent_check",
]


#: Nodes of a u-panel (the rim derivatives amplify rounding by about N^4, so a
#: panel that 16 nodes miss is halved instead) and the most halvings of
#: [0, a^2]; panels are resolved to ``numerics.U_ROUNDING``, the rounding
#: level of a sample.  The regularized action halves its theta-panels to the
#: same level, at most as often.
U_NODES = 16
U_SPLITS = 8
#: Ratio of consecutive theta-panel ends of the regularized action, from eps / a.
THETA_GROWTH = 4.0
#: Probe spheres of a sphere-rule choice in u = rho^2, as fractions of the
#: largest rho^2 the action samples.
PROBE_U = (1.0, 0.75, 0.5, 0.25)


@dataclass(frozen=True)
class SourceAction:
    """Value of <delta~, f> with the n=3 rim/layer decomposition when available."""

    value: complex
    parts: dict[str, complex] | None
    err_estimate: float


def _omega_ratio(n: int) -> float:
    """A_n = omega_n / omega_{n-1}."""
    return sphere_area(n) / sphere_area(n - 1)


def lambda_coeff(k: int, m: int, a: float) -> float:
    """Limit lambda^m_k(0) of the regularization coefficients = lambda_{k-m}.

    lambda_1 = pi, lambda_{2l} = 2 (-1)^{l+1} / ((2l-1) a^{2l-1}), and
    lambda_{2l+1} = 0 for l >= 1.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if m < 0 or k < 1 or m >= k:
        raise InvalidIndexError(f"need 0 <= m < k with k >= 1, got k={k}, m={m}")
    j = k - m
    if j == 1:
        return math.pi
    if j % 2 == 0:
        l = j // 2
        return 2.0 * (-1.0) ** (l + 1) / ((2 * l - 1) * a ** (2 * l - 1))
    return 0.0


def _require_smoothness(f: TestField, needed: float, op: str) -> None:
    if getattr(f, "smoothness", math.inf) < needed:
        raise InsufficientSmoothnessError(
            f"{op} needs a C^{needed} field, got smoothness {f.smoothness}"
        )


def _axis(y: Sequence[float] | np.ndarray, n: int | None) -> np.ndarray:
    """The axis y as a float vector of n entries (n = its length when None), or ValueError."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or n not in (None, y.shape[0]):
        want = "be a 1-D vector" if n is None else f"have shape ({n},) for n = {n}"
        raise ValueError(f"axis vector y must {want}, got shape {y.shape}")
    return y


class _Rule:
    """A sphere rule of an ``_AxialField``: its orders and weights and, built on first
    use, its directions in y-perp and the fold w * omega, whose one product with a
    sphere's gradients is the weighted sum of its omega-slopes."""

    def __init__(self, orders: tuple[int, ...], rule, frame: np.ndarray) -> None:
        self.orders, self.weights = orders, rule.weights
        self._nodes, self._frame = rule.nodes, frame
        self._dirs = self._fold = None

    @property
    def dirs(self) -> np.ndarray:
        if self._dirs is None:
            self._dirs = self._nodes @ self._frame.T      # (m, n) unit vectors in y-perp
        return self._dirs

    @property
    def fold(self) -> np.ndarray:
        if self._fold is None:
            self._fold = self.weights[:, None] * self.dirs
        return self._fold


class _AxialField:
    """Sphere means of a test field relative to a fixed axis y != 0.

    ``sample`` gives fbar(rho, zeta) over the (n-2)-sphere in y-perp and
    its slopes, means of grad f . (drho omega + dzeta y_hat), at arrays
    of (rho, zeta) nodes; ``u_panels`` turns functions of u = rho^2 built
    from them into piecewise Chebyshev interpolants.  ``fit_rule`` picks
    the sphere rule they use, once per action; until then it is that of
    ``numerics.SPHERE_ORDER``.  A rule's directions are built by the first
    pass on it, so the rule that a probing walk replaces costs nothing.
    ``fit_disk_rule`` is ``fit_rule`` for the singular actions' disk and
    gives the rim mean of |f| that ``u_panels`` resolves against.  A
    ``lifted`` field (n = 4, even in its last coordinate s, with y in
    s = 0: ``descent_check``'s) takes its S^2 rules folded about s, half
    the points.
    """

    def __init__(self, f: TestField, y: np.ndarray, n: int, lifted: bool = False) -> None:
        self.f = f
        self.y = np.asarray(y, dtype=float)
        self.n = n
        self.a = float(np.linalg.norm(self.y))
        if not math.isfinite(self.a):
            raise ValueError(f"axis vector y must be finite, got {self.y.tolist()}")
        if self.a == 0.0:
            raise ValueError("axis vector y must be nonzero here")
        self.yhat = self.y / self.a
        self._lifted = lifted
        if lifted:
            # n = 4, f even in its last coordinate s and y in s = 0: e_s is pinned as
            # the polar axis of the S^2 rule, whose levels +-xi then fold onto one
            self._frame = np.zeros((n, n - 1))
            self._frame[:-1, :-1] = orthonormal_complement_frame(self.y[:-1])
            self._frame[-1, -1] = 1.0
        else:
            self._frame = orthonormal_complement_frame(self.y)
        self._rule = self._rule_of(sphere_levels(n - 2))
        #: the ladder walk's last disagreement (its top pair's, off S^1), in units
        #: of the field scale, when it kept no rung (else 0)
        self.rule_error = 0.0
        # rounding of a times a slope sample, in U_ROUNDING: eps a sum|w| for FD stencils
        self.slope_noise = 1.0 if f.gradient is not None else max(
            1.0, np.finfo(float).eps * self.a * np.abs(fd_stencil(0.0, SLOPE_FD)[1]).sum()
            / U_ROUNDING)

    def _rule_of(self, orders: tuple[int, ...]) -> _Rule:
        rule = _folded_rule(orders) if self._lifted else sphere_rule(self.n - 2, orders)
        return _Rule(orders, rule, self._frame)

    def _use_rule(self, orders: tuple[int, ...]) -> None:
        if orders != self._rule.orders:
            self._rule = self._rule_of(orders)

    def fit_rule(self, rho: np.ndarray, zeta: np.ndarray | float,
                 spheres: int | None = None) -> np.ndarray | None:
        """Use the smallest rule of the ladder that agrees with the next rules up.

        The probe takes the mean, a times the omega- and y_hat-slopes and the
        mean of |f| on the spheres of radii ``rho`` about ``zeta`` y_hat,
        which should span the spheres the action samples.
        ``numerics.walk_ladder`` walks the sphere-rule ladder upwards with it
        and keeps the first rung that agrees with the next rung up (the next
        two on S^1) within ``U_ROUNDING`` times the field scale (the largest
        of every sample and mean of |f| so far), times ``slope_noise`` for
        the slopes.  A walk that probes always probes the lowest rung and
        the one (two on S^1) it is checked against: one ``sample`` pass takes
        those rungs together, each rung's sums bit for bit those of a pass on
        it alone, and each rung above takes a pass of its own.  If none is
        kept, the top rung is, and ``rule_error`` takes the walk's last
        disagreement (the top pair's, off S^1) in that scale; a field that
        vanishes on every probe sphere keeps the rule of ``SPHERE_ORDER``.
        Each call starts from that rule and a ``rule_error`` of 0.

        ``spheres``, if given, is the number of spheres the action then
        samples in one pass; the walk keeps the rule of ``SPHERE_ORDER``
        unprobed when they fit in one field call on it.  Without it the walk
        always probes.  Returns the means of |f| at the probe spheres on the
        rule kept, or None when it did not probe.
        """
        self._use_rule(sphere_levels(self.n - 2))
        self.rule_error = 0.0
        pairs = ((1.0, 0.0), (0.0, 1.0))
        first = [sphere_levels(self.n - 2, order)
                 for order in SPHERE_LADDER[:3 if self.n == 3 else 2]]
        ahead: dict[tuple[int, ...], tuple] = {}    # the first rungs' rules and samples

        def probe(orders: tuple[int, ...]):
            if orders == first[0]:
                rules = [self._rule_of(rung) for rung in first]
                ahead.update(zip(first, zip(rules, self._sample(rho, zeta, pairs, True, rules))))
            if orders in ahead:
                fbar, d_rho, d_zeta, magnitude = ahead[orders][1]
            else:
                self._use_rule(orders)
                fbar, d_rho, d_zeta, magnitude = self.sample(rho, zeta, pairs, magnitude=True)
            return (np.column_stack([fbar, self.a * d_rho, self.a * d_zeta]),
                    float(magnitude.max()), magnitude)

        rung, magnitude, self.rule_error = walk_ladder(
            self.n - 2, probe, np.array([1.0, self.slope_noise, self.slope_noise]), spheres)
        if rung in ahead:
            self._rule = ahead[rung][0]
        else:
            self._use_rule(rung)
        return magnitude

    def fit_disk_rule(self, rho_max: float) -> float:
        """``fit_rule`` on the spheres about 0 of radii rho_max sqrt(``PROBE_U``), for
        the ``U_NODES`` spheres of a u-panel; returns the rim mean of |f|, the first
        probe's when rho_max is a."""
        probed = self.fit_rule(rho_max * np.sqrt(PROBE_U), 0.0, U_NODES)
        if probed is not None and rho_max == self.a:
            return float(probed[0])
        return float(self.magnitude(np.array([self.a]), np.zeros(1))[0])

    def magnitude(self, rho: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        """Means of |f| on the spheres of radii ``rho`` about ``zeta`` y_hat, one pass."""
        values = point_values(lambda pts: np.abs(self.f.evaluate(pts)))
        return self._sphere_sums(rho, zeta, values, [self._rule])[0].real

    def _sphere_sums(self, rho: np.ndarray, zeta: np.ndarray, values, rules: list[_Rule],
                     weights: list | None = None, max_points: int = MAX_POINTS) -> list:
        """``numerics.sphere_sums`` over the (n-2)-spheres about zeta y_hat of radius rho,
        on each of ``rules`` in the same pass, with its weights or its entry of
        ``weights``: one result per rule."""
        return sphere_sums(values, zeta[:, None] * self.yhat, rho, [rule.dirs for rule in rules],
                           weights or [rule.weights for rule in rules], max_points)

    def sample(self, rho, zeta, slopes, magnitude: bool = False) -> tuple[np.ndarray, ...]:
        """fbar(rho, zeta) and, per (drho, dzeta) pair of ``slopes``, the mean of
        grad f . (drho omega + dzeta y_hat).

        Each drho and dzeta is a number or an array of the nodes' shape, the
        broadcast shape of (rho, zeta); the mean and each slope take that
        shape, and all come from one sphere pass, which with ``magnitude``
        also gives a last array, the mean of |f|.  With an exact gradient
        it runs at the nodes over f and y_hat . grad f, one product a sphere
        of the rule's weights with both, and, only when some pair has a
        drho that is not 0, the omega-slope: one product a sphere of its
        gradients with the rule's fold w * omega.  Without one it runs at
        the nodes over f, evaluated once per sphere point, and the central
        difference ``numerics.SLOPE_FD`` of f along each pair's direction
        drho omega + dzeta y_hat, on blocks of a fifth of ``MAX_POINTS``
        sphere points, whose stencils reach the field at most
        ``MAX_POINTS`` points per call.
        """
        return self._sample(rho, zeta, slopes, magnitude, [self._rule])[0]

    def _sample(self, rho, zeta, slopes, magnitude: bool, rules: list[_Rule]) -> list[tuple]:
        """``sample`` on each of ``rules``, all in one pass: one tuple per rule."""
        rho, zeta = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                        np.asarray(zeta, dtype=float))
        if self.f.gradient is None:
            # each pair's drho and dzeta at every node, one column per pair
            drho_n, dzeta_n = np.moveaxis([np.broadcast_arrays(rho, *pair)[1:] for pair in slopes],
                                          0, -1).reshape(2, rho.size, len(slopes))
            steps, weights = fd_stencil(0.0, SLOPE_FD)

            def stencil(pts, dirs, nodes):
                shift = (drho_n[nodes, :, None, None] * dirs
                         + dzeta_n[nodes, :, None, None] * self.yhat)
                around = pts[None, :, None] + steps[:, None, None, None, None] * shift
                flat = np.concatenate([pts.reshape(-1, self.n), around.reshape(-1, self.n)])
                vals = np.concatenate([self.f.evaluate(flat[i:i + MAX_POINTS])
                                       for i in range(0, flat.shape[0], MAX_POINTS)])
                centre = vals[:pts.shape[0] * pts.shape[1]].reshape(pts.shape[:2])
                diffs = np.tensordot(weights, vals[centre.size:].reshape(around.shape[:-1]), axes=1)
                columns = [centre, *np.moveaxis(diffs, 1, 0)]
                return np.stack(columns + [np.abs(centre)] if magnitude else columns, axis=-1)

            found = []
            for sums in self._sphere_sums(rho.ravel(), zeta.ravel(), stencil, rules,
                                          max_points=MAX_POINTS // (1 + steps.size)):
                sums = sums.reshape(rho.shape + sums.shape[-1:])
                out = tuple(np.moveaxis(sums[..., :1 + len(slopes)], -1, 0))
                found.append(out + (sums[..., -1].real,) if magnitude else out)
            return found

        asks = [bool(np.any(drho)) for drho, _ in slopes]     # which pairs take the omega-slope
        omega = any(asks)

        def values(pts, dirs, nodes):
            flat = pts.reshape(-1, self.n)
            grad = self.f.gradient_at(flat).reshape(pts.shape)
            # [f, y_hat . grad f], with magnitude [f, y_hat . grad f, |f|, 0]: BLAS sums
            # 3 columns in another order than 4, and a probe's sums keep those of 4
            block = np.empty(pts.shape[:2] + (4 if magnitude else 2,), dtype=complex)
            block[..., 0] = self.f.evaluate(flat).reshape(pts.shape[:2])
            block[..., 1] = grad @ self.yhat
            if magnitude:
                block[..., 2] = np.abs(block[..., 0])
                block[..., 3] = 0.0
            return (block, grad) if omega else block

        found = []
        for sums in self._sphere_sums(rho.ravel(), zeta.ravel(), values, rules,
                                      [(rule.weights, rule.fold) for rule in rules]
                                      if omega else None):
            sums, folded = sums if omega else (sums, None)
            sums = sums.reshape(rho.shape + sums.shape[-1:])
            out = (sums[..., 0],) + tuple(
                drho * folded.reshape(rho.shape) + dzeta * sums[..., 1] if ask
                else dzeta * sums[..., 1] for (drho, dzeta), ask in zip(slopes, asks))
            found.append(out + (sums[..., 2].real,) if magnitude else out)
        return found

    # -- functions of u = rho^2 on the disk ---------------------------------
    def u_panels(self, fun, noise: Sequence[float], rim: float,
                 cover: bool = True) -> list[list[Chebyshev]]:
        """Piecewise Chebyshev interpolants in u = rho^2, one list of panels per column.

        ``fun`` maps u-nodes to (nodes, q) samples in the units of f, whose
        column j has a rounding of ``noise[j]`` times ``U_ROUNDING`` of the
        field scale.  A panel is kept when every column's last three
        coefficients are below that rounding, and halved when not.  With
        ``cover`` the panels cover [0, a^2], the rim panel (the one ending
        at a^2) last, and the scale is the largest of ``rim``, the rim mean
        of |f|, and every sample so far.  Without it there is one panel,
        centred on a^2 so that rim derivatives are taken inside it, from
        [a^2/2, 3a^2/2] down, and it is resolved against ``rim`` and its own
        samples, since a rim derivative is as small as the field there.
        """
        level, a2 = rim, self.a**2
        todo, panels = [(0.0, a2, 0) if cover else (0.5 * a2, 1.5 * a2, 0)], []
        while todo:
            lo, hi, depth = todo.pop()
            fits, peak = _chebyshev_fit(fun, U_NODES, [lo, hi])
            level = max(level, peak) if cover else max(rim, peak)
            tail = max(_tail(interp) / scale for interp, scale in zip(fits, noise))
            if tail <= U_ROUNDING * level:
                panels.append(fits)
                continue
            if depth == U_SPLITS:
                raise ConvergenceError(
                    f"means of {self.f.name or 'the field'} about |y| = {self.a:g} are not "
                    f"resolved on panels of a^2 / 2^{U_SPLITS} in rho^2 "
                    f"(tail {tail:.2e} on [{lo:.3g}, {hi:.3g}], field scale {level:.2e})")
            if cover:
                mid = 0.5 * (lo + hi)
                todo += [(mid, hi, depth + 1), (lo, mid, depth + 1)]
            else:
                todo.append((0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi, depth + 1))
        panels.sort(key=lambda panel: panel[0].domain[0])
        return [list(column) for column in zip(*panels)]

    def g_panels(self, rim: float, cover: bool = True) -> list[Chebyshev]:
        """g(u) = fbar + i (a^2-u)/((n-2) a) fbar_zeta at (sqrt(u), 0); F = u^{(n-3)/2} g."""
        a, n = self.a, self.n

        def g(u: np.ndarray) -> np.ndarray:
            fbar, slope = self.sample(np.sqrt(u), 0.0, ((0.0, 1.0),))
            return (fbar + 1j * (a**2 - u) / ((n - 2) * a) * slope)[:, None]

        return self.u_panels(g, [self.slope_noise], rim, cover=cover)[0]


def _chebyshev_fit(fun, nodes: int, domain: list[float]) -> tuple[list[Chebyshev], float]:
    """Interpolants of the (nodes, q) columns of ``fun`` at ``nodes`` first-kind
    Chebyshev points of ``domain``, and the largest sample magnitude.

    The coefficients are cosine sums of the samples, each cos(j theta_i) taken
    at its angle reduced exactly mod 2 pi: ``Chebyshev.interpolate`` builds
    them by a recurrence whose rounding made harmonic n = 6 actions 7 times,
    and acceptance criterion 4, 12 times less accurate.
    """
    turns = np.outer(np.arange(nodes), 2 * np.arange(nodes) + 1) % (4 * nodes)
    x = np.cos(np.pi * (2 * np.arange(nodes) + 1) / (2 * nodes))
    samples = fun(domain[0] + 0.5 * (domain[1] - domain[0]) * (x + 1.0))
    cosines = np.cos(np.pi * turns / (2 * nodes))
    # one product per column, so each column rounds exactly as a 1-D fit of it
    coef = np.array([cosines @ column for column in samples.T]) * (2.0 / nodes)
    coef[:, 0] /= 2.0
    return [Chebyshev(row, domain) for row in coef], float(np.abs(samples).max())


def _tail(interp: Chebyshev) -> float:
    """Largest of the last three Chebyshev coefficients in magnitude."""
    return float(np.abs(interp.coef[-3:]).max())


def _integrate_panels(integrand, pieces: list[Chebyshev], a: float) -> tuple[complex, float]:
    """Sum over u-panels of Int integrand(piece, q) dq on the panel's q = sqrt(a^2 - u) range.

    Returns the value and the summed ``integrate_interval`` error estimates.
    """
    value, error = 0j, 0.0
    for piece in pieces:
        lo, hi = piece.domain
        part = integrate_interval(lambda q: integrand(piece, q), math.sqrt(a**2 - hi),
                                  math.sqrt(a**2 - lo), order=INTERVAL_ORDER)
        value, error = value + part.value, error + part.error
    return value, error


def _taylor_subtracted(pieces: list[Chebyshev], k: int,
                       a: float) -> tuple[list[complex], complex, float]:
    """Rim Taylor coefficients T_2m = ((-1)^m / m!) D_u^m F(a^2), m <= k, of the
    panels of F, and Int_0^a (F(a^2-q^2) - Sum_m T_2m q^2m) / q^{2k+2} dq with its error.

    On the rim panel F = (u - a^2)^{k+1} Q + R with R the Taylor polynomial, so
    the integrand is (-1)^{k+1} Q(a^2-q^2) and nothing cancels near q = 0; on
    the other panels it is taken directly.
    """
    rim_f = pieces[-1]
    quotient, taylor = divmod(rim_f, Chebyshev.fromroots([a**2] * (k + 1), domain=rim_f.domain))
    t2 = [(-1.0) ** m / math.factorial(m) * complex(taylor.deriv(m)(a**2)) for m in range(k + 1)]

    def integrand(f_hat: Chebyshev, q: np.ndarray) -> np.ndarray:
        if f_hat is rim_f:
            return (-1.0) ** (k + 1) * quotient(a**2 - q**2)
        head = sum(t2[m] * q ** (2 * m) for m in range(k + 1))
        return (f_hat(a**2 - q**2) - head) / q ** (2 * k + 2)

    return (t2, *_integrate_panels(integrand, pieces, a))


def singular_action_r3(f: TestField, y: Sequence[float] | np.ndarray) -> SourceAction:
    """Action of the extended source in R^3: rim + single layer + i double layer."""
    y = _axis(y, 3)
    if np.linalg.norm(y) == 0.0:
        v = f.evaluate(np.zeros(3))
        return SourceAction(v, {"rim": v, "single_layer": 0j, "double_layer": 0j}, 0.0)
    _require_smoothness(f, 1, "singular_action_r3")
    af = _AxialField(f, y, 3)
    a = af.a
    rim = af.fit_disk_rule(a)
    g_pieces, ah_pieces = af.u_panels(      # G = fbar(sqrt(u), 0), a H = a fbar_zeta
        lambda u: np.stack(af.sample(np.sqrt(u), 0.0, ((0.0, 1.0),)), axis=1) * [1.0, a],
        [1.0, af.slope_noise], rim)
    # rim L0 = G(a^2); single layer: -a Int_0^a (G(a^2-q^2) - L0) / q^2 dq
    (l0,), int1, err1 = _taylor_subtracted(g_pieces, 0, a)
    l1 = -a * int1

    # double layer: -Int_0^a fbar_zeta(rho(q), 0) dq
    int2, err2 = _integrate_panels(lambda ah_hat, q: ah_hat(a**2 - q**2), ah_pieces, a)
    l2 = -int2 / a

    # the q-rules are near exact on polynomials: add the interpolants' tails, carried
    # through the single layer's 1/q^2 or, on the rim panel, through Q by Markov
    def single_tail(g_hat: Chebyshev) -> float:
        lo, hi = g_hat.domain
        if g_hat is g_pieces[-1]:
            return (1.0 + 2.0 * U_NODES**2 * a**2 / (hi - lo)) * _tail(g_hat)
        return a * _tail(g_hat) * (1.0 / math.sqrt(a**2 - hi) - 1.0 / math.sqrt(a**2 - lo))

    tails = sum(single_tail(g) + _tail(ah) for g, ah in zip(g_pieces, ah_pieces))
    err = a * err1 + err2 / a + tails + (1e-15 + af.rule_error) * (abs(l0) + abs(l1) + abs(l2))
    value = l0 + l1 + 1j * l2
    return SourceAction(value, {"rim": l0, "single_layer": l1, "double_layer": 1j * l2}, err)


def singular_action_r4(f: TestField, y: Sequence[float] | np.ndarray) -> complex:
    """Action in R^4: fbar(a,0) + a fbar_rho(a,0) - i a fbar_zeta(a,0), one sphere
    on the rule ``fit_rule`` keeps for it (that of ``SPHERE_ORDER``, which one
    field call holds, unprobed)."""
    y = _axis(y, 4)
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(4))
    _require_smoothness(f, 1, "singular_action_r4")
    return _action_r4(_AxialField(f, y, 4))


def _action_r4(af: _AxialField) -> complex:
    """``singular_action_r4`` of the field and axis of ``af``."""
    a = af.a
    af.fit_rule(np.array([a]), 0.0, 1)
    fbar, d_rho, d_zeta = af.sample(a, 0.0, ((1.0, 0.0), (0.0, 1.0)))
    return complex(fbar + a * d_rho - 1j * a * d_zeta)


def singular_action_even(f: TestField, y: Sequence[float] | np.ndarray, n: int) -> complex:
    """Action for even n = 2k+2 in {4, 6}: (a sqrt(pi)/Gamma(k+1/2)) D_rho^k F |_{rho=a}."""
    if n % 2 != 0 or not 4 <= n <= 6:
        raise UnsupportedDimensionError(f"even-n action supports n in {{4, 6}}, got {n}")
    y = _axis(y, n)
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(n))
    k = (n - 2) // 2
    _require_smoothness(f, k, "singular_action_even")
    af = _AxialField(f, y, n)
    a = af.a
    rim = af.fit_disk_rule(a * math.sqrt(1.5))
    g_hat = af.g_panels(rim, cover=False)[0]
    p = (n - 3) / 2.0   # D^k (u^p g) by Leibniz, the power kept analytic
    dk = sum(math.comb(k, j) * math.prod(p - i for i in range(j)) * a ** (2.0 * (p - j))
             * complex(g_hat.deriv(k - j)(a**2)) for j in range(k + 1))
    return a * math.sqrt(math.pi) / math.gamma(k + 0.5) * dk


def singular_action_odd(f: TestField, y: Sequence[float] | np.ndarray, n: int) -> complex:
    """Action for odd n = 2k+3 in {3, 5}: V_n plus the rim Taylor block."""
    if n % 2 != 1 or not 3 <= n <= 5:
        raise UnsupportedDimensionError(f"odd-n action supports n in {{3, 5}}, got {n}")
    y = _axis(y, n)
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(n))
    _require_smoothness(f, n - 2, "singular_action_odd")
    k = (n - 3) // 2
    af = _AxialField(f, y, n)
    a = af.a
    ratio = _omega_ratio(n)
    rim = af.fit_disk_rule(a)
    f_pieces = [g * Chebyshev.identity(domain=g.domain) ** k for g in af.g_panels(rim)]
    t2, integral, _ = _taylor_subtracted(f_pieces, k, a)
    i_power = (1j) ** ((1 - n) % 4)
    v_n = 2.0 * i_power * a / ratio * integral

    tail = 2.0 * (-1.0) ** k / ratio * sum(
        a ** (2 * l - 2 * k) * t2[l] / (2 * k - 2 * l + 1) for l in range(k + 1)
    )
    return v_n + tail


def singular_action(f: TestField, y: Sequence[float] | np.ndarray,
                    n: int | None = None) -> complex:
    """Dispatch <delta~, f> to the dimension-specific evaluator (n in 3..6)."""
    y = _axis(y, n)
    n = y.shape[0]
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(n))
    if n == 3:
        return singular_action_r3(f, y).value
    if n == 4:
        return singular_action_r4(f, y)
    if n == 5:
        return singular_action_odd(f, y, 5)
    if n == 6:
        return singular_action_even(f, y, 6)
    raise UnsupportedDimensionError(f"singular action supports n in 3..6, got {n}")


def regularized_action(f: TestField, y: Sequence[float] | np.ndarray, n: int,
                       eps: float) -> complex:
    """Action I_eps of the regularized source supported on the spheroid p = eps.

    The q-integral is taken in q = a sin(theta) (absorbing the
    (a^2-q^2)^nu endpoint weight) on Gauss-Kronrod theta-panels that grow
    geometrically away from theta = 0, where the kernel (eps + iq)^{1-n}
    peaks, all integrated in one call of the integrand, so one pass over
    the field; the panel with the largest |K - G| is halved, its two
    halves taking one more pass, until the sum of those estimates falls
    to ``U_ROUNDING`` of Sum |K|, or Sum |K| itself falls below
    ``U_ROUNDING`` of the largest mean of |f| on the spheroid's probe
    spheres times a bound of the kernel's integral (a zero action).
    """
    return _regularized(f, y, n, eps).value


def _regularized(f: TestField, y: Sequence[float] | np.ndarray, n: int,
                 eps: float) -> SourceAction:
    """``regularized_action`` with its error estimate: (Sum |K - G| + (2^-52 +
    rule_error) Sum |K|) times the prefactor, 2^-52 the floor of the kernel's
    cancellation and ``rule_error`` the sphere-rule ladder's, if it fell back."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 3 <= n <= 6:
        raise UnsupportedDimensionError(f"regularized action supports n in 3..6, got {n}")
    y = _axis(y, n)
    if np.linalg.norm(y) == 0.0:
        raise ValueError("regularized action needs y != 0")
    _require_smoothness(f, n - 2, "regularized_action")
    af = _AxialField(f, y, n)
    a = af.a
    nu = (n - 3) / 2.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        q = a * np.sin(theta)
        gamma = eps + 1j * q
        # the mean on the spheroid p = eps and its p-slope, along (d rho/dp, d zeta/dp)
        rho, zeta = oblate_rho_zeta(eps, q, a)
        fs, fsp = af.sample(rho, zeta, ((eps * rho / (a**2 + eps**2), q / a),))
        return (a * np.cos(theta)) ** (n - 2) * (fs + gamma * fsp / (n - 2)) / gamma ** (n - 1)

    def integrated(lo: list[float], hi: list[float], depth: int):
        """The theta-panels [lo_i, hi_i], all from one integrand call."""
        parts = integrate_interval(integrand, np.array(lo), np.array(hi), order=INTERVAL_ORDER)
        return [(l, h, depth, part) for l, h, part in zip(lo, hi, parts)]

    half = math.pi / 2.0
    breaks = [0.0, min(max(eps / a, 1e-6), half)]
    while breaks[-1] < half:
        breaks.append(min(half, THETA_GROWTH * breaks[-1]))
    lo, hi = [], []
    for start, end in zip(breaks, breaks[1:]):
        lo += [start, -end]        # each geometric panel, then its mirror image
        hi += [end, -start]
    # the spheroid's spheres of rho^2 = PROBE_U (a^2 + eps^2), at zeta of both signs,
    # for the geometric panels' theta-nodes
    q = a * np.sqrt(1.0 - np.array(PROBE_U))
    spheres = oblate_rho_zeta(eps, np.unique(np.concatenate([q, -q])), a)
    size = float(af.fit_rule(*spheres).max())     # the largest probe mean of |f|
    panels = integrated(lo, hi, 0)
    floor = None
    while True:
        error = sum(part.error for *_, part in panels)
        scale = sum(abs(part.value) for *_, part in panels)
        if not math.isfinite(error + scale):
            raise NonFiniteIntegrandError(
                f"regularized action at eps = {eps:g} is not finite (estimate {error}, "
                f"size {scale})")
        if error <= U_ROUNDING * scale:
            break
        if floor is None:
            # U_ROUNDING of the Sum |K| of a field as large as f is on the spheroid,
            # the kernel's integral bounded by that of a^(n-3) / (eps^2 + q^2)^((n-1)/2)
            floor = U_ROUNDING * size * a ** (n - 3) * eps ** (2 - n) * math.sqrt(math.pi) * (
                math.gamma(n / 2.0 - 1.0) / math.gamma((n - 1) / 2.0))
        if scale <= floor:
            break       # the panel sums are rounding noise: the action is 0 to rounding
        worst = max(range(len(panels)), key=lambda i: panels[i][3].error)
        lo, hi, depth, part = panels[worst]
        if depth == U_SPLITS:
            raise ConvergenceError(
                f"regularized action of {f.name or 'the field'} at eps = {eps:g}, "
                f"|y| = {a:g} is not resolved on theta-panels halved {U_SPLITS} times "
                f"(estimate {part.error:.2e} on [{lo:.3g}, {hi:.3g}], size {scale:.2e})")
        mid = 0.5 * (lo + hi)
        panels[worst:worst + 1] = integrated([lo, mid], [mid, hi], depth + 1)
    prefactor = (a**2 + eps**2) ** (nu + 1.0) / (a ** (n - 2) * _omega_ratio(n))
    value = prefactor * sum(part.value for *_, part in panels)
    return SourceAction(value, None, prefactor * (error + (2.0**-52 + af.rule_error) * scale))


def moments(n: int, y: Sequence[float] | np.ndarray) -> tuple[complex, np.ndarray]:
    """Monopole Q and dipole vector P of the source with axis y."""
    y = _axis(y, n)
    q_val = singular_action(constant(1.0), y, n)
    p_vec = np.asarray([singular_action(coordinate(j), y, n) for j in range(n)])
    return q_val, p_vec


def centroid(z_s) -> np.ndarray:
    """Centroid of a source placed at complex position z_S in C^3; equals z_S.

    Evaluated by translating the coordinate test fields: the component j
    is the action of u -> u_j + x_S,j on the source with axis -y_S.
    """
    x_s = np.asarray(z_s.x, dtype=float)
    y_s = np.asarray(z_s.y, dtype=float)
    if x_s.shape[0] != 3:
        raise UnsupportedDimensionError("centroid is computed for n = 3")
    return np.asarray([singular_action(coordinate(j).shifted(x_s), -y_s, 3) for j in range(3)])


def descent_check(f: TestField, y: Sequence[float] | np.ndarray,
                  n: int = 3, window: float | None = None) -> tuple[complex, complex]:
    """Both sides of the descent identity <delta~_n, f> = <delta~_{n+1}, f x 1>.

    The right side lifts f to R^{n+1} as f(x) on the slab |s| <= window, with
    gradient [grad f(x), 0] there when f has one, so its slopes are exact.  The
    4-D source support lives in |s| <= a, so any window covering it with FD
    margin is exact.  The lift is even in s, so its sphere is sampled as the
    n = 2 wave solver samples lifted data: s is the polar axis of the S^2 rule,
    folded onto s >= 0 (``numerics._folded_rule``), and each distinct point
    is evaluated once.
    """
    if n != 3:
        raise UnsupportedDimensionError("descent check is implemented for n = 3")
    y = _axis(y, 3)
    a = float(np.linalg.norm(y))
    if a == 0.0:
        raise ValueError("descent check needs y != 0")
    w = 2.0 * a if window is None else float(window)
    if math.isnan(w):
        raise ValueError("window must be a number, got nan")
    margin = 1.05 * a
    if w < margin:
        raise WindowTooSmallError(
            f"window {w} does not cover the source support |s| <= {a} with FD margin"
        )
    lhs = singular_action_r3(f, y).value
    # singular_action_r3 has checked the smoothness the r4 action needs
    rhs = _action_r4(_AxialField(_lift(f, w), np.append(y, 0.0), 4, lifted=True))
    return lhs, rhs
