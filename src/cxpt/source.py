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
and at the nodes of its central difference (step ``ZETA_STEP``) along
the slope direction.  The singular actions interpolate the means in
u = rho^2, where they are smooth, on 16-node Chebyshev panels in u that are
halved until their trailing coefficients reach rounding level, or raise
``ConvergenceError`` below a^2 / 2^8.  The even-n actions take their rim
derivatives inside one panel centred on u = a^2.  The odd-n ones take
the rim Taylor terms and the Taylor-subtracted q-quotient by exact
division on the panel ending at the rim, and the quotients directly
elsewhere, where nothing cancels.

The regularized action integrates over theta-panels (q = a sin theta)
that grow by ``THETA_GROWTH`` from eps / a, each one Gauss-Kronrod call,
and halves the panel with the largest |K - G| until the estimates sum to
``U_ROUNDING`` of Sum |K|, raising ``ConvergenceError`` once a panel has
been halved ``U_SPLITS`` times.  ``_regularized`` also returns its error
estimate, (Sum |K - G| + 2^-52 Sum |K|) times the prefactor; the second
term is the rounding floor of the kernel's cancellation at small eps.
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
    MAX_POINTS,
    FDScheme,
    Quadrature,
    fd_stencil,
    integrate_interval,
    orthonormal_complement_frame,
    point_values,
    sphere_area,
    sphere_rule,
    sphere_sums,
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


#: FD step (relative to a) of the slopes of fields without a gradient.
ZETA_STEP = 1e-3
#: Nodes of a u-panel (the rim derivatives amplify rounding by about N^4, so a
#: panel that 16 nodes miss is halved instead), the rounding level of a sample
#: (about 450 ulps) and the most halvings of [0, a^2].  The regularized action
#: halves its theta-panels to the same level, at most as often.
U_NODES = 16
U_ROUNDING = 1e-13
U_SPLITS = 8
#: Ratio of consecutive theta-panel ends of the regularized action, from eps / a.
THETA_GROWTH = 4.0


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


class _AxialField:
    """Sphere means of a test field relative to a fixed axis y != 0.

    ``sample`` gives fbar(rho, zeta) over the (n-2)-sphere in y-perp and
    its slope, the mean of grad f . (drho omega + dzeta y_hat), at arrays
    of (rho, zeta) nodes; ``u_panels`` turns functions of u = rho^2 built
    from them into piecewise Chebyshev interpolants.
    """

    def __init__(self, f: TestField, y: np.ndarray, n: int,
                 quadrature: Quadrature = Quadrature()) -> None:
        self.f = f
        self.y = np.asarray(y, dtype=float)
        self.n = n
        self.a = float(np.linalg.norm(self.y))
        if not math.isfinite(self.a):
            raise ValueError(f"axis vector y must be finite, got {self.y.tolist()}")
        if self.a == 0.0:
            raise ValueError("axis vector y must be nonzero here")
        self.yhat = self.y / self.a
        frame = orthonormal_complement_frame(self.y)
        rule = sphere_rule(n - 2, quadrature.sphere_orders(n - 2))
        self._dirs = rule.nodes @ frame.T      # (m, n) unit vectors in y-perp
        self._weights = rule.weights
        # distinct nodes and folded weights of the slopes' central difference
        self._steps, self._step_weights = fd_stencil(
            0.0, FDScheme(h=ZETA_STEP * self.a, order=4, richardson=True))
        # rounding of a times a slope sample, in U_ROUNDING: eps a sum|w| for FD stencils
        self.slope_noise = 1.0 if f.gradient is not None else max(
            1.0, np.finfo(float).eps * self.a * np.abs(self._step_weights).sum() / U_ROUNDING)

    def _sphere_sums(self, rho: np.ndarray, zeta: np.ndarray, values,
                     max_points: int = MAX_POINTS) -> np.ndarray:
        """``numerics.sphere_sums`` over the (n-2)-spheres about zeta y_hat of radius rho."""
        return sphere_sums(values, zeta[:, None] * self.yhat, rho, self._dirs, self._weights,
                           max_points)

    def sample(self, rho, zeta, drho, dzeta) -> tuple[np.ndarray, np.ndarray]:
        """fbar(rho, zeta) and the mean of grad f . (drho omega + dzeta y_hat).

        The mean has the broadcast shape of (rho, zeta), the slope that of
        all four; both come from one sphere pass.  With an exact gradient it
        runs at the (rho, zeta) nodes over f, omega . grad f and y_hat . grad f.
        Without one it runs at the nodes of all four over f and the central
        difference (step ``ZETA_STEP``) of f along each point's slope
        direction drho omega + dzeta y_hat, with a seventh of the points per
        field call so that no call exceeds ``MAX_POINTS``.
        """
        rho, zeta = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                        np.asarray(zeta, dtype=float))
        if self.f.gradient is None:
            nodes_rz = rho.shape
            rho, zeta, drho, dzeta = np.broadcast_arrays(
                rho, zeta, np.asarray(drho, dtype=float), np.asarray(dzeta, dtype=float))
            steps, weights = self._steps, self._step_weights
            drho_flat, dzeta_flat = drho.ravel(), dzeta.ravel()

            def stencil(pts, dirs, nodes):
                shift = (drho_flat[nodes, None, None] * dirs
                         + dzeta_flat[nodes, None, None] * self.yhat)
                every = np.concatenate([pts[None], pts + steps[:, None, None, None] * shift])
                vals = self.f.evaluate(every.reshape(-1, self.n)).reshape(every.shape[:3])
                return np.stack([vals[0], np.tensordot(weights, vals[1:], axes=1)], axis=-1)

            sums = self._sphere_sums(rho.ravel(), zeta.ravel(), stencil,
                                     MAX_POINTS // (1 + steps.size)).reshape(rho.shape + (2,))
            # the mean repeats along the axes only (drho, dzeta) span: keep index 0 there
            padded = (1,) * (rho.ndim - len(nodes_rz)) + nodes_rz
            keep = tuple(slice(None) if m > 1 else slice(0, 1) for m in padded)
            return sums[..., 0][keep].reshape(nodes_rz), sums[..., 1]

        def values(pts, dirs, nodes):
            flat = pts.reshape(-1, self.n)
            grad = self.f.gradient_at(flat).reshape(pts.shape)
            block = np.empty(pts.shape[:2] + (3,), dtype=complex)
            block[..., 0] = self.f.evaluate(flat).reshape(pts.shape[:2])
            block[..., 1] = np.einsum("bdn,dn->bd", grad, dirs)
            block[..., 2] = grad @ self.yhat
            return block

        sums = self._sphere_sums(rho.ravel(), zeta.ravel(), values).reshape(rho.shape + (3,))
        return sums[..., 0], drho * sums[..., 1] + dzeta * sums[..., 2]

    # -- functions of u = rho^2 on the disk ---------------------------------
    def u_panels(self, fun, noise: Sequence[float], cover: bool = True) -> list[list[Chebyshev]]:
        """Piecewise Chebyshev interpolants in u = rho^2, one list of panels per column.

        ``fun`` maps u-nodes to (nodes, q) samples in the units of f, whose
        column j has a rounding of ``noise[j]`` times ``U_ROUNDING`` of the
        field scale.  A panel is kept when every column's last three
        coefficients are below that rounding, and halved when not.  With
        ``cover`` the panels cover [0, a^2], the rim panel (the one ending
        at a^2) last, and the scale is the largest of the rim mean of |f|
        and every sample so far.  Without it there is one panel, centred on
        a^2 so that rim derivatives are taken inside it, from [a^2/2, 3a^2/2]
        down, and it is resolved against the rim mean of |f| and its own
        samples, since a rim derivative is as small as the field there.
        """
        magnitude = point_values(lambda pts: np.abs(self.f.evaluate(pts)))
        rim = float(self._sphere_sums(np.array([self.a]), np.zeros(1), magnitude)[0].real)
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

    def g_panels(self, cover: bool = True) -> list[Chebyshev]:
        """g(u) = fbar + i (a^2-u)/((n-2) a) fbar_zeta at (sqrt(u), 0); F = u^{(n-3)/2} g."""
        a, n = self.a, self.n

        def g(u: np.ndarray) -> np.ndarray:
            fbar, slope = self.sample(np.sqrt(u), 0.0, 0.0, 1.0)
            return (fbar + 1j * (a**2 - u) / ((n - 2) * a) * slope)[:, None]

        return self.u_panels(g, [self.slope_noise], cover=cover)[0]


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


def _integrate_panels(integrand, pieces: list[Chebyshev], a: float,
                      order: int) -> tuple[complex, float]:
    """Sum over u-panels of Int integrand(piece, q) dq on the panel's q = sqrt(a^2 - u) range.

    Returns the value and the summed ``integrate_interval`` error estimates.
    """
    value, error = 0j, 0.0
    for piece in pieces:
        lo, hi = piece.domain
        part = integrate_interval(lambda q: integrand(piece, q), math.sqrt(a**2 - hi),
                                  math.sqrt(a**2 - lo), order=order)
        value, error = value + part.value, error + part.error
    return value, error


def _taylor_subtracted(pieces: list[Chebyshev], k: int, a: float,
                       order: int) -> tuple[list[complex], complex, float]:
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

    return (t2, *_integrate_panels(integrand, pieces, a, order))


def singular_action_r3(f: TestField, y: Sequence[float] | np.ndarray,
                       quadrature: Quadrature = Quadrature()) -> SourceAction:
    """Action of the extended source in R^3: rim + single layer + i double layer."""
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        v = f.evaluate(np.zeros(3))
        return SourceAction(v, {"rim": v, "single_layer": 0j, "double_layer": 0j}, 0.0)
    _require_smoothness(f, 1, "singular_action_r3")
    af = _AxialField(f, y, 3, quadrature)
    a = af.a
    g_pieces, ah_pieces = af.u_panels(      # G = fbar(sqrt(u), 0), a H = a fbar_zeta
        lambda u: np.stack(af.sample(np.sqrt(u), 0.0, 0.0, 1.0), axis=1) * [1.0, a],
        [1.0, af.slope_noise])
    # rim L0 = G(a^2); single layer: -a Int_0^a (G(a^2-q^2) - L0) / q^2 dq
    (l0,), int1, err1 = _taylor_subtracted(g_pieces, 0, a, quadrature.interval_order)
    l1 = -a * int1

    # double layer: -Int_0^a fbar_zeta(rho(q), 0) dq
    int2, err2 = _integrate_panels(lambda ah_hat, q: ah_hat(a**2 - q**2), ah_pieces, a,
                                   quadrature.interval_order)
    l2 = -int2 / a

    # the q-rules are near exact on polynomials: add the interpolants' tails, carried
    # through the single layer's 1/q^2 or, on the rim panel, through Q by Markov
    def single_tail(g_hat: Chebyshev) -> float:
        lo, hi = g_hat.domain
        if g_hat is g_pieces[-1]:
            return (1.0 + 2.0 * U_NODES**2 * a**2 / (hi - lo)) * _tail(g_hat)
        return a * _tail(g_hat) * (1.0 / math.sqrt(a**2 - hi) - 1.0 / math.sqrt(a**2 - lo))

    tails = sum(single_tail(g) + _tail(ah) for g, ah in zip(g_pieces, ah_pieces))
    err = a * err1 + err2 / a + tails + 1e-15 * (abs(l0) + abs(l1) + abs(l2))
    value = l0 + l1 + 1j * l2
    return SourceAction(value, {"rim": l0, "single_layer": l1, "double_layer": 1j * l2}, err)


def singular_action_r4(f: TestField, y: Sequence[float] | np.ndarray,
                       quadrature: Quadrature = Quadrature()) -> complex:
    """Action in R^4: fbar(a,0) + a fbar_rho(a,0) - i a fbar_zeta(a,0)."""
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(4))
    _require_smoothness(f, 1, "singular_action_r4")
    af = _AxialField(f, y, 4, quadrature)
    a = af.a
    fbar, (d_rho, d_zeta) = af.sample(a, 0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    return complex(fbar + a * d_rho - 1j * a * d_zeta)


def singular_action_even(f: TestField, y: Sequence[float] | np.ndarray, n: int,
                         quadrature: Quadrature = Quadrature()) -> complex:
    """Action for even n = 2k+2 in {4, 6}: (a sqrt(pi)/Gamma(k+1/2)) D_rho^k F |_{rho=a}."""
    if n % 2 != 0 or not 4 <= n <= 6:
        raise UnsupportedDimensionError(f"even-n action supports n in {{4, 6}}, got {n}")
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(n))
    k = (n - 2) // 2
    _require_smoothness(f, k, "singular_action_even")
    af = _AxialField(f, y, n, quadrature)
    a = af.a
    g_hat = af.g_panels(cover=False)[0]
    p = (n - 3) / 2.0   # D^k (u^p g) by Leibniz, the power kept analytic
    dk = sum(math.comb(k, j) * math.prod(p - i for i in range(j)) * a ** (2.0 * (p - j))
             * complex(g_hat.deriv(k - j)(a**2)) for j in range(k + 1))
    return a * math.sqrt(math.pi) / math.gamma(k + 0.5) * dk


def singular_action_odd(f: TestField, y: Sequence[float] | np.ndarray, n: int,
                        quadrature: Quadrature = Quadrature()) -> complex:
    """Action for odd n = 2k+3 in {3, 5}: V_n plus the rim Taylor block."""
    if n % 2 != 1 or not 3 <= n <= 5:
        raise UnsupportedDimensionError(f"odd-n action supports n in {{3, 5}}, got {n}")
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(n))
    _require_smoothness(f, n - 2, "singular_action_odd")
    k = (n - 3) // 2
    af = _AxialField(f, y, n, quadrature)
    a = af.a
    ratio = _omega_ratio(n)
    f_pieces = [g * Chebyshev.identity(domain=g.domain) ** k for g in af.g_panels()]
    t2, integral, _ = _taylor_subtracted(f_pieces, k, a, quadrature.interval_order)
    i_power = (1j) ** ((1 - n) % 4)
    v_n = 2.0 * i_power * a / ratio * integral

    tail = 2.0 * (-1.0) ** k / ratio * sum(
        a ** (2 * l - 2 * k) * t2[l] / (2 * k - 2 * l + 1) for l in range(k + 1)
    )
    return v_n + tail


def singular_action(f: TestField, y: Sequence[float] | np.ndarray, n: int | None = None,
                    quadrature: Quadrature = Quadrature()) -> complex:
    """Dispatch <delta~, f> to the dimension-specific evaluator (n in 3..6)."""
    y = np.asarray(y, dtype=float)
    if n is None:
        n = y.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"axis vector has dimension {y.shape[0]}, expected {n}")
    if np.linalg.norm(y) == 0.0:
        return f.evaluate(np.zeros(n))
    if n == 3:
        return singular_action_r3(f, y, quadrature).value
    if n == 4:
        return singular_action_r4(f, y, quadrature)
    if n == 5:
        return singular_action_odd(f, y, 5, quadrature)
    if n == 6:
        return singular_action_even(f, y, 6, quadrature)
    raise UnsupportedDimensionError(f"singular action supports n in 3..6, got {n}")


def regularized_action(f: TestField, y: Sequence[float] | np.ndarray, n: int,
                       eps: float, quadrature: Quadrature = Quadrature()) -> complex:
    """Action I_eps of the regularized source supported on the spheroid p = eps.

    The q-integral is taken in q = a sin(theta) (absorbing the
    (a^2-q^2)^nu endpoint weight) on Gauss-Kronrod theta-panels that grow
    geometrically away from theta = 0, where the kernel (eps + iq)^{1-n}
    peaks; the panel with the largest |K - G| is halved until the sum of
    those estimates falls to ``U_ROUNDING`` of Sum |K|.
    """
    return _regularized(f, y, n, eps, quadrature).value


def _regularized(f: TestField, y: Sequence[float] | np.ndarray, n: int,
                 eps: float, quadrature: Quadrature = Quadrature()) -> SourceAction:
    """``regularized_action`` with its error estimate: (Sum |K - G| + 2^-52 Sum |K|)
    times the prefactor, the second term the floor of the kernel's cancellation."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 3 <= n <= 6:
        raise UnsupportedDimensionError(f"regularized action supports n in 3..6, got {n}")
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        raise ValueError("regularized action needs y != 0")
    _require_smoothness(f, n - 2, "regularized_action")
    af = _AxialField(f, y, n, quadrature)
    a = af.a
    nu = (n - 3) / 2.0

    def integrand(theta: np.ndarray) -> np.ndarray:
        q = a * np.sin(theta)
        gamma = eps + 1j * q
        # the mean on the spheroid p = eps and its p-slope, along (d rho/dp, d zeta/dp)
        rho, zeta = oblate_rho_zeta(eps, q, a)
        fs, fsp = af.sample(rho, zeta, eps * rho / (a**2 + eps**2), q / a)
        return (a * np.cos(theta)) ** (n - 2) * (fs + gamma * fsp / (n - 2)) / gamma ** (n - 1)

    def panel(lo: float, hi: float, depth: int):
        return lo, hi, depth, integrate_interval(integrand, lo, hi, order=quadrature.panel_order)

    half = math.pi / 2.0
    breaks = [0.0, min(max(eps / a, 1e-6), half)]
    while breaks[-1] < half:
        breaks.append(min(half, THETA_GROWTH * breaks[-1]))
    panels = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        panels += [panel(lo, hi, 0), panel(-hi, -lo, 0)]
    while True:
        error = sum(part.error for *_, part in panels)
        scale = sum(abs(part.value) for *_, part in panels)
        if not math.isfinite(error + scale):
            raise NonFiniteIntegrandError(
                f"regularized action at eps = {eps:g} is not finite (estimate {error}, "
                f"size {scale})")
        if error <= U_ROUNDING * scale:
            break
        worst = max(range(len(panels)), key=lambda i: panels[i][3].error)
        lo, hi, depth, part = panels[worst]
        if depth == U_SPLITS:
            raise ConvergenceError(
                f"regularized action of {f.name or 'the field'} at eps = {eps:g}, "
                f"|y| = {a:g} is not resolved on theta-panels halved {U_SPLITS} times "
                f"(estimate {part.error:.2e} on [{lo:.3g}, {hi:.3g}], size {scale:.2e})")
        mid = 0.5 * (lo + hi)
        panels[worst:worst + 1] = [panel(lo, mid, depth + 1), panel(mid, hi, depth + 1)]
    prefactor = (a**2 + eps**2) ** (nu + 1.0) / (a ** (n - 2) * _omega_ratio(n))
    value = prefactor * sum(part.value for *_, part in panels)
    return SourceAction(value, None, prefactor * (error + 2.0**-52 * scale))


def moments(n: int, y: Sequence[float] | np.ndarray,
            quadrature: Quadrature = Quadrature()) -> tuple[complex, np.ndarray]:
    """Monopole Q and dipole vector P of the source with axis y."""
    y = np.asarray(y, dtype=float)
    q_val = singular_action(constant(1.0), y, n, quadrature)
    p_vec = np.asarray([singular_action(coordinate(j), y, n, quadrature) for j in range(n)])
    return q_val, p_vec


def centroid(z_s, quadrature: Quadrature = Quadrature()) -> np.ndarray:
    """Centroid of a source placed at complex position z_S in C^3; equals z_S.

    Evaluated by translating the coordinate test fields: the component j
    is the action of u -> u_j + x_S,j on the source with axis -y_S.
    """
    x_s = np.asarray(z_s.x, dtype=float)
    y_s = np.asarray(z_s.y, dtype=float)
    if x_s.shape[0] != 3:
        raise UnsupportedDimensionError("centroid is computed for n = 3")
    return np.asarray([singular_action(coordinate(j).shifted(x_s), -y_s, 3, quadrature)
                       for j in range(3)])


def descent_check(f: TestField, y: Sequence[float] | np.ndarray,
                  n: int = 3, window: float | None = None,
                  quadrature: Quadrature = Quadrature()) -> tuple[complex, complex]:
    """Both sides of the descent identity <delta~_n, f> = <delta~_{n+1}, f x 1>.

    The right side lifts f to R^{n+1} as f(x) on the slab |s| <= window, with
    gradient [grad f(x), 0] there when f has one, so its slopes are exact.  The
    4-D source support lives in |s| <= a, so any window covering it with FD
    margin is exact.
    """
    if n != 3:
        raise UnsupportedDimensionError("descent check is implemented for n = 3")
    y = np.asarray(y, dtype=float)
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
    lhs = singular_action_r3(f, y, quadrature).value
    rhs = singular_action_r4(_lift(f, w), np.append(y, 0.0), quadrature)
    return lhs, rhs
