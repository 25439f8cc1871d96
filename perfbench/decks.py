"""Decks of the three library workloads: seeded inputs, calls and checks.

A deck is a fixed list of :class:`Case` objects.  Every case calls cxpt
through module attributes looked up at call time (``S.singular_action``
rather than a bound reference), so the span wrappers that
``tracing.patched`` installs see the benchmark's own calls too.  The
inputs depend on the seed; which functions are called, in which
dimension, at which |y|, eps and t-range, and how many times, do not, so
every seed costs the same work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import cxpt.clifford as C
import cxpt.source as S
import cxpt.wave as W
from cxpt.fields import TestField
from cxpt.geometry import ComplexPoint

import oracles as O
from tracing import Tracer, counting_field

RADII = (0.5, 1.0, 2.0)
EPS = (1e-1, 1e-2, 1e-3)
HARMONIC = (O.harmonic_poly, O.harmonic_exp)


@dataclass
class Case:
    """One deck entry: ``run()`` makes ``ops`` checked calls; ``check(out)`` says if right."""

    label: str
    ops: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def scalar_field(tracer: Tracer | None, closed: O.Closed) -> TestField:
    field = TestField(evaluator=closed.value, gradient=closed.grad, name=closed.name)
    return counting_field(tracer, field)


def close_to(want, tol: float) -> Callable[[Any], bool]:
    return lambda got: O.check_close(got, want, tol)


# -- source-singular -----------------------------------------------------------
def _singular(f, y, n):
    return lambda: S.singular_action(f, y, n)


def _odd_vs_r3(f, y):
    return lambda: (S.singular_action_odd(f, y, 3), S.singular_action_r3(f, y).value)


def _even_vs_r4(f, y):
    return lambda: (S.singular_action_even(f, y, 4), S.singular_action_r4(f, y))


def _pair_agrees(got) -> bool:
    return O.check_close(got[0], got[1], O.TOL_CROSS_FORMULA)


def _descent_agrees(got) -> bool:
    lhs, rhs = got
    return O.check_close(lhs, rhs, O.TOL_DESCENT)


def _moments_ok(y):
    def check(got):
        q_val, p_vec = got
        return (abs(q_val - 1.0) <= O.TOL_MOMENTS
                and bool(np.all(np.abs(np.asarray(p_vec) + 1j * y) <= O.TOL_MOMENTS)))
    return check


def source_singular(rng: np.random.Generator, tracer: Tracer | None) -> list[Case]:
    cases = []
    for n in (3, 4, 5, 6):
        for slot, a in enumerate(RADII):
            closed = HARMONIC[(n + slot) % 2](rng, n)
            y = a * O.unit(rng, n)
            cases.append(Case(
                f"singular_action n={n} |y|={a} {closed.name}", 1,
                _singular(scalar_field(tracer, closed), y, n),
                close_to(O.point_charge_value(closed, y), O.TOL_SINGULAR[n])))
    for slot, a in enumerate(RADII):
        nonharmonic = [O.gaussian(rng, 3), O.plane_wave(O.random_wave_vector(rng, 3, 0.5, 1.5))]
        f3 = scalar_field(tracer, nonharmonic[slot % 2])
        cases.append(Case(f"odd vs r3 |y|={a} {nonharmonic[slot % 2].name}", 2,
                          _odd_vs_r3(f3, a * O.unit(rng, 3)), _pair_agrees))
        fd = scalar_field(tracer, nonharmonic[(slot + 1) % 2])
        y = a * O.unit(rng, 3)
        cases.append(Case(f"descent_check |y|={a} {nonharmonic[(slot + 1) % 2].name}", 1,
                          lambda f=fd, y=y: S.descent_check(f, y), _descent_agrees))
        f4 = [O.gaussian(rng, 4), O.plane_wave(O.random_wave_vector(rng, 4, 0.5, 1.5))][slot % 2]
        cases.append(Case(f"even vs r4 |y|={a} {f4.name}", 2,
                          _even_vs_r4(scalar_field(tracer, f4), a * O.unit(rng, 4)),
                          _pair_agrees))
    for n in (3, 4):
        y = O.unit(rng, n)
        cases.append(Case(f"moments n={n}", 1, lambda n=n, y=y: S.moments(n, y), _moments_ok(y)))
    return cases


# -- source-regularized --------------------------------------------------------
def _regularized(f, y, n, eps):
    return lambda: S.regularized_action(f, y, n, eps)


def _chain(f, y, n):
    return lambda: ([S.regularized_action(f, y, n, eps) for eps in EPS],
                    S.singular_action(f, y, n))


def _chain_converges(got) -> bool:
    values, reference = got
    return O.check_decreasing_errors(values, reference)


def source_regularized(rng: np.random.Generator, tracer: Tracer | None) -> list[Case]:
    """Harmonic fields at every eps for n = 3, 4 and at eps = 1e-1 for n = 5; a Gaussian chain.

    n = 5 at eps = 1e-2 and 1e-3 (1.3 s and 1.8 s a call) is left out to
    keep a pass near 2 s; n = 5 at 1e-1 runs the same oblate-mean code.
    """
    cases = []
    for n, make, eps_set in ((3, O.harmonic_poly, EPS), (4, O.harmonic_exp, EPS),
                             (5, O.harmonic_poly, EPS[:1])):
        closed = make(rng, n)
        y = O.unit(rng, n)
        f = scalar_field(tracer, closed)
        want = O.point_charge_value(closed, y)
        for eps in eps_set:
            cases.append(Case(f"regularized_action n={n} eps={eps:g} {closed.name}", 1,
                              _regularized(f, y, n, eps), close_to(want, O.TOL_REGULARIZED)))
    f = scalar_field(tracer, O.gaussian(rng, 3))
    cases.append(Case("regularized chain n=3 gaussian", len(EPS),
                      _chain(f, O.unit(rng, 3), 3), _chain_converges))
    return cases


# -- propagator ------------------------------------------------------------------
def _solve_all(data, points):
    return lambda: [W.solve_cauchy(data, x, t) for x, t in points]


def _all_close(wants, tol):
    return lambda got: len(got) == len(wants) and all(
        O.check_close(g, w, tol) for g, w in zip(got, wants))


def _lattice_case(tracer, rng, n, points_of) -> Case:
    k = O.random_wave_vector(rng, n, 0.5, 1.5)
    f = scalar_field(tracer, O.plane_wave(k))
    points = points_of(rng)
    wants = [O.plane_wave_solution(k, x, t) for x, t in points]
    return Case(f"solve_cauchy lattice n={n} ({len(points)} points)", len(points),
                _solve_all(W.CauchyData(f, f, n), points), _all_close(wants, O.TOL_WAVE[n]))


def _cube_lattice(n, h=0.1):
    """(3^n x-points) x (3 t-points) about a seeded centre, |t0| in [0.5, 1]."""
    def points_of(rng):
        x0 = 0.5 * rng.normal(size=n)
        t0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)
        return [(x0 + h * np.asarray(off, dtype=float), t0 + h * jt)
                for off in itertools.product((-1, 0, 1), repeat=n) for jt in (-1, 0, 1)]
    return points_of


def _line_lattice(n, t_lo, t_hi, x_steps, h=0.1):
    """x0 + h j d (j in x_steps) x |t| in t0 + h {-1, 0, 1}, |t0| in [t_lo, t_hi]."""
    def points_of(rng):
        x0 = 0.5 * rng.normal(size=n)
        d = O.unit(rng, n)
        t0 = rng.uniform(t_lo, t_hi)
        sign = rng.choice((-1.0, 1.0))
        return [(x0 + h * j * d, sign * (t0 + h * jt)) for j in x_steps for jt in (-1, 0, 1)]
    return points_of


def _maxwell_ok(mask, want):
    def check(got):
        fe, _, residual = got
        others = np.delete(fe.coeffs, mask)
        return (residual <= O.TOL_CONTINUITY
                and O.check_close(fe.coeffs[mask], want, O.TOL_MAXWELL_FIELD)
                and bool(np.all(np.abs(others) <= O.TOL_MAXWELL_FIELD)))
    return check


def propagator(rng: np.random.Generator, tracer: Tracer | None) -> list[Case]:
    cases = [
        _lattice_case(tracer, rng, 2, _cube_lattice(2)),
        _lattice_case(tracer, rng, 3, _cube_lattice(3)),
        # n = 5 in its nested xi = t^2 branch (|t| in [0.85, 1.15]) and its
        # expanded small-t branch (|t| in [0.05, 0.15]).
        _lattice_case(tracer, rng, 5, _line_lattice(5, 0.95, 1.05, (-1, 0, 1))),
        _lattice_case(tracer, rng, 5, _line_lattice(5, 0.1, 0.1, (0,), h=0.05)),
    ]

    k = O.random_wave_vector(rng, 3, 0.5, 1.0)
    mode = counting_field(tracer, W.harmonic_mode(k))
    points = [(0.5 * rng.normal(size=3), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 0.8))
              for _ in range(9)]
    cases.append(Case(
        "extend harmonic_mode (9 points)", len(points),
        lambda: [W.extend(mode, x, s, t) for x, s, t in points],
        _all_close([O.harmonic_mode_extension(k, x, s, t) for x, s, t in points],
                   O.TOL_EXTEND)))

    k = O.random_wave_vector(rng, 3, 0.5, 1.0)
    f = scalar_field(tracer, O.plane_wave(k))
    data = W.CauchyData(f, f, 3)
    xc, tc = 0.5 * rng.normal(size=3), rng.uniform(0.4, 0.8)
    cases.append(Case("wave_residual n=3", 1,
                      lambda: W.wave_residual(data, xc, tc, h=0.05, half_points=2),
                      lambda res: 0.0 <= res <= O.TOL_RESIDUAL))

    st = C.spacetime_algebra(3)
    mask = st.mask_of((0, 1))
    k = O.random_wave_vector(rng, 3, 0.5, 1.5)

    def bivector(pts):
        out = np.zeros((pts.shape[0], st.dim), dtype=complex)
        out[:, mask] = np.cos(pts[:, :3] @ k)
        return out

    def still(pts):
        return np.zeros((pts.shape[0], st.dim), dtype=complex)

    fst = counting_field(tracer, C.SpacetimeMultivectorField(st, 3, bivector, s_derivative=still))
    x, t = 0.5 * rng.normal(size=3), rng.uniform(0.3, 1.1)
    # cos(k.x) e0e1, constant in s: its extension is cos(k.x) cos(|k| t) e0e1
    cases.append(Case("maxwell_extend", 1, lambda: C.maxwell_extend(fst, x, 0.0, t),
                      _maxwell_ok(mask, np.cos(k @ x) * np.cos(np.linalg.norm(k) * t))))

    alg = C.Cl(3)
    tables = {blade: O.harmonic_quadratic_table(rng, 3) for blade in ((), (1,), (2,), (1, 2))}
    ball = C.Ball(np.zeros(3), 1.0)
    z = ComplexPoint(O.unit(rng, 3) * rng.uniform(0.0, 0.4),
                     O.unit(rng, 3) * rng.uniform(0.08, 0.12))
    want = np.zeros(alg.dim, dtype=complex)
    for blade, table in tables.items():
        want[alg.mask_of(blade)] = O.ebp_reference(table, z.x, z.y)
    mv_field = C.poly_field(alg, 3, tables)
    cases.append(Case("extended_borel_pompeiu Cl3 ball", 1,
                      lambda: C.extended_borel_pompeiu(mv_field, ball, z).coeffs,
                      close_to(want, O.TOL_EBP)))
    return cases


DECKS = {
    "source-singular": source_singular,
    "source-regularized": source_regularized,
    "propagator": propagator,
}


def build(workload: str, rng: np.random.Generator, tracer: Tracer | None = None) -> list[Case]:
    return DECKS[workload](rng, tracer)
