"""Built-in test fields and the declarative catalog."""

import numpy as np
import pytest

from cxpt.clifford import Cl, dirac_field, poly_field
from cxpt.fields import (
    FieldSpec,
    TestField,
    _lift,
    bump,
    constant,
    coordinate,
    cosine_wave,
    gaussian,
    parse_field_spec,
    plane_wave,
    poly_eval,
    polynomial,
)


def test_constant_and_coordinate():
    pts = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
    assert np.allclose(constant(2.5).evaluate(pts), 2.5)
    assert np.allclose(coordinate(1).evaluate(pts), [2.0, -1.0])


def test_polynomial_and_gradient(rng):
    f = polynomial(3, {(2, 0, 1): 1.5, (0, 1, 0): -2.0})
    x = np.array([0.5, 1.0, 2.0])
    assert f.evaluate(x) == pytest.approx(1.5 * 0.25 * 2.0 - 2.0)
    grad = f.gradient_at(x)
    assert grad[0] == pytest.approx(1.5 * 2 * 0.5 * 2.0)
    assert grad[1] == pytest.approx(-2.0)
    assert grad[2] == pytest.approx(1.5 * 0.25)


def _poly_eval_loop(table, pts):
    """The reference: one np.full per term, each power taken afresh."""
    out = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in table.items():
        term = np.full(pts.shape[0], complex(c))
        for k, e in enumerate(alpha):
            if e:
                term = term * pts[:, k] ** e
        out += term
    return out


def _term_scale(table, pts):
    """Sum over the terms of |c_alpha x^alpha|, the scale of a polynomial's rounding."""
    return sum(abs(c) * np.prod(np.abs(pts) ** np.array(alpha), axis=1)
               for alpha, c in table.items())


def _partial(table, axis):
    """The term-by-term partial derivative of an exponent table along ``axis``."""
    out = {}
    for alpha, c in table.items():
        if alpha[axis]:
            beta = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
            out[beta] = out.get(beta, 0.0) + alpha[axis] * c
    return out


def assert_matches_the_term_loop(got, table, pts):
    """Within 1e-15 of the sum of |terms| at every point of the term loop's value."""
    assert np.all(np.abs(got - _poly_eval_loop(table, pts)) <= 1e-15 * _term_scale(table, pts))


def _random_table(rng, n):
    alphas = {(0,) * n} | {tuple(rng.integers(0, 5, size=n).tolist()) for _ in range(12)}
    return {alpha: complex(*rng.normal(size=2)) for alpha in alphas}


@pytest.mark.parametrize("n", [1, 3, 4])
def test_poly_eval_matches_the_term_loop(rng, n):
    """The monomial-matrix evaluator agrees with the loop that takes each term's
    powers afresh, within 1e-15 of the term scale, on random tables with a
    constant term and complex coefficients (the largest gap over 600 such tables
    is 8.3e-16)."""
    for _ in range(5):
        table = _random_table(rng, n)
        pts = rng.normal(size=(257, n)) * rng.uniform(0.1, 3.0)
        assert_matches_the_term_loop(poly_eval(table, pts), table, pts)
    assert not poly_eval({}, pts).any()


@pytest.mark.parametrize("n", [1, 3, 4])
def test_polynomial_value_and_gradient_match_the_term_loop(rng, n):
    """``polynomial``'s value and every partial of its gradient, from its stored
    matrices, agree with the term loop on the table and its term-by-term partials."""
    for _ in range(5):
        table = _random_table(rng, n)
        f = polynomial(n, table)
        pts = rng.normal(size=(257, n)) * rng.uniform(0.1, 3.0)
        assert_matches_the_term_loop(f.evaluate(pts), table, pts)
        grad = f.gradient_at(pts)
        assert grad.shape == (257, n)
        for axis in range(n):
            assert_matches_the_term_loop(grad[:, axis], _partial(table, axis), pts)


def test_multivector_blades_match_the_term_loop(rng):
    """Every blade of a polynomial multivector field and of its Dirac field, one
    product of the stored matrix, agrees with the term loop on that blade's table;
    blades without a table are exactly 0."""
    alg = Cl(3)
    f = poly_field(alg, 3, {blade: _random_table(rng, 3) for blade in ((), (1,), (2, 3), (1, 2, 3))})
    pts = rng.normal(size=(257, 3))
    for field in (f, dirac_field(f), dirac_field(f, "right")):
        values = field.batch(pts)
        for mask in range(alg.dim):
            if mask in field.poly:
                assert_matches_the_term_loop(values[:, mask], field.poly[mask], pts)
            else:
                assert not values[:, mask].any()


def test_gaussian_plane_wave_values():
    x = np.array([1.0, 0.0, 0.0])
    assert gaussian(2.0).evaluate(x) == pytest.approx(np.exp(-0.25))
    assert plane_wave([np.pi, 0, 0]).evaluate(x) == pytest.approx(-1.0, abs=1e-12)
    assert cosine_wave([np.pi, 0, 0]).evaluate(x) == pytest.approx(-1.0, abs=1e-12)


def test_bump_support():
    f = bump(0.5, center=[1.0, 0.0])
    assert f.evaluate(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert f.evaluate(np.array([1.6, 0.0])) == 0.0
    assert f.evaluate(np.array([1.49, 0.0])) != 0.0
    assert f.evaluate(np.array([1.5, 0.0])) == 0.0


def test_combinators(rng):
    f = gaussian(1.0)
    g = f.shifted([0.5, 0.0, 0.0])
    x = rng.normal(size=3)
    assert g.evaluate(x) == pytest.approx(f.evaluate(x + np.array([0.5, 0, 0])))
    h = f.scaled(2.0 - 1.0j) + coordinate(0)
    assert h.evaluate(x) == pytest.approx((2 - 1j) * f.evaluate(x) + x[0])


def test_parse_field_specs():
    assert parse_field_spec("constant:2").to_field(3).evaluate(np.zeros(3)) == 2.0
    assert parse_field_spec("coordinate:1").to_field(2).evaluate(
        np.array([3.0, 4.0])) == 4.0
    spec = parse_field_spec("plane_wave:1,0,0")
    assert spec.family == "plane_wave"
    f = spec.to_field(3)
    assert f.evaluate(np.array([np.pi / 2, 0, 0])) == pytest.approx(1j, abs=1e-12)
    poly = parse_field_spec("polynomial:0,0,0=1;2,0,0=0.5").to_field(3)
    assert poly.evaluate(np.array([2.0, 0, 0])) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        parse_field_spec("plane_wave:1,0").to_field(3)
    with pytest.raises(ValueError):
        FieldSpec("no_such_family").to_field(3)
    with pytest.raises(ValueError):
        parse_field_spec("coordinate:7").to_field(3)


@pytest.mark.parametrize("width", [0.0, 1e-200, 1e200, float("nan"), float("inf")])
def test_gaussian_rejects_widths_whose_square_is_not_positive_and_finite(width):
    with pytest.raises(ValueError, match="width"):
        gaussian(width)


def test_lift_window_zeroes_value_and_gradient(rng):
    """Inside the slab |s| <= window the lift is f(x) with gradient [grad f, 0];
    outside both are 0, and a field without gradient lifts without one."""
    f = gaussian(1.2, center=[0.1, -0.2, 0.3])
    pts = rng.uniform(-1.0, 1.0, size=(64, 4))
    inside = np.abs(pts[:, 3]) <= 0.5
    lifted = _lift(f, 0.5)
    vals, grads = lifted.evaluate(pts), lifted.gradient_at(pts)
    assert 0 < inside.sum() < inside.size
    assert np.array_equal(vals[inside], f.evaluate(pts[inside, :3]))
    assert np.array_equal(grads[inside, :3], f.gradient_at(pts[inside, :3]))
    assert not np.any(grads[inside, 3])
    assert not np.any(vals[~inside]) and not np.any(grads[~inside])
    assert _lift(TestField(f.evaluator), 0.5).gradient is None


def test_lift_on_a_slab_holding_every_point_is_the_planar_lift(rng):
    """On points that its slab holds, as descent_check's lifted sphere (|s| <= a
    inside the window 2a), the lift returns f's own arrays, uncopied: bit for bit
    f(x) and column_stack([grad f, 0]), array values included."""
    pts = rng.uniform(-1.0, 1.0, size=(32, 3))
    rows = TestField(lambda p: np.stack([np.exp(1j * p[:, 0]), p[:, 1] ** 2], axis=1))
    for f in (plane_wave([0.7, -0.4]), gaussian(0.9), rows):
        lifted = _lift(f, 2.0)
        vals, ref = lifted.evaluate(pts), f.evaluate(pts[:, :2])
        assert vals.dtype == ref.dtype and vals.tobytes() == ref.tobytes()
        if f.gradient is None:
            continue
        g = f.gradient_at(pts[:, :2])
        ref_grad = np.column_stack([g, np.zeros(g.shape[0], dtype=g.dtype)])
        grad = lifted.gradient_at(pts)
        assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
    made = []
    kept = _lift(TestField(lambda p: made.append(np.exp(1j * p[:, 0])) or made[-1]), 2.0)
    assert kept.evaluate(pts) is made[-1]
