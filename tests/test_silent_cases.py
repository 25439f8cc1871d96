"""Silent cases: calls with a closed form that may return a far-off value unflagged.

A case passes when the call raises a documented error (a ``CxptError``), or
when it reports an ``err_estimate`` at least as large as its error.  A call
that reports no estimate passes when it comes within 1e-10 of the closed
form, relative to max(1, |closed form|).  A case that fails today is marked
``xfail(strict=True)`` with the ROADMAP item that would mend it, so the
change that mends it must remove its marker; the cases that pass are guards.

The field exp(x_1 + i x_2) is harmonic, and its action about
y = |y| (0.6, 0, ..., 0, 0.8) is f(-iy) = exp(-0.6 i |y|), of modulus 1 while
the field's scale is e^|y|.  The pure modes (x_1 + i x_2)^64 and ^128 about
e_3 have the action 0.

Left out, to keep the module within 5 s: the n = 6 action at |y| = 15
(error 9.8e-3 and no estimate, 1.5-3 s a call).
"""

import numpy as np
import pytest

from cxpt.errors import CxptError
from cxpt.fields import TestField
from cxpt.source import singular_action, singular_action_r3

#: The ROADMAP items that would mend the failing cases
WALK = "ROADMAP direction 1: the walk keeps the unprobed rule of a one-call pass"
TOP_RUNG = "ROADMAP direction 2: the top rung is kept with no estimate"


def _exp_field(n: int) -> TestField:
    k = np.zeros(n, dtype=complex)
    k[:2] = 1.0, 1j

    def ev(pts):
        return np.exp(pts @ k)

    return TestField(ev, gradient=lambda pts: k[None, :] * ev(pts)[:, None],
                     name="exp(x1 + i x2)")


def _mode(m: int) -> TestField:
    def ev(pts):
        return (pts[:, 0] + 1j * pts[:, 1]) ** m

    return TestField(ev, gradient=lambda pts: (m * (pts[:, 0] + 1j * pts[:, 1]) ** (m - 1))[
        :, None] * np.array([1.0, 1j, 0.0]), name=f"(x1 + i x2)^{m}")


def _axis(n: int, size: float) -> np.ndarray:
    y = np.zeros(n)
    y[0], y[-1] = 0.6 * size, 0.8 * size
    return y


def _passes(call, want: complex) -> bool:
    """The sweep's rule: a documented error, an estimate that covers the error, or
    (no estimate) an error within 1e-10 relative to max(1, |want|)."""
    try:
        got = call()
    except CxptError:
        return True
    if hasattr(got, "err_estimate"):
        return abs(got.value - want) <= got.err_estimate
    return abs(got - want) <= 1e-10 * max(1.0, abs(want))


EXP_CASES = [
    pytest.param(3, 20.0, id="r3-y20"),
    pytest.param(3, 25.0, id="r3-y25", marks=pytest.mark.xfail(strict=True, reason=WALK)),
    pytest.param(3, 30.0, id="r3-y30", marks=pytest.mark.xfail(strict=True, reason=WALK)),
    pytest.param(4, 15.0, id="n4-y15", marks=pytest.mark.xfail(strict=True, reason=WALK)),
    pytest.param(4, 20.0, id="n4-y20", marks=pytest.mark.xfail(strict=True, reason=WALK)),
    pytest.param(5, 20.0, id="n5-y20", marks=pytest.mark.xfail(strict=True, reason=TOP_RUNG)),
    pytest.param(6, 10.0, id="n6-y10", marks=pytest.mark.xfail(strict=True, reason=TOP_RUNG)),
]


@pytest.mark.parametrize("n, size", EXP_CASES)
def test_singular_action_of_a_harmonic_exponential(n, size):
    f, y = _exp_field(n), _axis(n, size)
    call = (lambda: singular_action_r3(f, y)) if n == 3 else (lambda: singular_action(f, y, n))
    assert _passes(call, np.exp(-0.6j * size))


@pytest.mark.parametrize("m", [64, 128])
@pytest.mark.xfail(strict=True, reason=WALK)
def test_singular_action_of_a_pure_mode(m):
    assert _passes(lambda: singular_action_r3(_mode(m), [0.0, 0.0, 1.0]), 0.0)
