"""Line-oriented configuration for the CLI (``key = value`` per line).

Recognized keys (defaults in parentheses):

    quadrature.interval.order   (16)   Gauss order N of every interval rule: the
                                       2N+1-node Gauss-Kronrod q-integrals and
                                       panels of the source actions, and the
                                       N-node Gauss-Legendre radii, rays, Duffy
                                       square and box faces of ``clifford``
    quadrature.sphere.order     (24)   polar order s on S^2 (azimuth 2s); S^1 has
                                       8s/3 nodes, and S^3 and S^4 take 7s/12 and
                                       5s/12 polar nodes per level and a base
                                       circle of twice that (all rounded down);
                                       the finest rule of the source actions
    default.a                   (1.0)  default |y| for CLI demos

The two orders make up the ``numerics.Quadrature`` that ``Config.quadrature``
returns and the CLI hands to every subcommand.  Unknown keys and malformed
lines are rejected with the line number and key; ``Quadrature`` checks the
orders (the interval order must be >= 4, the sphere order >= 5) and
``default.a`` must be positive and at most 1e150.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .errors import ConfigParseError
from .numerics import Quadrature

__all__ = ["Config", "load_config", "config_from_env", "DOCUMENTED_KEYS"]


@dataclass(frozen=True)
class Config:
    interval_order: int = Quadrature.interval_order
    sphere_order: int = Quadrature.sphere_order
    default_a: float = 1.0

    def quadrature(self) -> Quadrature:
        return Quadrature(interval_order=self.interval_order, sphere_order=self.sphere_order)


def _order(attr: str):
    """Parser of the ``Quadrature`` order ``attr``, which ``Quadrature`` checks."""
    return lambda text: getattr(Quadrature(**{attr: int(text)}), attr)


#: Largest coordinate magnitude the CLI accepts (in ``default.a`` and vector
#: flags): squares of larger ones overflow in ``geometry.classify_point`` and the
#: potentials.
_COORDINATE_BOUND = 1e150


def _positive_float(text: str) -> float:
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise ValueError(f"must be positive and finite, got {val}")
    if val > _COORDINATE_BOUND:
        raise ValueError(f"must be at most {_COORDINATE_BOUND:g}, got {val}")
    return val


DOCUMENTED_KEYS = {
    "quadrature.interval.order": ("interval_order", _order("interval_order")),
    "quadrature.sphere.order": ("sphere_order", _order("sphere_order")),
    "default.a": ("default_a", _positive_float),
}


def load_config(path: str) -> Config:
    """Parse a config file; defaults fill missing keys, unknown keys reject."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    updates: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DOCUMENTED_KEYS:
            raise ConfigParseError(f"{path}:{lineno}: unknown key {key!r}")
        attr, parser = DOCUMENTED_KEYS[key]
        try:
            updates[attr] = parser(value.strip())
        except ValueError as exc:
            raise ConfigParseError(f"{path}:{lineno}: {key}: {exc}") from exc
    return replace(Config(), **updates)


def config_from_env() -> Config:
    """Config from $CXPT_CONFIG when set, defaults otherwise."""
    path = os.environ.get("CXPT_CONFIG")
    if path:
        return load_config(path)
    return Config()
