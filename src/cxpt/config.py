"""Line-oriented configuration for the CLI (``key = value`` per line).

Recognized keys (defaults in parentheses):

    quadrature.interval.order   (32)   Gauss order N of the Gauss-Kronrod q-integrals
    quadrature.circle.order     (64)   trapezoid nodes on S^1
    quadrature.sphere.order     (24)   polar order s on S^2 (azimuth 2s); S^3 and S^4
                                       take 7s/12 and 5s/12 (rounded down) polar
                                       nodes per level and a base circle of twice that
    quadrature.panel.order      (16)   Gauss order N of the regularized action's panels
    default.a                   (1.0)  default |y| for CLI demos

The four orders make up the ``numerics.Quadrature`` that ``Config.quadrature``
returns and the CLI hands to every subcommand.  Unknown keys and malformed
lines are rejected with the line number; all orders must be >= 4 and
``default.a`` positive and finite.
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
    circle_order: int = Quadrature.circle_order
    sphere_order: int = Quadrature.sphere_order
    panel_order: int = Quadrature.panel_order
    default_a: float = 1.0

    def quadrature(self) -> Quadrature:
        return Quadrature(interval_order=self.interval_order, panel_order=self.panel_order,
                          circle_order=self.circle_order, sphere_order=self.sphere_order)


def _order(text: str) -> int:
    val = int(text)
    if val < 4:
        raise ValueError(f"order must be >= 4, got {val}")
    return val


def _positive_float(text: str) -> float:
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise ValueError(f"must be positive and finite, got {val}")
    return val


DOCUMENTED_KEYS = {
    "quadrature.interval.order": ("interval_order", _order),
    "quadrature.circle.order": ("circle_order", _order),
    "quadrature.sphere.order": ("sphere_order", _order),
    "quadrature.panel.order": ("panel_order", _order),
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
            raise ConfigParseError(f"{path}:{lineno}: {exc}") from exc
    return replace(Config(), **updates)


def config_from_env() -> Config:
    """Config from $CXPT_CONFIG when set, defaults otherwise."""
    path = os.environ.get("CXPT_CONFIG")
    if path:
        return load_config(path)
    return Config()
