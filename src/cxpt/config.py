"""Line-oriented configuration for the CLI (``key = value`` per line).

Recognized keys (defaults in parentheses):

    quadrature.interval.order   (32)   Gauss order N of the Gauss-Kronrod q-integrals
    quadrature.circle.order     (64)   trapezoid nodes on S^1
    quadrature.sphere.order     (24)   polar order on S^2 (azimuth = 2x)
    quadrature.panel.order      (16)   Gauss order N of the regularized action's panels
    default.a                   (1.0)  default |y| for CLI demos

Unknown keys and malformed lines are rejected with the line number; all
orders must be >= 4 and ``default.a`` positive.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import ConfigParseError

__all__ = ["Config", "load_config", "config_from_env", "DOCUMENTED_KEYS"]


@dataclass(frozen=True)
class Config:
    interval_order: int = 32
    circle_order: int = 64
    sphere_order: int = 24
    panel_order: int = 16
    default_a: float = 1.0

    def sphere_orders(self) -> dict[int, tuple[int, ...]]:
        polar = self.sphere_order
        return {
            1: (self.circle_order,),
            2: (polar, 2 * polar),
            3: (max(polar // 2, 4),) * 2 + (polar,),
            4: (max(polar // 2, 4),) * 3 + (polar,),
        }


def _order(text: str) -> int:
    val = int(text)
    if val < 4:
        raise ValueError(f"order must be >= 4, got {val}")
    return val


def _positive_float(text: str) -> float:
    val = float(text)
    if val <= 0:
        raise ValueError(f"must be positive, got {val}")
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
