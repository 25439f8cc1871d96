"""Line-oriented configuration for the CLI (``key = value`` per line).

Recognized keys (defaults in parentheses):

    default.a   (1.0)   default |y| for CLI demos

No numerical rule is configurable: every interval rule has the Gauss order
``numerics.INTERVAL_ORDER``, and each sphere pass takes a rung of the fixed
ladder ``numerics.SPHERE_LADDER`` chosen by a probe of the field, or the
rule of ``numerics.SPHERE_ORDER``.  Unknown keys (``quadrature.interval.order``
and ``quadrature.sphere.order`` among them) and malformed lines are rejected
with the line number and key; ``default.a`` must be positive and at most
1e150.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .errors import ConfigParseError

__all__ = ["Config", "load_config", "config_from_env", "DOCUMENTED_KEYS"]


@dataclass(frozen=True)
class Config:
    default_a: float = 1.0


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
