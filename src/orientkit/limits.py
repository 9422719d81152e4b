"""Size cap shared by the exhaustive searches (automorphisms, canonical forms)."""

from __future__ import annotations

import os

DEFAULT_MAX_HALF_EDGES = 14
ENV_VAR = "ORIENTKIT_MAX_HALFEDGES"


class SizeLimitExceeded(RuntimeError):
    """The graph is too large for an exhaustive desk-scale search."""


class CapSettingError(ValueError):
    """The environment variable that sets the cap does not hold an integer >= 0."""


def half_edge_cap(override: int | None = None) -> int:
    """Effective half-edge cap: explicit override, else env var, else default."""
    if override is not None:
        return override
    value = os.environ.get(ENV_VAR)
    if not value:
        return DEFAULT_MAX_HALF_EDGES
    message = f"{ENV_VAR} must be an integer >= 0, got {value!r}"
    try:
        cap = int(value)
    except ValueError:
        raise CapSettingError(message) from None
    if cap < 0:
        raise CapSettingError(message)
    return cap


def check_half_edges(count: int, override: int | None = None) -> None:
    cap = half_edge_cap(override)
    if count > cap:
        raise SizeLimitExceeded(
            f"graph has {count} half-edges, above the cap of {cap}; "
            f"set {ENV_VAR} or pass an explicit bound to raise it"
        )
