"""Size caps: half-edges for the exhaustive searches, n for the families, digits for
integers read from text."""

from __future__ import annotations

import operator
import os
import re

DEFAULT_MAX_HALF_EDGES = 14
ENV_VAR = "ORIENTKIT_MAX_HALFEDGES"
# Family instances have 2**(n+1) half-edges; n = 12 builds in tens of milliseconds.
MAX_FAMILY_N = 12

# A valid graph's half-edge count and ids are below its text's length, so
# no graph needs longer integers, and int() never meets Python's digit limit.
MAX_DIGITS = 18
_INTEGER = re.compile(rf"-?[0-9]{{1,{MAX_DIGITS}}}")
# Error messages echo at most this many characters of a rejected argument.
MAX_ECHO = 40


class SizeLimitExceeded(RuntimeError):
    """The graph is too large for an exhaustive desk-scale search."""


class CapSettingError(ValueError):
    """The environment variable that sets the cap does not hold an integer >= 0."""


def excerpt(text: str) -> str:
    """repr of text for an error message, cut to MAX_ECHO characters with the full length."""
    if len(text) <= MAX_ECHO:
        return repr(text)
    return f"{text[:MAX_ECHO]!r}... ({len(text)} characters)"


def parse_int(text: str) -> int:
    """Read text by the graph scanner's rule: an optional "-", then 1 to MAX_DIGITS ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(
            f"expected an integer of at most {MAX_DIGITS} ASCII digits, got {excerpt(text)}")
    return int(text)


def integer(value) -> int:
    """The integer rule for API parameters: ``operator.index``, refusing a bool.
    Raises TypeError naming the value."""
    if not isinstance(value, bool):
        try:  # contextlib.suppress would cost 5x more per call on this hot path
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"must be an integer, got {value!r}")


def nonnegative(value, what: str) -> int:
    """``integer(value)`` if it is >= 0; otherwise ValueError naming ``what``."""
    try:  # as in integer, cheaper than contextlib.suppress
        if (n := integer(value)) >= 0:
            return n
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer >= 0, got {value!r}")


def half_edge_cap(override: int | None = None) -> int:
    """Effective half-edge cap: explicit override, else env var, else default.
    An override that is not an integer >= 0 raises ValueError."""
    if override is not None:
        return nonnegative(override, "max_half_edges")
    value = os.environ.get(ENV_VAR)
    if not value:
        return DEFAULT_MAX_HALF_EDGES
    message = f"{ENV_VAR} must be an integer >= 0, got {value!r}"
    try:
        cap = parse_int(value)
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
