"""Exception types shared across the package.

Callers distinguish two failure families: misuse of an interface
(:class:`UsageError`), and resource or experiment-level failures. A
numeric blow-up inside a step is not an exception: the integrators see
the non-finite state and flag the path divergent.
"""

from __future__ import annotations

__all__ = [
    "UsageError",
    "ResourceError",
    "ExperimentError",
]


class UsageError(ValueError):
    """An interface was called with arguments that violate its contract."""


class ResourceError(RuntimeError):
    """A request would exceed a sane resource budget (e.g. path memory)."""


class ExperimentError(RuntimeError):
    """An experiment cannot produce a meaningful result (e.g. the reference solve diverged)."""
