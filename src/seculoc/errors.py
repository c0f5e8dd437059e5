"""Exception types shared across the library."""


class LocalizationError(Exception):
    """The inputs fix no position; callers that skip failed trials catch this base."""


class DegenerateGeometryError(LocalizationError, ValueError):
    """Anchor geometry cannot support the requested computation."""


class UnlocalizableError(LocalizationError, RuntimeError):
    """Too few usable anchors or candidate points remain to fix a position."""


class NoRootError(LocalizationError, RuntimeError):
    """Bracketing of the trust-region multiplier failed to find a sign change."""
