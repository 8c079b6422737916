"""Exception types shared across the library."""


class UplanError(Exception):
    """Base class for all library errors."""


class LevelRangeError(UplanError, ValueError):
    """An abstraction level index falls outside [1, n]."""


class CompatibilityViolation(UplanError):
    """A compatibility relation demands a proposition whose negation is asserted."""

    def __init__(self, message, relation=None, level=None):
        super().__init__(message)
        self.relation = relation
        self.level = level


class CombinationError(UplanError):
    """Dempster combination is undefined (total conflict between sources)."""


class NoPossibleWorldError(UplanError):
    """No P-state survives compatibility filtering of the evidence."""


class PlanFailure(UplanError):
    """The root goal cannot be reduced to an executable plan."""

    world_id = None  # the pipeline sets it to the world being planned


class BudgetExceededError(UplanError):
    """The search expanded more nodes than the configured budget allows."""

    world_id = None  # the pipeline sets it to the world being planned


class CoverageError(UplanError):
    """A P-state above the coverage threshold has no plan covering it."""

    def __init__(self, message, world_id=None):
        super().__init__(message)
        self.world_id = world_id


class ParseFailure(UplanError):
    """Raised by the parsers; carries every diagnostic found in the source."""

    def __init__(self, errors):
        self.errors = list(errors)
        first = self.errors[0] if self.errors else None
        super().__init__(str(first) if first else "parse failed")
