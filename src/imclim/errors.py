"""Exception hierarchy shared across the package, and its one check of a count."""

import numbers


class ImclimError(Exception):
    """Base class for every error raised by this package."""


class ModelValidationError(ImclimError, ValueError):
    """A model file or in-memory model violates the input contract."""


class DimensionMismatchError(ImclimError, ValueError):
    """A function vector does not match the operator's state space."""


class PreconditionError(ImclimError, ValueError):
    """A documented precondition of an operation was violated by the caller."""


class NotWellDefinedError(PreconditionError):
    """Restriction to a class left some retained state without any pmf."""

    def __init__(self, state_label: str, class_labels: tuple[str, ...]):
        self.state_label = state_label
        self.class_labels = class_labels
        super().__init__(
            "restriction to {{{}}} is not well defined: no candidate pmf at "
            "state '{}' is supported inside the class".format(
                ", ".join(class_labels), state_label
            )
        )


class UnsupportedOperatorError(ImclimError, TypeError):
    """The operator declares no candidate supports, so it has no structure to analyse."""


def require_count(value, least: int, rule: str) -> None:
    """Raise :class:`PreconditionError` ``"{rule}, got {value!r}"`` unless
    ``value`` is an integer of at least ``least``; a ``bool`` is no count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise PreconditionError(f"{rule}, got {value!r}")
