"""Exception types shared across the package.

Every error here describes bad input: a malformed specification, or inputs
for which a bound does not apply. The CLI reports them as configuration
errors (exit 2); any other exception is a bug and propagates.
"""


class InvalidSpecError(ValueError):
    """A traffic class specification is malformed or of the wrong kind."""


class InvalidInputError(ValueError):
    """Numeric input violates a documented precondition (ordering, shape, range)."""


class UnsupportedEnvelopeError(InvalidSpecError):
    """No deterministic envelope exists for the given class."""


class NoDecayError(InvalidInputError):
    """The per-class envelope rate is too small for a positive decay rate."""


class NoPositiveRootError(InvalidInputError):
    """The system is overloaded: the decay-rate condition has no positive root."""


class ConditionNotMetError(InvalidInputError):
    """A bound's applicability condition fails for the given inputs."""
