"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates a documented precondition."""

