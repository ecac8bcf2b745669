"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class ConeBreachError(RuntimeError):
    """Eigenvalues left the strict cone where strict ellipticity is required.

    Carries the worst offending grid point and its eigenvalue vector.
    """

    def __init__(self, message, point=None, lam=None):
        super().__init__(message)
        self.point = point
        self.lam = lam

