"""Exception types shared across the package."""


class NcgError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(NcgError, ValueError):
    """A matrix or vector has the wrong shape (or is empty)."""


class InputError(NcgError, ValueError):
    """A value is malformed: bad JSON layout, non-finite entries,
    out-of-range labels, a non-Hermitian input where one is required,
    a non-unitary matrix passed as unitary, and so on."""


class StructureError(NcgError, ValueError):
    """An operator's block support violates a required pattern."""


class ConsistencyError(NcgError, ValueError):
    """Block support is correct but the blocks fail a required relation."""


class AxiomRefusalError(NcgError, RuntimeError):
    """A construction refused its input because a checker failed.

    The failing report is attached as ``report``.
    """

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report
