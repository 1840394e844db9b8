"""Exception hierarchy shared by all metabox modules."""


class MetaboxError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMetaError(MetaboxError):
    """A meta component references unknown meta variables or values outside scope."""


class ScopeError(MetaboxError):
    """A supplied value lies outside its variable's scope."""


class NotEnumerableError(MetaboxError):
    """The meta set cannot be enumerated (a meta-continuous variable is present)."""


class DomainError(MetaboxError):
    """A point does not belong to the domain."""

    def __init__(self, message, reasons=None):
        super().__init__(message)
        self.reasons = list(reasons or [])


class DecreeViolationError(MetaboxError):
    """A nonacting variable or constraint was used where an acting one is required."""


class IncompleteConstraintValuesError(MetaboxError):
    """A feasibility check received values missing some acting constraint."""


class BudgetExhaustedError(MetaboxError):
    """The evaluation budget is spent and a fresh evaluation was requested."""


class EvaluationError(MetaboxError):
    """The blackbox process failed, timed out, or returned malformed output."""


class KernelDomainError(MetaboxError):
    """Kernel inputs have mismatched dimensions, or a kernel config lacks an
    entry its domain and categorical mode need or holds one they lack."""


class ShapeError(MetaboxError):
    """An encoded vector has the wrong length for its meta component."""


class FactorizationError(MetaboxError):
    """The kernel matrix stayed indefinite after jitter escalation."""


class FittingError(MetaboxError):
    """Every hyperparameter fitting start failed to factorize."""


class ConfigurationError(MetaboxError):
    """A solver configuration is inconsistent with the problem."""


class ProblemFileError(MetaboxError):
    """A problem file failed to parse or validate.

    ``code`` is a stable machine-readable identifier and ``path`` locates the
    offending field, e.g. ``variables[3].decree[0]``.
    """

    def __init__(self, code, path, message):
        super().__init__(f"{code} at {path}: {message}" if path else f"{code}: {message}")
        self.code = code
        self.path = path
