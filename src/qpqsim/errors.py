"""Exception taxonomy shared across the package."""


class QpqError(Exception):
    """Base class for all package errors."""


class DomainError(QpqError, ValueError):
    """An argument is outside its mathematical domain."""


class CapacityError(QpqError, ValueError):
    """A request exceeds a hard dimensional cap."""


class InfeasibleError(QpqError, ValueError):
    """No parameter choice can satisfy the requested target."""


class ResourceError(QpqError, RuntimeError):
    """A safety cap on simulated resources was exhausted."""


class EmptyKeyMaskError(QpqError, RuntimeError):
    """The user knows no final-key bit; the session must be restarted."""


class ProtocolAbort(QpqError, RuntimeError):
    """A wire session ended abnormally (phase violation, decode failure,
    peer error frame, or disconnect)."""

    def __init__(self, message, code=None):
        super().__init__(message)
        self.code = code
