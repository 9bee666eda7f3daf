"""Exception types shared across the package."""


class SwaprouteError(Exception):
    """Base class for all package-specific errors."""


class QasmError(SwaprouteError):
    """Syntax or semantic error in an OpenQASM 2.0 input."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}" if col is not None else f"line {line}: {message}"
        super().__init__(message)


class ArchError(SwaprouteError):
    """Invalid architecture name, file, or graph (disconnected, self-loop, ...)."""


class NoiseModelError(SwaprouteError):
    """Invalid or incomplete noise description for a connectivity graph."""


class EncodingError(SwaprouteError):
    """Inconsistent encoding or decoding request."""


class EncodingIntegrityError(EncodingError):
    """A model, or the routing decoded from it, fails swaproute's own
    cross-checks: a fault in swaproute, not in its input."""


class SolverIntegrityError(SwaprouteError):
    """An external solver produced output that fails our own re-checking."""


class SolverOutputError(SwaprouteError):
    """External solver output could not be parsed, or the process failed."""


class UnroutableError(SwaprouteError):
    """No routing of the circuit exists with the configured swaps per slot."""


class SolveTimeoutError(SwaprouteError):
    """The time budget expired before any usable solution was found."""


class OracleLimitError(SwaprouteError):
    """The exhaustive-search oracle was asked for a search space above its ceiling."""
