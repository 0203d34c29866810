"""Exception hierarchy for the stencil-compiler reproduction.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch compiler problems without swallowing genuine Python bugs.
The hierarchy mirrors the major subsystems: frontend (lexing/parsing),
semantic analysis, the optimization pipeline, and the simulated machine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SourceError(ReproError):
    """A problem attributable to a location in the HPF source text.

    Parameters
    ----------
    message:
        Human readable description.
    line, column:
        1-based position in the original source, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column else "")
            message = f"{where}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """The lexer encountered an unrecognised character sequence."""


class ParseError(SourceError):
    """The parser could not derive a statement from the token stream."""


class SemanticError(SourceError):
    """The program is syntactically valid but semantically inconsistent
    (undeclared array, rank mismatch, conflicting distribution, ...)."""


class UnsupportedFeatureError(SemanticError):
    """A legal HPF construct that this reproduction deliberately does not
    implement (e.g. CYCLIC distributions)."""


class UnsupportedDistributionError(UnsupportedFeatureError):
    """Raised when a distribution other than BLOCK/replicated is requested."""


class PipelineError(ReproError):
    """An optimization pass produced or received inconsistent IR."""


class PlanVerificationError(PipelineError):
    """The plan verifier found a structurally or semantically invalid
    plan (uncovered offset read, use of an unallocated array, halo or
    RSD inconsistency, ...)."""


class PatternMatchError(ReproError):
    """Raised by the CM-2 style pattern-matching baseline when the input
    program is not a single-statement sum-of-products CSHIFT stencil.

    The whole point of the paper is that its strategy never raises the
    analogue of this error; the baseline raises it to reproduce the
    robustness comparison of section 6.
    """


class MachineError(ReproError):
    """Base class for errors from the simulated distributed machine."""


class SimulatedOutOfMemoryError(MachineError):
    """A processing element exceeded its configured memory capacity.

    Reproduces the Figure 11 behaviour where the single-statement 9-point
    stencil exhausts per-node memory on the SP-2.
    """

    def __init__(self, pe: int, requested: int, in_use: int,
                 capacity: int) -> None:
        self.pe = pe
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"PE {pe}: allocation of {requested} bytes exceeds capacity "
            f"({in_use} bytes in use of {capacity})")


class ExecutionError(MachineError):
    """A compiled plan referenced state missing from the machine."""


class UsageError(ExecutionError):
    """Invalid caller-supplied runtime configuration.

    Raised when an API or CLI argument (worker count, backend name,
    grid, ...) is out of range or inconsistent *before* any machine
    state is touched, so misconfiguration fails fast with a named error
    instead of surfacing later as modular-arithmetic garbage or a hang.

    Subclasses :class:`ExecutionError` so existing callers that guard
    backend entry points with the broader class keep working.
    """
