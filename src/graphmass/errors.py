"""Exception hierarchy shared across the package.  Each class declares
the ``kind`` of failure it reports, which ``cli.EXIT_CODES`` maps to an
exit code; a subclass keeps its parent's kind unless it sets its own."""

from __future__ import annotations


class GraphMassError(Exception):
    """Base class for all library-specific failures."""

    kind = "numerical"


class ParseError(GraphMassError):
    """Syntax or validation error while parsing an expression."""

    kind = "config"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(GraphMassError):
    """Evaluation left the mathematical domain of an operation."""


class UnboundParameterError(GraphMassError):
    """An expression parameter was not bound before evaluation."""

    kind = "config"


class QuadratureError(GraphMassError):
    """A quadrature routine could not produce a trustworthy result."""


class IntegrabilityError(QuadratureError):
    """Tail fit indicates the integrand decays too slowly to integrate:
    the decay at infinity that the mass identity assumes fails."""

    kind = "hypothesis"


class BodyError(GraphMassError):
    """Invalid convex body or surface operation."""

    kind = "config"


class NonConvexError(BodyError):
    """A body failed its convexity check."""

    kind = "hypothesis"


class ConfigError(GraphMassError):
    """Invalid run configuration."""

    kind = "config"
