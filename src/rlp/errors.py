"""Exception hierarchy shared across the package.

Every error carries a machine-readable ``code`` that reports and the CLI
surface verbatim.
"""

from __future__ import annotations


class RlpError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class OriginExcludedError(RlpError):
    """The constraint polyhedron does not contain the zero strategy."""

    code = "OriginExcluded"


class InfeasibleError(RlpError):
    """The constraint polyhedron is empty."""

    code = "Infeasible"


class TooManyVerticesError(RlpError):
    """Interval-box compilation would enumerate more corners than allowed."""

    code = "TooManyVertices"


class SupportContainsZeroError(RlpError):
    """A jump density support straddles the origin."""

    code = "SupportContainsZero"


class OutsideDomainError(RlpError):
    """A fractional-power integrand was requested left of its domain."""

    code = "OutsideDomain"


class AtSingularityError(RlpError):
    """A gradient was requested at (or numerically at) a jump singularity."""

    code = "AtSingularity"


class NotCompactError(RlpError):
    """The feasible set is unbounded, so the solver cannot run."""

    code = "NotCompact"


class DidNotConvergeError(RlpError):
    """The value still moved by more than the tolerance across the final shrink levels."""

    code = "DidNotConverge"


class SaddleNotCertifiedError(RlpError):
    """The stationarity mixture did not pass the saddle residual checks.

    That uncertified candidate is attached as ``certificate``.
    """

    code = "SaddleNotCertified"

    def __init__(self, message: str = "", certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NegativeWealthError(RlpError):
    """A simulated jump drove wealth strictly negative for the given strategy."""

    code = "NegativeWealth"


class ParseError(RlpError):
    """The model file is not valid JSON."""

    code = "ParseError"


class SchemaError(RlpError):
    """The model file is valid JSON but violates the documented schema."""

    code = "SchemaError"


class ModelError(RlpError):
    """The model file is well-formed but describes an invalid problem."""

    code = "ModelError"


class NanResultError(RlpError):
    """A report holds NaN, which JSON cannot carry."""

    code = "NanResult"


class FileIoError(RlpError):
    """A model file could not be read or a report could not be written."""

    code = "IoError"
