"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit-code contract: input problems exit 2,
failed properties (with a witness attached to the exception) exit 1.
"""

from __future__ import annotations


class BoolMeasureError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BoolMeasureError):
    """Malformed or mutually inconsistent arguments (wrong atom space,
    empty collection, bad JSON content, out-of-range parameters)."""


class SizeError(InputError):
    """An exhaustive operation refused to run because the instance exceeds
    its enumeration cap or combinatorial budget."""


class ContractError(BoolMeasureError):
    """A precondition promised by one module to another does not hold
    (e.g. an invalid fragmentation where a valid one is required).  When a
    fragmentation fails validation, ``violation`` carries what failed."""

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation


class CertificationError(BoolMeasureError):
    """A certified bound failed.  Carries the falsifying witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ConstructionError(BoolMeasureError):
    """A randomized construction exhausted its retry cap."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class HallViolationError(BoolMeasureError):
    """No injective choice function exists.  Carries a deficient index set
    ``deficient`` whose neighbourhood is smaller than itself."""

    def __init__(self, message: str, deficient=None):
        super().__init__(message)
        self.deficient = deficient


class InternalError(BoolMeasureError):
    """An invariant the implementation guarantees was violated; a bug."""
