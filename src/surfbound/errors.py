"""Exception types used across the calculator.

Every expected failure derives from CalculatorError; the command line maps
those to exit code 1. OracleMismatch is deliberately outside the hierarchy:
a disagreement between the fast path and a brute-force cross-check is never
a recoverable input problem, and it gets its own exit code (3).
"""

from __future__ import annotations


class CalculatorError(Exception):
    """Base class for all domain failures."""


class ParseError(CalculatorError):
    """Malformed surface file or divisor expression."""


class UnknownCurveName(ParseError):
    """A divisor expression referenced a curve the model does not list."""


class ValidationError(CalculatorError):
    """A surface model violates one of its structural invariants."""


class RankMismatch(CalculatorError):
    """Vector length does not match the lattice rank."""


class NotNegativeDefinite(CalculatorError):
    """A curve subset whose Gram matrix had to be negative definite is not."""


class NotConnected(CalculatorError):
    """A curve configuration that had to be connected is not."""


class ModelInconsistent(CalculatorError):
    """Derived data contradicts what valid curve geometry permits."""


class NonIntegralGenus(CalculatorError):
    """Arithmetic genus did not come out an integer; the model is broken."""


class NotNefBig(CalculatorError):
    """The polarizing class must pair nonnegatively with every listed curve
    and have positive self-intersection."""


class NotBig(CalculatorError):
    """The class needs positive self-intersection."""


class NotAmple(CalculatorError):
    """The class must pair strictly positively with every listed curve."""


class NoAmpleReference(CalculatorError):
    """Pseudo-effectivity is only certified against a declared ample class."""


class NotPseudoEffective(CalculatorError):
    """Zariski decomposition failed: the divisor is not pseudo-effective
    relative to the model, or the curve list is incomplete."""


class BoxExhausted(CalculatorError):
    """Brute-force cycle search ran out of its coefficient box."""


class IntegralityFailure(CalculatorError):
    """A correction divisor came out non-integral or with a negative
    coefficient despite the determinant scaling."""


class NonpositiveX(CalculatorError):
    """The degree-cap parameter must be positive."""


class NonpositiveInput(CalculatorError):
    """A level parameter that must be a positive integer is not."""


class NonpositiveLP(CalculatorError):
    """Ring generation needs positive multiplier and stability levels."""


class UnverifiableHypothesis(CalculatorError):
    """A theorem hypothesis is neither checkable on the model nor asserted
    by the caller."""


class OracleMismatch(Exception):
    """A brute-force cross-check disagreed with the production algorithm."""
