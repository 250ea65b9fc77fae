"""Exception types shared across the package."""


class NotOddPrimeError(ValueError):
    """The requested characteristic is not an odd prime."""


class BudgetExceededError(RuntimeError):
    """The requested computation exceeds the configured desk-scale budget."""


class InvalidConstraintError(ValueError):
    """A point-mapping constraint list is malformed (repeated source or target)."""


class DomainMismatchError(ValueError):
    """Two functions on F_q do not live over the same field, an argument of
    a character sum is not an element 0..q-1 of F_q, or a character belongs
    to another field (its modulus is not q-1, resp. q+1)."""


class ArityMismatchError(ValueError):
    """Hypergeometric parameter lists have incompatible lengths."""


class NotIntegralParametersError(ValueError):
    """Hypergeometric rational parameters do not give integral character exponents."""


class TrivialCharacterError(ValueError):
    """A nontrivial multiplicative character is required."""


class UnsupportedCharacterError(ValueError):
    """The character is outside the family this operation is defined for."""


class NotIntersectingError(ValueError):
    """A set of group elements is not pairwise intersecting."""


class IdentityViolationError(ArithmeticError):
    """Two exact computations of the same quantity disagree, or an exact value
    lacks a property it must have; the results built on it cannot be trusted."""
