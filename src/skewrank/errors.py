"""Exception types shared across the package."""


class SkewrankError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(SkewrankError):
    """A command-line option is outside its accepted range."""


class InvalidPrime(SkewrankError):
    """The base field characteristic is not an odd prime below 2**31."""


class InvalidDegree(SkewrankError):
    """The requested extension degree is out of range."""


class InvalidModulus(SkewrankError):
    """The supplied modulus polynomial is not monic irreducible of the right degree."""


class ContextMismatch(SkewrankError):
    """Binary operation on elements from different field contexts."""


class DivisionByZero(SkewrankError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class InvalidSubfield(SkewrankError):
    """Subfield index does not divide the extension degree."""


class ZeroElement(SkewrankError):
    """Operation requires a nonzero field element."""


class InvolutionNotSupported(SkewrankError):
    """The norm degeneracy criterion needs an automorphism of order > 2."""


class NotInEigenspace(SkewrankError):
    """Element does not satisfy the required eigenvector condition."""


class WrongShape(SkewrankError):
    """The instance (p, n) does not have the shape a verifier requires."""


class HypothesisViolation(SkewrankError):
    """A verifier's arithmetic hypotheses fail for the given instance."""


class NotSquareFree(SkewrankError):
    """Ternary form coefficients must have a square-free nonzero product."""


class InternalCheckError(SkewrankError):
    """A cross-computed identity that must hold by theory failed; indicates a bug."""
