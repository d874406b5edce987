"""Exception types raised across the package.

Everything derives from SpectraError (itself a ValueError) so callers can
catch the whole family at once; the CLI maps the family to exit code 2.
Division by zero raises the builtin ZeroDivisionError.
"""


class SpectraError(ValueError):
    """Base class for all errors raised by this package."""


class NotPrimeError(SpectraError):
    """Field characteristic is not a prime number."""


class ReduciblePolynomialError(SpectraError):
    """Supplied modulus is not irreducible over Z_p."""


class UnsupportedSizeError(SpectraError):
    """p^n exceeds the configured element-count bound."""


class NoBuiltinModulusError(SpectraError):
    """No built-in modulus for this (p, n) and none was supplied."""


class NotADivisorError(SpectraError):
    """Subfield index d does not divide the extension degree n."""


class EvenCharacteristicError(SpectraError):
    """Operation requires odd characteristic."""


class OddCharacteristicError(SpectraError):
    """Operation requires characteristic 2."""


class LeadingCoefficientZeroError(SpectraError):
    """Quadratic solver needs a nonzero leading coefficient."""


class ZeroLinearCoefficientError(SpectraError):
    """Trinomial solver needs a nonzero linear coefficient."""


class BadParametersError(SpectraError):
    """Parameters outside the range a predictor or solver supports."""


class WrongLengthError(SpectraError):
    """Lookup table length does not equal the field size."""


class UnparsableElementError(SpectraError):
    """Field element text could not be parsed."""


class UnparsableFieldSpecError(SpectraError):
    """Field spec string could not be parsed."""
