"""Exception types shared across the library."""


class CapitulaError(Exception):
    """Base class for all library errors."""


class NotPrime(CapitulaError):
    pass


class NotAGenerator(CapitulaError):
    pass


class NotFundamental(CapitulaError):
    pass


class Overflow(CapitulaError):
    pass


class NormMinusOne(CapitulaError):
    pass


class NoFormFound(CapitulaError):
    pass


class ChiOrderNotCoprime(CapitulaError):
    pass


class PrecisionTooLow(CapitulaError):
    pass


class StabilizationFailure(CapitulaError):
    pass


class BadAuxPrime(CapitulaError):
    pass


class ParseError(CapitulaError):
    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class RingMismatch(CapitulaError):
    pass


class HypothesisNotMet(CapitulaError):
    pass


class InsufficientData(CapitulaError):
    pass


class DegreeTooLarge(CapitulaError):
    pass


class NotDividing(CapitulaError):
    pass

