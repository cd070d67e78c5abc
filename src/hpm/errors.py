"""Exception and warning types shared across the package."""


class HpmError(Exception):
    """Base class for all package errors."""


class SpaceTagError(HpmError):
    """A value was passed in the wrong representation: physical samples (a
    SpectralField) where a spectrum (a SpectralBand) was expected, or the
    reverse."""


class FieldFormatError(HpmError):
    """A field file has a malformed magic string or header."""


class FieldCorruptionError(HpmError):
    """A field file's payload does not match its header."""


class DomainError(HpmError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularPointError(DomainError):
    """The operation is undefined at this point (typically the frequency origin)."""


class IntegrityError(HpmError):
    """A numerically computed object violates a structural invariant
    (e.g. a negative diagonal cell measure)."""


class ConfigError(HpmError):
    """An experiment configuration is invalid."""


class SupportWarning(UserWarning):
    """A test function does not vanish near the torus or velocity-domain boundary."""
