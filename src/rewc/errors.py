"""Exception types shared across the package."""


class RewcError(Exception):
    """Base class for all library errors."""


class DimensionError(RewcError, ValueError):
    """Shapes or sizes are incompatible with the requested operation."""


class SymmetryError(RewcError, ValueError):
    """A matrix required to be symmetric is not."""


class ConvergenceError(RewcError, RuntimeError):
    """A numerical result failed its check: an uncertified eigenbasis, a diverged loss."""


class StateError(RewcError, RuntimeError):
    """An object is in the wrong state for the requested operation."""


class AlignmentError(RewcError, ValueError):
    """Parameter layouts of two objects do not line up."""


class CapacityError(RewcError, ValueError):
    """A size guard intended for diagnostic-scale inputs was exceeded."""


class DataFormatError(RewcError, ValueError):
    """A binary input file does not match its declared format."""


class ConfigError(RewcError, ValueError):
    """An experiment configuration file is invalid."""
