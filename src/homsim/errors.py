"""Exception types shared across the package."""


class HomsimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HomsimError):
    """A run configuration is invalid (bad value, unknown or missing key)."""


class DataFormatError(HomsimError):
    """An input file or event stream violates the expected format."""


class InsufficientStatisticsError(HomsimError):
    """An estimate cannot be formed (e.g. empty coincidence window)."""
