"""Exception types shared across the simulator."""


class LengthError(ValueError):
    """Sequence length does not satisfy an operation's contract."""


class OrderError(ValueError):
    """Modulation order is not a power of two in 2..256."""


class SizeError(ValueError):
    """Block size is not a power of two, or does not match the expected shape."""


class CpLengthError(ValueError):
    """Cyclic-prefix length is negative, exceeds the symbol, or is non-integer."""


class IoError(OSError):
    """File write/read failed; message carries the offending path."""


class ConfigError(ValueError):
    """Invalid or unresolvable run configuration."""
