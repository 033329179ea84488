"""Exception types shared across the package."""


class FogsimError(Exception):
    """Base class for all package-specific errors."""


class EncodingOverflow(FogsimError):
    """Message cannot be encoded: a value has no wire form or the body exceeds MAX_BODY_BYTES."""


class NeedMoreBytes(FogsimError):
    """Buffer ends before the announced frame does; feed more bytes and retry."""

    def __init__(self, needed: int):
        super().__init__(f"need at least {needed} more bytes")
        self.needed = needed


class ProtocolError(FogsimError):
    """Frame is complete but its body cannot be understood."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class CyclicDependency(FogsimError):
    """Task graph contains a cycle."""


class ConfigError(FogsimError):
    """Scenario configuration is invalid; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DeadlockDetected(FogsimError):
    """Scenario cannot make progress; carries a component state dump."""

    def __init__(self, message: str, dump: str = ""):
        super().__init__(message if not dump else f"{message}\n{dump}")
        self.dump = dump
