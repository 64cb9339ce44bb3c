"""Exception types shared across the package."""

__all__ = ["ResourceLimitError"]


class ResourceLimitError(RuntimeError):
    """Raised when a requested computation exceeds the built-in size guards."""
