"""Exception types shared across the package."""


class NotPositiveDefinite(ValueError):
    """Matrix is not numerically positive definite."""


class DomainError(ValueError):
    """Argument outside the mathematically supported domain."""


class ConstantRow(ValueError):
    """Row has zero sample variance and cannot be standardized."""


class InvalidSpec(ValueError):
    """Generation spec fails validation."""


class InvalidConfig(ValueError):
    """Run configuration fails validation."""


class UnknownLabel(KeyError):
    """Cluster label not present in the partition."""


class SameLabel(ValueError):
    """Operation needs two distinct cluster labels."""


class ParseError(ValueError):
    """CSV cell could not be parsed; carries row and column indices."""

    def __init__(self, row, col, text):
        self.row = row
        self.col = col
        self.text = text
        super().__init__(f"row {row}, column {col}: cannot parse {text!r}")


class RaggedRows(ValueError):
    """CSV rows have inconsistent lengths."""
