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
    """CSV cell could not be parsed; carries row and column indices.

    col is None when the csv reader rejects the row itself; text is then
    the reader's message.
    """

    def __init__(self, row, col, text):
        self.row = row
        self.col = col
        self.text = text
        if col is None:
            super().__init__(f"row {row}: {text}")
        else:
            super().__init__(f"row {row}, column {col}: cannot parse {text!r}")

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which here hold the
        # message alone; a pool worker's error must reach the caller whole
        return type(self), (self.row, self.col, self.text)


class RaggedRows(ValueError):
    """CSV rows have inconsistent lengths."""


class EmptyTable(ValueError):
    """CSV file holds no data rows."""
