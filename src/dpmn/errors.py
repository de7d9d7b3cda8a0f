"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4. Everything else is a programming error and escapes.
"""


class DpmnError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DpmnError):
    """Invalid or inconsistent configuration."""


class DataError(DpmnError):
    """Problem with an input file: a corpus or a checkpoint."""


class ParseError(DataError):
    """Malformed TSV content; carries the 1-based file line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class HierarchyError(ParseError):
    """A row's labels violate the task-label hierarchy."""


class ShapeError(DpmnError):
    """Tensor operands with incompatible shapes."""


class EmbeddingIndexError(DpmnError):
    """Token id outside an embedding table; carries the offending id."""

    def __init__(self, index: int, table_size: int):
        super().__init__(f"id {index} out of range for table of {table_size} rows")
        self.index = index


class ContractError(DpmnError):
    """A documented precondition was violated by the caller."""


class IntegrityError(DataError):
    """Checkpoint bytes fail structural or checksum validation."""


class NumericError(DpmnError):
    """Non-finite values where finite ones are required (NaN loss, failed gradcheck)."""
