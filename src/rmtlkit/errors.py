"""Exception hierarchy shared across the toolkit.

Three failure families map onto the CLI exit codes: input validation
problems (exit 2), statistical degeneracy (exit 3), and simulation
studies that cannot be completed (exit 4).
"""


class InputError(ValueError):
    """Invalid user input: bad CSV, bad flag values, bad column maps."""


class SchemaError(InputError):
    """A required CSV column is missing."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"missing required column {column!r}")


class RowError(InputError):
    """A CSV data row failed validation. ``row`` is 1-based (header excluded)."""

    def __init__(self, row, message):
        self.row = row
        super().__init__(f"row {row}: {message}")


class SampleSizeError(InputError):
    """A group holds fewer subjects than inference requires."""


class DegenerateTestError(RuntimeError):
    """The requested test statistic is undefined on this data."""


class DegeneratePilotError(DegenerateTestError):
    """A pilot sample carries no variance information."""


class InfeasibleDesignError(DegenerateTestError):
    """Sample-size inputs admit no finite design (e.g. zero effect)."""


class ExtrapolationError(ValueError):
    """A restriction time lies beyond the observed follow-up."""


class SimulationError(RuntimeError):
    """A simulation study could not be completed; carries diagnostics."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)
