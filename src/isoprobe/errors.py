"""Exception hierarchy shared by all isoprobe modules.

CLI exit codes: 0 success, 2 config error, 3 missing/stale input,
4 check failure, 5 numeric failure.
"""


class IsoprobeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def add_context(self, context):
        """Prefix ``context`` to the message, e.g. the dataset or sweep row
        being processed; the type and exit code stay."""
        self.args = (f"{context}: {self}",)
        return self


class InvalidArgumentError(IsoprobeError, ValueError):
    """An operation was called with input violating its preconditions."""

    exit_code = 2


class ConfigError(IsoprobeError):
    """A run configuration is malformed; message names the field path."""

    exit_code = 2


class MergeRefusedError(IsoprobeError):
    """Report merge refused, e.g. conflicting schema versions."""

    exit_code = 2


class MissingInputError(IsoprobeError):
    """A required upstream artifact does not exist."""

    exit_code = 3


class StaleArtifactError(IsoprobeError):
    """An upstream artifact no longer matches the hash in its manifest."""

    exit_code = 3


class CheckFailureError(IsoprobeError):
    """A verification check did not pass; message lists failing names."""

    exit_code = 4


class NumericFailureError(IsoprobeError):
    """A numeric routine failed to converge or produced non-finite values."""

    exit_code = 5


class NotPositiveSemidefiniteError(NumericFailureError):
    """Cholesky failed even after exhausting the jitter ladder."""


class GenerationFailureError(NumericFailureError):
    """GP sampling failed; the CLI names the dataset, seed and stream id
    that regenerate the kernel tree."""


class TrainingFailureError(NumericFailureError):
    """Training diverged (loss blew up relative to its initial value)."""


class RankDeficiencyError(NumericFailureError):
    """A correlation matrix lacks the strictly positive spectrum required."""


class UndefinedMetricError(IsoprobeError):
    """A metric is undefined on this input (e.g. all-zero reference)."""

    exit_code = 4
