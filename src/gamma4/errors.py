"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: diagram problems exit
with 2, failed name lookups with 3, data or logic inconsistencies with 4.
"""


class Gamma4Error(Exception):
    """Base class for all package errors."""


class PDSyntaxError(Gamma4Error):
    """Malformed PD notation (tokenizer/grammar level)."""


class PDSemanticError(Gamma4Error):
    """A PD code, parsed or built, that violates a diagram invariant.

    Carries the index of the offending crossing, as ``.crossing`` and as a
    ``crossing N: `` message prefix, when one can be blamed.
    """

    def __init__(self, message, crossing=None):
        if crossing is not None:
            message = f"crossing {crossing}: {message}"
        super().__init__(message)
        self.crossing = crossing


class DiagramError(Gamma4Error):
    """A structurally valid PD code that cannot be processed further
    (non-planar traversal, singular Goeritz matrix)."""


class KnotNotFound(Gamma4Error):
    """A knot name that does not resolve against the loaded dataset."""


class DataError(Gamma4Error):
    """Rejected rows or malformed columns while ingesting CSV data."""

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


class InconsistencyError(Gamma4Error):
    """Bounds or cross-checks that contradict each other.

    Raised instead of silently clamping: an inconsistency means either the
    ingested data is wrong or a sign convention is miscalibrated, and both
    deserve a loud failure.
    """
