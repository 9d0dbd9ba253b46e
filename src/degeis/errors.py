"""Error taxonomy.

Every engine error carries a short machine-readable ``code`` so the CLI can
map failures to exit statuses without string matching.
"""

from __future__ import annotations


class DegeisError(Exception):
    code = "error"

    def __init__(self, message: str = "", **info):
        super().__init__(message or self.code)
        self.info = info


class NotFiniteTypeError(DegeisError):
    code = "not-finite-type"


class LabelInconsistencyError(DegeisError):
    code = "label-inconsistency"


class UnknownRootError(DegeisError):
    code = "unknown-root"


class UnsupportedGroupError(DegeisError):
    code = "unsupported-group"


class IotaMismatchError(DegeisError):
    code = "iota-mismatch"


class IndeterminateZeroRegionError(DegeisError):
    """A completed-zeta argument landed strictly inside (0,1).

    Real zeros there (Siegel zeros) cannot be excluded, so the order of the
    expression cannot be certified without the assume-no-real-zeros flag.
    """

    code = "indeterminate-zero-region"


class MathematicalLimitError(DegeisError):
    """The input is valid, but the answer lies beyond what the engine models."""


class NeedsHigherLogOrderError(MathematicalLimitError):
    code = "needs-higher-log-order"


class HyperplaneDegeneracyError(MathematicalLimitError):
    code = "hyperplane-degeneracy"


class UnmodeledPointError(MathematicalLimitError):
    code = "unmodeled-point"


class ConfigError(DegeisError):
    code = "config-error"


class EnumerationTooLargeError(DegeisError):
    """A Weyl-group enumeration would exceed the library's size bound."""

    code = "enumeration-too-large"
