"""Exception and warning types shared across the package."""

from __future__ import annotations


class CircuflowError(Exception):
    """Base class for every error this package raises on purpose."""


class UndefinedDenominatorError(CircuflowError):
    """A rate or share has a zero denominator and is mathematically undefined.

    A fully dissipative economy, a zero-GDP economy, or a zero reverse flow
    are reported as errors rather than coerced to 0 or 1: the quantity has
    no defined value in those states.
    """

    def __init__(self, denominator: str, context: str) -> None:
        self.denominator = denominator
        self.context = context
        super().__init__(
            f"{context}: denominator {denominator!r} is zero, result undefined"
        )


class MetricDomainError(CircuflowError):
    """A computed metric left its admissible range (a rate outside [0, 1])."""


class OverAttributionError(CircuflowError):
    """Non-residual value categories exceed GDP, leaving no residual to attribute."""

    def __init__(self, excess: float) -> None:
        from .accounts import _significant  # accounts imports this module

        self.excess = excess
        super().__init__(
            f"attributed values exceed GDP by {_significant(excess)} trillion; "
            "no legacy-stock residual exists"
        )


class ScenarioError(CircuflowError):
    """A scenario step could not be applied, or the transformed state is inconsistent.

    ``step_index`` is 0-based and names the step whose precondition failed,
    whose result no record accepts, or after which mass was not conserved.
    ``None`` means the baseline failed validation, or the result failed the
    final re-check, which judges the category sum and recycled_input within
    structural_input net of the baseline's category gap: ``validate`` on a
    result may still report a dust-level gap the baseline was just inside.
    """

    def __init__(self, scenario: str, step_index: int | None, reason: str) -> None:
        self.scenario = scenario
        self.step_index = step_index
        where = f"step {step_index}" if step_index is not None else "pipeline"
        super().__init__(f"scenario {scenario!r}, {where}: {reason}")


class DocumentError(CircuflowError):
    """A flat key-value document failed to parse or violates its schema."""

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        field: str | None = None,
    ) -> None:
        self.line = line
        self.field = field
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        prefix = f"{', '.join(parts)}: " if parts else ""
        super().__init__(f"{prefix}{message}")


class StockDepletionWarning(UserWarning):
    """Net fixed capital formation is negative: fixed stocks are being run down."""


class ProvenanceWarning(UserWarning):
    """A value was defaulted from an estimate or carries a documented bias."""
