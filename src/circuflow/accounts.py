"""Economy-wide material flow account for one year, with consistency checks.

All masses are annual aggregates in Gt/yr.  The account keeps two books:

    total_input = energetic_input + structural_input     (up to float dust)
    total_input ~ emissions_output + waste_output + net_stock_additions

The second identity is approximate: published aggregates are rounded, so a
bounded unexplained residual is tolerated (default 5% of total input) and
reported, never hidden.  The recovered reverse flow (recycled_input) counts
inside both total_input and structural_input (secondary materials are
non-energetic), so the output side of the balance carries no recovery bin.

Every mass is stored as a plain float in gigatonnes per year: ingestion
converts tagged tonne/kilotonne/megatonne values once, on load, so no
downstream formula ever sees a mixed unit.

Accounts are immutable values; ``validate`` is a pure function and the
single place where cross-field rules are judged.  Construction only rejects
field-level nonsense (negative or non-finite masses, and masses whose sums
overflow to infinity).
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_UP, Context, Decimal
from enum import Enum

from .errors import AccountInvariantError, UndefinedDenominatorError
from .record import Record, check_fraction, check_mass, check_year, float_dust, set_field

DEFAULT_BALANCE_TOLERANCE = 0.05

# Residuals at or below this share of total input count as exactly balanced;
# absorbs float rounding when accounts are scaled or rebuilt from parts.
_EXACT_BALANCE_REL = 1e-12

MASS_FIELDS = (
    "total_input",
    "energetic_input",
    "structural_input",
    "recycled_input",
    "emissions_output",
    "waste_output",
    "net_stock_additions",
)

#: Conversion factors to gigatonnes for the accepted mass unit tags.
GT_PER_UNIT = {"t": 1e-9, "kt": 1e-6, "Mt": 1e-3, "Gt": 1.0}

CANONICAL_MASS_UNIT = "Gt"


# Stable invariant codes, usable by callers to tell violations apart.
POSITIVE_TOTAL_INPUT = "positive_total_input"
CATEGORY_SUM = "category_sum"
RECYCLED_WITHIN_STRUCTURAL = "recycled_within_structural"
STOCK_ADDITIONS_WITHIN_STRUCTURAL = "stock_additions_within_structural"
MASS_BALANCE = "mass_balance"


class MaterialFlowAccount(Record):
    """One year's economy-wide mass flows, in Gt/yr.

    Attributes:
        year: Calendar year of the account.
        total_input: All resource input to the socioeconomic system.
        energetic_input: Dissipative share (fossil fuels, burned biomass).
        structural_input: Structural and technical materials.
        recycled_input: Reverse flow of recovered secondary materials
            (a subset of structural_input, hence of total_input).
        emissions_output: Air emissions.
        waste_output: Solid and liquid waste.
        net_stock_additions: Net additions to in-use stocks (buildings,
            infrastructure, machinery), unavailable for same-year recovery.
        balance_tolerance: Unexplained residual permitted, as a fraction
            of total_input.
    """

    __slots__ = ("year",) + MASS_FIELDS + ("balance_tolerance",)

    def __init__(
        self,
        year: int,
        total_input: float,
        energetic_input: float,
        structural_input: float,
        recycled_input: float,
        emissions_output: float,
        waste_output: float,
        net_stock_additions: float,
        balance_tolerance: float = DEFAULT_BALANCE_TOLERANCE,
    ) -> None:
        set_field(self, "year", check_year(year))
        masses = (
            total_input,
            energetic_input,
            structural_input,
            recycled_input,
            emissions_output,
            waste_output,
            net_stock_additions,
        )
        for name, value in zip(MASS_FIELDS, masses):
            set_field(self, name, check_mass(value))
        # validate() adds these bins; a sum that overflows would surface as an
        # infinite residual or category gap instead of a named error.
        if not math.isfinite(self.energetic_input + self.structural_input):
            raise ValueError("mass sum energetic + structural overflows to infinity")
        if not math.isfinite(
            self.emissions_output + self.waste_output + self.net_stock_additions
        ):
            raise ValueError(
                "mass sum emissions + waste + net_stock_additions overflows to infinity"
            )
        set_field(
            self, "balance_tolerance", check_fraction(balance_tolerance, "balance_tolerance")
        )

    def mass_residual(self) -> float:
        """Unexplained mass: total input minus the sum of the output bins."""
        return self.total_input - (
            self.emissions_output + self.waste_output + self.net_stock_additions
        )


class ValidationStatus(Enum):
    PASS = "pass"
    PASS_WITH_WARNING = "pass-with-warning"
    FAIL = "fail"


class CheckResult(Record):
    """One invariant's verdict: ``invariant`` is a stable code, message is for humans."""

    __slots__ = ("invariant", "passed", "message")

    def __init__(self, invariant: str, passed: bool, message: str) -> None:
        set_field(self, "invariant", invariant)
        set_field(self, "passed", passed)
        set_field(self, "message", message)


class ValidationOutcome(Record):
    __slots__ = ("status", "residual", "residual_share", "checks")

    def __init__(
        self,
        status: ValidationStatus,
        residual: float,
        residual_share: float,
        checks: tuple[CheckResult, ...],
    ) -> None:
        set_field(self, "status", status)
        set_field(self, "residual", residual)
        set_field(self, "residual_share", residual_share)
        set_field(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return self.status is not ValidationStatus.FAIL

    @property
    def violations(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)


def round_half_away(value: float, places: int) -> float:
    """Round to ``places`` decimals with ties going away from zero.

    Infinities and NaN have no digits to round and come back unchanged.
    """
    value = float(value)
    if not math.isfinite(value):
        return value
    exact = Decimal(repr(value))
    # quantize fails unless the context holds every digit of the result: the
    # integer digits (one more for a carry) plus ``places`` decimals.
    context = Context(prec=max(exact.adjusted(), 0) + places + 2)
    quantum = Decimal(1).scaleb(-places)
    return float(exact.quantize(quantum, rounding=ROUND_HALF_UP, context=context))


def format_percent(fraction: float, places: int) -> str:
    return f"{round_half_away(fraction * 100.0, places):.{places}f}%"


def _percent(fraction: float) -> str:
    """``fraction`` as a percentage with exactly its own digits: 0.015 -> "1.5%"."""
    return f"{(Decimal(repr(fraction)) * 100).normalize():f}%"


def validate(account: MaterialFlowAccount) -> ValidationOutcome:
    """Judge every cross-field invariant of an account.

    Returns PASS when all invariants hold and the books close exactly,
    PASS_WITH_WARNING when the only blemish is a nonzero residual within
    tolerance, and FAIL otherwise (each violated invariant listed).
    Pure and idempotent: the same account always yields the same outcome.
    """
    checks: list[CheckResult] = []
    total = account.total_input

    checks.append(
        CheckResult(
            POSITIVE_TOTAL_INPUT,
            total > 0,
            "total_input is positive"
            if total > 0
            else "total_input must be positive; every rate downstream divides by it",
        )
    )

    category_gap = account.energetic_input + account.structural_input - total
    category_ok = abs(category_gap) <= float_dust(total)
    checks.append(
        CheckResult(
            CATEGORY_SUM,
            category_ok,
            "energetic_input + structural_input equals total_input"
            if category_ok
            else f"energetic_input + structural_input differs from total_input by {category_gap:+.6g} Gt",
        )
    )

    recycled_ok = account.recycled_input <= account.structural_input
    checks.append(
        CheckResult(
            RECYCLED_WITHIN_STRUCTURAL,
            recycled_ok,
            "recycled_input fits within structural_input"
            if recycled_ok
            else f"recycled_input ({account.recycled_input:.6g} Gt) exceeds "
            f"structural_input ({account.structural_input:.6g} Gt)",
        )
    )

    stock_ok = account.net_stock_additions <= account.structural_input
    checks.append(
        CheckResult(
            STOCK_ADDITIONS_WITHIN_STRUCTURAL,
            stock_ok,
            "net_stock_additions fit within structural_input"
            if stock_ok
            else f"net_stock_additions ({account.net_stock_additions:.6g} Gt) exceed "
            f"structural_input ({account.structural_input:.6g} Gt)",
        )
    )

    residual = account.mass_residual()
    residual_share = residual / total if total > 0 else math.nan
    exactly_balanced = abs(residual) <= _EXACT_BALANCE_REL * max(total, 1.0)
    within_tolerance = (
        total > 0 and abs(residual) <= account.balance_tolerance * total
    )
    if exactly_balanced:
        balance_message = "outputs sum exactly to total_input"
    else:
        balance_message = (
            f"unexplained residual {residual:.6g} Gt "
            f"({format_percent(residual_share, 2)} of total input) "
            f"{'within' if within_tolerance else 'exceeds'} the "
            f"{_percent(account.balance_tolerance)} tolerance"
        )
    checks.append(
        CheckResult(MASS_BALANCE, exactly_balanced or within_tolerance, balance_message)
    )

    if any(not check.passed for check in checks):
        status = ValidationStatus.FAIL
    elif exactly_balanced:
        status = ValidationStatus.PASS
    else:
        status = ValidationStatus.PASS_WITH_WARNING
    return ValidationOutcome(
        status=status,
        residual=residual,
        residual_share=residual_share,
        checks=tuple(checks),
    )


def annually_recoverable_input(account: MaterialFlowAccount) -> float:
    """Structural input minus what this year locked into long-lived stocks.

    Raises:
        AccountInvariantError: If stock additions exceed structural input
            (such an account also fails ``validate``).
    """
    leftover = account.structural_input - account.net_stock_additions
    if leftover < 0:
        raise AccountInvariantError(
            f"net_stock_additions ({account.net_stock_additions:.6g} Gt) exceed "
            f"structural_input ({account.structural_input:.6g} Gt)"
        )
    return leftover


def waste_share(account: MaterialFlowAccount) -> float:
    """Fraction of total resource input ending as solid and liquid waste."""
    if account.total_input <= 0:
        raise UndefinedDenominatorError("total_input", "waste_share")
    return account.waste_output / account.total_input
