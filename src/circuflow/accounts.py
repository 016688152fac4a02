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

Accounts are immutable values.  ``_judge`` states each cross-field rule once;
``validate``, a pure function, reports its verdicts with their messages, and
``render_validation`` lays the report out.  Construction only rejects
field-level nonsense (negative or non-finite masses, and masses whose sums
overflow to infinity).  The half-away rounding and the percent and mass
formatters live here too, and ``render`` imports them for the other reports;
so does ``_significant``, which every number in a message goes through.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .errors import UndefinedDenominatorError
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


def _check_mass_sums(masses: MaterialFlowAccount) -> None:
    """Reject masses whose category or output sum overflows to infinity.

    ``validate`` adds these bins; a sum that overflows would surface as an
    infinite residual or category gap instead of a named error.  ``masses``
    is anything with the ``MASS_FIELDS`` attributes: an account under
    construction, or the bins a scenario changes in place.
    """
    if not math.isfinite(masses.energetic_input + masses.structural_input):
        raise ValueError("mass sum energetic + structural overflows to infinity")
    if not math.isfinite(
        masses.emissions_output + masses.waste_output + masses.net_stock_additions
    ):
        raise ValueError(
            "mass sum emissions + waste + net_stock_additions overflows to infinity"
        )


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
        _check_mass_sums(self)
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
    """One invariant's verdict: ``invariant: str`` is a stable code, ``passed: bool``,
    and ``message: str`` is for humans.
    """

    __slots__ = ("invariant", "passed", "message")


class ValidationOutcome(Record):
    """``validate``'s verdict: ``status: ValidationStatus``, ``residual: float`` (Gt),
    ``residual_share: float`` (of total input, NaN when that is not positive) and
    ``checks: tuple[CheckResult, ...]``.
    """

    __slots__ = ("status", "residual", "residual_share", "checks")

    @property
    def ok(self) -> bool:
        return self.status is not ValidationStatus.FAIL

    @property
    def violations(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)


# Most decimal places to round to: no float's ``repr`` has a digit past the 324th
# (5e-324 is the smallest), so more places only ever return the value itself;
# ``render.RenderSpec`` takes the same bound for ``--round``.
MAX_PLACES = 400


def _repr_decimal(value: float, shift: int = 0) -> tuple[str, str]:
    """``repr(value)`` of a finite value written out in full, split at the point.

    2.5 -> ("2", "5"), -1.5e-05 -> ("-0", "000015") and 1e+22 -> ("1" and 22
    zeros, ""): exactly the repr's digits, whether it is in exponent form or not.
    ``shift`` moves the point that many places right, so 2 reads a fraction as a
    percentage: 0.575 -> ("57", "5"), and -1e+308 -> ("-1" and 310 zeros, "").
    """
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    if not exponent and not shift:
        return whole, fraction
    sign, whole = ("-", whole[1:]) if whole[0] == "-" else ("", whole)
    digits, point = whole + fraction, len(whole) + int(exponent or 0) + shift
    if point <= 0:
        return sign + "0", "0" * -point + digits
    return sign + (digits[:point].ljust(point, "0").lstrip("0") or "0"), digits[point:]


def _fixed(value: float, places: int, shift: int = 0) -> str:
    """``value``'s ``repr``, point moved ``shift`` places right, rounded half away to ``places``.

    The first dropped digit alone decides a tie (2.675 at two places is "2.68"; 0.575 shifted
    2 is "58" at none, though 0.575 * 100.0 rounds to 57), no digit the repr lacks is shown
    (8.653846153846153 at 17 places is "8.65384615384615300"), and -0.004 at two is "-0.00".

    ``_fixed_digits`` states the rule on the repr's digits; ``%f`` of ``scaled`` gives
    the same text off a band of ``slack`` around each midpoint of the grid.  The shifted
    repr is within ``(factor * ulp(value) + ulp(scaled)) / 2`` of ``scaled`` (a repr is
    within half an ulp of its value; the product is rounded once), and the computed
    distance to the nearest midpoint errs by about two ulps of ``scaled`` at most.  Off
    the band, both lie strictly on one side of every midpoint, so ``%f``, which rounds
    ``scaled`` correctly, rounds the repr alike.  A grid finer than the band (places
    past the repr's digits, 1e16 at no places) falls inside it; NaN and inf fail the test.
    """
    factor = 10.0**shift
    scaled = value * factor
    text = "%.*f" % (places, scaled)
    slack = 4 * math.ulp(scaled) + factor * math.ulp(value)
    if abs(abs(scaled - float(text)) - 0.5 * 10.0**-places) > slack:
        return text
    return _fixed_digits(value, places, shift)


def _significant(value: float) -> str:
    """``value``'s ``repr`` rounded half away from zero to six significant digits, as ``%g``.

    The repr is on a tie when it has exactly seven significant digits ending in 5
    (1234565000.0 is one): ``%g`` rounds the binary value, which may lie below the
    tie, so the value first moves one step away from zero.  The decimals that read
    back as a normal value span an ulp, far under a seventh-digit unit, so ``%.7g``
    of a tie ends in 5.  Off a tie, that span holds the value and its repr but no
    six-digit midpoint (one there would be the repr), so ``%g`` rounds both alike.

    That argument needs a normal float.  A subnormal value can lie farther
    from its short repr than half a sixth-digit unit (1e-323 is about
    9.88131e-324), so its repr's mantissa, a normal float, is rounded
    instead, and the repr's exponent is kept, one higher if the mantissa
    rounds up to 10.
    """
    if 0 < abs(value) < sys.float_info.min:
        mantissa, _, exponent = repr(value).partition("e")
        digits = _significant(float(mantissa))
        carry = digits.lstrip("-") == "10"
        return f"{digits[:-1] if carry else digits}e{int(exponent) + carry}"
    if ("%.7g" % value).partition("e")[0][-1] == "5":
        digits = repr(value).partition("e")[0].strip("-0.").replace(".", "")
        if len(digits) == 7 and digits[-1] == "5":
            value = math.nextafter(value, math.copysign(math.inf, value))
    return "%.6g" % value


def _signed(text: str) -> str:
    """A formatted number with its sign always shown: "+0", "-0" and "+nan" included."""
    return text if text.startswith("-") else "+" + text


def _fixed_digits(value: float, places: int, shift: int = 0) -> str:
    """``_fixed`` worked out on the repr's digits: the rule, and its fast path's reference."""
    if not math.isfinite(value):
        return repr(value)
    whole, fraction = _repr_decimal(value, shift)
    if len(fraction) > places and fraction[places] >= "5":  # round the magnitude up
        kept = str(int(whole.lstrip("-") + fraction[:places]) + 1).rjust(places + 1, "0")
        point, sign = len(kept) - places, "-" if whole.startswith("-") else ""
        whole, fraction = sign + kept[:point], kept[point:]
    else:
        fraction = fraction[:places].ljust(places, "0")
    return f"{whole}.{fraction}" if places else whole


def round_half_away(value: float, places: int) -> float:
    """Round to ``places`` decimals (0 to ``MAX_PLACES``) with ties going away from zero.

    The rounding acts on the shortest ``repr`` digits, exactly: 2.675 gives
    2.68 at two places.  Infinities and NaN have no digits to round and come
    back unchanged.
    """
    if not 0 <= places <= MAX_PLACES:
        raise ValueError(f"places must be from 0 to {MAX_PLACES}, got {places!r}")
    return float(_fixed(float(value), places))  # float() of decimal text rounds correctly


def format_percent(fraction: float, places: int) -> str:
    return f"{_fixed(fraction, places, 2)}%"


def format_mass(gigatonnes: float, places: int) -> str:
    return f"{_fixed(gigatonnes, places)} Gt"


def _percent(fraction: float) -> str:
    """``fraction`` as a percentage with exactly its own digits: 0.015 -> "1.5%", -0.0 -> "0%"."""
    whole, digits = _repr_decimal(abs(fraction), 2)
    digits = digits.rstrip("0")
    return f"{'-' if fraction < 0 else ''}{whole}{'.' if digits else ''}{digits}%"


def _judge(account: MaterialFlowAccount) -> tuple[float, float, bool, dict[str, bool]]:
    """Judge every cross-field invariant: the one place each rule is written.

    Returns the category gap (energetic + structural - total), the mass
    residual, whether the books close exactly, and each invariant's verdict
    by code, in check order.  The category sum is exact up to float dust;
    the residual counts as exactly balanced up to ``_EXACT_BALANCE_REL`` of
    total input, and passes when exact or within the balance tolerance.
    """
    total = account.total_input
    category_gap = account.energetic_input + account.structural_input - total
    residual = account.mass_residual()
    exactly_balanced = abs(residual) <= _EXACT_BALANCE_REL * max(total, 1.0)
    verdicts = {
        POSITIVE_TOTAL_INPUT: total > 0,
        CATEGORY_SUM: abs(category_gap) <= float_dust(total),
        RECYCLED_WITHIN_STRUCTURAL: account.recycled_input <= account.structural_input,
        STOCK_ADDITIONS_WITHIN_STRUCTURAL: account.net_stock_additions <= account.structural_input,
        MASS_BALANCE: exactly_balanced
        or (total > 0 and abs(residual) <= account.balance_tolerance * total),
    }
    return category_gap, residual, exactly_balanced, verdicts


#: The record of each check that passes with a fixed message, built once: records are values.
_PASSED = {
    code: CheckResult(code, True, message)
    for code, message in (
        (POSITIVE_TOTAL_INPUT, "total_input is positive"),
        (CATEGORY_SUM, "energetic_input + structural_input equals total_input"),
        (RECYCLED_WITHIN_STRUCTURAL, "recycled_input fits within structural_input"),
        (STOCK_ADDITIONS_WITHIN_STRUCTURAL, "net_stock_additions fit within structural_input"),
        (MASS_BALANCE, "outputs sum exactly to total_input"),
    )
}


def _failure(code: str, account: MaterialFlowAccount, category_gap: float) -> str:
    """The message of a failed check other than the mass balance."""
    if code == POSITIVE_TOTAL_INPUT:
        return "total_input must be positive; every rate downstream divides by it"
    if code == CATEGORY_SUM:
        gap = _signed(_significant(category_gap))
        return f"energetic_input + structural_input differs from total_input by {gap} Gt"
    structural = f"structural_input ({_significant(account.structural_input)} Gt)"
    if code == RECYCLED_WITHIN_STRUCTURAL:
        return f"recycled_input ({_significant(account.recycled_input)} Gt) exceeds {structural}"
    return f"net_stock_additions ({_significant(account.net_stock_additions)} Gt) exceed {structural}"


def validate(account: MaterialFlowAccount) -> ValidationOutcome:
    """Report every cross-field invariant of an account, as ``_judge`` judges it.

    Returns PASS when all invariants hold and the books close exactly,
    PASS_WITH_WARNING when the only blemish is a nonzero residual within
    tolerance, and FAIL otherwise (each violated invariant listed).
    Pure and idempotent: the same account always yields the same outcome.
    """
    category_gap, residual, exactly_balanced, verdicts = _judge(account)
    positive = verdicts[POSITIVE_TOTAL_INPUT]
    residual_share = residual / account.total_input if positive else math.nan
    checks = [
        _PASSED[code] if passed else CheckResult(code, False, _failure(code, account, category_gap))
        for code, passed in verdicts.items()
        if code != MASS_BALANCE
    ]
    if exactly_balanced:
        checks.append(_PASSED[MASS_BALANCE])
    else:
        balanced = verdicts[MASS_BALANCE]
        message = (
            f"unexplained residual {_significant(residual)} Gt "
            f"({format_percent(residual_share, 2)} of total input) "
            f"{'within' if balanced else 'exceeds'} the "
            f"{_percent(account.balance_tolerance)} tolerance"
        )
        checks.append(CheckResult(MASS_BALANCE, balanced, message))

    if not all(verdicts.values()):
        status = ValidationStatus.FAIL
    elif exactly_balanced:
        status = ValidationStatus.PASS
    else:
        status = ValidationStatus.PASS_WITH_WARNING
    return ValidationOutcome(status, residual, residual_share, tuple(checks))


def render_validation(outcome: ValidationOutcome) -> str:
    """Human-readable validation report: status, residual, every check.

    The residual prints at one decimal place.  A passing mass-balance check
    is marked ``[warn]`` when the outcome is PASS_WITH_WARNING.
    """
    share = (
        format_percent(outcome.residual_share, 1)
        if math.isfinite(outcome.residual_share)
        else "undefined share"
    )
    lines = [
        f"validation: {outcome.status.value}",
        f"residual: {format_mass(outcome.residual, 1)} ({share} of total input)",
        "checks:",
    ]
    warned = outcome.status is ValidationStatus.PASS_WITH_WARNING
    for check in outcome.checks:
        if not check.passed:
            marker = "FAIL"
        elif warned and check.invariant == MASS_BALANCE:
            marker = "warn"
        else:
            marker = "pass"
        lines.append(f"  [{marker}] {check.message}")
    return "\n".join(lines) + "\n"


def waste_share(account: MaterialFlowAccount) -> float:
    """Fraction of total resource input ending as solid and liquid waste."""
    if account.total_input <= 0:
        raise UndefinedDenominatorError("total_input", "waste_share")
    return account.waste_output / account.total_input
