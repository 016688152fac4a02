"""Declarative what-if transformations over an (account, economy) pair.

Transformations move mass between named bins and never create it.  Steps
apply left to right and order matters; the result of each composition is
reported as-is, with no feasibility claim attached.

One bookkeeping subtlety drives the engine's final consistency check: the
flat balance identity counts the recovery loop on the input side only, so
raising the recovery rate moves mass out of the waste bin into the loop
and the raw residual grows by exactly the moved amount (likewise, booking
energetic input into stock additions shrinks it).  Re-judging the raw
residual against the account tolerance would double-count those moves, so
the engine instead re-checks every structural invariant strictly and
requires the residual to equal the baseline residual plus the documented
moves; the balance tolerance is judged net of them.
"""

from __future__ import annotations

import math

from .accounts import (
    MASS_BALANCE,
    MaterialFlowAccount,
    annually_recoverable_input,
    validate,
)
from .errors import ScenarioError
from .metrics import CircularityReport, metric_suite
from .record import Record, set_field
from .valuemap import (
    CATEGORY_REVERSE_FLOW,
    EconomicAccount,
    ValueAttribution,
    attribute_value,
    check_name,
)


def _check_fraction(value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or not 0.0 <= v <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {value!r}")
    return v


class SetRecoveryRate(Record):
    """Set recycled_input to ``fraction`` of the annually recoverable pool.

    The change is taken from (or, when lowering the rate, returned to) the
    waste bin: recovered material is exactly the would-be waste.
    """

    __slots__ = ("fraction",)

    def __init__(self, fraction: float) -> None:
        set_field(self, "fraction", _check_fraction(fraction))


class DivertWasteToStock(Record):
    """Move ``fraction`` of waste_output into net_stock_additions."""

    __slots__ = ("fraction",)

    def __init__(self, fraction: float) -> None:
        set_field(self, "fraction", _check_fraction(fraction))


class ReplaceEnergeticWithStock(Record):
    """Rebook ``fraction`` of energetic_input as structural input added to stocks.

    Models dissipative supply replaced by durable, material-intensive
    installations.  emissions_output is deliberately left unchanged;
    emission modeling is out of scope and the result carries a note.
    """

    __slots__ = ("fraction",)

    def __init__(self, fraction: float) -> None:
        set_field(self, "fraction", _check_fraction(fraction))


class ScaleReverseFlowValue(Record):
    """When enabled, scale reverse-flow sector values with the reverse flow.

    Sector values are rescaled from their *original* levels by the ratio of
    the current to the original recycled flow, so applying the step twice
    changes nothing and ``enabled=False`` restores the originals.  Enabling
    requires a nonzero original reverse flow; disabling is a no-op on a
    zero-recycled baseline.  This proportionality is an explicit opt-in
    assumption, never applied silently.
    """

    __slots__ = ("enabled",)

    def __init__(self, enabled: bool = True) -> None:
        if not isinstance(enabled, bool):
            raise ValueError(f"enabled must be a bool, got {enabled!r}")
        set_field(self, "enabled", enabled)


Transformation = (
    SetRecoveryRate | DivertWasteToStock | ReplaceEnergeticWithStock | ScaleReverseFlowValue
)

#: Scenario-document op name of each transformation type.
STEP_OPS: dict[str, type[Transformation]] = {
    "set_recovery_rate": SetRecoveryRate,
    "divert_waste_to_stock": DivertWasteToStock,
    "replace_energetic_with_stock": ReplaceEnergeticWithStock,
    "scale_reverse_flow_value": ScaleReverseFlowValue,
}
OP_NAMES: dict[type[Transformation], str] = {cls: op for op, cls in STEP_OPS.items()}


class Scenario(Record):
    """A named, ordered list of transformations."""

    __slots__ = ("name", "steps")

    def __init__(self, name: str, steps: tuple[Transformation, ...] = ()) -> None:
        check_name(name, "scenario")
        steps = tuple(steps)
        for step in steps:
            if type(step) not in OP_NAMES:
                known = ", ".join(cls.__name__ for cls in OP_NAMES)
                raise ValueError(f"scenario step must be one of {known}, got {step!r}")
        set_field(self, "name", name)
        set_field(self, "steps", steps)


class ScenarioResult(Record):
    """Transformed pair plus the reports recomputed on it."""

    __slots__ = ("account", "economy", "report", "attribution", "notes")

    def __init__(
        self,
        account: MaterialFlowAccount,
        economy: EconomicAccount,
        report: CircularityReport,
        attribution: ValueAttribution,
        notes: tuple[str, ...] = (),
    ) -> None:
        set_field(self, "account", account)
        set_field(self, "economy", economy)
        set_field(self, "report", report)
        set_field(self, "attribution", attribution)
        set_field(self, "notes", notes)


def apply_scenario(
    account: MaterialFlowAccount,
    economy: EconomicAccount,
    scenario: Scenario,
) -> ScenarioResult:
    """Apply a scenario's steps left to right and recompute both reports.

    Raises:
        ScenarioError: If the baseline account fails validation, a step's
            precondition is violated (the error carries the step index),
            or the transformed account is inconsistent.
    """
    baseline = validate(account)
    if not baseline.ok:
        reasons = "; ".join(v.message for v in baseline.violations)
        raise ScenarioError(scenario.name, None, f"baseline account fails validation: {reasons}")

    current = account
    current_economy = economy
    expected_residual = baseline.residual
    notes: list[str] = []

    for index, step in enumerate(scenario.steps):
        try:
            match step:
                case SetRecoveryRate(fraction=fraction):
                    pool = annually_recoverable_input(current)
                    new_recycled = fraction * pool
                    increase = new_recycled - current.recycled_input
                    new_waste = current.waste_output - increase
                    if new_waste < 0:
                        raise ScenarioError(
                            scenario.name,
                            index,
                            f"recovery increase {increase:.6g} Gt exceeds the waste bin "
                            f"({current.waste_output:.6g} Gt)",
                        )
                    current = current.replace(
                        recycled_input=new_recycled, waste_output=new_waste
                    )
                    # The loop is input-side bookkeeping: mass leaving the waste
                    # bin raises the flat residual by exactly the increase.
                    expected_residual += increase
                case DivertWasteToStock(fraction=fraction):
                    moved = fraction * current.waste_output
                    new_stock = current.net_stock_additions + moved
                    if new_stock > current.structural_input:
                        raise ScenarioError(
                            scenario.name,
                            index,
                            f"diverting {moved:.6g} Gt would push net_stock_additions to "
                            f"{new_stock:.6g} Gt, beyond structural_input "
                            f"({current.structural_input:.6g} Gt)",
                        )
                    current = current.replace(
                        waste_output=current.waste_output - moved,
                        net_stock_additions=new_stock,
                    )
                case ReplaceEnergeticWithStock(fraction=fraction):
                    moved = fraction * current.energetic_input
                    current = current.replace(
                        energetic_input=current.energetic_input - moved,
                        structural_input=current.structural_input + moved,
                        net_stock_additions=current.net_stock_additions + moved,
                    )
                    expected_residual -= moved
                    if moved > 0:
                        notes.append(
                            f"{moved:.6g} Gt of energetic input rebooked as stock-building "
                            "structural input; emissions_output left unchanged (emission "
                            "modeling out of scope)"
                        )
                case ScaleReverseFlowValue(enabled=enabled):
                    original_recycled = account.recycled_input
                    if enabled and original_recycled <= 0:
                        raise ScenarioError(
                            scenario.name,
                            index,
                            "proportional value scaling requires a nonzero baseline reverse flow",
                        )
                    factor = current.recycled_input / original_recycled if enabled else 1.0
                    current_economy = current_economy.replace(
                        sectors=tuple(
                            sector.replace(value=original.value * factor)
                            if sector.category == CATEGORY_REVERSE_FLOW
                            else sector
                            for sector, original in zip(current_economy.sectors, economy.sectors)
                        ),
                    )
                    if enabled:
                        notes.append(
                            f"reverse-flow sector values scaled x{factor:.6g}, assuming value "
                            "moves proportionally with the reverse flow (explicit assumption)"
                        )
        except ValueError as exc:
            # A record rejected the step's result, e.g. a value scaled to infinity.
            raise ScenarioError(scenario.name, index, str(exc)) from None

    actual_residual = current.mass_residual()
    if abs(actual_residual - expected_residual) > 1e-9 * max(current.total_input, 1.0):
        raise ScenarioError(
            scenario.name,
            None,
            f"mass not conserved: residual {actual_residual:.6g} Gt, expected "
            f"{expected_residual:.6g} Gt from the documented moves",
        )
    outcome = validate(current)
    structural_violations = [v for v in outcome.violations if v.invariant != MASS_BALANCE]
    if structural_violations:
        reasons = "; ".join(v.message for v in structural_violations)
        raise ScenarioError(scenario.name, None, f"transformed account is inconsistent: {reasons}")
    rebooked = expected_residual - baseline.residual
    if abs(rebooked) > 1e-9 * max(current.total_input, 1.0):
        notes.append(
            f"scenario rebooked {rebooked:+.6g} Gt across the input/output boundary; "
            f"balance judged net of that move (underlying residual "
            f"{baseline.residual:.6g} Gt, within tolerance)"
        )

    return ScenarioResult(
        account=current,
        economy=current_economy,
        report=metric_suite(current),
        attribution=attribute_value(current_economy),
        notes=tuple(notes),
    )
