"""Declarative what-if transformations over an (account, economy) pair.

Transformations move mass between named bins and never create it.  Steps
apply left to right and order matters; the result of each composition is
reported as-is, with no feasibility claim attached.

Moving ``amount`` Gt from a source bin to a sink bin changes the residual
(total input minus the output bins) by ``amount × (source is an output bin −
sink is an output bin)``; the engine checks that rule after every step.
"""

from __future__ import annotations

from .accounts import MASS_BALANCE, MaterialFlowAccount, annually_recoverable_input, validate
from .errors import ScenarioError
from .metrics import CircularityReport, metric_suite
from .record import Record, check_bool, check_fraction, check_name, float_dust, set_field
from .valuemap import CATEGORY_REVERSE_FLOW, EconomicAccount, ValueAttribution, attribute_value


class SetRecoveryRate(Record):
    """Set recycled_input to ``fraction`` of the annually recoverable pool.

    The change is taken from (or, when lowering the rate, returned to) the
    waste bin: recovered material is exactly the would-be waste.
    """

    __slots__ = ("fraction",)

    def __init__(self, fraction: float) -> None:
        set_field(self, "fraction", check_fraction(fraction, "fraction"))


class DivertWasteToStock(Record):
    """Move ``fraction`` of waste_output into net_stock_additions."""

    __slots__ = ("fraction",)

    def __init__(self, fraction: float) -> None:
        set_field(self, "fraction", check_fraction(fraction, "fraction"))


class ReplaceEnergeticWithStock(Record):
    """Rebook ``fraction`` of energetic_input as structural input added to stocks.

    Models dissipative supply replaced by durable, material-intensive
    installations.  emissions_output is deliberately left unchanged;
    emission modeling is out of scope and the result carries a note.
    """

    __slots__ = ("fraction",)

    def __init__(self, fraction: float) -> None:
        set_field(self, "fraction", check_fraction(fraction, "fraction"))


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
        set_field(self, "enabled", check_bool(enabled, "enabled"))


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
        set_field(self, "name", check_name(name, "scenario"))
        steps = tuple(steps)
        for step in steps:
            if type(step) not in OP_NAMES:
                known = ", ".join(cls.__name__ for cls in OP_NAMES)
                raise ValueError(f"scenario step must be one of {known}, got {step!r}")
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


_Move = tuple[float, str, str, dict[str, float]]  # Gt moved, source bin, sink bin, new values

_OUTPUT_BINS = frozenset(("emissions_output", "waste_output", "net_stock_additions"))


def _recover(account: MaterialFlowAccount, fraction: float) -> _Move:
    new_recycled = fraction * annually_recoverable_input(account)
    increase = new_recycled - account.recycled_input
    new_waste = account.waste_output - increase
    if new_waste < 0:
        raise ValueError(
            f"recovery increase {increase:.6g} Gt exceeds the waste bin "
            f"({account.waste_output:.6g} Gt)"
        )
    values = {"recycled_input": new_recycled, "waste_output": new_waste}
    return increase, "waste_output", "recycled_input", values


def _divert(account: MaterialFlowAccount, fraction: float) -> _Move:
    moved = fraction * account.waste_output
    new_stock = account.net_stock_additions + moved
    if new_stock > account.structural_input:
        raise ValueError(
            f"diverting {moved:.6g} Gt would push net_stock_additions to {new_stock:.6g} Gt, "
            f"beyond structural_input ({account.structural_input:.6g} Gt)"
        )
    values = {"waste_output": account.waste_output - moved, "net_stock_additions": new_stock}
    return moved, "waste_output", "net_stock_additions", values


def _replace_energetic(account: MaterialFlowAccount, fraction: float) -> _Move:
    moved = fraction * account.energetic_input
    values = {
        "energetic_input": account.energetic_input - moved,
        "structural_input": account.structural_input + moved,
        "net_stock_additions": account.net_stock_additions + moved,
    }
    return moved, "energetic_input", "net_stock_additions", values


#: The move of each mass step; ScaleReverseFlowValue moves no mass.
_MOVES = {
    SetRecoveryRate: _recover,
    DivertWasteToStock: _divert,
    ReplaceEnergeticWithStock: _replace_energetic,
}


def apply_scenario(
    account: MaterialFlowAccount, economy: EconomicAccount, scenario: Scenario
) -> ScenarioResult:
    """Apply a scenario's steps left to right and recompute both reports.

    Raises:
        ScenarioError: If the baseline account fails validation, a step's
            precondition fails or mass is not conserved after it (the error
            carries the step index), or the result breaks a structural invariant.
    """
    baseline = validate(account)
    if not baseline.ok:
        reasons = "; ".join(v.message for v in baseline.violations)
        raise ScenarioError(scenario.name, None, f"baseline account fails validation: {reasons}")

    current, current_economy = account, economy
    expected_residual = baseline.residual
    slack = float_dust(account.total_input)  # no move changes total_input
    log: list[tuple[Transformation, float]] = []  # each step with its Gt moved or value factor

    for index, step in enumerate(scenario.steps):
        try:
            move = _MOVES.get(type(step))
            if move is not None:
                amount, source, sink, values = move(current, step.fraction)
                current = current.replace(**values)
                expected_residual += amount * ((source in _OUTPUT_BINS) - (sink in _OUTPUT_BINS))
                log.append((step, amount))
            else:
                if step.enabled and account.recycled_input <= 0:
                    raise ValueError(
                        "proportional value scaling requires a nonzero baseline reverse flow"
                    )
                factor = current.recycled_input / account.recycled_input if step.enabled else 1.0
                current_economy = current_economy.replace(
                    sectors=tuple(
                        sector.replace(value=original.value * factor)
                        if sector.category == CATEGORY_REVERSE_FLOW
                        else sector
                        for sector, original in zip(current_economy.sectors, economy.sectors)
                    ),
                )
                log.append((step, factor))
        except ValueError as exc:
            # A precondition failed, or a record rejected the step's result.
            raise ScenarioError(scenario.name, index, str(exc)) from None
        residual = current.mass_residual()
        if abs(residual - expected_residual) > slack:
            raise ScenarioError(
                scenario.name,
                index,
                f"mass not conserved: residual {residual:.6g} Gt, expected "
                f"{expected_residual:.6g} Gt from the documented moves",
            )

    outcome = validate(current)
    structural_violations = [v for v in outcome.violations if v.invariant != MASS_BALANCE]
    if structural_violations:
        reasons = "; ".join(v.message for v in structural_violations)
        raise ScenarioError(scenario.name, None, f"transformed account is inconsistent: {reasons}")

    notes = []
    for step, quantity in log:
        if type(step) is ReplaceEnergeticWithStock and quantity > 0:
            notes.append(
                f"{quantity:.6g} Gt of energetic input rebooked as stock-building structural "
                "input; emissions_output left unchanged (emission modeling out of scope)"
            )
        elif type(step) is ScaleReverseFlowValue and step.enabled:
            notes.append(
                f"reverse-flow sector values scaled x{quantity:.6g}, assuming value "
                "moves proportionally with the reverse flow (explicit assumption)"
            )
    rebooked = expected_residual - baseline.residual
    if abs(rebooked) > slack:
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
