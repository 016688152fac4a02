"""Declarative what-if transformations over an (account, economy) pair.

Transformations move mass between named bins and never create it.  Steps
apply left to right and order matters; the result of each composition is
reported as-is, with no feasibility claim attached.

Every op, the reverse-flow value scaling included, is one move: it changes the
scenario's state in place, writes its own note and returns the Gt it moved from
a source bin to a sink bin (the scaling names neither and moves none).  That
changes the residual (total input minus the output bins) by ``amount × (source
is an output bin − sink is an output bin)``, checked after every step.

The state holds bins, not records: each step's new values get the checks the
record constructors would give them, so a bad value still names its step, and
the account and the scaled economy are each built once, after the last step.
"""

from __future__ import annotations

from .accounts import (
    MASS_FIELDS,
    MaterialFlowAccount,
    _check_mass_sums,
    _judge,
    _significant,
    _signed,
    validate,
)
from .errors import ScenarioError
from .metrics import _DENOMINATOR_FIELDS, _RATE_ROWS, _mass, metric_suite
from .record import (
    Record,
    check_bool,
    check_fraction,
    check_mass,
    check_money,
    check_name,
    float_dust,
    set_field,
)
from .valuemap import (
    CATEGORY_REVERSE_FLOW,
    EconomicAccount,
    _check_sector_sum,
    attribute_value,
)


class SetRecoveryRate(Record):
    """Set recycled_input to ``fraction`` of the annually recoverable pool.

    The pool is the real rate's ``DENOMINATORS`` row, so 1.0 gives a real rate
    of exactly 1.  The change is taken from (or, when lowering the rate,
    returned to) the waste bin: recovered material is exactly the would-be waste.
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
    """Transformed pair plus the reports recomputed on it: ``account: MaterialFlowAccount``,
    ``economy: EconomicAccount``, ``report: CircularityReport``, ``attribution:
    ValueAttribution`` and ``notes: tuple[str, ...]``.
    """

    __slots__ = ("account", "economy", "report", "attribution", "notes")


class _Bins:
    """A scenario's state, changed in place: the seven mass bins, the baseline pair the
    value scaling reads, the scaling factor in force (``None`` for none) and the notes."""

    __slots__ = (*MASS_FIELDS, "account", "economy", "factor", "notes")

    def __init__(self, account: MaterialFlowAccount, economy: EconomicAccount) -> None:
        for name in MASS_FIELDS:
            setattr(self, name, getattr(account, name))
        self.account, self.economy, self.factor, self.notes = account, economy, None, []

    mass_residual = MaterialFlowAccount.mass_residual


#: The annually recoverable pool: the fields of the real rate's denominator.
_POOL = _DENOMINATOR_FIELDS[_RATE_ROWS["real_rate"][4]]


def _recover(bins: _Bins, step: SetRecoveryRate) -> float:
    new_recycled = step.fraction * _mass(bins, _POOL)
    increase = new_recycled - bins.recycled_input
    new_waste = bins.waste_output - increase
    if new_waste < 0:
        raise ValueError(
            f"recovery increase {_significant(increase)} Gt exceeds the waste bin "
            f"({_significant(bins.waste_output)} Gt)"
        )
    bins.recycled_input = check_mass(new_recycled, "recycled_input")
    bins.waste_output = check_mass(new_waste, "waste_output")
    return increase


def _divert(bins: _Bins, step: DivertWasteToStock) -> float:
    moved = step.fraction * bins.waste_output
    new_stock = bins.net_stock_additions + moved
    if new_stock > bins.structural_input:
        raise ValueError(
            f"diverting {_significant(moved)} Gt would push net_stock_additions to "
            f"{_significant(new_stock)} Gt, beyond structural_input "
            f"({_significant(bins.structural_input)} Gt)"
        )
    bins.waste_output = check_mass(bins.waste_output - moved, "waste_output")
    bins.net_stock_additions = check_mass(new_stock, "net_stock_additions")
    # Only a divert shrinks the pool, so only here can recycled_input come to exceed it.
    pool = _mass(bins, _POOL)
    if bins.recycled_input - pool > float_dust(bins.total_input):
        raise ValueError(
            f"diverting {_significant(moved)} Gt would shrink the annually recoverable pool to "
            f"{_significant(pool)} Gt, below recycled_input "
            f"({_significant(bins.recycled_input)} Gt)"
        )
    return moved


def _replace_energetic(bins: _Bins, step: ReplaceEnergeticWithStock) -> float:
    moved = step.fraction * bins.energetic_input
    bins.energetic_input = check_mass(bins.energetic_input - moved, "energetic_input")
    bins.structural_input = check_mass(bins.structural_input + moved, "structural_input")
    bins.net_stock_additions = check_mass(bins.net_stock_additions + moved, "net_stock_additions")
    if moved > 0:
        bins.notes.append(
            f"{_significant(moved)} Gt of energetic input rebooked as stock-building "
            "structural input; emissions_output left unchanged (emission modeling out of scope)"
        )
    return moved


def _scale(bins: _Bins, step: ScaleReverseFlowValue) -> float:
    if not step.enabled:
        bins.factor = None
        return 0.0
    if bins.account.recycled_input <= 0:
        raise ValueError("proportional value scaling requires a nonzero baseline reverse flow")
    bins.factor = factor = bins.recycled_input / bins.account.recycled_input
    # The checks SectorValue and EconomicAccount would give the scaled values.
    _check_sector_sum(
        check_money(sector.value * factor, "sector value")
        if sector.category == CATEGORY_REVERSE_FLOW
        else sector.value
        for sector in bins.economy.sectors
    )
    bins.notes.append(
        f"reverse-flow sector values scaled x{_significant(factor)}, assuming value "
        "moves proportionally with the reverse flow (explicit assumption)"
    )
    return 0.0


#: Scenario-document op name, step type, move, source and sink bin of each step.  A move
#: stores its checked new values and its note on the state, and returns the Gt moved.
_STEPS = (
    ("set_recovery_rate", SetRecoveryRate, _recover, "waste_output", "recycled_input"),
    ("divert_waste_to_stock", DivertWasteToStock, _divert, "waste_output", "net_stock_additions"),
    (
        "replace_energetic_with_stock",
        ReplaceEnergeticWithStock,
        _replace_energetic,
        "energetic_input",
        "net_stock_additions",
    ),
    ("scale_reverse_flow_value", ScaleReverseFlowValue, _scale, None, None),
)
STEP_OPS: dict[str, type[Transformation]] = {op: cls for op, cls, *_ in _STEPS}
OP_NAMES: dict[type[Transformation], str] = {cls: op for op, cls, *_ in _STEPS}
#: Each move and its residual sign, (source is an output bin) - (sink is an output bin).
_MOVES = {
    cls: (move, (source in MASS_FIELDS[4:]) - (sink in MASS_FIELDS[4:]))  # outputs come last
    for _, cls, move, source, sink in _STEPS
}


def apply_scenario(
    account: MaterialFlowAccount, economy: EconomicAccount, scenario: Scenario
) -> ScenarioResult:
    """Apply a scenario's steps left to right and recompute both reports.

    Like the residual, the result is judged by what the steps changed: the
    category sum, and recycled_input within structural_input, net of the
    baseline's category gap.  No move changes total_input, and each keeps
    stock additions within structural input, so those need no re-check.

    Raises:
        ScenarioError: If the baseline account fails validation, a step's
            precondition fails, a record check rejects one of its new values
            or mass is not conserved after it (the error carries the step
            index), or the result breaks a judged invariant.
    """
    # validate runs only to explain a failed verdict
    baseline_gap, baseline_residual, _, verdicts = _judge(account)
    if not all(verdicts.values()):
        reasons = "; ".join(v.message for v in validate(account).violations)
        raise ScenarioError(scenario.name, None, f"baseline account fails validation: {reasons}")

    bins = _Bins(account, economy)
    expected_residual = baseline_residual
    slack = float_dust(account.total_input)  # no move changes total_input

    for index, step in enumerate(scenario.steps):
        move, sign = _MOVES[type(step)]
        try:
            expected_residual += move(bins, step) * sign
            _check_mass_sums(bins)
        except ValueError as exc:
            # A precondition failed, or a record check rejected a new value.
            raise ScenarioError(scenario.name, index, str(exc)) from None
        residual = bins.mass_residual()
        if abs(residual - expected_residual) > slack:
            raise ScenarioError(
                scenario.name,
                index,
                f"mass not conserved: residual {_significant(residual)} Gt, expected "
                f"{_significant(expected_residual)} Gt from the documented moves",
            )

    current = account.replace(**{name: getattr(bins, name) for name in MASS_FIELDS})
    drift = bins.energetic_input + bins.structural_input - account.total_input - baseline_gap
    excess = bins.recycled_input - bins.structural_input + baseline_gap
    reasons = []
    if abs(drift) > slack:
        drift_text = _signed(_significant(drift))
        reasons.append(f"energetic_input + structural_input moved {drift_text} Gt off total_input")
    if excess > slack:
        reasons.append(f"recycled_input exceeds structural_input by {_significant(excess)} Gt")
    if reasons:
        reason = "transformed account is inconsistent: " + "; ".join(reasons)
        raise ScenarioError(scenario.name, None, reason)

    rebooked = expected_residual - baseline_residual
    if abs(rebooked) > slack:
        bins.notes.append(
            f"scenario rebooked {_signed(_significant(rebooked))} Gt across the input/output "
            "boundary; balance judged net of that move (underlying residual "
            f"{_significant(baseline_residual)} Gt, within tolerance)"
        )

    if bins.factor is None:
        current_economy = economy
    else:
        current_economy = economy.replace(
            sectors=tuple(
                sector.replace(value=sector.value * bins.factor)
                if sector.category == CATEGORY_REVERSE_FLOW
                else sector
                for sector in economy.sectors
            ),
        )
    report, attribution = metric_suite(current), attribute_value(current_economy)
    return ScenarioResult(current, current_economy, report, attribution, tuple(bins.notes))
