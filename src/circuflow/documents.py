"""Flat key-value documents for accounts, economies and scenarios.

One shared grammar, three schemas:

    key = value          # one pair per line; '#' starts a comment
    sector = name, 1.2, reverse_flow      (economy: repeatable)
    step = set_recovery_rate, 1.0         (scenario: repeatable)

Unknown keys are rejected, scalar keys may appear at most once, and every
parse error names the offending line and field.  Rendering emits the same
grammar with shortest-round-trip floats, so parse(render(x)) == x.

Masses may be tagged t/kt/Mt/Gt via the ``unit`` key and are converted to
gigatonnes on load.  See docs/file-formats.md for the published schemas.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

from .accounts import (
    CANONICAL_MASS_UNIT,
    DEFAULT_BALANCE_TOLERANCE,
    GT_PER_UNIT,
    MASS_FIELDS,
    MaterialFlowAccount,
    check_mass,
)
from .errors import DocumentError, ProvenanceWarning

if TYPE_CHECKING:
    from types import ModuleType

    from .scenarios import Scenario, Transformation
    from .valuemap import EconomicAccount, SectorValue

# The economy and scenario schemas import their record modules inside the
# document-level functions, once per document, so that reading an account
# alone (the validate and metrics subcommands) loads neither module.

ACCOUNT_REQUIRED_KEYS = ("year",) + MASS_FIELDS
ACCOUNT_OPTIONAL_KEYS = ("unit", "balance_tolerance")

ECONOMY_REQUIRED_KEYS = ("year", "gdp", "gfcf_rate")
ECONOMY_OPTIONAL_KEYS = ("cfc_rate", "services_share")


class _Entry:
    """One ``key = value`` line of a document."""

    __slots__ = ("line", "key", "value")

    def __init__(self, line: int, key: str, value: str) -> None:
        self.line = line
        self.key = key
        self.value = value


def _parse_entries(text: str) -> list[_Entry]:
    # A leading byte-order mark is encoding residue, not part of the first key.
    if text.startswith("\ufeff"):
        text = text[1:]
    entries = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DocumentError("expected 'key = value'", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DocumentError("missing key before '='", line=line_no)
        if not value:
            raise DocumentError("missing value after '='", line=line_no, field=key)
        entries.append(_Entry(line_no, key, value))
    return entries


def _split_scalars(
    entries: list[_Entry],
    *,
    scalar_keys: tuple[str, ...],
    repeated_key: str | None = None,
) -> tuple[dict[str, _Entry], list[_Entry]]:
    scalars: dict[str, _Entry] = {}
    repeated: list[_Entry] = []
    for entry in entries:
        if repeated_key is not None and entry.key == repeated_key:
            repeated.append(entry)
        elif entry.key in scalar_keys:
            if entry.key in scalars:
                raise DocumentError(
                    f"duplicate key (first seen on line {scalars[entry.key].line})",
                    line=entry.line,
                    field=entry.key,
                )
            scalars[entry.key] = entry
        else:
            raise DocumentError("unknown key", line=entry.line, field=entry.key)
    return scalars, repeated


def _require(scalars: dict[str, _Entry], keys: tuple[str, ...]) -> None:
    for key in keys:
        if key not in scalars:
            raise DocumentError("missing required field", field=key)


def _parse_float(entry: _Entry) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise DocumentError(
            f"not a number: {entry.value!r}", line=entry.line, field=entry.key
        ) from None


def _parse_int(entry: _Entry) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise DocumentError(
            f"not an integer: {entry.value!r}", line=entry.line, field=entry.key
        ) from None


def _parse_fraction(entry: _Entry) -> float:
    value = _parse_float(entry)
    if not 0.0 <= value <= 1.0:
        raise DocumentError(
            f"must be a fraction in [0, 1], got {value!r}", line=entry.line, field=entry.key
        )
    return value


def parse_account(text: str, *, default_tolerance: float | None = None) -> MaterialFlowAccount:
    """Parse an account document; masses are converted to Gt on load.

    ``default_tolerance`` applies only when the document carries no
    ``balance_tolerance`` key (``None`` means the library default).
    """
    scalars, _ = _split_scalars(
        _parse_entries(text), scalar_keys=ACCOUNT_REQUIRED_KEYS + ACCOUNT_OPTIONAL_KEYS
    )
    _require(scalars, ACCOUNT_REQUIRED_KEYS)

    unit = CANONICAL_MASS_UNIT
    if "unit" in scalars:
        entry = scalars["unit"]
        if entry.value not in GT_PER_UNIT:
            known = ", ".join(sorted(GT_PER_UNIT))
            raise DocumentError(
                f"unknown mass unit {entry.value!r} (expected one of: {known})",
                line=entry.line,
                field="unit",
            )
        unit = entry.value

    factor = GT_PER_UNIT[unit]
    masses = {}
    for name in MASS_FIELDS:
        entry = scalars[name]
        value = _parse_float(entry)
        try:
            masses[name] = check_mass(value * factor)
        except ValueError as exc:
            raise DocumentError(str(exc), line=entry.line, field=name) from None

    if "balance_tolerance" in scalars:
        tolerance = _parse_fraction(scalars["balance_tolerance"])
    elif default_tolerance is not None:
        tolerance = float(default_tolerance)
    else:
        tolerance = DEFAULT_BALANCE_TOLERANCE

    year = _parse_int(scalars["year"])
    try:
        return MaterialFlowAccount(year=year, balance_tolerance=tolerance, **masses)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def render_account(account: MaterialFlowAccount) -> str:
    """Emit the canonical (Gt) document for an account."""
    lines = [f"year = {account.year}", f"unit = {CANONICAL_MASS_UNIT}"]
    lines += [f"{name} = {getattr(account, name)!r}" for name in MASS_FIELDS]
    lines.append(f"balance_tolerance = {account.balance_tolerance!r}")
    return "\n".join(lines) + "\n"


def _parse_sector(entry: _Entry, valuemap: ModuleType) -> SectorValue:
    parts = [part.strip() for part in entry.value.split(",")]
    if len(parts) != 3:
        raise DocumentError(
            "expected 'sector = name, value, category'", line=entry.line, field="sector"
        )
    name, value_text, category = parts
    value = _parse_float(_Entry(entry.line, entry.key, value_text))
    try:
        return valuemap.SectorValue(name=name, value=value, category=category)
    except ValueError as exc:
        raise DocumentError(str(exc), line=entry.line, field="sector") from None


def parse_economy(text: str) -> EconomicAccount:
    """Parse an economy document.

    A missing ``cfc_rate`` defaults to the global-average estimate and is
    flagged with a ProvenanceWarning.
    """
    from . import valuemap

    scalars, sector_entries = _split_scalars(
        _parse_entries(text),
        scalar_keys=ECONOMY_REQUIRED_KEYS + ECONOMY_OPTIONAL_KEYS,
        repeated_key="sector",
    )
    _require(scalars, ECONOMY_REQUIRED_KEYS)

    gdp = _parse_float(scalars["gdp"])
    if not math.isfinite(gdp) or gdp < 0:
        raise DocumentError(
            f"gdp must be non-negative and finite, got {gdp!r}",
            line=scalars["gdp"].line,
            field="gdp",
        )

    if "cfc_rate" in scalars:
        cfc_rate = _parse_fraction(scalars["cfc_rate"])
    else:
        cfc_rate = valuemap.DEFAULT_CFC_RATE
        warnings.warn(
            f"cfc_rate missing; defaulting to {cfc_rate} "
            "(global-average estimate, no single published value)",
            ProvenanceWarning,
            stacklevel=2,
        )

    services_share = (
        _parse_fraction(scalars["services_share"]) if "services_share" in scalars else None
    )

    year = _parse_int(scalars["year"])
    gfcf_rate = _parse_fraction(scalars["gfcf_rate"])
    sectors = tuple(_parse_sector(entry, valuemap) for entry in sector_entries)
    try:
        return valuemap.EconomicAccount(
            year=year,
            gdp=gdp,
            gfcf_rate=gfcf_rate,
            cfc_rate=cfc_rate,
            sectors=sectors,
            services_share=services_share,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def render_economy(economy: EconomicAccount) -> str:
    lines = [
        f"year = {economy.year}",
        f"gdp = {economy.gdp!r}",
        f"gfcf_rate = {economy.gfcf_rate!r}",
        f"cfc_rate = {economy.cfc_rate!r}",
    ]
    if economy.services_share is not None:
        lines.append(f"services_share = {economy.services_share!r}")
    for sector in economy.sectors:
        lines.append(f"sector = {sector.name}, {sector.value!r}, {sector.category}")
    return "\n".join(lines) + "\n"


def _parse_step(entry: _Entry, scenarios: ModuleType) -> Transformation:
    parts = [part.strip() for part in entry.value.split(",")]
    if len(parts) != 2:
        raise DocumentError(
            "expected 'step = op, parameter'", line=entry.line, field="step"
        )
    op, parameter = parts
    cls = scenarios.STEP_OPS.get(op)
    if cls is None:
        known = ", ".join(sorted(scenarios.STEP_OPS))
        raise DocumentError(
            f"unknown op {op!r} (expected one of: {known})", line=entry.line, field="step"
        )
    if cls is scenarios.ScaleReverseFlowValue:
        if parameter not in ("on", "off"):
            raise DocumentError(
                f"expected 'on' or 'off', got {parameter!r}", line=entry.line, field="step"
            )
        return cls(enabled=parameter == "on")
    fraction = _parse_float(_Entry(entry.line, entry.key, parameter))
    try:
        return cls(fraction=fraction)
    except ValueError as exc:
        raise DocumentError(str(exc), line=entry.line, field="step") from None


def parse_scenario(text: str) -> Scenario:
    from . import scenarios

    scalars, step_entries = _split_scalars(
        _parse_entries(text), scalar_keys=("name",), repeated_key="step"
    )
    _require(scalars, ("name",))
    return scenarios.Scenario(
        name=scalars["name"].value,
        steps=tuple(_parse_step(entry, scenarios) for entry in step_entries),
    )


def render_scenario(scenario: Scenario) -> str:
    from . import scenarios

    lines = [f"name = {scenario.name}"]
    for step in scenario.steps:
        if isinstance(step, scenarios.ScaleReverseFlowValue):
            lines.append(f"step = scale_reverse_flow_value, {'on' if step.enabled else 'off'}")
        else:
            lines.append(f"step = {scenarios.OP_NAMES[type(step)]}, {step.fraction!r}")
    return "\n".join(lines) + "\n"
