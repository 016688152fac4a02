"""Flat key-value documents for accounts, economies and scenarios.

One shared grammar, one schema table per document kind:

    key = value          # one pair per line; '#' starts a comment
    sector = name, 1.2, reverse_flow      (economy: repeatable)
    step = set_recovery_rate, 1.0         (scenario: repeatable)

Unknown keys are rejected, scalar keys may appear at most once, and every
parse error names the offending line and field.  Rendering emits the same
grammar with shortest-round-trip floats, so parse(render(x)) == x.

Masses may be tagged t/kt/Mt/Gt via the ``unit`` key and are converted to
gigatonnes on load.  docs/file-formats.md publishes the schema tables (a
test checks them against the ones here) and the order in which faults are
reported.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING

from .accounts import CANONICAL_MASS_UNIT, GT_PER_UNIT, MASS_FIELDS, MaterialFlowAccount
from .errors import DocumentError, ProvenanceWarning
from .record import check_fraction, check_mass, check_money

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from types import ModuleType
    from typing import Any

    from .record import Record
    from .scenarios import Scenario, Transformation
    from .valuemap import EconomicAccount, SectorValue

    #: key -> (type as written in the docs, required, value parser).  A
    #: ``repeated`` row has no parser: its entries go back to the caller.
    Schema = dict[str, tuple[str, bool, Callable[[str, str], Any] | None]]

# parse_economy and parse_scenario import their record modules once per
# document, so that reading an account alone (the validate and metrics
# subcommands) loads neither module.


def _parse_text(text: str, key: str) -> str:
    return text


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {text!r}") from None


def _parse_fraction(text: str, key: str) -> float:
    return check_fraction(_parse_float(text, key), key)


def _parse_mass(text: str, key: str) -> float:
    # Judged as written: converting to Gt scales by a factor in (0, 1], which
    # keeps a finite non-negative mass finite and non-negative.
    return check_mass(_parse_float(text, key))


def _parse_money(text: str, key: str) -> float:
    return check_money(_parse_float(text, key), key)


def _parse_unit(text: str, key: str) -> str:
    if text not in GT_PER_UNIT:
        known = ", ".join(sorted(GT_PER_UNIT))
        raise ValueError(f"unknown mass unit {text!r} (expected one of: {known})")
    return text


ACCOUNT_SCHEMA: Schema = {
    "year": ("integer", True, _parse_int),
    "unit": ("tag", False, _parse_unit),
    **{name: ("mass ≥ 0", True, _parse_mass) for name in MASS_FIELDS},
    "balance_tolerance": ("fraction", False, _parse_fraction),
}

ECONOMY_SCHEMA: Schema = {
    "year": ("integer", True, _parse_int),
    "gdp": ("money ≥ 0", True, _parse_money),
    "gfcf_rate": ("fraction", True, _parse_fraction),
    "cfc_rate": ("fraction", False, _parse_fraction),
    "services_share": ("fraction", False, _parse_fraction),
    "sector": ("repeated", False, None),
}

SCENARIO_SCHEMA: Schema = {
    "name": ("string", True, _parse_text),
    "step": ("repeated", False, None),
}


def _read(text: str, schema: Schema) -> dict[str, Any]:
    """Check ``text`` against ``schema`` and parse its scalar values.

    Returns the parsed value of each key present; a repeated key maps to its
    ``(line, text)`` entries in line order.  Faults are raised in the order
    docs/file-formats.md states.
    """
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
        entries.append((line_no, key, value))

    found: dict[str, Any] = {}
    for line_no, key, value in entries:
        row = schema.get(key)
        if row is None:
            raise DocumentError("unknown key", line=line_no, field=key)
        if row[0] == "repeated":
            found.setdefault(key, []).append((line_no, value))
        elif key in found:
            raise DocumentError(
                f"duplicate key (first seen on line {found[key][0]})", line=line_no, field=key
            )
        else:
            found[key] = (line_no, value)

    for key, (_, required, _) in schema.items():
        if required and key not in found:
            raise DocumentError("missing required field", field=key)
    for key, (_, _, parse) in schema.items():
        if parse is not None and key in found:
            line_no, value = found[key]
            try:
                found[key] = parse(value, key)
            except ValueError as exc:
                raise DocumentError(str(exc), line=line_no, field=key) from None
    return found


def _parse_each(entries: list, key: str, shape: str, parse: Callable, module: ModuleType):
    """Parse the ``(line, text)`` entries of ``key = <shape>`` with ``parse(module, *fields)``."""
    parsed = []
    for line, text in entries:
        fields = [field.strip() for field in text.split(",")]
        try:
            if len(fields) != shape.count(",") + 1:
                raise ValueError(f"expected '{key} = {shape}'")
            parsed.append(parse(module, *fields))
        except ValueError as exc:
            raise DocumentError(str(exc), line=line, field=key) from None
    return tuple(parsed)


def _write(schema: Schema, record: Record, entries: Iterable[str] = (), **given: object) -> str:
    """Emit one line per row in table order, ``entries`` at the repeated row.

    A value is ``given[key]`` or else the record's field, left out when ``None``
    (``str`` of a float is its shortest round-trip ``repr``).
    """
    lines = []
    for key, (kind, _, _) in schema.items():
        if kind == "repeated":
            lines += [f"{key} = {entry}" for entry in entries]
            continue
        value = given[key] if key in given else getattr(record, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_account(text: str, *, default_tolerance: float | None = None) -> MaterialFlowAccount:
    """Parse an account document; masses are converted to Gt on load.

    ``default_tolerance`` applies only when the document carries no
    ``balance_tolerance`` key (``None`` means the library default).
    """
    values = _read(text, ACCOUNT_SCHEMA)
    factor = GT_PER_UNIT[values.pop("unit", CANONICAL_MASS_UNIT)]
    for name in MASS_FIELDS:
        values[name] *= factor
    if "balance_tolerance" not in values and default_tolerance is not None:
        values["balance_tolerance"] = default_tolerance
    try:
        return MaterialFlowAccount(**values)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def render_account(account: MaterialFlowAccount) -> str:
    """Emit the canonical (Gt) document for an account."""
    return _write(ACCOUNT_SCHEMA, account, unit=CANONICAL_MASS_UNIT)


def _parse_sector(valuemap: ModuleType, name: str, value: str, category: str) -> SectorValue:
    return valuemap.SectorValue(name, _parse_float(value, "sector value"), category)


def parse_economy(text: str) -> EconomicAccount:
    """Parse an economy document.

    A missing ``cfc_rate`` defaults to the global-average estimate and is
    flagged with a ProvenanceWarning.
    """
    from . import valuemap

    values = _read(text, ECONOMY_SCHEMA)
    if "cfc_rate" not in values:  # EconomicAccount's default
        warnings.warn(
            f"cfc_rate missing; defaulting to {valuemap.DEFAULT_CFC_RATE} "
            "(global-average estimate, no single published value)",
            ProvenanceWarning,
            stacklevel=2,
        )
    values["sectors"] = _parse_each(
        values.pop("sector", []), "sector", "name, value, category", _parse_sector, valuemap
    )
    try:
        return valuemap.EconomicAccount(**values)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def render_economy(economy: EconomicAccount) -> str:
    return _write(
        ECONOMY_SCHEMA,
        economy,
        [f"{sector.name}, {sector.value!r}, {sector.category}" for sector in economy.sectors],
    )


def _parse_step(scenarios: ModuleType, op: str, parameter: str) -> Transformation:
    cls = scenarios.STEP_OPS.get(op)
    if cls is None:
        known = ", ".join(sorted(scenarios.STEP_OPS))
        raise ValueError(f"unknown op {op!r} (expected one of: {known})")
    if cls is scenarios.ScaleReverseFlowValue:
        if parameter not in ("on", "off"):
            raise ValueError(f"expected 'on' or 'off', got {parameter!r}")
        return cls(enabled=parameter == "on")
    return cls(fraction=_parse_float(parameter, "fraction"))


def parse_scenario(text: str) -> Scenario:
    from . import scenarios

    values = _read(text, SCENARIO_SCHEMA)
    steps = _parse_each(values.get("step", []), "step", "op, parameter", _parse_step, scenarios)
    return scenarios.Scenario(name=values["name"], steps=steps)


def render_scenario(scenario: Scenario) -> str:
    from . import scenarios

    steps = [
        f"scale_reverse_flow_value, {'on' if step.enabled else 'off'}"
        if isinstance(step, scenarios.ScaleReverseFlowValue)
        else f"{scenarios.OP_NAMES[type(step)]}, {step.fraction!r}"
        for step in scenario.steps
    ]
    return _write(SCENARIO_SCHEMA, scenario, steps)
