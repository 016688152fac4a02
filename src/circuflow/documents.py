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

Each document is read in one pass over its lines.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import TYPE_CHECKING

from .accounts import (
    CANONICAL_MASS_UNIT,
    GT_PER_UNIT,
    MASS_FIELDS,
    MaterialFlowAccount,
)
from .errors import DocumentError, ProvenanceWarning
from .record import check_fraction, check_mass, check_money

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable
    from types import ModuleType
    from typing import Any

    from .record import Record, _R
    from .scenarios import Scenario, Transformation
    from .valuemap import EconomicAccount, SectorValue

    #: key -> (type as written in the docs, required, value parser).  A
    #: ``repeated`` row has no parser here: the caller hands ``_read`` one.
    Schema = dict[str, tuple[str, bool, Callable[[str, str], Any] | None]]

# parse_economy and parse_scenario import their record modules once per
# document, so that the validate subcommand, which reads an account alone,
# loads neither module, and metrics and valuemap load no scenario code.


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


def _read(
    text: str, schema: Schema, parse_entry: Callable[[str], Any] | None = None
) -> dict[str, Any]:
    """Check ``text`` against ``schema`` and parse each value, faults in the documented order.

    Returns each present key's value, and the repeated key's ``parse_entry`` records.
    """
    # A grammar fault is raised at once.  The first key fault and the first
    # entry fault are held while the later lines are read, since a later
    # grammar fault outranks both.  After the last line come the key fault, a
    # missing key, the scalar value faults in table order and the entry fault:
    # the documented order, because the repeated row is each table's last.
    # A leading byte-order mark is encoding residue, not part of the first key.
    if text.startswith("\ufeff"):
        text = text[1:]
    found: dict[str, Any] = {}
    entries: list = []
    key_fault = entry_fault = None
    for line_no, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.partition("#")[0]
        key, equals, value = line.partition("=")
        if not equals:
            if line.strip():
                raise DocumentError("expected 'key = value'", line=line_no)
            continue
        key = key.strip()
        value = value.strip()
        if not key:
            raise DocumentError("missing key before '='", line=line_no)
        if not value:
            raise DocumentError("missing value after '='", line=line_no, field=key)
        if key_fault is not None:
            continue
        row = schema.get(key)
        if row is None:
            key_fault = DocumentError("unknown key", line=line_no, field=key)
        elif row[0] == "repeated":
            if entry_fault is None:
                try:
                    entries.append(parse_entry(value))
                except ValueError as exc:
                    entry_fault = DocumentError(str(exc), line=line_no, field=key)
        elif key in found:
            key_fault = DocumentError(
                f"duplicate key (first seen on line {found[key][0]})", line=line_no, field=key
            )
        else:
            found[key] = (line_no, value)

    if key_fault is not None:
        raise key_fault
    value_fault = None
    for key, (kind, required, parse) in schema.items():
        if kind == "repeated":
            found[key] = entries
        elif key in found:
            if value_fault is None:
                line_no, value = found[key]
                try:
                    found[key] = parse(value, key)
                except ValueError as exc:
                    value_fault = DocumentError(str(exc), line=line_no, field=key)
        elif required:
            raise DocumentError("missing required field", field=key)
    fault = value_fault or entry_fault
    if fault is not None:
        raise fault
    return found


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


def _build(cls: Callable[..., _R], values: dict[str, Any]) -> _R:
    """``cls(**values)``: the document's keys by name; the constructor supplies each default."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def parse_account(text: str, *, default_tolerance: float | None = None) -> MaterialFlowAccount:
    """Parse an account document; masses are converted to Gt on load.

    ``default_tolerance`` (``None``: the library default; checked before the text)
    applies only when the document carries no ``balance_tolerance`` key.
    """
    if default_tolerance is not None:
        check_fraction(default_tolerance, "default_tolerance")
    values = _read(text, ACCOUNT_SCHEMA)
    factor = GT_PER_UNIT[values.pop("unit", CANONICAL_MASS_UNIT)]
    for name in MASS_FIELDS:
        values[name] *= factor
    if default_tolerance is not None:
        values.setdefault("balance_tolerance", default_tolerance)
    return _build(MaterialFlowAccount, values)


def render_account(account: MaterialFlowAccount) -> str:
    """Emit the canonical (Gt) document for an account."""
    return _write(ACCOUNT_SCHEMA, account, unit=CANONICAL_MASS_UNIT)


def _parse_sector(valuemap: ModuleType, text: str) -> SectorValue:
    fields = text.split(",")
    if len(fields) != 3:
        raise ValueError("expected 'sector = name, value, category'")
    name, value, category = map(str.strip, fields)
    return valuemap.SectorValue(name, _parse_float(value, "sector value"), category)


def parse_economy(text: str) -> EconomicAccount:
    """Parse an economy document.

    A missing ``cfc_rate`` defaults to the global-average estimate and an
    accepted document without one is flagged with a ProvenanceWarning.
    """
    from . import valuemap

    values = _read(text, ECONOMY_SCHEMA, partial(_parse_sector, valuemap))
    values["sectors"] = values.pop("sector")
    economy = _build(valuemap.EconomicAccount, values)
    if "cfc_rate" not in values:
        warnings.warn(
            f"cfc_rate missing; defaulting to {economy.cfc_rate} "
            "(global-average estimate, no single published value)",
            ProvenanceWarning,
            stacklevel=2,
        )
    return economy


def render_economy(economy: EconomicAccount) -> str:
    return _write(
        ECONOMY_SCHEMA,
        economy,
        [f"{sector.name}, {sector.value!r}, {sector.category}" for sector in economy.sectors],
    )


def _parse_step(scenarios: ModuleType, text: str) -> Transformation:
    op, comma, parameter = text.partition(",")
    if not comma or "," in parameter:
        raise ValueError("expected 'step = op, parameter'")
    op = op.strip()
    parameter = parameter.strip()
    cls = scenarios.STEP_OPS.get(op)
    if cls is None:
        known = ", ".join(sorted(scenarios.STEP_OPS))
        raise ValueError(f"unknown op {op!r} (expected one of: {known})")
    if cls is scenarios.ScaleReverseFlowValue:
        if parameter not in ("on", "off"):
            raise ValueError(f"expected 'on' or 'off', got {parameter!r}")
        return cls(parameter == "on")
    return cls(_parse_float(parameter, "fraction"))


def parse_scenario(text: str) -> Scenario:
    from . import scenarios

    values = _read(text, SCENARIO_SCHEMA, partial(_parse_step, scenarios))
    values["steps"] = values.pop("step")
    return _build(scenarios.Scenario, values)


def render_scenario(scenario: Scenario) -> str:
    from . import scenarios

    scale = scenarios.ScaleReverseFlowValue
    steps = [
        f"{scenarios.OP_NAMES[type(step)]}, "
        + (("on" if step.enabled else "off") if type(step) is scale else repr(step.fraction))
        for step in scenario.steps
    ]
    return _write(SCENARIO_SCHEMA, scenario, steps)
