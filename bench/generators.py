"""Seeded input generators: account, economy and scenario documents as text.

The benchmark owns these generators (it imports nothing from the test
suite), so a test edit cannot change a workload.  Each generator returns
the document text together with the raw values written into it, which is
what the oracles recompute from.  Every random choice comes from the
``random.Random`` passed in, so a seed fixes the inputs exactly.

Scenario chains are simulated while they are drawn, so whether a chain is
valid, and at which step a deliberately invalid chain breaks, is known
before the program sees it.
"""

from __future__ import annotations

import math
import random

import oracles
from oracles import MASS_FIELDS, StepBreak

GT_PER_UNIT = {"t": 1e-9, "kt": 1e-6, "Mt": 1e-3, "Gt": 1.0}
DEFAULT_TOLERANCE = 0.05
DEFAULT_CFC_RATE = 0.13
OPS = (
    "set_recovery_rate",
    "divert_waste_to_stock",
    "replace_energetic_with_stock",
    "scale_reverse_flow_value",
)
SECTOR_NAMES = (
    "waste management",
    "scrap_metal",
    "paper recovery",
    "fossil_energy",
    "agriculture food",
    "chemicals",
    "cement and lime",
    "biomass fuels",
)
COMMENTS = (
    "rounded published aggregates",
    "provisional figures",
    "masses in the declared unit",
    "see the statistical annex",
)

# Share of batch inputs that must fail, by the stage that rejects them.
ERROR_SHARE = {"document": 0.025, "invalid": 0.0125, "step": 0.0125}


# --------------------------------------------------------------------------
# text helpers


def _num(rng: random.Random, value: float) -> str:
    """Shortest round-trip text, sometimes in exponent form (same float)."""
    text = repr(float(value))
    if rng.random() < 0.1:
        text = f"{float(value):.17e}"
    return text


def _document(rng: random.Random, lines: list[str], commented: bool) -> str:
    """Join lines, optionally with comment lines, trailing comments and blanks."""
    if not commented:
        return "\n".join(lines) + "\n"
    out = [f"# {rng.choice(COMMENTS)}"]
    for line in lines:
        if rng.random() < 0.15:
            out.append("")
        if rng.random() < 0.2:
            line = f"{line}   # {rng.choice(COMMENTS)}"
        out.append(line)
    return "\n".join(out) + "\n"


def _floor3(value: float) -> float:
    return math.floor(value * 1000.0) / 1000.0


# --------------------------------------------------------------------------
# accounts


def account_values(
    rng: random.Random,
    *,
    residual_share: float,
    waste: str = "saturable",
    energetic_min: float = 0.05,
) -> dict:
    """Valid mass values in Gt, before any unit tag.

    ``waste`` picks the waste bin's range: ``saturable`` lets full recovery
    of the annual pool fit inside the waste bin; ``short`` makes it too
    small, so raising recovery to 100% must fail; ``long`` makes it large
    enough that diverting all of it (after recovery is set to zero) pushes
    stock additions beyond structural input.
    """
    for _ in range(1000):
        total = rng.uniform(1.0, 500.0)
        energetic = rng.uniform(energetic_min, 0.8) * total
        structural = total - energetic
        stock = rng.uniform(0.0, 0.9) * structural
        pool = structural - stock
        recycled = rng.uniform(0.05, 0.95) * pool
        residual = residual_share * total
        room = total - residual - stock  # emissions + waste
        if waste == "saturable":
            lo, hi = (pool - recycled) * 1.001, room
        elif waste == "short":
            lo, hi = 0.0, (pool - recycled) / 1.02
        else:
            lo, hi = (structural - stock) * 1.02 - recycled, room
        hi = min(hi, room)
        lo = max(lo, 0.0)
        if hi <= lo:
            continue
        waste_output = rng.uniform(lo, hi)
        return {
            "total_input": total,
            "energetic_input": energetic,
            "structural_input": structural,
            "recycled_input": recycled,
            "emissions_output": room - waste_output,
            "waste_output": waste_output,
            "net_stock_additions": stock,
        }
    raise RuntimeError("account generator found no feasible draw")


def account_document(
    rng: random.Random,
    values: dict,
    *,
    tolerance: float | None,
    unit: str | None,
    commented: bool,
    year: int = 2020,
) -> tuple[str, dict]:
    """Render ``values`` (Gt) in ``unit`` and return ``(text, fields_in_Gt)``.

    The returned fields are the written numbers times the unit factor, the
    exact floats the program should hold after loading the document.
    """
    factor = GT_PER_UNIT[unit or "Gt"]
    written = {name: values[name] / factor for name in MASS_FIELDS}
    lines = [f"year = {year}"]
    if unit is not None:
        lines.append(f"unit = {unit}")
    lines += [f"{name} = {_num(rng, written[name])}" for name in MASS_FIELDS]
    if tolerance is not None:
        lines.append(f"balance_tolerance = {tolerance!r}")
    if commented:
        rng.shuffle(lines)
    fields = {name: written[name] * factor for name in MASS_FIELDS}
    return _document(rng, lines, commented), fields


# --------------------------------------------------------------------------
# economies


def economy_values(rng: random.Random) -> dict:
    """A non-depleting economy whose sectors leave a legacy-stock residual."""
    gdp = rng.uniform(1.0, 200.0)
    if rng.random() < 0.1:
        cfc, has_cfc = DEFAULT_CFC_RATE, False
        gfcf = rng.uniform(DEFAULT_CFC_RATE, 0.5)
    else:
        gfcf = rng.uniform(0.0, 0.5)
        cfc, has_cfc = rng.uniform(0.0, gfcf), True
    budget = (1.0 - (gfcf - cfc)) * gdp
    count = rng.randint(0, 5)
    sectors = []
    if count:
        weights = [rng.random() for _ in range(count)]
        total_value = rng.uniform(0.0, 0.9) * budget
        for index, weight in enumerate(weights):
            name = f"{rng.choice(SECTOR_NAMES)} {index}"
            category = rng.choice(("reverse_flow", "dissipative_flow"))
            sectors.append((name, weight / sum(weights) * total_value, category))
    services = rng.uniform(0.4, 0.8) if rng.random() < 0.5 else None
    return {
        "gdp": gdp,
        "gfcf_rate": gfcf,
        "cfc_rate": cfc,
        "has_cfc": has_cfc,
        "services_share": services,
        "sectors": sectors,
    }


def economy_document(rng: random.Random, econ: dict, *, commented: bool, year: int = 2020) -> str:
    lines = [f"year = {year}", f"gdp = {econ['gdp']!r}", f"gfcf_rate = {econ['gfcf_rate']!r}"]
    if econ["has_cfc"]:
        lines.append(f"cfc_rate = {econ['cfc_rate']!r}")
    if econ["services_share"] is not None:
        lines.append(f"services_share = {econ['services_share']!r}")
    if commented:
        rng.shuffle(lines)
    lines += [f"sector = {name}, {value!r}, {category}" for name, value, category in econ["sectors"]]
    return _document(rng, lines, commented)


# --------------------------------------------------------------------------
# scenarios


def _valid_step(rng: random.Random, state: dict) -> tuple[str, object]:
    """A step whose precondition holds and after which the real rate stays in [0, 1]."""
    op = rng.choice(OPS)
    recycled, waste = state["recycled_input"], state["waste_output"]
    pool = state["structural_input"] - state["net_stock_additions"]
    if op == "set_recovery_rate":
        cap = min(1.0, (recycled + waste * 0.999) / pool) if pool > 0 else 1.0
        return op, (cap if cap == 1.0 and rng.random() < 0.3 else _floor3(rng.uniform(0.0, cap)))
    if op == "divert_waste_to_stock":
        cap = min(1.0, max(0.0, (pool - recycled) / waste * 0.999)) if waste > 0 else 0.0
        return op, _floor3(rng.uniform(0.0, cap))
    if op == "replace_energetic_with_stock":
        return op, _floor3(rng.uniform(0.0, 1.0))
    return op, "on" if rng.random() < 0.8 else "off"


def _breaking_pair(rng: random.Random, state: dict) -> list[tuple[str, object]]:
    """Two steps: recovery to zero, then a diversion that overfills stock additions."""
    waste = state["waste_output"] + state["recycled_input"]
    room = state["structural_input"] - state["net_stock_additions"]
    threshold = room / waste
    if threshold >= 0.999:
        raise RuntimeError("state admits no breaking diversion")
    fraction = min(1.0, math.ceil((threshold + (1.0 - threshold) * rng.uniform(0.3, 1.0)) * 1000.0) / 1000.0)
    return [("set_recovery_rate", 0.0), ("divert_waste_to_stock", fraction)]


def scenario_steps(
    rng: random.Random,
    fields: dict,
    count: int,
    *,
    break_at: int | None = None,
    econ: dict | None = None,
) -> tuple[list, dict | None]:
    """Draw ``count`` steps; returns ``(steps, final_state)``.

    With ``break_at`` the step at that index (>= 1) breaks its precondition
    and the final state is None.  With ``econ``, chains whose value scaling
    would over-attribute GDP are redrawn.
    """
    for _ in range(100):
        state = dict(fields, reverse_factor=1.0)
        steps: list = []
        while len(steps) < count:
            if break_at is not None and len(steps) == break_at - 1:
                pair = _breaking_pair(rng, state)
                state = oracles.simulate(fields, pair[:1], len(steps), state)
                try:
                    oracles.simulate(fields, pair[1:], len(steps) + 1, state)
                except StepBreak:
                    pass
                else:
                    raise RuntimeError("breaking step did not break")
                steps += pair
                continue
            step = _valid_step(rng, state)
            state = oracles.simulate(fields, [step], len(steps), state)
            steps.append(step)
        if break_at is not None:
            return steps, None
        if not oracles.in_domain(state):
            continue
        if econ is not None and not _attributable(econ, state["reverse_factor"]):
            continue
        return steps, state
    raise RuntimeError("scenario generator found no valid chain")


def _attributable(econ: dict, factor: float) -> bool:
    a = oracles.attribution(econ, factor)
    attributed = a["values"]["reverse_flow"] + a["values"]["dissipative_flow"] + a["values"]["stock_addition"]
    return attributed <= econ["gdp"] * (1.0 - 1e-6)


def scenario_document(rng: random.Random | None, name: str, steps: list) -> str:
    """Scenario text; with ``rng`` None it is exactly the canonical rendering."""
    lines = [f"name = {name}"]
    for op, param in steps:
        text = param if isinstance(param, str) else repr(float(param))
        if rng is not None and rng.random() < 0.2:
            lines.append(f"step={op} ,  {text}")
        else:
            lines.append(f"step = {op}, {text}")
    if rng is None:
        return "\n".join(lines) + "\n"
    return _document(rng, lines, rng.random() < 0.3)


# --------------------------------------------------------------------------
# malformed documents: each names the error and the field the parser must report

ACCOUNT_DEFECTS = (
    ("unknown_key", "totl_input"),
    ("duplicate", "waste_output"),
    ("not_a_number", "emissions_output"),
    ("unknown_unit", "unit"),
    ("missing", "energetic_input"),
    ("negative", "recycled_input"),
    ("bad_tolerance", "balance_tolerance"),
)
ECONOMY_DEFECTS = (
    ("short_sector", "sector"),
    ("bad_category", "sector"),
    ("negative_gdp", "gdp"),
    ("missing", "gdp"),
    ("rate_out_of_range", "gfcf_rate"),
)
SCENARIO_DEFECTS = (
    ("unknown_op", "step"),
    ("fraction_out_of_range", "step"),
    ("bad_switch", "step"),
    ("missing", "name"),
    ("no_equals", None),
)


def _replace_line(text: str, key: str, new: str | None) -> str:
    out = []
    for line in text.splitlines():
        if line.split("=", 1)[0].strip() == key and not line.lstrip().startswith("#"):
            if new is not None:
                out.append(new)
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def break_account(rng: random.Random, text: str) -> tuple[str, str]:
    kind, field = rng.choice(ACCOUNT_DEFECTS)
    if kind == "unknown_key":
        text += "totl_input = 12.5\n"
    elif kind == "duplicate":
        text += "waste_output = 1.0\n"
    elif kind == "not_a_number":
        text = _replace_line(text, field, f"{field} = 12..5")
    elif kind == "unknown_unit":
        text = _replace_line(text, "unit", None) + "unit = lb\n"
    elif kind == "missing":
        text = _replace_line(text, field, None)
    elif kind == "negative":
        text = _replace_line(text, field, f"{field} = -{rng.uniform(0.1, 9.0)!r}")
    else:
        text = _replace_line(text, field, None) + f"{field} = {rng.uniform(1.01, 3.0)!r}\n"
    return text, field


def break_economy(rng: random.Random, text: str) -> tuple[str, str]:
    kind, field = rng.choice(ECONOMY_DEFECTS)
    if kind == "short_sector":
        text += "sector = scrap_metal, 1.0\n"
    elif kind == "bad_category":
        text += "sector = scrap_metal, 1.0, upstream_flow\n"
    elif kind == "negative_gdp":
        text = _replace_line(text, "gdp", f"gdp = -{rng.uniform(1.0, 9.0)!r}")
    elif kind == "missing":
        text = _replace_line(text, "gdp", None)
    else:
        text = _replace_line(text, field, f"{field} = {rng.uniform(1.01, 2.0)!r}")
    return text, field


def break_scenario(rng: random.Random, text: str) -> tuple[str, str | None]:
    kind, field = rng.choice(SCENARIO_DEFECTS)
    if kind == "unknown_op":
        text += "step = recycle_harder, 0.5\n"
    elif kind == "fraction_out_of_range":
        text += f"step = divert_waste_to_stock, {rng.uniform(1.01, 2.0)!r}\n"
    elif kind == "bad_switch":
        text += "step = scale_reverse_flow_value, maybe\n"
    elif kind == "missing":
        text = _replace_line(text, "name", None)
    else:
        text += "step set_recovery_rate 0.5\n"
    return text, field


# --------------------------------------------------------------------------
# batch cases


def batch_case(rng: random.Random, index: int) -> dict:
    """One (account, economy, scenario) triple with its expected outcome.

    ``expect`` is None for a triple that must go through the whole
    pipeline, else a dict naming the stage and the error it must raise.
    """
    roll = rng.random()
    kind = "ok"
    edge = 0.0
    for name, share in ERROR_SHARE.items():
        edge += share
        if roll < edge:
            kind = name
            break

    tolerance = rng.choice((None, None, rng.uniform(0.03, 0.2)))
    limit = tolerance if tolerance is not None else DEFAULT_TOLERANCE
    exact = rng.random() < 0.15
    share = 0.0 if exact else rng.choice((-1, 1)) * rng.uniform(0.1, 0.8) * limit
    unit = rng.choice((None, "t", "kt", "Mt", "Gt"))
    commented = rng.random() < 0.5

    waste_kind = "saturable"
    steps_count = rng.randint(1, 3)
    break_at = None
    if kind == "step":
        share = rng.uniform(-0.01, 0.01) * limit
        waste_kind = rng.choice(("short", "long"))
    values = account_values(rng, residual_share=share, waste=waste_kind)

    invalid_codes = None
    valid_values = values
    if kind == "invalid":
        values, invalid_codes = _invalidate(rng, values, limit)
    account_text, fields = account_document(rng, values, tolerance=tolerance, unit=unit, commented=commented)
    econ = economy_values(rng)
    economy_text = economy_document(rng, econ, commented=commented)

    if kind == "invalid":  # never applied: validation stops the pipeline first
        steps, final = scenario_steps(rng, valid_values, steps_count)
    elif kind == "step" and waste_kind == "short":
        steps = [_valid_step_no_recovery(rng) for _ in range(steps_count - 1)]
        break_at = len(steps)
        steps.append(("set_recovery_rate", 1.0))
        final = None
    elif kind == "step":
        count = max(steps_count, 2)
        break_at = count - 1
        steps, final = scenario_steps(rng, fields, count, break_at=break_at)
    else:
        steps, final = scenario_steps(rng, fields, steps_count, econ=econ)
    scenario_text = scenario_document(rng, f"batch case {index}", steps)

    expect = None
    if kind == "document":
        target = rng.choice(("account", "economy", "scenario"))
        if target == "account":
            account_text, field = break_account(rng, account_text)
        elif target == "economy":
            economy_text, field = break_economy(rng, economy_text)
        else:
            scenario_text, field = break_scenario(rng, scenario_text)
        expect = {"stage": f"parse_{target}", "error": "DocumentError", "field": field}
    elif kind == "invalid":
        expect = {"stage": "validate", "error": "validation", "codes": invalid_codes}
    elif kind == "step":
        expect = {"stage": "apply_scenario", "error": "ScenarioError", "step": break_at}

    status, codes = oracles.validation_codes(fields, limit)
    if expect is None or kind == "step":
        if status == "fail":
            raise RuntimeError(f"generated account fails validation: {sorted(codes)}")
    elif kind == "invalid" and codes != invalid_codes:
        raise RuntimeError(f"invalid account breaks {sorted(codes)}, meant {sorted(invalid_codes)}")
    return {
        "account": account_text,
        "economy": economy_text,
        "scenario": scenario_text,
        "fields": fields,
        "econ": econ,
        "steps": steps,
        "final": final,
        "status": status,
        "expect": expect,
    }


def _valid_step_no_recovery(rng: random.Random) -> tuple[str, object]:
    """A step that leaves recycled, waste and the pool alone (keeps 'short' short)."""
    if rng.random() < 0.5:
        return "replace_energetic_with_stock", _floor3(rng.uniform(0.0, 1.0))
    return "scale_reverse_flow_value", "off"


def _invalidate(rng: random.Random, values: dict, tolerance: float) -> tuple[dict, frozenset]:
    """Break exactly one cross-field invariant of a valid account."""
    v = dict(values)
    kind = rng.choice(("mass_balance", "category_sum", "recycled_within_structural"))
    total = v["total_input"]
    if kind == "mass_balance":
        residual = rng.uniform(1.5, 3.0) * tolerance * total
        if rng.random() < 0.5 and total - residual - v["net_stock_additions"] > v["waste_output"]:
            residual = -residual
        room = total + residual - v["net_stock_additions"]
        v["emissions_output"] = room - v["waste_output"]
    elif kind == "category_sum":
        v["energetic_input"] *= 1.0 + rng.uniform(0.01, 0.05)
    else:
        v["recycled_input"] = v["structural_input"] * rng.uniform(1.05, 1.5)
    return v, frozenset({kind})


# --------------------------------------------------------------------------
# what-if sweep scenarios


def sweep_case(rng: random.Random, fields: dict, index: int) -> dict:
    """A long canonical scenario (8-64 steps) over the reference pair."""
    count = rng.randint(8, 64)
    break_at = rng.randint(1, count - 1) if rng.random() < 0.05 else None
    steps, final = scenario_steps(rng, fields, count, break_at=break_at)
    name = f"sweep {index}"
    return {
        "name": name,
        "text": scenario_document(None, name, steps),
        "steps": steps,
        "final": final,
        "break_at": break_at,
        "format": rng.choice(("plain", "markdown")),
        "places": rng.randint(0, 3),
    }


# --------------------------------------------------------------------------
# CLI input files


def cli_pair(rng: random.Random) -> tuple[str, dict, str, dict]:
    """An account/economy pair for the CLI mix.

    The account sets no ``balance_tolerance`` and has a 2.5-4.5% residual,
    so it passes at the default 5% and fails under a 2% override; full
    recovery fits its waste bin and halving its waste into stock keeps the
    real rate in range.
    """
    for _ in range(1000):
        share = rng.choice((-1, 1)) * rng.uniform(0.025, 0.045)
        values = account_values(rng, residual_share=share, energetic_min=0.1)
        text, fields = account_document(
            rng, values, tolerance=None, unit=rng.choice((None, "Mt", "Gt")), commented=True
        )
        econ = economy_values(rng)
        try:
            full = oracles.simulate(fields, [("set_recovery_rate", 1.0), ("scale_reverse_flow_value", "on")])
            half = oracles.simulate(fields, [("divert_waste_to_stock", 0.5)])
        except StepBreak:
            continue
        if oracles.in_domain(half) and oracles.in_domain(full) and _attributable(econ, full["reverse_factor"]):
            return text, fields, economy_document(rng, econ, commented=True), econ
    raise RuntimeError("CLI pair generator found no feasible draw")
