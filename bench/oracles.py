"""Independent oracles: expected results recomputed from the generated fields.

Nothing here imports circuflow.  Every expected number is a fresh quotient
or a fresh step simulation over the raw values the generators wrote into
the documents, and every check returns a problem string (or None) instead
of raising, so one bad output is counted as one failed operation.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from decimal import ROUND_HALF_UP, Decimal

MASS_FIELDS = (
    "total_input",
    "energetic_input",
    "structural_input",
    "recycled_input",
    "emissions_output",
    "waste_output",
    "net_stock_additions",
)
RATE_KEYS = ("apparent", "dissipative_adjusted", "real_rate", "potential_ceiling")
CATEGORIES = ("reverse_flow", "dissipative_flow", "stock_addition", "waste", "legacy_stock")
RATE_LABELS = {
    "apparent": "apparent",
    "dissipative_adjusted": "dissipative-adjusted",
    "real_rate": "real",
    "potential_ceiling": "potential ceiling",
}
CATEGORY_LABELS = {
    "reverse_flow": "reverse flows",
    "dissipative_flow": "dissipative flows",
    "stock_addition": "stock additions",
    "waste": "waste",
    "legacy_stock": "legacy stocks",
}

# Agreement required between program and oracle, and the balance rules of
# docs/file-formats.md (exact means within float dust of zero).
REL = 1e-9
EXACT_BALANCE_REL = 1e-12
CATEGORY_REL = 1e-9


class StepBreak(Exception):
    """The simulated scenario violates a step precondition at ``index``."""

    def __init__(self, index: int) -> None:
        super().__init__(f"precondition broken at step {index}")
        self.index = index


# --------------------------------------------------------------------------
# numbers


def close(actual: float, expected: float, scale: float = 1.0) -> bool:
    """Equal to rel 1e-9, judged against ``scale`` for values near zero."""
    return abs(actual - expected) <= REL * max(abs(expected), abs(scale), 1e-300)


def rates(f: dict) -> dict:
    """The four circularity rates and their denominators, from Gt fields."""
    total = f["total_input"]
    recoverable = total - f["energetic_input"]
    annual = recoverable - f["net_stock_additions"]
    recycled = f["recycled_input"]
    return {
        "apparent": recycled / total,
        "dissipative_adjusted": recycled / recoverable,
        "real_rate": recycled / annual,
        "potential_ceiling": recoverable / total,
        "denominator_total": total,
        "denominator_recoverable": recoverable,
        "denominator_annually_recoverable": annual,
    }


def waste_share(f: dict) -> float:
    return f["waste_output"] / f["total_input"]


def attribution(econ: dict, reverse_factor: float = 1.0) -> dict:
    """Five-way GDP partition: ``{category: (value, share)}`` plus ``gdp``."""
    gdp = econ["gdp"]
    reverse = sum(v for _, v, c in econ["sectors"] if c == "reverse_flow") * reverse_factor
    dissipative = sum(v for _, v, c in econ["sectors"] if c == "dissipative_flow")
    stock = (econ["gfcf_rate"] - econ["cfc_rate"]) * gdp
    legacy = gdp - reverse - dissipative - stock
    values = {
        "reverse_flow": reverse,
        "dissipative_flow": dissipative,
        "stock_addition": stock,
        "waste": 0.0,
        "legacy_stock": max(legacy, 0.0),
    }
    return {"gdp": gdp, "values": values, "shares": {k: v / gdp for k, v in values.items()}}


def validation_codes(f: dict, tolerance: float) -> tuple[str, frozenset]:
    """Expected validation status and the set of violated invariant codes."""
    total = f["total_input"]
    failed = set()
    if not total > 0:
        failed.add("positive_total_input")
    gap = f["energetic_input"] + f["structural_input"] - total
    if abs(gap) > CATEGORY_REL * max(total, 1.0):
        failed.add("category_sum")
    if f["recycled_input"] > f["structural_input"]:
        failed.add("recycled_within_structural")
    if f["net_stock_additions"] > f["structural_input"]:
        failed.add("stock_additions_within_structural")
    residual = total - (f["emissions_output"] + f["waste_output"] + f["net_stock_additions"])
    exact = abs(residual) <= EXACT_BALANCE_REL * max(total, 1.0)
    if not exact and not abs(residual) <= tolerance * total:
        failed.add("mass_balance")
    if failed:
        return "fail", frozenset(failed)
    return ("pass" if exact else "pass-with-warning"), frozenset()


def simulate(fields: dict, steps, start: int = 0, state: dict | None = None) -> dict:
    """Apply ``steps`` (``(op, param)`` pairs) to the Gt bins, as documented.

    Returns the final state: the mass bins plus ``reverse_factor``, the
    factor the last ``scale_reverse_flow_value`` step set on reverse-flow
    sector values.  Raises StepBreak with the failing index.
    """
    s = dict(state) if state is not None else dict(fields, reverse_factor=1.0)
    for index, (op, param) in enumerate(steps, start=start):
        if op == "set_recovery_rate":
            pool = s["structural_input"] - s["net_stock_additions"]
            if pool < 0:
                raise StepBreak(index)
            new_recycled = param * pool
            increase = new_recycled - s["recycled_input"]
            new_waste = s["waste_output"] - increase
            if new_waste < 0:
                raise StepBreak(index)
            s["recycled_input"] = new_recycled
            s["waste_output"] = new_waste
        elif op == "divert_waste_to_stock":
            moved = param * s["waste_output"]
            new_stock = s["net_stock_additions"] + moved
            if new_stock > s["structural_input"]:
                raise StepBreak(index)
            s["waste_output"] = s["waste_output"] - moved
            s["net_stock_additions"] = new_stock
        elif op == "replace_energetic_with_stock":
            moved = param * s["energetic_input"]
            s["energetic_input"] = s["energetic_input"] - moved
            s["structural_input"] = s["structural_input"] + moved
            s["net_stock_additions"] = s["net_stock_additions"] + moved
        elif op == "scale_reverse_flow_value":
            original = fields["recycled_input"]
            if original <= 0:
                raise StepBreak(index)
            s["reverse_factor"] = s["recycled_input"] / original if param == "on" else 1.0
        else:
            raise ValueError(f"unknown op {op!r}")
    return s


def in_domain(state: dict) -> bool:
    """The final state must give a real rate within [0, 1] (with margin)."""
    pool = state["structural_input"] - state["net_stock_additions"]
    return pool > 0 and state["recycled_input"] <= pool * (1.0 + 1e-12)


# --------------------------------------------------------------------------
# presentation: half-away-from-zero rounding of the repr value


def _round(value: float, places: int) -> Decimal:
    return Decimal(repr(float(value))).quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_UP)


def fmt_pct(fraction: float, places: int) -> str:
    return f"{float(_round(fraction * 100.0, places)):.{places}f}%"


def fmt_delta(delta: float, places: int) -> str:
    return f"{float(_round(delta * 100.0, places)):+.{places}f} pp"


def fmt_mass(gt: float, places: int) -> str:
    return f"{float(_round(gt, places)):.{places}f} Gt"


def fmt_money(trillions: float, places: int) -> str:
    rounded = float(_round(trillions, places))
    return f"{'-' if rounded < 0 else ''}${abs(rounded):.{places}f}T"


def fmt_money_delta(delta: float, places: int) -> str:
    text = fmt_money(delta, places)
    return text if text.startswith("-") else "+" + text


# --------------------------------------------------------------------------
# output checks


def parse_machine(text: str) -> dict[str, list[float]]:
    """``key = value`` lines to ``{key: [values in order]}`` (keys may repeat)."""
    out: dict[str, list[float]] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a machine line: {line!r}")
        out.setdefault(key, []).append(float(value))
    return out


def check_machine(text: str, expected: list[tuple[str, float, float]]) -> str | None:
    """Each ``(key, value, scale)`` must appear among the values printed for key.

    Keys the oracle does not know are ignored, so the program may add keys
    without breaking the benchmark.
    """
    try:
        printed = parse_machine(text)
    except ValueError as exc:
        return str(exc)
    for key, value, scale in expected:
        values = printed.get(key)
        if not values:
            return f"machine output lacks {key!r}"
        if not any(close(v, value, scale) for v in values):
            return f"{key} = {values} but the oracle gives {value!r}"
    return None


def metric_pairs(r: dict) -> list[tuple[str, float, float]]:
    """Machine pairs of ``metrics --format machine``."""
    total = r["denominator_total"]
    denominators = ("denominator_total", "denominator_recoverable", "denominator_annually_recoverable")
    return [(k, r[k], 1.0) for k in RATE_KEYS] + [(k, r[k], total) for k in denominators]


def attribution_pairs(a: dict, prefix: str = "") -> list[tuple[str, float, float]]:
    """Machine pairs for an attribution; the identically-zero waste category is skipped."""
    gdp = a["gdp"]
    pairs = [] if prefix else [("gdp", gdp, gdp)]
    pairs += [(f"{prefix}{k}_share", a["shares"][k], 1.0) for k in CATEGORIES if k != "waste"]
    pairs += [(f"{prefix}{k}_value", a["values"][k], gdp) for k in CATEGORIES if k != "waste"]
    return pairs


def check_value_sum(text: str, prefix: str, gdp: float) -> str | None:
    """The printed category values must add up to GDP."""
    printed = parse_machine(text)
    total = sum(printed[f"{prefix}{k}_value"][0] for k in CATEGORIES)
    if not close(total, gdp, gdp):
        return f"printed {prefix}*_value sum to {total!r}, not GDP {gdp!r}"
    return None


def scenario_pairs(base: dict, base_attr: dict, after: dict, after_attr: dict) -> list:
    pairs = []
    for k in RATE_KEYS:
        pairs.append((f"baseline_{k}", base["rates"][k], 1.0))
        pairs.append((f"after_{k}", after["rates"][k], 1.0))
    pairs.append(("baseline_waste_share", base["waste_share"], 1.0))
    pairs.append(("after_waste_share", after["waste_share"], 1.0))
    pairs += attribution_pairs(base_attr, "baseline_")
    pairs += attribution_pairs(after_attr, "after_")
    return pairs


def table_rows(text: str, fmt: str) -> dict[str, list[str]]:
    """First-cell-keyed rows of every plain or markdown table in a report."""
    rows = {}
    for line in text.splitlines():
        if fmt == "markdown":
            if not line.startswith("|"):
                continue
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
        else:
            cells = re.split(r"\s{2,}", line.strip())
        if len(cells) >= 2:
            rows.setdefault(cells[0], cells[1:])
    return rows


def near(fmt, value: float, places: int) -> frozenset[str]:
    """Displays of ``value`` allowed to the program.

    The program reaches each number by its own order of float operations,
    so a value within float dust of a half-way point may round either way;
    both displays are accepted.
    """
    eps = 1e-9 * max(abs(value), 1.0)
    return frozenset(fmt(v, places) for v in (value - eps, value, value + eps))


def check_rows(text: str, fmt: str, expected: dict[str, list[frozenset[str]]]) -> str | None:
    rows = table_rows(text, fmt)
    for label, cells in expected.items():
        row = rows.get(label)
        if row is None:
            return f"{fmt} report lacks the row {label!r}"
        if len(row) < len(cells) or any(cell not in allowed for cell, allowed in zip(row, cells)):
            return f"{fmt} row {label!r} reads {row} but the oracle gives {[sorted(c) for c in cells]}"
    return None


def metric_rows(r: dict, places: int) -> dict[str, list[frozenset[str]]]:
    denominators = {
        "apparent": "denominator_total",
        "dissipative_adjusted": "denominator_recoverable",
        "real_rate": "denominator_annually_recoverable",
        "potential_ceiling": "denominator_total",
    }
    return {
        RATE_LABELS[k]: [near(fmt_pct, r[k], places), near(fmt_mass, r[denominators[k]], places)]
        for k in RATE_KEYS
    }


def comparison_rows(base, base_attr, after, after_attr, places: int) -> dict[str, list[frozenset[str]]]:
    def pct(before, now):
        return [near(fmt_pct, before, places), near(fmt_pct, now, places), near(fmt_delta, now - before, places)]

    rows = {RATE_LABELS[k]: pct(base["rates"][k], after["rates"][k]) for k in RATE_KEYS}
    rows["waste share of input"] = pct(base["waste_share"], after["waste_share"])
    for k in CATEGORIES:
        label = CATEGORY_LABELS[k]
        rows[f"{label} share of GDP"] = pct(base_attr["shares"][k], after_attr["shares"][k])
        before, now = base_attr["values"][k], after_attr["values"][k]
        rows[label] = [
            near(fmt_money, before, places),
            near(fmt_money, now, places),
            near(fmt_money_delta, now - before, places),
        ]
    return rows


def _svg_texts(svg: str) -> dict[str, str] | str:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return f"SVG does not parse as XML: {exc}"
    if not root.tag.endswith("svg"):
        return f"SVG root element is {root.tag!r}"
    return {el.get("id"): "".join(el.itertext()) for el in root.iter() if el.get("id")}


def _check_svg_texts(svg: str, expected: dict[str, set[str]]) -> str | None:
    texts = _svg_texts(svg)
    if isinstance(texts, str):
        return texts
    for key, allowed in expected.items():
        if texts.get(key) not in allowed:
            return f"SVG {key} reads {texts.get(key)!r}, the oracle gives {sorted(allowed)}"
    return None


def check_svg_metrics(svg: str, r: dict, places: int) -> str | None:
    labels = {
        "rate-apparent": ("apparent", "apparent"),
        "rate-dissipative-adjusted": ("dissipative-adjusted", "dissipative_adjusted"),
        "rate-real": ("real", "real_rate"),
        "rate-potential-ceiling": ("ceiling", "potential_ceiling"),
    }
    return _check_svg_texts(
        svg,
        {
            key: {f"{label} {p}" for p in near(fmt_pct, r[rate], places)}
            for key, (label, rate) in labels.items()
        },
    )


def check_svg_valuemap(svg: str, a: dict, places: int) -> str | None:
    return _check_svg_texts(
        svg,
        {
            f"share-{k}": {
                f"{CATEGORY_LABELS[k]}: {p} ({m})"
                for p in near(fmt_pct, a["shares"][k], places)
                for m in near(fmt_money, a["values"][k], places)
            }
            for k in CATEGORIES
        },
    )


def check_error(exc: BaseException | None, expect: dict) -> str | None:
    """An expected failure must be the named error with the named field or step."""
    if exc is None:
        return f"expected {expect['error']} ({expect}), got no error"
    name = type(exc).__name__
    if name != expect["error"]:
        return f"expected {expect['error']}, got {name}: {exc}"
    if "field" in expect and getattr(exc, "field", None) != expect["field"]:
        return f"{name} names field {getattr(exc, 'field', None)!r}, expected {expect['field']!r}"
    if "step" in expect and getattr(exc, "step_index", None) != expect["step"]:
        return f"{name} names step {getattr(exc, 'step_index', None)!r}, expected {expect['step']!r}"
    return None
