"""Report rendering: plain tables, markdown, machine key-value lines, SVG.

Each report renderer builds its numbers once, as an ordered ``{machine key:
(kind, value)}`` table.  Machine format prints that table as it stands, one
``key = value`` line per entry in insertion order, with shortest-round-trip
floats, so identical inputs give byte-identical output.  Plain and markdown
rows and the SVG text labels look their numbers up in the same table by key
and format them through one ``kind -> formatter`` table, so a human format
cannot show a number the machine format lacks.  The only human cells that
are not keys are the scenario delta column and the valuemap mass column.

Numbers are rounded half-away-from-zero at the configured precision, by
the helpers ``accounts`` also uses for its own messages; upstream every
other number is an exact quotient.  SVG charts come only from
``svg_metrics`` and ``svg_valuemap`` (SVG is not a ``RenderSpec`` format)
and are emitted from small string templates on purpose: the tool stays
dependency-free.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .accounts import (
    MASS_BALANCE,
    ValidationOutcome,
    ValidationStatus,
    format_percent,
    round_half_away,
)
from .record import Record, check_bool, check_choice, set_field

if TYPE_CHECKING:
    from collections.abc import Callable

    from .accounts import MaterialFlowAccount
    from .metrics import CircularityReport
    from .valuemap import ValueAttribution

    # machine key -> (kind, value), in machine-output order
    Numbers = dict[str, tuple[str, float]]
    Table = tuple[tuple[str, ...], list[tuple[str, ...]]]
    # layout(cell) -> (title, tables, note blocks, footnote)
    Layout = Callable[[Callable[[str], str]], tuple[str, list[Table], list[str], str]]

FORMAT_PLAIN = "plain"
FORMAT_MARKDOWN = "markdown"
FORMAT_MACHINE = "machine"
FORMATS = (FORMAT_PLAIN, FORMAT_MARKDOWN, FORMAT_MACHINE)

#: (rate key, label, key of the denominator it divides by), in report order.
_METRICS = (
    ("apparent", "apparent", "denominator_total"),
    ("dissipative_adjusted", "dissipative-adjusted", "denominator_recoverable"),
    ("real_rate", "real", "denominator_annually_recoverable"),
    ("potential_ceiling", "potential ceiling", "denominator_total"),
)
#: (category, label, account mass field shown next to it, key stem of its GDP
#: share in scenario output).  "<side>_waste_share" already names the waste
#: share of input there, so the waste category's GDP share is "waste_gdp_share".
_CATEGORIES = (
    ("reverse_flow", "reverse flows", "recycled_input", "reverse_flow_share"),
    ("dissipative_flow", "dissipative flows", "energetic_input", "dissipative_flow_share"),
    ("stock_addition", "stock additions", "net_stock_additions", "stock_addition_share"),
    ("waste", "waste", "waste_output", "waste_gdp_share"),
    ("legacy_stock", "legacy stocks", None, "legacy_stock_share"),
)
#: (label, key stem) of each scenario table row: the numbers are the
#: ``baseline_<stem>`` and ``after_<stem>`` keys.
_SCENARIO_RATE_ROWS = (
    *((label, key) for key, label, _ in _METRICS),
    ("waste share of input", "waste_share"),
    *((f"{label} share of GDP", stem) for _, label, _, stem in _CATEGORIES),
)
_SCENARIO_VALUE_ROWS = tuple((label, f"{category}_value") for category, label, _, _ in _CATEGORIES)
_SEGMENT_COLORS = ("#2a9d8f", "#e9c46a", "#f4a261", "#9d9d9d", "#264653")


# Most decimal places a report may ask for.  No float's ``repr`` has a digit
# past the 324th decimal place, so the bound hides none; far larger values
# overflow the exponent range of the decimal arithmetic that rounds.
_MAX_ROUNDING = 400


class RenderSpec(Record):
    """How to render a report.

    ``rounding`` is the number of decimal places, at most 400, for
    percentages (and, for table consistency, masses and money).  Rounding
    is half-away-from-zero: half-way values round up in magnitude, so e.g.
    61.5% prints as 62% at zero places, never 61%.
    """

    __slots__ = ("format", "rounding", "include_provenance_footnotes")

    def __init__(
        self,
        format: str = FORMAT_PLAIN,
        rounding: int = 1,
        include_provenance_footnotes: bool = True,
    ) -> None:
        set_field(self, "format", check_choice(format, FORMATS, "format"))
        if isinstance(rounding, bool) or not isinstance(rounding, int) or rounding < 0:
            raise ValueError(f"rounding must be a non-negative integer, got {rounding!r}")
        if rounding > _MAX_ROUNDING:
            raise ValueError(f"rounding must be at most {_MAX_ROUNDING}, got {rounding!r}")
        set_field(self, "rounding", rounding)
        footnotes = check_bool(include_provenance_footnotes, "include_provenance_footnotes")
        set_field(self, "include_provenance_footnotes", footnotes)


def format_percent_delta(delta_fraction: float, places: int) -> str:
    return f"{round_half_away(delta_fraction * 100.0, places):+.{places}f} pp"


def format_mass(gigatonnes: float, places: int) -> str:
    return f"{round_half_away(gigatonnes, places):.{places}f} Gt"


def format_money(trillions: float, places: int) -> str:
    rounded = round_half_away(trillions, places)
    sign = "-" if rounded < 0 else ""
    return f"{sign}${abs(rounded):.{places}f}T"


def _format_money_delta(trillions: float, places: int) -> str:
    text = format_money(trillions, places)
    return text if text.startswith("-") else "+" + text


#: How each kind of number prints in a human format.
_FORMATTERS = {
    "%": format_percent,
    "pp": format_percent_delta,
    "Gt": format_mass,
    "$": format_money,
    "+$": _format_money_delta,
}


def _cells(numbers: Numbers, places: int) -> Callable[[str], str]:
    """``cell(key)``: the number under ``key``, formatted by its kind."""

    def cell(key: str) -> str:
        kind, value = numbers[key]
        return _FORMATTERS[kind](value, places)

    return cell


def _plain_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _markdown_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _project(spec: RenderSpec, numbers: Numbers, layout: Layout) -> str:
    """Print ``numbers`` in machine format, or lay the report out for people.

    ``layout(cell)`` is called only for the human formats.  It returns the
    title, the ``(headers, rows)`` tables, the note blocks and a footnote
    that prints only when the spec asks for footnotes.  Blocks are separated
    by one blank line.
    """
    if spec.format == FORMAT_MACHINE:
        return "".join(f"{key} = {value!r}\n" for key, (_, value) in numbers.items())
    title, tables, notes, footnote = layout(_cells(numbers, spec.rounding))
    make_table = _markdown_table if spec.format == FORMAT_MARKDOWN else _plain_table
    blocks = [title, *(make_table(headers, rows) for headers, rows in tables), *notes]
    if spec.include_provenance_footnotes and footnote:
        blocks.append(footnote)
    return "\n\n".join(blocks) + "\n"


def render_validation(outcome: ValidationOutcome, spec: RenderSpec | None = None) -> str:
    """Human-readable validation report: status, residual, every check."""
    spec = spec or RenderSpec()
    lines = [f"validation: {outcome.status.value}"]
    share = (
        format_percent(outcome.residual_share, spec.rounding)
        if math.isfinite(outcome.residual_share)
        else "undefined share"
    )
    lines.append(
        f"residual: {format_mass(outcome.residual, spec.rounding)} ({share} of total input)"
    )
    lines.append("checks:")
    for check in outcome.checks:
        if not check.passed:
            marker = "FAIL"
        elif (
            check.invariant == MASS_BALANCE
            and outcome.status is ValidationStatus.PASS_WITH_WARNING
        ):
            marker = "warn"
        else:
            marker = "pass"
        lines.append(f"  [{marker}] {check.message}")
    return "\n".join(lines) + "\n"


def _metric_numbers(report: CircularityReport) -> Numbers:
    numbers = {key: ("%", rate) for key, rate in report.rates().items()}
    numbers["denominator_total"] = ("Gt", report.denominator_total)
    numbers["denominator_recoverable"] = ("Gt", report.denominator_recoverable)
    numbers["denominator_annually_recoverable"] = ("Gt", report.denominator_annually_recoverable)
    return numbers


def render_metrics(report: CircularityReport, spec: RenderSpec | None = None) -> str:
    """Render the metric family in the requested format."""
    spec = spec or RenderSpec()

    def layout(cell):
        rows = [(label, cell(key), cell(denominator)) for key, label, denominator in _METRICS]
        footnote = (
            f"note: rates are exact quotients rounded half-away-from-zero to "
            f"{spec.rounding} decimal place(s); half-way values round up in "
            "magnitude (61.5% prints as 62% at zero places, not 61%)."
        )
        return "circularity metrics", [(("metric", "rate", "denominator"), rows)], [], footnote

    return _project(spec, _metric_numbers(report), layout)


def _valuemap_numbers(
    attribution: ValueAttribution, services_share: float | None = None
) -> Numbers:
    numbers = {"gdp": ("$", attribution.gdp)}
    for category, value in attribution.values_by_category().items():
        numbers[f"{category}_value"] = ("$", value)
    for category, share in attribution.shares_by_category().items():
        numbers[f"{category}_share"] = ("%", share)
    if services_share is not None:
        numbers["services_share"] = ("%", services_share)
    return numbers


def render_valuemap(
    attribution: ValueAttribution,
    spec: RenderSpec | None = None,
    *,
    account: MaterialFlowAccount | None = None,
    services_share: float | None = None,
) -> str:
    """Render the five-way GDP attribution; mass column shown when an account is given."""
    spec = spec or RenderSpec()

    def layout(cell):
        rows = []
        for category, label, mass_field, _ in _CATEGORIES:
            # The mass column is human-only: account masses are not report numbers.
            mass = () if account is None else (
                format_mass(getattr(account, mass_field), spec.rounding) if mass_field else "-",
            )
            rows.append((label, *mass, cell(f"{category}_value"), cell(f"{category}_share")))
        headers = ("category", *(() if account is None else ("mass",)), "value", "share of GDP")
        notes = []
        if services_share is not None:
            notes.append(f"services share of GDP (context only): {cell('services_share')}")
        footnote = (
            "note: the whole waste-management sector value is booked to reverse "
            "flows; the part directly created by recovered-material flows is "
            "likely lower, so the reverse-flow share is an upper estimate."
        )
        return f"GDP value attribution ({cell('gdp')} GDP)", [(headers, rows)], notes, footnote

    return _project(spec, _valuemap_numbers(attribution, services_share), layout)


def render_scenario_comparison(
    scenario_name: str,
    baseline_report: CircularityReport,
    baseline_attribution: ValueAttribution,
    baseline_waste_share: float,
    result_report: CircularityReport,
    result_attribution: ValueAttribution,
    result_waste_share: float,
    notes: tuple[str, ...] = (),
    spec: RenderSpec | None = None,
) -> str:
    """Side-by-side baseline vs transformed metrics and attribution, with deltas."""
    spec = spec or RenderSpec()
    sides = (
        ("baseline", baseline_report.rates(), baseline_attribution),
        ("after", result_report.rates(), result_attribution),
    )
    # Rates interleave the two sides; GDP shares and values are grouped by side.
    numbers: Numbers = {}
    for key, _, _ in _METRICS:
        for side, rates, _ in sides:
            numbers[f"{side}_{key}"] = ("%", rates[key])
    numbers["baseline_waste_share"] = ("%", baseline_waste_share)
    numbers["after_waste_share"] = ("%", result_waste_share)
    for side, _, attribution in sides:
        shares = attribution.shares_by_category()
        for category, _, _, stem in _CATEGORIES:
            numbers[f"{side}_{stem}"] = ("%", shares[category])
    for side, _, attribution in sides:
        for category, value in attribution.values_by_category().items():
            numbers[f"{side}_{category}_value"] = ("$", value)

    def layout(cell):
        tables = []
        for headers, rows, delta_kind in (
            (("quantity", "baseline", "after", "delta"), _SCENARIO_RATE_ROWS, "pp"),
            (("value", "baseline", "after", "delta"), _SCENARIO_VALUE_ROWS, "+$"),
        ):
            delta = _FORMATTERS[delta_kind]
            cells = []
            for label, stem in rows:
                before, after = f"baseline_{stem}", f"after_{stem}"
                # The delta column is human-only: machine output prints both sides.
                change = numbers[after][1] - numbers[before][1]
                cells.append((label, cell(before), cell(after), delta(change, spec.rounding)))
            tables.append((headers, cells))
        blocks = ["\n".join(["notes:", *(f"  - {note}" for note in notes)])] if notes else []
        return f"scenario: {scenario_name}", tables, blocks, ""

    return _project(spec, numbers, layout)


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_document(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def svg_metrics(report: CircularityReport, spec: RenderSpec | None = None) -> str:
    """Waterfall of the shrinking denominators, annotated with the rates.

    One labeled text element per reported quantity (three denominators,
    three rates, the ceiling).
    """
    spec = spec or RenderSpec()
    numbers = _metric_numbers(report)
    cell = _cells(numbers, spec.rounding)
    width, height = 640, 400
    plot_left, plot_top, plot_bottom = 60, 70, 360
    bar_width, gap = 140, 50
    scale = (plot_bottom - plot_top) / max(report.denominator_total, 1e-300)

    # One bar per metric but the ceiling, each over its own denominator.
    bars = zip(
        (
            ("total", "total input"),
            ("recoverable", "non-dissipative"),
            ("annually-recoverable", "annually recoverable"),
        ),
        _METRICS,
    )
    body = [
        f'<text id="title" x="{plot_left}" y="30" font-size="18">'
        "Circularity: shrinking denominators, rising rate</text>"
    ]
    for index, ((slug, label), (rate_key, rate_name, denominator_key)) in enumerate(bars):
        x = plot_left + index * (bar_width + gap)
        bar_height = numbers[denominator_key][1] * scale
        y = plot_bottom - bar_height
        color = _SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]
        body.append(
            f'<rect id="bar-{slug}" x="{x:.1f}" y="{y:.1f}" width="{bar_width}" '
            f'height="{bar_height:.1f}" fill="{color}"/>'
        )
        body.append(
            f'<text id="denominator-{slug}" x="{x + bar_width / 2:.1f}" y="{plot_bottom + 20}" '
            f'font-size="13" text-anchor="middle">{_escape(label)}: '
            f"{cell(denominator_key)}</text>"
        )
        body.append(
            f'<text id="rate-{rate_name}" x="{x + bar_width / 2:.1f}" y="{y - 8:.1f}" '
            f'font-size="14" text-anchor="middle">{_escape(rate_name)} '
            f"{cell(rate_key)}</text>"
        )
    body.append(
        f'<text id="rate-potential-ceiling" x="{width - 20}" y="30" font-size="13" '
        f'text-anchor="end">ceiling {cell("potential_ceiling")}</text>'
    )
    return _svg_document(width, height, body)


def svg_valuemap(attribution: ValueAttribution, spec: RenderSpec | None = None) -> str:
    """Stacked horizontal bar of GDP shares with a five-entry legend."""
    spec = spec or RenderSpec()
    numbers = _valuemap_numbers(attribution)
    cell = _cells(numbers, spec.rounding)
    width, height = 640, 260
    bar_left, bar_top, bar_width, bar_height = 20, 60, 600, 48

    body = [
        f'<text id="title" x="{bar_left}" y="30" font-size="18">'
        "GDP value by resource-flow category</text>"
    ]
    x = bar_left
    for index, (key, _, _, _) in enumerate(_CATEGORIES):
        segment = numbers[f"{key}_share"][1] * bar_width
        if segment > 0:
            body.append(
                f'<rect id="segment-{key}" x="{x:.2f}" y="{bar_top}" width="{segment:.2f}" '
                f'height="{bar_height}" fill="{_SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]}"/>'
            )
        x += segment
    for index, (key, label, _, _) in enumerate(_CATEGORIES):
        y = bar_top + bar_height + 28 + index * 20
        body.append(
            f'<rect x="{bar_left}" y="{y - 11}" width="12" height="12" '
            f'fill="{_SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]}"/>'
        )
        body.append(
            f'<text id="share-{key}" x="{bar_left + 18}" y="{y}" font-size="13">'
            f"{_escape(label)}: {cell(key + '_share')} ({cell(key + '_value')})</text>"
        )
    if spec.include_provenance_footnotes:
        body.append(
            f'<text id="footnote" x="{bar_left}" y="{height - 8}" font-size="11" fill="#555">'
            "waste-management value booked wholly to reverse flows; direct share likely lower"
            "</text>"
        )
    return _svg_document(width, height, body)
