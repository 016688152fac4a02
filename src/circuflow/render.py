"""Report rendering: plain tables, markdown, machine key-value lines, SVG.

The validation report is not here: ``accounts`` lays it out beside ``validate``.

Each report has one projection, built at import from ``metrics.RATES``,
``metrics.DENOMINATORS`` and ``valuemap.CATEGORIES``: ``(machine key, kind,
position)`` rows in machine order, with a ``key = %r`` template.  A call reads
its records once, into one flat tuple of numbers (a GDP share is its value
over GDP), and machine format fills the template straight from it, with
shortest-round-trip floats, so identical inputs give byte-identical output.
Plain and markdown rows and the SVG text labels take their numbers from the
same rows by key, each formatted once per report by one ``kind -> formatter``
table, so a human format cannot show a number the machine format lacks.  Only
the scenario delta column and the valuemap mass column are not keys.  Each
human report builds its own title, tables and notes from those cells, and
``_lay_out`` only joins the finished blocks.  ``cli`` loads this module only
for the report subcommands, so ``validate`` loads none of the three tables.

Numbers are rounded half-away-from-zero at the configured precision, by
the helpers ``accounts`` also uses for its own messages; upstream every
other number is an exact quotient.  SVG charts come only from
``svg_metrics`` and ``svg_valuemap`` (SVG is not a ``RenderSpec`` format)
and are filled in from string templates on purpose: the tool stays
dependency-free.  A chart's constant text (head, ids, colours, escaped
labels, fixed geometry, footnote) is built once, at import, into one ``%``
template per bar, segment or legend row, so a call formats only its numbers.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from .accounts import MAX_PLACES, _fixed, _signed, format_mass, format_percent
from .metrics import DENOMINATORS, RATES, CircularityReport
from .record import FORMAT_MACHINE, FORMAT_MARKDOWN, FORMAT_PLAIN, FORMATS
from .record import Record, check_bool, check_choice, float_dust, set_field
from .valuemap import CATEGORIES, ValueAttribution

if TYPE_CHECKING:
    from collections.abc import Callable

    from .accounts import MaterialFlowAccount

    # (machine key, kind, position in a call's numbers), in machine-output order
    Rows = tuple[tuple[str, str, int], ...]
    Projection = tuple[str, Callable[[tuple[float, ...]], tuple[float, ...]], Rows]
    Table = tuple[tuple[str, ...], list[tuple[str, ...]]]

_SEGMENT_COLORS = ("#2a9d8f", "#e9c46a", "#f4a261", "#9d9d9d", "#264653")
# Chart geometry in px that each call reads: the top and bottom of the metrics
# plot, and the left edge and width of the valuemap's stacked bar.
_PLOT_TOP, _PLOT_BOTTOM, _BAR_LEFT, _BAR_WIDTH = 70, 360, 20, 600


class RenderSpec(Record):
    """How to render a report.

    ``rounding`` is the number of decimal places, at most ``MAX_PLACES``, for
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
        if rounding > MAX_PLACES:
            raise ValueError(f"rounding must be at most {MAX_PLACES}, got {rounding!r}")
        set_field(self, "rounding", rounding)
        footnotes = check_bool(include_provenance_footnotes, "include_provenance_footnotes")
        set_field(self, "include_provenance_footnotes", footnotes)


def format_percent_delta(delta_fraction: float, places: int) -> str:
    return f"{_signed(_fixed(delta_fraction, places, 2))} pp"


def format_money(trillions: float, places: int) -> str:
    text = _fixed(abs(trillions), places)
    sign = "-" if trillions < 0 and text.strip("0.") else ""  # a zero prints unsigned
    return f"{sign}${text}T"


def _format_money_delta(trillions: float, places: int) -> str:
    return _signed(format_money(trillions, places))


#: How each kind of number prints in a human format.
_FORMATTERS = {
    "%": format_percent,
    "pp": format_percent_delta,
    "Gt": format_mass,
    "$": format_money,
    "+$": _format_money_delta,
}


def _projection(read: list[tuple[str, str]], order: list[str] | None = None) -> Projection:
    """``(machine template, pick, rows)`` for numbers read as ``read``'s ``(key, kind)`` pairs.

    Rows and ``pick`` follow the keys' output ``order``, ``read``'s own unless given.
    """
    position = {key: index for index, (key, _) in enumerate(read)}
    kind = dict(read)
    rows = tuple((key, kind[key], position[key]) for key in order or position)
    template = "".join(f"{key} = %r\n" for key, _, _ in rows)
    return template, itemgetter(*(at for _, _, at in rows)), rows


def _cells(rows: Rows, numbers: tuple[float, ...], places: int) -> Callable[[str], str]:
    """``cell(key)``: the number under ``key``, formatted by its kind, each formatted once."""
    return {key: _FORMATTERS[kind](numbers[at], places) for key, kind, at in rows}.__getitem__


def _plain_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    table = [headers, *rows]
    line = "  ".join(f"%-{max(map(len, column))}s" for column in zip(*table))
    return "\n".join((line % row).rstrip() for row in table)


def _markdown_table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    rule = ("---",) * len(headers)
    return "\n".join(f"| {' | '.join(row)} |" for row in (headers, rule, *rows))


def _lay_out(
    spec: RenderSpec, title: str, tables: list[Table], notes: list[str], footnote: str = ""
) -> str:
    """Join a human report's finished blocks, one blank line apart.

    The ``(headers, rows)`` tables of formatted cells are drawn in the spec's
    format, plain or markdown; the title and note blocks print as given, and
    the footnote only when the spec asks for footnotes.
    """
    make_table = _markdown_table if spec.format == FORMAT_MARKDOWN else _plain_table
    blocks = [title, *(make_table(headers, rows) for headers, rows in tables), *notes]
    if spec.include_provenance_footnotes and footnote:
        blocks.append(footnote)
    return "\n\n".join(blocks) + "\n"


# Each report's numbers as a call reads them.  A metrics report's are its
# fields: the rates, then the denominators.
_REPORT_NUMBERS = attrgetter(*CircularityReport.__slots__)
_RATE_NUMBERS = attrgetter(*(key for key, *_ in RATES))
_CATEGORY_VALUES = attrgetter(*(f"{key}_value" for key, _, _ in CATEGORIES))
_METRICS = _projection([(k, "%") for k, *_ in RATES] + [(k, "Gt") for k, *_ in DENOMINATORS])


def _attribution_numbers(attribution: ValueAttribution, *first: float) -> tuple[float, ...]:
    """``first``, the five ``CATEGORIES`` values, then each over GDP as ``shares_by_category``."""
    values, gdp = _CATEGORY_VALUES(attribution), attribution.gdp
    return (*first, *values, *[value / gdp for value in values])


def render_metrics(report: CircularityReport, spec: RenderSpec | None = None) -> str:
    """Render the metric family in the requested format."""
    spec = spec or RenderSpec()
    numbers = _REPORT_NUMBERS(report)
    if spec.format == FORMAT_MACHINE:
        return _METRICS[0] % _METRICS[1](numbers)
    cell = _cells(_METRICS[2], numbers, spec.rounding)
    rows = [(label, cell(key), cell(denominator)) for key, label, _, _, denominator in RATES]
    footnote = (
        f"note: rates are exact quotients rounded half-away-from-zero to "
        f"{spec.rounding} decimal place(s); half-way values round up in "
        "magnitude (61.5% prints as 62% at zero places, not 61%)."
    )
    tables = [(("metric", "rate", "denominator"), rows)]
    return _lay_out(spec, "circularity metrics", tables, [], footnote)


# GDP, the attribution's numbers, and the services share, which prints only when given.
_VALUEMAP_READ = [("gdp", "$"), *((f"{key}_value", "$") for key, _, _ in CATEGORIES)]
_VALUEMAP_READ += [*((f"{key}_share", "%") for key, _, _ in CATEGORIES), ("services_share", "%")]
_VALUEMAP, _VALUEMAP_SERVICES = _projection(_VALUEMAP_READ[:-1]), _projection(_VALUEMAP_READ)
_VALUEMAP_AT = {key: at for key, _, at in _VALUEMAP[2]}


def render_valuemap(
    attribution: ValueAttribution,
    spec: RenderSpec | None = None,
    *,
    account: MaterialFlowAccount | None = None,
    services_share: float | None = None,
) -> str:
    """Render the five-way GDP attribution; mass column shown when an account is given."""
    spec = spec or RenderSpec()
    numbers = _attribution_numbers(attribution, attribution.gdp) + (services_share,)
    projection = _VALUEMAP if services_share is None else _VALUEMAP_SERVICES
    if spec.format == FORMAT_MACHINE:
        return projection[0] % projection[1](numbers)
    cell = _cells(projection[2], numbers, spec.rounding)
    rows = []
    for category, label, mass_field in CATEGORIES:
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
    title = f"GDP value attribution ({cell('gdp')} GDP)"
    return _lay_out(spec, title, [(headers, rows)], notes, footnote)


# "<side>_waste_share" is the waste share of input, so the waste GDP share is "waste_gdp_share".
def _gdp_share_stem(category: str) -> str:
    return "waste_gdp_share" if category == "waste" else f"{category}_share"


_SIDES = ("baseline", "after")
#: (label, key stem, kind) of each number a comparison reads from a side, in reading order.
_SIDE = (
    *((label, key, "%") for key, label, *_ in RATES),
    ("waste share of input", "waste_share", "%"),
    *((label, f"{key}_value", "$") for key, label, _ in CATEGORIES),
    *((f"{label} share of GDP", _gdp_share_stem(key), "%") for key, label, _ in CATEGORIES),
)
_SCENARIO = _projection(
    [(f"{side}_{stem}", kind) for side in _SIDES for _, stem, kind in _SIDE],
    # Rates interleave the two sides; GDP shares and values are grouped by side.
    [
        *(f"{side}_{key}" for key, *_ in RATES for side in _SIDES),
        *(f"{side}_waste_share" for side in _SIDES),
        *(f"{side}_{_gdp_share_stem(key)}" for side in _SIDES for key, _, _ in CATEGORIES),
        *(f"{side}_{key}_value" for side in _SIDES for key, _, _ in CATEGORIES),
    ],
)
_SCENARIO_AT = {key: at for key, _, at in _SCENARIO[2]}
#: (headers, rows, delta kind) of the two scenario tables: percentages, then money.  A row
#: is a label and its keys "baseline_<stem>" and "after_<stem>".
_SCENARIO_TABLES = tuple(
    (
        (first, "baseline", "after", "delta"),
        [(label, f"baseline_{stem}", f"after_{stem}") for label, stem, k in _SIDE if k == kind],
        delta_kind,
    )
    for first, kind, delta_kind in (("quantity", "%", "pp"), ("value", "$", "+$"))
)


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
    numbers = _attribution_numbers(
        baseline_attribution, *_RATE_NUMBERS(baseline_report), baseline_waste_share
    ) + _attribution_numbers(result_attribution, *_RATE_NUMBERS(result_report), result_waste_share)
    if spec.format == FORMAT_MACHINE:
        return _SCENARIO[0] % _SCENARIO[1](numbers)
    cell = _cells(_SCENARIO[2], numbers, spec.rounding)
    tables = []
    for headers, rows, delta_kind in _SCENARIO_TABLES:
        delta = _FORMATTERS[delta_kind]
        cells = []
        for label, before, after in rows:
            # The delta column is human-only: machine output prints both sides.
            change = numbers[_SCENARIO_AT[after]] - numbers[_SCENARIO_AT[before]]
            cells.append((label, cell(before), cell(after), delta(change, spec.rounding)))
        tables.append((headers, cells))
    blocks = ["\n".join(["notes:", *(f"  - {note}" for note in notes)])] if notes else []
    return _lay_out(spec, f"scenario: {scenario_name}", tables, blocks)


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text content, and ``%`` for a ``%`` template."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("%", "%%")


def _svg_head(width: int, height: int, title_x: int, title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">\n'
        f'<text id="title" x="{title_x}" y="30" font-size="18">{title}</text>\n'
    )


def _metrics_chart() -> tuple[str, tuple[tuple[str, str, str], ...], str, str]:
    """``svg_metrics``' head, ``(template, denominator key, rate key)`` per bar, and ceiling."""
    plot_left, bar_width, gap = 60, 140, 50
    # One bar per metric but the ceiling, each over its own denominator.
    *bars, (ceiling_key, *_) = RATES
    denominator_labels = {key: label for key, label, _ in DENOMINATORS}
    rows = []
    for index, (rate_key, rate_name, _, _, denominator_key) in enumerate(bars):
        slug = denominator_key.removeprefix("denominator_").replace("_", "-")
        x = plot_left + index * (bar_width + gap)
        # filled with the bar's top and height, denominator, rate label baseline and rate
        template = (
            f'<rect id="bar-{slug}" x="{x:.1f}" y="%.1f" width="{bar_width}" height="%.1f" '
            f'fill="{_SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]}"/>\n'
            f'<text id="denominator-{slug}" x="{x + bar_width / 2:.1f}" y="{_PLOT_BOTTOM + 20}" '
            f'font-size="13" text-anchor="middle">{_escape(denominator_labels[denominator_key])}: '
            f'%s</text>\n<text id="rate-{rate_name}" x="{x + bar_width / 2:.1f}" y="%.1f" '
            f'font-size="14" text-anchor="middle">{_escape(rate_name)} %s</text>\n'
        )
        rows.append((template, denominator_key, rate_key))
    ceiling = (
        '<text id="rate-potential-ceiling" x="620" y="30" font-size="13" '
        'text-anchor="end">ceiling %s</text>\n</svg>\n'
    )
    head = _svg_head(640, 400, plot_left, "Circularity: shrinking denominators, rising rate")
    return head, tuple(rows), ceiling, ceiling_key


_METRICS_CHART = _metrics_chart()


def svg_metrics(report: CircularityReport, spec: RenderSpec | None = None) -> str:
    """Waterfall of the shrinking denominators, annotated with the rates.

    One labeled text element per reported quantity (three denominators,
    three rates, the ceiling).
    """
    spec = spec or RenderSpec()
    cell = _cells(_METRICS[2], _REPORT_NUMBERS(report), spec.rounding)
    head, bars, ceiling, ceiling_key = _METRICS_CHART
    scale = (_PLOT_BOTTOM - _PLOT_TOP) / max(report.denominator_total, 1e-300)
    body = [head]
    for template, denominator_key, rate_key in bars:
        bar_height = getattr(report, denominator_key) * scale
        y = _PLOT_BOTTOM - bar_height
        body.append(template % (y, bar_height, cell(denominator_key), y - 8, cell(rate_key)))
    body.append(ceiling % cell(ceiling_key))
    return "".join(body)


def _valuemap_chart() -> tuple[str, tuple[tuple[str, str, str, str], ...], str]:
    """``svg_valuemap``'s head, segment and legend templates with their keys, and footnote."""
    bar_top, bar_height = 60, 48
    rows = []
    for index, (key, label, _) in enumerate(CATEGORIES):
        color = _SEGMENT_COLORS[index % len(_SEGMENT_COLORS)]
        y = bar_top + bar_height + 28 + index * 20
        # filled with the segment's left edge and width, and the share and value
        segment = (
            f'<rect id="segment-{key}" x="%.2f" y="{bar_top}" width="%.2f" '
            f'height="{bar_height}" fill="{color}"/>\n'
        )
        legend = (
            f'<rect x="{_BAR_LEFT}" y="{y - 11}" width="12" height="12" fill="{color}"/>\n'
            f'<text id="share-{key}" x="{_BAR_LEFT + 18}" y="{y}" font-size="13">'
            f"{_escape(label)}: %s (%s)</text>\n"
        )
        rows.append((segment, legend, f"{key}_share", f"{key}_value"))
    footnote = (
        f'<text id="footnote" x="{_BAR_LEFT}" y="252" font-size="11" fill="#555">'
        "waste-management value booked wholly to reverse flows; direct share likely lower"
        "</text>\n"
    )
    head = _svg_head(640, 260, _BAR_LEFT, "GDP value by resource-flow category")
    return head, tuple(rows), footnote


_VALUEMAP_CHART = _valuemap_chart()


def svg_valuemap(attribution: ValueAttribution, spec: RenderSpec | None = None) -> str:
    """Stacked horizontal bar of GDP shares with a five-entry legend.

    A depletion year's negative stock share is not drawn, so the drawn shares
    sum to more than 1; their widths are then scaled to fill the bar exactly,
    while the legend keeps the true shares.
    """
    spec = spec or RenderSpec()
    numbers = _attribution_numbers(attribution, attribution.gdp)
    cell = _cells(_VALUEMAP[2], numbers, spec.rounding)
    head, rows, footnote = _VALUEMAP_CHART
    drawn = sum(max(numbers[_VALUEMAP_AT[key]], 0.0) for _, _, key, _ in rows)
    bar_width = _BAR_WIDTH / drawn if drawn > 1.0 + float_dust(1.0) else _BAR_WIDTH
    segments, legend, x = [head], [], _BAR_LEFT
    for segment_template, legend_template, share_key, value_key in rows:
        segment = numbers[_VALUEMAP_AT[share_key]] * bar_width
        if segment > 0:  # a depletion year's negative stock share is not drawn
            segments.append(segment_template % (x, segment))
            x += segment
        legend.append(legend_template % (cell(share_key), cell(value_key)))
    if spec.include_provenance_footnotes:
        legend.append(footnote)
    return "".join(segments + legend) + "</svg>\n"
