"""Command-line entry point.

Subcommands: validate, metrics, valuemap, scenario.  Exit codes:
0 success (including pass-with-warning), 2 validation failure,
3 computation error, 4 I/O, parse or usage error (a malformed command
line prints argparse's usage text and ``error:`` line).  The
CIRCUFLOW_TOLERANCE environment variable overrides the default balance
tolerance for account files that do not set one themselves.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import TYPE_CHECKING

from . import documents
from .accounts import MaterialFlowAccount, render_validation, validate, waste_share
from .errors import CircuflowError, DocumentError
from .render import (
    FORMAT_PLAIN,
    FORMATS,
    RenderSpec,
    render_metrics,
    render_scenario_comparison,
    render_valuemap,
    svg_metrics,
    svg_valuemap,
)

if TYPE_CHECKING:
    from collections.abc import Callable

    from .valuemap import EconomicAccount

# metrics, valuemap and scenarios are imported inside the subcommands that
# use them, so each call loads only the modules its subcommand runs.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_IO = 4

TOLERANCE_ENV_VAR = "CIRCUFLOW_TOLERANCE"


class _CliFailure(Exception):
    """Internal: message already formatted, carries the exit code."""

    def __init__(self, code: int, message: str) -> None:
        self.code = code
        super().__init__(message)


def _default_tolerance() -> float | None:
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return None
    try:
        return documents._parse_fraction(raw, TOLERANCE_ENV_VAR)
    except ValueError as exc:
        raise _CliFailure(EXIT_IO, str(exc)) from None


def _load(parse: Callable[..., object], path: str, **options: Callable[[], object]):
    """Read ``path`` and parse it; each option is a function giving one keyword of ``parse``.

    Options are called after the read: an unreadable file beats a bad CIRCUFLOW_TOLERANCE.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliFailure(
            EXIT_IO, f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    try:
        return parse(text, **{name: get() for name, get in options.items()})
    except DocumentError as exc:
        raise _CliFailure(EXIT_IO, f"{path}: {exc}") from exc


def _require_valid(path: str, account: MaterialFlowAccount) -> None:
    outcome = validate(account)
    if not outcome.ok:
        report = render_validation(outcome)
        raise _CliFailure(EXIT_VALIDATION, f"{path}: account fails validation\n{report.rstrip()}")


def _warn_on_year_mismatch(account: MaterialFlowAccount, economy: EconomicAccount) -> None:
    if economy.year != account.year:
        warnings.warn(f"account year {account.year} differs from economy year {economy.year}")


def _render_spec(args: argparse.Namespace) -> RenderSpec:
    try:
        return RenderSpec(
            format=args.format,
            rounding=args.round,
            include_provenance_footnotes=not args.no_footnotes,
        )
    except ValueError as exc:
        raise _CliFailure(EXIT_IO, str(exc)) from exc


def _write_svg(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_validate(args: argparse.Namespace) -> int:
    account = _load(documents.parse_account, args.account, default_tolerance=_default_tolerance)
    outcome = validate(account)
    sys.stdout.write(render_validation(outcome))
    if not outcome.ok:
        print(f"error: {args.account}: account fails validation", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import metric_suite

    account = _load(documents.parse_account, args.account, default_tolerance=_default_tolerance)
    _require_valid(args.account, account)
    spec = _render_spec(args)
    report = metric_suite(account)
    sys.stdout.write(render_metrics(report, spec))
    if args.svg:
        _write_svg(args.svg, svg_metrics(report, spec))
    return EXIT_OK


def _cmd_valuemap(args: argparse.Namespace) -> int:
    from .valuemap import attribute_value

    account = _load(documents.parse_account, args.account, default_tolerance=_default_tolerance)
    economy = _load(documents.parse_economy, args.economy)
    _require_valid(args.account, account)
    _warn_on_year_mismatch(account, economy)
    spec = _render_spec(args)
    attribution = attribute_value(economy)
    sys.stdout.write(
        render_valuemap(
            attribution, spec, account=account, services_share=economy.services_share
        )
    )
    if args.svg:
        _write_svg(args.svg, svg_valuemap(attribution, spec))
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .metrics import metric_suite
    from .scenarios import apply_scenario
    from .valuemap import attribute_value

    account = _load(documents.parse_account, args.account, default_tolerance=_default_tolerance)
    economy = _load(documents.parse_economy, args.economy)
    scenario = _load(documents.parse_scenario, args.scenario)
    _require_valid(args.account, account)
    _warn_on_year_mismatch(account, economy)
    spec = _render_spec(args)
    baseline_report = metric_suite(account)
    baseline_attribution = attribute_value(economy)
    result = apply_scenario(account, economy, scenario)
    sys.stdout.write(
        render_scenario_comparison(
            scenario.name,
            baseline_report,
            baseline_attribution,
            waste_share(account),
            result.report,
            result.attribution,
            waste_share(result.account),
            notes=result.notes,
            spec=spec,
        )
    )
    return EXIT_OK


def _add_render_options(parser: argparse.ArgumentParser, *, svg: bool) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=FORMAT_PLAIN,
        help="output format (default: plain)",
    )
    parser.add_argument(
        "--round",
        type=int,
        default=1,
        metavar="N",
        help="decimal places for percentages (default: 1)",
    )
    parser.add_argument(
        "--no-footnotes",
        action="store_true",
        help="omit provenance footnotes",
    )
    if svg:
        parser.add_argument("--svg", metavar="PATH", help="also write an SVG chart to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circuflow",
        description=(
            "Material flow accounts: circularity metrics, GDP value attribution "
            "and what-if scenarios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check an account's mass-balance invariants")
    p_validate.add_argument("account", help="account file")
    p_validate.set_defaults(func=_cmd_validate)

    p_metrics = sub.add_parser("metrics", help="compute the circularity metric family")
    p_metrics.add_argument("account", help="account file")
    _add_render_options(p_metrics, svg=True)
    p_metrics.set_defaults(func=_cmd_metrics)

    p_valuemap = sub.add_parser("valuemap", help="attribute GDP across flow categories")
    p_valuemap.add_argument("account", help="account file")
    p_valuemap.add_argument("economy", help="economy file")
    _add_render_options(p_valuemap, svg=True)
    p_valuemap.set_defaults(func=_cmd_valuemap)

    p_scenario = sub.add_parser("scenario", help="apply a what-if scenario and compare")
    p_scenario.add_argument("account", help="account file")
    p_scenario.add_argument("economy", help="economy file")
    p_scenario.add_argument("scenario", help="scenario file")
    _add_render_options(p_scenario, svg=False)
    p_scenario.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 after its usage and "error:" lines, but 2 means a failed
        # validation here: a malformed command line exits 4.  --help exits 0.
        if exc.code != 2:
            raise
        return EXIT_IO
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = args.func(args)
        seen = set()
        for item in caught:
            message = str(item.message)
            if message not in seen:
                seen.add(message)
                print(f"warning: {message}", file=sys.stderr)
        return code
    except _CliFailure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code
    except CircuflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def console_main() -> None:  # pragma: no cover - setuptools entry point
    raise SystemExit(main())
