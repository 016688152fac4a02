"""Command-line entry point.

Subcommands: validate, metrics, valuemap, scenario.  Exit codes:
0 success (including pass-with-warning), 2 validation failure,
3 computation error, 4 I/O, parse or usage error (a malformed command
line prints argparse's usage text and ``error:`` line).  The
CIRCUFLOW_TOLERANCE environment variable overrides the default balance
tolerance for account files that do not set one themselves.

metrics, valuemap and scenario share one parser table, ``_REPORTS``, and one
set-up, ``_prepare``.  Their faults show in this order: documents in argument
order (4), the account's validation (2), render options (4), then the
baseline and each scenario step (3).  ``render`` and the metrics, valuemap
and scenarios modules are imported inside ``_prepare`` and the subcommands
that use them, so ``validate`` loads none of them; the parsers read the
format names from ``record``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import TYPE_CHECKING

from . import documents
from .accounts import render_validation, validate, waste_share
from .errors import CircuflowError, DocumentError
from .record import FORMAT_PLAIN, FORMATS

if TYPE_CHECKING:
    from collections.abc import Callable

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
        raise _CliFailure(EXIT_IO, f"cannot read {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliFailure(
            EXIT_IO, f"cannot read {path!r}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    try:
        return parse(text, **{name: get() for name, get in options.items()})
    except DocumentError as exc:
        raise _CliFailure(EXIT_IO, f"{path}: {exc}") from exc


def _prepare(args: argparse.Namespace) -> tuple:
    """Load, judge and set up a report subcommand: ``(spec, account, *documents after it)``."""
    from .render import RenderSpec

    account = _load(documents.parse_account, args.account, default_tolerance=_default_tolerance)
    loaded = {
        name: _load(getattr(documents, f"parse_{name}"), getattr(args, name))
        for name in args.read_after
    }
    outcome = validate(account)
    if not outcome.ok:
        report = render_validation(outcome).rstrip()
        raise _CliFailure(EXIT_VALIDATION, f"{args.account}: account fails validation\n{report}")
    economy = loaded.get("economy")
    if economy is not None and economy.year != account.year:
        warnings.warn(f"account year {account.year} differs from economy year {economy.year}")
    try:
        spec = RenderSpec(args.format, args.round, not args.no_footnotes)
    except ValueError as exc:
        raise _CliFailure(EXIT_IO, str(exc)) from exc
    return spec, account, *loaded.values()


def _write_svg(path: str, content: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, f"cannot write {path!r}: {exc.strerror or exc}") from exc


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
    from .render import render_metrics, svg_metrics

    spec, account = _prepare(args)
    report = metric_suite(account)
    text = render_metrics(report, spec)
    if args.svg is not None:
        _write_svg(args.svg, svg_metrics(report, spec))
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_valuemap(args: argparse.Namespace) -> int:
    from .render import render_valuemap, svg_valuemap
    from .valuemap import attribute_value

    spec, account, economy = _prepare(args)
    attribution = attribute_value(economy)
    text = render_valuemap(
        attribution, spec, account=account, services_share=economy.services_share
    )
    if args.svg is not None:
        _write_svg(args.svg, svg_valuemap(attribution, spec))
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .metrics import metric_suite
    from .render import render_scenario_comparison
    from .scenarios import apply_scenario
    from .valuemap import attribute_value

    spec, account, economy, scenario = _prepare(args)
    baseline = metric_suite(account), attribute_value(economy), waste_share(account)
    result = apply_scenario(account, economy, scenario)  # a baseline error outranks a step's
    after = result.report, result.attribution, waste_share(result.account)
    sys.stdout.write(
        render_scenario_comparison(scenario.name, *baseline, *after, notes=result.notes, spec=spec)
    )
    return EXIT_OK


_REPORTS = (
    ("metrics", "compute the circularity metric family", (), _cmd_metrics, True),
    ("valuemap", "attribute GDP across flow categories", ("economy",), _cmd_valuemap, True),
    (
        "scenario",
        "apply a what-if scenario and compare",
        ("economy", "scenario"),
        _cmd_scenario,
        False,
    ),
)


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

    for name, help_text, read_after, command, svg in _REPORTS:
        p = sub.add_parser(name, help=help_text)
        for document in ("account", *read_after):
            p.add_argument(document, help=f"{document} file")
        p.add_argument(
            "--format", choices=FORMATS, default=FORMAT_PLAIN, help="output format (default: plain)"
        )
        p.add_argument(
            "--round",
            type=int,
            default=1,
            metavar="N",
            help="decimal places for percentages, masses and money (default: 1)",
        )
        p.add_argument("--no-footnotes", action="store_true", help="omit provenance footnotes")
        if svg:
            p.add_argument("--svg", metavar="PATH", help="also write an SVG chart to PATH")
        p.set_defaults(func=command, read_after=read_after)

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
