"""Numbers in messages, notes, errors and warnings: one rounding rule, in one place.

Every such number goes through ``accounts._significant``: the value's repr
rounded half away from zero to six significant digits, laid out as ``%g``
lays it out.  A sign that must always show comes from ``accounts._signed``.
A source scan keeps a second rounding path from coming back.
"""

import ast
import math
import random
import re
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import circuflow
from circuflow.accounts import MaterialFlowAccount, _significant, _signed, validate

SOURCE = Path(circuflow.__file__).resolve().parent


def _reference(value: float) -> str:
    """The repr's exact decimal, rounded half up (away from zero) to six significant digits.

    The ``%g`` layout is written out here, not borrowed from ``%g``, which
    would first turn the rounded decimal back into a binary value.
    """
    if not math.isfinite(value):
        return repr(value)
    exact = Decimal(repr(value))
    if not exact:
        return "-0" if exact.is_signed() else "0"
    exact = exact.quantize(Decimal(1).scaleb(exact.adjusted() - 5), rounding=ROUND_HALF_UP)
    sign, digits, _ = exact.as_tuple()
    point = exact.adjusted()  # the power of ten of the first digit, after any carry
    digits = "".join(map(str, digits)).rstrip("0")
    sign = "-" if sign else ""
    if not -4 <= point < 6:
        mantissa = digits[0] + ("." + digits[1:] if digits[1:] else "")
        return f"{sign}{mantissa}e{'-' if point < 0 else '+'}{abs(point):02d}"
    if point < 0:
        whole, fraction = "0", "0" * (-point - 1) + digits
    else:
        whole, fraction = digits[: point + 1].ljust(point + 1, "0"), digits[point + 1 :]
    return sign + whole + ("." + fraction if fraction else "")


def _on_a_tie(value: float) -> bool:
    digits = repr(value).partition("e")[0].strip("-0.").replace(".", "")
    return len(digits) == 7 and digits.endswith("5")


def _draws(rng: random.Random, count: int) -> list[float]:
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e22, 1234565000.0]
    values += [1e-323, 2.225073858507201e-308, 9.9999995e-310, -9.99999951e-312]  # subnormal
    for _ in range(count):
        sign = rng.choice((-1.0, 1.0))
        tie = rng.randrange(100_000, 1_000_000) * 10 + 5  # seven digits ending in 5
        tie = sign * float(f"{tie}e{rng.randint(-36, 24)}")  # a tie at exponents -30 to 30
        values += (
            sign * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-30, 30),
            sign * rng.random(),
            tie,
            math.nextafter(tie, 0.0),  # off a tie, though %.7g still ends in 5
            math.nextafter(tie, tie * math.inf),
            sign * round(rng.uniform(0.0, 1e4), rng.randint(0, 4)),  # short reprs
            sign * math.ldexp(rng.randrange(1, 2 ** rng.randint(1, 52)), -1074),  # subnormal
        )
    return values


def test_significant_digits_equal_the_exact_reference():
    ties = 0
    for value in _draws(random.Random(19), 20_000):
        assert _significant(value) == _reference(value), value
        if _on_a_tie(value):
            ties += 1
        elif not 0 < abs(value) < sys.float_info.min:  # %g rounds a subnormal's binary value
            assert _significant(value) == "%.6g" % value, value
    assert ties >= 20_000


def test_a_subnormal_rounds_its_repr_digits():
    outcome = validate(MaterialFlowAccount(2020, 5e-324, 0, 5e-324, 1e-323, 5e-324, 0, 0))
    assert [check.message for check in outcome.violations] == [
        "recycled_input (1e-323 Gt) exceeds structural_input (5e-324 Gt)"
    ]
    assert _significant(9.9999995e-310) == "1e-309"  # the mantissa carries into the exponent
    assert _significant(-9.9999995e-320) == "-1e-319"  # repr -1e-319; %g reads -9.99989e-320


def test_a_seventh_digit_tie_rounds_away_from_zero():
    assert "%.6g" % 1234565.0 == "1.23456e+06"  # the binary value's tie goes to even
    assert _significant(1234565.0) == "1.23457e+06"
    assert _significant(-1234565.0) == "-1.23457e+06"
    assert _significant(1234565000.0) == "1.23457e+09"
    assert _significant(0.0001234565) == "0.000123457"
    assert _significant(999999.5) == "1e+06"


def test_signed_shows_the_sign_as_the_plus_spec_did():
    for value in (0.0, -0.0, math.nan, math.inf, -math.inf, 3.0, -2.5, 1e-7, -1e22):
        assert _signed(_significant(value)) == format(value, "+.6g"), value
    assert [_signed(text) for text in ("0", "-0", "nan", "1.5")] == ["+0", "-0", "+nan", "+1.5"]


#: Conversion types that round a number.
ROUNDING_TYPES = set("eEfFgGn%")

#: The only functions that may format a number with a rounding type, and the types each may use.
FORMATTERS = {
    ("accounts", "_fixed"): {"f"},
    ("accounts", "_significant"): {"g"},
    ("render", "_metrics_chart"): {"f"},  # chart geometry: coordinates, not displayed numbers
}

PERCENT_CONVERSION = re.compile(r"%(?:\([^)]*\))?([-+ #0]*)(?:\*|\d+)?(?:\.(?:\*|\d+))?([a-zA-Z%])")
BRACE_FIELD = re.compile(r"\{[^{}]*?:([^{}]*)\}")


def _format_specs(tree: ast.AST):
    """``(function, spec, type)`` of every number format in a module, with its enclosing function."""

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            spec = "".join(
                part.value if isinstance(part, ast.Constant) else "1"
                for part in node.format_spec.values
            )
            yield function, spec, spec[-1:]
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
        ):
            for match in PERCENT_CONVERSION.finditer(node.left.value):
                yield function, match.group(0), match.group(2)
        elif isinstance(node, ast.Call):
            func, specs = node.func, []
            if isinstance(func, ast.Name) and func.id == "format" and len(node.args) == 2:
                specs = [node.args[1].value] if isinstance(node.args[1], ast.Constant) else []
            elif isinstance(func, ast.Attribute) and func.attr == "format":
                if isinstance(func.value, ast.Constant) and isinstance(func.value.value, str):
                    specs = BRACE_FIELD.findall(func.value.value)
            for spec in specs:
                yield function, spec, spec[-1:]
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    yield from walk(tree, None)


def test_the_scan_finds_every_kind_of_format_spec():
    code = (
        "def f(x, p):\n"
        "    return f'{x:.6g}', f'{x:+.{p}f}', '%.6g' % x, '%+.*f' % (p, x), '%(a)5.1e' % {}, "
        "format(x, '.3%'), '{:.2f} {!r}'.format(x, x), f'{x:>8}', '%s' % x, f'{x!r}'\n"
    )
    found = [(spec, kind) for _, spec, kind in _format_specs(ast.parse(code))]
    assert found == [
        (".6g", "g"), ("+.1f", "f"), ("%.6g", "g"), ("%+.*f", "f"), ("%(a)5.1e", "e"),
        (".3%", "%"), (".2f", "f"), (">8", "8"), ("%s", "s"),
    ]


def test_no_number_is_rounded_outside_the_formatters():
    """A second rounding path would round ties its own way: only the formatters may round."""
    strays, seen = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        module = path.stem
        for function, spec, kind in _format_specs(ast.parse(path.read_text(encoding="utf-8"))):
            if kind not in ROUNDING_TYPES:
                continue
            allowed = FORMATTERS.get((module, function), set())
            if kind in allowed and "+" not in spec:
                seen.add((module, function))
            else:
                strays.append(f"{module}.{function}: {spec!r}")
    assert strays == []
    assert seen == set(FORMATTERS)  # the scan still sees the formatters it lets through
