"""The contract every record type keeps: value equality, repr, immutability, replace."""

import copy
import pickle
import re

import pytest

from circuflow import (
    DivertWasteToStock,
    ReplaceEnergeticWithStock,
    ScaleReverseFlowValue,
    Scenario,
    SetRecoveryRate,
    apply_scenario,
    attribute_value,
    metric_suite,
    validate,
)
from circuflow.accounts import MASS_FIELDS
from circuflow.documents import parse_account, parse_economy, parse_scenario
from circuflow.render import RenderSpec
from support import ACCOUNT_PATH, ECONOMY_PATH, FULL_RECOVERY_PATH

ACCOUNT = parse_account(ACCOUNT_PATH.read_text())
ECONOMY = parse_economy(ECONOMY_PATH.read_text())
SCENARIO = parse_scenario(FULL_RECOVERY_PATH.read_text())
OUTCOME = validate(ACCOUNT)
ATTRIBUTION = attribute_value(ECONOMY)

# One instance of each of the 14 public record types.
RECORDS = [
    ACCOUNT,
    OUTCOME.checks[0],
    OUTCOME,
    metric_suite(ACCOUNT),
    RenderSpec(format="markdown", rounding=2),
    SetRecoveryRate(0.5),
    DivertWasteToStock(0.25),
    ReplaceEnergeticWithStock(0.1),
    ScaleReverseFlowValue(False),
    SCENARIO,
    apply_scenario(ACCOUNT, ECONOMY, SCENARIO),
    ECONOMY.sectors[0],
    ECONOMY,
    ATTRIBUTION,
]

by_class = pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


def test_every_record_type_is_covered():
    assert len({type(record) for record in RECORDS}) == 14


@by_class
def test_equal_fields_give_equal_records_and_hashes(record):
    twin = type(record)(**_fields(record))
    assert twin is not record
    assert twin == record
    assert not twin != record
    assert hash(twin) == hash(record)


@by_class
def test_never_equal_to_another_class(record):
    for other in RECORDS:
        if type(other) is not type(record):
            assert record != other
            assert other != record
    assert record != tuple(_fields(record).values())


@by_class
def test_repr_lists_fields_in_slot_order(record):
    fields = ", ".join(f"{name}={value!r}" for name, value in _fields(record).items())
    assert repr(record) == f"{type(record).__name__}({fields})"


# The records whose fields need no check store them through ``Record.__init__``.
STORED = [record for record in RECORDS if "__init__" not in vars(type(record))]


def test_the_unchecked_records_keep_the_storing_constructor():
    assert [type(record).__name__ for record in STORED] == [
        "CheckResult",
        "ValidationOutcome",
        "CircularityReport",
        "ScenarioResult",
    ]


@pytest.mark.parametrize("record", STORED, ids=lambda r: type(r).__name__)
def test_storing_constructor_takes_fields_by_position_or_by_name(record):
    cls, fields = type(record), _fields(record)
    values = tuple(fields.values())
    stored = cls(*values)
    assert stored == record
    assert all(getattr(stored, name) is value for name, value in fields.items())
    rest = {name: fields[name] for name in cls.__slots__[1:]}
    assert cls(values[0], **rest) == record
    bad_calls = [
        ((*values, values[-1]), {}),  # one positional too many
        (values[:-1], {}),  # the last field missing
        ((), rest),  # the first field missing
        (values, {"no_such_field": 1}),  # an unknown name
        ((values[0],), fields),  # the first field by position and by name
    ]
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) takes each of the fields"):
            cls(*args, **kwargs)


def test_repr_text():
    assert repr(SetRecoveryRate(0.5)) == "SetRecoveryRate(fraction=0.5)"
    assert repr(Scenario("s", (ScaleReverseFlowValue(),))) == (
        "Scenario(name='s', steps=(ScaleReverseFlowValue(enabled=True),))"
    )


@by_class
def test_assignment_and_deletion_raise(record):
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == type(record)(**_fields(record))


@by_class
def test_replace_changes_one_field_and_keeps_the_rest(record):
    name = type(record).__slots__[-1]
    value = getattr(record, name)
    assert record.replace() == record
    assert record.replace(**{name: value}) == record
    with pytest.raises(TypeError):
        record.replace(no_such_field=1)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError) as direct:
        type(ACCOUNT)(**{**_fields(ACCOUNT), "waste_output": -1.0})
    with pytest.raises(ValueError) as replaced:
        ACCOUNT.replace(waste_output=-1.0)
    assert str(replaced.value) == str(direct.value)
    assert ACCOUNT.replace(waste_output=20).waste_output == 20.0
    assert type(ACCOUNT.replace(waste_output=20).waste_output) is float


@by_class
@pytest.mark.parametrize("pattern", ["cls({name}=value)", "cls(value)"])
def test_class_pattern_matches(record, pattern):
    cls, name = type(record), type(record).__slots__[0]
    namespace = {"record": record, "cls": cls}
    exec(
        f"match record:\n"
        f"    case {pattern.format(name=name)}:\n"
        f"        matched = value\n",
        namespace,
    )
    assert namespace["matched"] is getattr(record, name)


@by_class
def test_pickle_and_copy_round_trip(record):
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record


# Every numeric slot that outside input reaches, each on a record holding valid values.
NUMERIC_SLOTS = [
    *((ACCOUNT, name) for name in MASS_FIELDS + ("balance_tolerance",)),
    *((ECONOMY, name) for name in ("gdp", "gfcf_rate", "cfc_rate", "services_share")),
    (ECONOMY.sectors[0], "value"),
    (SetRecoveryRate(0.5), "fraction"),
    (DivertWasteToStock(0.25), "fraction"),
    (ReplaceEnergeticWithStock(0.1), "fraction"),
    *((ATTRIBUTION, name) for name in type(ATTRIBUTION).__slots__[1:]),
]


def _slot_id(item) -> str:
    return item if isinstance(item, str) else type(item).__name__


@pytest.mark.parametrize(
    "record, name, value",
    [
        (record, name, value)
        for record, name in NUMERIC_SLOTS
        for value in ("1", True, None, 1j)
        if not (name == "services_share" and value is None)
    ],
    ids=_slot_id,
)
def test_numeric_slots_reject_values_that_are_not_real_numbers(record, name, value):
    with pytest.raises(ValueError, match=f"must be a real number, got {re.escape(repr(value))}"):
        record.replace(**{name: value})


@pytest.mark.parametrize("record, name", NUMERIC_SLOTS, ids=_slot_id)
def test_numeric_slots_accept_ints_as_floats(record, name):
    value = getattr(record.replace(**{name: 0}), name)
    assert value == 0.0 and type(value) is float


def test_an_int_too_large_for_a_float_is_named_as_infinite():
    with pytest.raises(ValueError, match="mass must be finite"):
        ACCOUNT.replace(waste_output=10**400)


@pytest.mark.parametrize("gdp", [0, 0.0, -0.0, -1.0])
def test_attribution_gdp_must_be_positive(gdp):
    with pytest.raises(ValueError, match="gdp must be positive; every GDP share divides by it"):
        ATTRIBUTION.replace(gdp=gdp)


def test_attribution_values_must_be_finite():
    with pytest.raises(ValueError, match="monetary value must be finite, got inf"):
        ATTRIBUTION.replace(gdp=float("inf"))
    with pytest.raises(ValueError, match="monetary value must be finite, got nan"):
        ATTRIBUTION.replace(stock_addition_value=float("nan"))
    assert ATTRIBUTION.replace(stock_addition_value=-2.58).stock_addition_value == -2.58
