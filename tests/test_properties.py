"""Randomized property checks against independently written oracles.

Each property runs over at least 1,000 random valid inputs from a seeded
generator.  Oracles recompute results from raw fields in fresh arithmetic,
never by calling the code under test.
"""

import math
import random
import re
import sys
import warnings
from functools import partial

import pytest

from circuflow import (
    EconomicAccount,
    Scenario,
    SectorValue,
    SetRecoveryRate,
    ValidationStatus,
    apparent_circularity,
    apply_scenario,
    attribute_value,
    dissipative_adjusted_circularity,
    metric_suite,
    potential_ceiling,
    real_circularity,
    validate,
    waste_share,
)
from circuflow.metrics import _masses
from circuflow.record import float_dust
from support import random_economy, random_valid_account, reference_steps, scale_account

N = 1000


def _oracle_rates(account):
    """Brute-force recomputation of the metric family from raw fields."""
    total = float(account.total_input)
    energetic = float(account.energetic_input)
    stock = float(account.net_stock_additions)
    recycled = float(account.recycled_input)
    return (
        recycled / total,
        recycled / (total - energetic),
        recycled / (total - energetic - stock),
        (total - energetic) / total,
    )


def test_generator_emits_valid_accounts():
    rng = random.Random(101)
    for _ in range(N):
        assert validate(random_valid_account(rng)).ok


def test_metric_suite_matches_oracle():
    rng = random.Random(102)
    for _ in range(N):
        account = random_valid_account(rng)
        report = metric_suite(account)
        apparent, adjusted, real, ceiling = _oracle_rates(account)
        assert report.apparent == pytest.approx(apparent, rel=1e-12)
        assert report.dissipative_adjusted == pytest.approx(adjusted, rel=1e-12)
        assert report.real_rate == pytest.approx(real, rel=1e-12)
        assert report.potential_ceiling == pytest.approx(ceiling, rel=1e-12)


def test_public_metric_functions_equal_the_suite_exactly():
    # Both read the one formula table; only the suite snaps float dust above 1.
    rng = random.Random(121)
    for _ in range(N):
        account = random_valid_account(rng)
        report = metric_suite(account)
        for function, field in (
            (apparent_circularity, report.apparent),
            (dissipative_adjusted_circularity, report.dissipative_adjusted),
            (real_circularity, report.real_rate),
            (potential_ceiling, report.potential_ceiling),
        ):
            direct = function(account)
            assert direct == field or field == 1.0 < direct, function.__name__


def test_suite_snaps_a_real_rate_a_hair_above_one():
    # recycled_input a few parts in 1e12 above the metric's own pool: float dust
    rng = random.Random(122)
    snapped = 0
    for _ in range(N):
        account = random_valid_account(rng)
        pool = account.total_input - account.energetic_input - account.net_stock_additions
        account = account.replace(recycled_input=pool * (1 + rng.randint(0, 50) * 1e-12))
        direct = real_circularity(account)
        report = metric_suite(account)
        if direct > 1.0:
            assert report.real_rate == 1.0
            snapped += 1
        else:
            assert report.real_rate == direct
    assert snapped > 0.9 * N


def test_monotone_metric_chain():
    rng = random.Random(103)
    for _ in range(N):
        account = random_valid_account(rng)
        report = metric_suite(account)
        assert 0.0 <= report.apparent <= report.dissipative_adjusted <= report.real_rate <= 1.0
        assert report.apparent <= report.potential_ceiling
        # strict once the subtracted term and the numerator are both nonzero
        if float(account.recycled_input) > 0:
            if float(account.energetic_input) > 0:
                assert report.apparent < report.dissipative_adjusted
            if float(account.net_stock_additions) > 0:
                assert report.dissipative_adjusted < report.real_rate


def test_mass_scale_invariance():
    rng = random.Random(104)
    for _ in range(N):
        account = random_valid_account(rng)
        factor = rng.uniform(1e-3, 1e3)
        scaled = scale_account(account, factor)
        assert validate(scaled).ok
        assert waste_share(scaled) == pytest.approx(waste_share(account), rel=1e-12)
        base, big = metric_suite(account), metric_suite(scaled)
        for key, rate in base.rates().items():
            assert big.rates()[key] == pytest.approx(rate, rel=1e-12)


def test_recoverable_ordering():
    rng = random.Random(105)
    for _ in range(N):
        account = random_valid_account(rng)
        pool = _masses(account)["denominator_annually_recoverable"]
        assert account.structural_input >= pool >= 0.0


def test_exactly_balanced_accounts_pass_clean():
    rng = random.Random(106)
    for _ in range(N):
        account = random_valid_account(rng)
        # refill emissions + waste so outputs sum to total exactly (up to float noise)
        leftover = float(account.total_input) - float(account.net_stock_additions)
        split = rng.uniform(0.0, 1.0)
        emissions = split * leftover
        balanced = account.replace(emissions_output=emissions, waste_output=leftover - emissions)
        outcome = validate(balanced)
        assert outcome.status is ValidationStatus.PASS
        assert abs(outcome.residual) <= 1e-12 * float(balanced.total_input)


def test_validation_is_idempotent():
    rng = random.Random(107)
    for _ in range(N):
        account = random_valid_account(rng)
        assert validate(account) == validate(account)


def test_currency_scale_invariance():
    from support import scale_economy

    rng = random.Random(108)
    for _ in range(N):
        economy = random_economy(rng)
        factor = rng.uniform(1e-3, 1e3)
        base = attribute_value(economy)
        scaled = attribute_value(scale_economy(economy, factor))
        for key, share in base.shares_by_category().items():
            assert scaled.shares_by_category()[key] == pytest.approx(share, rel=1e-9, abs=1e-12)


def test_attribution_matches_summation_oracle():
    rng = random.Random(109)
    for _ in range(N):
        economy = random_economy(rng)
        attribution = attribute_value(economy)
        # oracle: independent summation over the sector list
        reverse = math.fsum(float(s.value) for s in economy.sectors if s.category == "reverse_flow")
        dissipative = math.fsum(
            float(s.value) for s in economy.sectors if s.category == "dissipative_flow"
        )
        stock = (economy.gfcf_rate - economy.cfc_rate) * float(economy.gdp)
        assert float(attribution.reverse_flow_value) == pytest.approx(reverse, rel=1e-12, abs=1e-12)
        assert float(attribution.dissipative_flow_value) == pytest.approx(
            dissipative, rel=1e-12, abs=1e-12
        )
        assert float(attribution.stock_addition_value) == pytest.approx(stock, rel=1e-12, abs=1e-12)
        assert float(attribution.waste_value) == 0.0
        total = math.fsum(attribution.values_by_category().values())
        assert total == pytest.approx(float(economy.gdp), abs=1e-9)
        assert math.fsum(attribution.shares_by_category().values()) == pytest.approx(1.0, abs=1e-9)
        for share in attribution.shares_by_category().values():
            assert 0.0 <= share <= 1.0


def test_attribution_monotonicity_in_sector_values():
    rng = random.Random(110)
    for _ in range(N):
        economy = random_economy(rng)
        legacy_before = float(attribute_value(economy).legacy_stock_value)
        bump = rng.uniform(0.0, 0.5) * legacy_before
        grown = EconomicAccount(
            year=economy.year,
            gdp=economy.gdp,
            gfcf_rate=economy.gfcf_rate,
            cfc_rate=economy.cfc_rate,
            sectors=economy.sectors
            + (SectorValue("extra", bump, "dissipative_flow"),),
            services_share=economy.services_share,
        )
        legacy_after = float(attribute_value(grown).legacy_stock_value)
        assert legacy_before - legacy_after == pytest.approx(
            bump, rel=1e-9, abs=1e-9 * max(1.0, float(economy.gdp))
        )


def test_empty_scenario_is_identity():
    rng = random.Random(111)
    empty = Scenario("empty", ())
    for _ in range(N):
        account = random_valid_account(rng)
        economy = random_economy(rng)
        result = apply_scenario(account, economy, empty)
        assert result.account == account
        assert result.economy == economy


def test_saturation_is_idempotent():
    rng = random.Random(112)
    once_scenario = Scenario("once", (SetRecoveryRate(1.0),))
    twice_scenario = Scenario("twice", (SetRecoveryRate(1.0), SetRecoveryRate(1.0)))
    for _ in range(N):
        account = random_valid_account(rng)
        economy = random_economy(rng)
        once = apply_scenario(account, economy, once_scenario)
        twice = apply_scenario(account, economy, twice_scenario)
        assert once.account == twice.account
        # saturation recovers the whole pool by definition
        assert once.report.real_rate == pytest.approx(1.0, abs=1e-12)


def test_scenarios_never_create_mass():
    rng = random.Random(113)
    scenario = Scenario("mix", (SetRecoveryRate(1.0),))
    for _ in range(N):
        account = random_valid_account(rng)
        economy = random_economy(rng)
        result = apply_scenario(account, economy, scenario)
        assert float(result.account.total_input) == float(account.total_input)
        # the waste reduction equals the recycled increase, bin for bin
        increase = float(result.account.recycled_input) - float(account.recycled_input)
        reduction = float(account.waste_output) - float(result.account.waste_output)
        assert increase == pytest.approx(reduction, abs=1e-9 * max(1.0, float(account.total_input)))


def test_real_rate_hits_one_exactly_at_full_recovery():
    rng = random.Random(115)
    for _ in range(N):
        account = random_valid_account(rng)
        pool = float(account.structural_input) - float(account.net_stock_additions)
        saturated = account.replace(recycled_input=pool)
        assert metric_suite(saturated).real_rate == 1.0


def test_documents_round_trip_randomized():
    from circuflow import (
        DivertWasteToStock,
        ReplaceEnergeticWithStock,
        ScaleReverseFlowValue,
    )
    from circuflow.documents import (
        parse_account,
        parse_economy,
        parse_scenario,
        render_account,
        render_economy,
        render_scenario,
    )

    rng = random.Random(116)
    step_makers = (
        lambda r: SetRecoveryRate(r.random()),
        lambda r: DivertWasteToStock(r.random()),
        lambda r: ReplaceEnergeticWithStock(r.random()),
        lambda r: ScaleReverseFlowValue(r.random() < 0.5),
    )
    for index in range(N):
        account = random_valid_account(rng)
        if rng.random() < 0.5:
            account = account.replace(balance_tolerance=rng.random())
        assert parse_account(render_account(account)) == account
        economy = random_economy(rng)
        if rng.random() < 0.5:
            economy = economy.replace(services_share=rng.random())
        assert parse_economy(render_economy(economy)) == economy
        scenario = Scenario(
            name=f"scenario_{index}",
            steps=tuple(rng.choice(step_makers)(rng) for _ in range(rng.randint(0, 4))),
        )
        assert parse_scenario(render_scenario(scenario)) == scenario


def test_random_step_compositions_conserve_mass():
    """Random 1-4 step pipelines either abort with a named error or conserve mass.

    Success means: total input unchanged, structural invariants intact, and
    the residual moved only by the documented loop/stock rebookings.
    """
    from circuflow import (
        DivertWasteToStock,
        MetricDomainError,
        ReplaceEnergeticWithStock,
        ScenarioError,
        validate,
    )

    rng = random.Random(117)
    step_makers = (
        lambda r: SetRecoveryRate(r.random()),
        lambda r: DivertWasteToStock(r.random()),
        lambda r: ReplaceEnergeticWithStock(r.random()),
    )
    applied = 0
    for _ in range(N):
        account = random_valid_account(rng)
        economy = random_economy(rng)
        scenario = Scenario(
            name="fuzz",
            steps=tuple(rng.choice(step_makers)(rng) for _ in range(rng.randint(1, 4))),
        )
        try:
            result = apply_scenario(account, economy, scenario)
        except (ScenarioError, MetricDomainError):
            continue  # documented aborts: precondition or unreportable state
        applied += 1
        assert float(result.account.total_input) == float(account.total_input)
        outcome = validate(result.account)
        assert not any(v.invariant != "mass_balance" for v in outcome.violations)
        loop = float(result.account.recycled_input) - float(account.recycled_input)
        rebooked_stock = float(account.energetic_input) - float(result.account.energetic_input)
        expected = validate(account).residual + loop - rebooked_stock
        assert outcome.residual == pytest.approx(
            expected, abs=1e-9 * max(1.0, float(account.total_input))
        )
    assert applied > N // 2  # the fuzz must mostly exercise the success path


def _written(step) -> tuple:
    """A step as a scenario document writes it: ``(op, parameter)``."""
    from circuflow.scenarios import OP_NAMES

    if hasattr(step, "enabled"):
        return OP_NAMES[type(step)], "on" if step.enabled else "off"
    return OP_NAMES[type(step)], step.fraction


def test_step_chains_match_the_plain_dict_reference_exactly():
    """8-64-step chains of the four ops equal a step-by-step reference, field by field.

    About one account in five gets a lean waste bin and one in ten no
    reverse flow, so chains also break preconditions; those compare by the
    index of the step that breaks.  Most chains that break do so at a divert
    after a full recovery, which would leave recycled input over the pool; so
    half the chains draw gentler steps, recoveries to at most half the pool and
    diverts of at most 5% of waste, and mostly apply.
    Exact ``==`` guards each op computing its new bin values as worded, not as
    ``old +/- amount``.  The few chains whose scaled reverse-flow values then
    exceed GDP must fail the same way on the reference's economy.
    """
    from circuflow import (
        DivertWasteToStock,
        OverAttributionError,
        ReplaceEnergeticWithStock,
        ScaleReverseFlowValue,
        ScenarioError,
    )
    from circuflow.accounts import MASS_FIELDS

    rng = random.Random(118)
    shared_makers = (
        lambda r: ReplaceEnergeticWithStock(r.random() * 0.2),
        lambda r: ScaleReverseFlowValue(r.random() < 0.7),
    )
    step_families = (
        (
            lambda r: SetRecoveryRate(r.choice((r.random(), 1.0))),
            lambda r: DivertWasteToStock(r.random() * r.choice((0.05, 0.3))),
            *shared_makers,
        ),
        (
            lambda r: SetRecoveryRate(r.random() * 0.5),
            lambda r: DivertWasteToStock(r.random() * 0.05),
            *shared_makers,
        ),
    )

    outcomes = {"applied": 0, "broken": 0, "over_attributed": 0}
    for _ in range(N):
        account = random_valid_account(rng)
        roll = rng.random()
        if roll < 0.2:
            kept = rng.uniform(0.0, 0.3) * account.waste_output
            account = account.replace(
                waste_output=kept,
                emissions_output=account.emissions_output + (account.waste_output - kept),
            )
        elif roll < 0.3:
            account = account.replace(recycled_input=0.0)
        economy = random_economy(rng)
        step_makers = rng.choice(step_families)
        steps = tuple(rng.choice(step_makers)(rng) for _ in range(rng.randint(8, 64)))
        broken_at, masses, values = reference_steps(
            {name: getattr(account, name) for name in MASS_FIELDS},
            [sector.value for sector in economy.sectors],
            [sector.category for sector in economy.sectors],
            [_written(step) for step in steps],
        )
        try:
            result = apply_scenario(account, economy, Scenario("chain", steps))
        except ScenarioError as exc:
            assert broken_at is not None and exc.step_index == broken_at, str(exc)
            outcomes["broken"] += 1
            continue
        except OverAttributionError as exc:
            # the reference's final state reports its metrics, and its economy fails the same way
            expected_economy = economy.replace(
                sectors=tuple(s.replace(value=v) for s, v in zip(economy.sectors, values))
            )
            metric_suite(account.replace(**masses))
            with pytest.raises(OverAttributionError, match=re.escape(str(exc))):
                attribute_value(expected_economy)
            outcomes["over_attributed"] += 1
            continue
        assert broken_at is None
        for name in MASS_FIELDS:
            assert getattr(result.account, name) == masses[name], name
        assert [sector.value for sector in result.economy.sectors] == values
        outcomes["applied"] += 1
    assert outcomes["applied"] > N // 4 and outcomes["broken"] > N // 20, outcomes


def _dusty_valid_account(rng: random.Random):
    """A random valid account with a category gap of either sign up to float dust.

    A quarter of the draws put stock additions at zero, a quarter at the whole
    structural input; emissions and waste give up what stock additions gain.
    """
    while True:
        base = random_valid_account(rng)
        structural = base.structural_input + rng.uniform(-1.0, 1.0) * float_dust(base.total_input)
        roll = rng.random()
        stock = 0.0 if roll < 0.25 else structural if roll < 0.5 else base.net_stock_additions
        loose = base.emissions_output + base.waste_output + base.net_stock_additions - stock
        waste = loose * base.waste_output / (base.emissions_output + base.waste_output)
        account = base.replace(
            structural_input=structural,
            recycled_input=min(base.recycled_input, structural),
            net_stock_additions=stock,
            emissions_output=loose - waste,
            waste_output=waste,
        )
        if validate(account).ok:
            return account


def test_chains_over_dust_level_gaps_give_rates_in_range_or_named_errors():
    """Chains of the four ops on accounts whose category gap is up to float dust.

    Each gives a result whose four rates lie in [0, 1], or a named error.  An
    overshoot leaves more recycled input than the pool by over float dust.  Only
    a divert shrinks the pool, so a step that would overshoot is a divert, and
    its ScenarioError names the step where the plain-dict reference breaks too.
    A MetricDomainError comes only from the real rate of a baseline already
    over its pool (a quarter of the draws put stock additions at the whole
    structural input), after steps that recover nothing; the reference's final
    state confirms it.  A chain ending in full recovery reads a raw real rate
    of exactly 1.
    """
    from circuflow import (
        DivertWasteToStock,
        MetricDomainError,
        OverAttributionError,
        ReplaceEnergeticWithStock,
        ScaleReverseFlowValue,
        ScenarioError,
        UndefinedDenominatorError,
    )
    from circuflow.accounts import MASS_FIELDS

    rng = random.Random(119)
    step_makers = (
        lambda r: SetRecoveryRate(r.choice((r.random(), 1.0))),
        lambda r: DivertWasteToStock(r.random()),
        lambda r: ReplaceEnergeticWithStock(r.random()),
        lambda r: ScaleReverseFlowValue(r.random() < 0.7),
    )
    outcomes = {"result": 0, "full_recovery": 0, "error": 0, "overshoot": 0}
    for _ in range(N):
        account = _dusty_valid_account(rng)
        economy = random_economy(rng)
        steps = tuple(rng.choice(step_makers)(rng) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.5:
            steps += (SetRecoveryRate(1.0),)
        reference = partial(
            reference_steps,
            {name: getattr(account, name) for name in MASS_FIELDS},
            [sector.value for sector in economy.sectors],
            [sector.category for sector in economy.sectors],
            [_written(step) for step in steps],
        )
        try:
            result = apply_scenario(account, economy, Scenario("dust", steps))
        except ScenarioError as exc:
            if "annually recoverable pool" in str(exc):
                broken_at = reference()[0]
                assert exc.step_index == broken_at, str(exc)
                assert type(steps[broken_at]) is DivertWasteToStock, str(exc)
                outcomes["overshoot"] += 1
            else:
                outcomes["error"] += 1
            continue
        except (UndefinedDenominatorError, OverAttributionError):
            outcomes["error"] += 1
            continue
        except MetricDomainError as exc:
            _, masses, _ = reference()
            pool = masses["total_input"] - masses["energetic_input"] - masses["net_stock_additions"]
            assert str(exc).startswith("real_rate = "), str(exc)
            assert masses["recycled_input"] - pool > 0.99 * float_dust(account.total_input)
            baseline = account.total_input - account.energetic_input - account.net_stock_additions
            assert account.recycled_input - baseline > 0.99 * float_dust(account.total_input)
            assert SetRecoveryRate not in map(type, steps)
            outcomes["overshoot"] += 1
            continue
        rates = result.report.rates()
        assert all(0.0 <= rate <= 1.0 for rate in rates.values()), rates
        outcomes["result"] += 1
        if steps and steps[-1] == SetRecoveryRate(1.0):
            assert real_circularity(result.account) == 1.0
            outcomes["full_recovery"] += 1
    assert min(outcomes.values()) > N // 20, outcomes


def test_round_half_away_matches_exact_oracle_across_magnitudes():
    from fractions import Fraction

    from circuflow.accounts import round_half_away

    def oracle(value, places):
        # exact rational arithmetic on the printed (repr) value, ties away from zero
        exact = Fraction(repr(value))
        scale = 10**places
        magnitude = math.floor(abs(exact) * scale + Fraction(1, 2))
        return float(Fraction(magnitude, scale) * (1 if exact >= 0 else -1))

    rng = random.Random(118)
    for _ in range(N):
        value = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-12, 307)
        places = rng.randint(0, 40)
        assert round_half_away(value, places) == oracle(value, places), (value, places)
        # a tie in the last place kept
        tie = float(f"{rng.randint(0, 10**6)}.{rng.randint(0, 10**places - 1):0{places}d}5")
        assert round_half_away(tie, places) == oracle(tie, places), (tie, places)
    for places in range(41):
        for value in (1.7e308, 1e-12, 61.5, -0.5):
            assert round_half_away(value, places) == oracle(value, places), (value, places)


def test_round_half_away_matches_exact_oracle_on_exponent_form_reprs():
    """Values whose repr has an exponent, at every place count up to the bound."""
    from fractions import Fraction

    from circuflow.accounts import MAX_PLACES, round_half_away

    def oracle(value, places):
        # exact rational arithmetic on the printed (repr) value, ties away from zero
        exact = Fraction(repr(value))
        scale = 10**places
        magnitude = math.floor(abs(exact) * scale + Fraction(1, 2))
        return float(Fraction(magnitude, scale) * (1 if exact >= 0 else -1))

    def check(value, places):
        rounded = round_half_away(value, places)
        assert rounded == oracle(value, places), (value, places)
        assert math.copysign(1.0, rounded) == math.copysign(1.0, value), (value, places)

    rng = random.Random(123)
    for places in range(MAX_PLACES + 1):
        for value in (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e16, -1.7e308):
            check(value, places)
    for _ in range(N):
        sign = rng.choice((-1.0, 1.0))
        drawn = (
            sign * rng.randint(1, 2**52) * 5e-324,  # subnormal
            sign * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, -5),
            sign * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(16, 307),
        )
        for value in drawn:
            assert "e" in repr(value), value
            # any place count, and one that cuts into the value's own digits
            leading = -math.floor(math.log10(abs(value)))
            check(value, rng.randint(0, MAX_PLACES))
            check(value, min(max(leading + rng.randint(-2, 17), 0), MAX_PLACES))
        # a tie: the first dropped digit is a 5 and nothing follows it
        places = rng.randint(0, 300)
        kept = rng.randrange(10 ** rng.randint(0, 14))  # with the 5, at most 15 digits: exact
        tie = sign * float(f"{kept}5e-{places + 1}")
        assert repr(tie).split("e")[0].endswith("5"), tie
        check(tie, places)
        assert round_half_away(tie, places) == sign * float(f"{kept + 1}e-{places}"), tie


def test_percent_text_matches_exact_decimal_expansion():
    """The tolerance text shows every digit of 100 × the printed fraction, no more."""
    from fractions import Fraction

    from circuflow.accounts import _percent

    def oracle(fraction):
        exact = Fraction(repr(fraction)) * 100
        places = 0
        while (exact * 10**places).denominator != 1:
            places += 1
        digits = str((exact * 10**places).numerator).rjust(places + 1, "0")
        whole, decimals = digits[: len(digits) - places], digits[len(digits) - places :]
        sign = "-" if fraction < 0 else ""  # a zero is unsigned, -0.0 included
        return f"{sign}{whole}.{decimals}%" if decimals else f"{sign}{whole}%"

    assert _percent(0.015) == "1.5%"
    assert _percent(0.02) == "2%"
    assert _percent(1.0) == "100%"
    assert _percent(0.0) == "0%"
    assert _percent(-0.0) == "0%"
    assert _percent(1e-20) == "0.000000000000000001%"
    rng = random.Random(124)
    fractions = [0.0, -0.0, 1.0, 5e-324, 1e-20, 0.015, 0.02, 2.2250738585072014e-308]
    for _ in range(N):
        fractions += (
            rng.random(),
            round(rng.random(), rng.randint(0, 6)),
            rng.random() * 10.0 ** -rng.randint(1, 320),
        )
    for fraction in fractions:
        assert _percent(fraction) == oracle(fraction), fraction


def test_formatted_numbers_print_exactly_the_digits_kept():
    """Every human-format number is the repr rounded half away, then padded with zeros.

    A percentage is the fraction's repr with its point moved two places, not
    the float product ``value * 100.0``: 0.575 * 100.0 is 57.49999999999999,
    which would print 57% where the machine line reads 0.575, and -1e308 *
    100.0 is -inf.  Short decimals land on ties at a table's 0 to 3 places,
    and the draws must hit ties where the product misprints.

    Past 15 places the text shows no binary-expansion digit the repr lacks;
    where the rounded value has at most 15 significant digits it matches the
    builtin fixed-point text of the rounded float, unless that is subnormal
    (2.386e-321 is 2.38633707...e-321 in full).  ``_fixed`` returns ``%f``
    of the shifted product unless the product lies within a few ulps of a
    midpoint of the ``places`` grid; on every draw it must equal the digit
    rule it shortcuts, for both shifts, and the draws crowd that band: ties at
    a table's 0 to 3 places after either shift, each with neighbours 1 to 8
    ulps off on both sides; magnitudes of 1e14 to 1e17 at 0 to 2 places, where
    an ulp nears the grid; short reprs at 14 to 26 places, where the grid is
    finer than an ulp; subnormals at 290 to 400 places, where the repr's own
    error is many ulps of a percentage's product; zeros of either sign, the
    infinities and NaN.  Further draws end in every digit at 0 to 13 places,
    and sit either side of each power of ten from 0.1 to 1e14.
    """
    from fractions import Fraction

    from circuflow.accounts import (
        _fixed,
        _fixed_digits,
        format_mass,
        format_percent,
        round_half_away,
    )
    from circuflow.render import format_money, format_percent_delta

    def oracle(value, places, shift=0):
        # exact rational arithmetic on the repr, ties away from zero, sign of zero kept
        scaled = abs(Fraction(repr(value))) * 10 ** (places + shift)
        digits = str(math.floor(scaled + Fraction(1, 2))).rjust(places + 1, "0")
        text = f"{digits[:-places]}.{digits[-places:]}" if places else digits
        return text, math.copysign(1.0, value) < 0, digits.strip("0") == "", scaled.denominator == 2

    assert (format_percent(0.575, 0), format_percent(0.0045, 1)) == ("58%", "0.5%")
    assert (format_percent_delta(0.575, 0), format_percent_delta(-0.575, 0)) == ("+58 pp", "-58 pp")
    assert format_percent(-1e308, 1) == f"-1{'0' * 310}.0%"
    rng = random.Random(125)
    values = [0.0, -0.0, 8.653846153846153, 0.2727272727272727, 1e22, 2.0**70, 5e-324, -1.7e306]
    values += [-1e308, 1.7e308, 0.575, 0.145, 0.285, 0.565, 0.0045]
    for _ in range(N):
        values += (
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1e6, 1e6),
            rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-30, 30),
        )
    draws = [
        (value, places) for value in values for places in (rng.randint(16, 40), rng.randint(0, 15))
    ]
    draws += [(zero, places) for zero in (0.0, -0.0) for places in range(6)]
    for _ in range(N):
        side = rng.choice((-1.0, 1.0))
        places, tie_places = rng.randint(0, 6), rng.randint(0, 3)
        # a percentage on a tie at ``tie_places``: 3 to 6 decimals, the last a 5
        tie = side * float(f"{rng.randrange(10 ** (tie_places + 2))}5e-{tie_places + 3}")
        whole = rng.choice((rng.randint(0, 999), rng.randint(10**13, 10**15)))
        decimals = "".join(rng.choice("0123456789") for _ in range(places))
        last = rng.choice("5555123467890")  # a tie at ``places`` when the repr keeps the 5
        draws += (
            (side * float(f"{whole}.{decimals}{last}"), places),
            (side * rng.uniform(1e14, 1e16), rng.randint(0, 17)),
            (-rng.random() * 0.5 * 10.0**-places, places),  # rounds to a negative zero
            (rng.uniform(-1.0, 1.0), rng.randint(0, 3)),
            (round(rng.random(), rng.randint(1, 5)), rng.randint(0, 3)),  # x100 lands on ties
            (tie, tie_places),
        )
    for places in range(16):
        bound = 10.0 ** (14 - places)
        for value in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)):
            draws += ((value, places), (-value, places))
    for _ in range(N):
        side, places = rng.choice((-1.0, 1.0)), rng.randint(0, 14)
        whole = rng.randrange(10 ** (14 - places))
        decimals = "".join(rng.choice("0123456789") for _ in range(places))
        tie = side * float(f"{whole}.{decimals}5")
        draws += (
            (tie, places),
            (math.nextafter(tie, 0.0), places),
            (math.nextafter(tie, side * math.inf), places),
            (side * rng.uniform(1.0, 10.0) * 10.0 ** (13 - places), rng.choice((13, 14))),
        )
    for _ in range(N):
        side, places, shift = rng.choice((-1.0, 1.0)), rng.randint(0, 3), rng.choice((0, 2))
        # a tie at ``places`` once shifted by ``shift``, and its neighbours up to 8 ulps off
        tie = side * float(f"{rng.randrange(10 ** rng.randint(0, 6))}5e-{places + shift + 1}")
        draws.append((tie, places))
        for toward in (0.0, side * math.inf):
            neighbour = tie
            for _ in range(rng.randint(1, 8)):
                neighbour = math.nextafter(neighbour, toward)
            draws.append((neighbour, places))
        draws += (
            (side * 10.0 ** rng.uniform(14, 17), rng.randint(0, 2)),
            (side * float(f"{rng.randrange(10**13, 10**15)}.5"), 0),
            (side * round(rng.uniform(0.0, 1e3), rng.randint(0, 6)), rng.randint(14, 26)),
            (side * rng.randint(1, rng.choice((10**3, 2**52))) * 5e-324, rng.randint(290, 400)),
        )
        # a short subnormal repr, cut at or just past its digits once shifted
        exponent = rng.randint(310, 323)
        short = side * float(f"{rng.randint(1, 99)}e-{exponent}")
        draws.append((short, exponent - rng.randint(0, 4)))
    for value in (math.inf, -math.inf, math.nan):
        for places in (0, 1, 3, 20, 400):
            for shift in (0, 2):
                assert _fixed(value, places, shift) == _fixed_digits(value, places, shift)
    for places in range(14):
        draws += ((-0.0, places), (0.0, places))
        for last in "0123456789":
            for _ in range(N // 100):
                # at most 15 significant digits: %f at places + 1 prints them back
                whole = rng.randrange(10 ** rng.randint(0, 13 - places))
                decimals = "".join(rng.choice("0123456789") for _ in range(places))
                value = rng.choice((-1.0, 1.0)) * float(f"{whole}.{decimals}{last}")
                assert ("%.*f" % (places + 1, value))[-1] == last, (value, places)
                draws.append((value, places))
    ties = misprinted = 0
    for value, places in draws:
        for shift in (0, 2):  # a mass or money, and a percentage
            fast, rule = _fixed(value, places, shift), _fixed_digits(value, places, shift)
            assert fast == rule, (value, places, shift)
        text, negative, zero, _ = oracle(value, places)
        sign = "-" if negative else ""
        assert format_mass(value, places) == f"{sign}{text} Gt", (value, places)
        money_sign = "-" if negative and not zero else ""
        assert format_money(value, places) == f"{money_sign}${text}T", (value, places)
        percent, negative, _, tie = oracle(value, places, shift=2)
        sign = "-" if negative else ""
        assert format_percent(value, places) == f"{sign}{percent}%", (value, places)
        delta = f"{sign or '+'}{percent} pp"
        assert format_percent_delta(value, places) == delta, (value, places)
        if tie and places <= 3:
            ties += 1
            misprinted += _fixed(value * 100.0, places) != f"{sign}{percent}"
        rounded = round_half_away(value, places)
        subnormal = 0 < abs(rounded) < sys.float_info.min
        if len(text.replace(".", "").lstrip("0")) <= 15 and not subnormal:
            builtin = f"{rounded:.{places}f} Gt"
            assert format_mass(value, places) == builtin, (value, places)
    assert ties >= 1000 and misprinted >= 50, (ties, misprinted)


def test_the_shipped_reports_take_the_digit_rule_only_on_ties(monkeypatch, tmp_path, capsys):
    """At a table's 0 to 3 places, ``_fixed`` leaves only exact ties to ``_fixed_digits``.

    Its band around each midpoint is a few ulps of the shifted product wide, so
    a value whose shifted repr is no tie reads ``%f`` of the product (the
    apparent rate 0.08653846153846154 at one place is one).  The shipped
    reports and their charts do print ties, such as 37.5% at no places.
    """
    from fractions import Fraction

    from circuflow import accounts
    from circuflow.cli import main
    from support import ACCOUNT_PATH, ECONOMY_PATH, FULL_RECOVERY_PATH, WASTE_DIVERSION_PATH

    taken, digit_rule = [], accounts._fixed_digits

    def spy(value, places, shift=0):
        taken.append((value, places, shift))
        return digit_rule(value, places, shift)

    monkeypatch.setattr(accounts, "_fixed_digits", spy)
    monkeypatch.delenv("CIRCUFLOW_TOLERANCE", raising=False)
    account, economy, chart = str(ACCOUNT_PATH), str(ECONOMY_PATH), str(tmp_path / "chart.svg")
    reports = [["metrics", account, "--svg", chart], ["valuemap", account, economy, "--svg", chart]]
    for path in (FULL_RECOVERY_PATH, WASTE_DIVERSION_PATH):
        reports.append(["scenario", account, economy, str(path)])
    for argv in reports:
        for fmt in ("plain", "markdown"):
            for places in "0123":
                assert main([*argv, "--format", fmt, "--round", places]) == 0
    assert main(["validate", account]) == 0
    capsys.readouterr()
    assert taken
    for value, places, shift in taken:
        shifted = Fraction(repr(value)) * 10 ** (places + shift)
        assert shifted.denominator == 2, (value, places, shift)


def _machine_values(text):
    return [line.partition(" = ")[2] for line in text.splitlines()]


_CATEGORY_ROWS = {
    "reverse flows": "reverse_flow",
    "dissipative flows": "dissipative_flow",
    "stock additions": "stock_addition",
    "waste": "waste",
    "legacy stocks": "legacy_stock",
}
_CATEGORY_MASSES = {
    "reverse_flow": "recycled_input",
    "dissipative_flow": "energetic_input",
    "stock_addition": "net_stock_additions",
    "waste": "waste_output",
}
_METRIC_ROWS = {
    "apparent": ("apparent", "denominator_total"),
    "dissipative-adjusted": ("dissipative_adjusted", "denominator_recoverable"),
    "real": ("real_rate", "denominator_annually_recoverable"),
    "potential ceiling": ("potential_ceiling", "denominator_total"),
}


def _plain_tables(text):
    """The rows of every plain table in ``text``, each split into its cells."""
    return [
        [re.split(" {2,}", line) for line in block.splitlines()[1:]]
        for block in text.split("\n\n")
        if block.startswith(("metric  ", "category  ", "quantity  ", "value  "))
    ]


def test_machine_output_prints_every_value_as_a_float_repr():
    """Machine values are shortest-round-trip floats, also for an empty sector category.

    The plain rendering of the same reports shows exactly those values: every
    table cell is its key's machine value through the kind's formatter, and
    only the delta and mass columns are computed outside the machine keys.
    """
    from circuflow.render import (
        RenderSpec,
        format_mass,
        format_money,
        format_percent,
        format_percent_delta,
        render_metrics,
        render_scenario_comparison,
        render_valuemap,
    )

    def shown(machine, key, places):
        value = float(machine[key])
        if key.startswith("denominator_"):
            return format_mass(value, places)
        if key == "gdp" or key.endswith("_value"):
            return format_money(value, places)
        return format_percent(value, places)

    rng = random.Random(119)
    places_rng = random.Random(1190)
    spec = RenderSpec(format="machine")
    scenario = Scenario("full", (SetRecoveryRate(1.0),))
    empty_categories = 0
    for index in range(N):
        account = random_valid_account(rng)
        economy = random_economy(rng)
        if index % 2:
            keep = rng.choice(("reverse_flow", "dissipative_flow"))
            economy = economy.replace(
                sectors=tuple(s for s in economy.sectors if s.category == keep)
            )
        categories = {s.category for s in economy.sectors}
        empty_categories += len(categories) < 2
        report = metric_suite(account)
        attribution = attribute_value(economy)
        result = apply_scenario(account, economy, scenario)
        comparison = (
            scenario.name,
            report,
            attribution,
            waste_share(account),
            result.report,
            result.attribution,
            waste_share(result.account),
        )
        texts = (
            render_metrics(report, spec),
            render_valuemap(attribution, spec, services_share=economy.services_share),
            render_scenario_comparison(*comparison, spec=spec),
        )
        for text in texts:
            for value in _machine_values(text):
                assert value == repr(float(value)), text

        places = places_rng.randint(0, 3)
        plain = RenderSpec(rounding=places)
        metrics, valuemap, scenario_values = (
            dict(line.split(" = ") for line in text.splitlines()) for text in texts
        )
        text = render_metrics(report, plain)
        (rows,) = _plain_tables(text)
        assert [row[0] for row in rows] == list(_METRIC_ROWS), text
        for label, rate, denominator in rows:
            rate_key, denominator_key = _METRIC_ROWS[label]
            assert rate == shown(metrics, rate_key, places), text
            assert denominator == shown(metrics, denominator_key, places), text

        text = render_valuemap(
            attribution, plain, account=account, services_share=economy.services_share
        )
        (rows,) = _plain_tables(text)
        assert [row[0] for row in rows] == list(_CATEGORY_ROWS), text
        assert f"({shown(valuemap, 'gdp', places)} GDP)" in text
        for label, mass, value, share in rows:
            category = _CATEGORY_ROWS[label]
            field = _CATEGORY_MASSES.get(category)
            assert mass == (format_mass(getattr(account, field), places) if field else "-")
            assert value == shown(valuemap, f"{category}_value", places), text
            assert share == shown(valuemap, f"{category}_share", places), text

        text = render_scenario_comparison(*comparison, spec=plain)
        rate_rows, value_rows = _plain_tables(text)
        stems = {label: rate_key for label, (rate_key, _) in _METRIC_ROWS.items()}
        stems["waste share of input"] = "waste_share"
        for label, category in _CATEGORY_ROWS.items():
            gdp_share = "waste_gdp_share" if category == "waste" else f"{category}_share"
            stems[f"{label} share of GDP"] = gdp_share
        assert [row[0] for row in rate_rows] == list(stems), text
        for label, before, after, delta in rate_rows:
            before_key, after_key = f"baseline_{stems[label]}", f"after_{stems[label]}"
            assert before == shown(scenario_values, before_key, places), text
            assert after == shown(scenario_values, after_key, places), text
            change = float(scenario_values[after_key]) - float(scenario_values[before_key])
            assert delta == format_percent_delta(change, places), text
        assert [row[0] for row in value_rows] == list(_CATEGORY_ROWS), text
        for label, before, after, delta in value_rows:
            before_key = f"baseline_{_CATEGORY_ROWS[label]}_value"
            after_key = f"after_{_CATEGORY_ROWS[label]}_value"
            assert before == shown(scenario_values, before_key, places), text
            assert after == shown(scenario_values, after_key, places), text
            change = float(scenario_values[after_key]) - float(scenario_values[before_key])
            money = format_money(change, places)
            assert delta == (money if money.startswith("-") else "+" + money), text
    assert empty_categories > N // 2


def _machine_pairs(text):
    """A machine report parsed back: its ``(key, float value)`` pairs, in order."""
    return [(key, float(value)) for key, value in (line.split(" = ") for line in text.splitlines())]


def _gdp_share_pairs(prefix, attribution):
    # in a comparison the waste GDP share is "<side>_waste_gdp_share", beside "<side>_waste_share"
    waste = "waste_gdp" if prefix else "waste"
    return [
        (f"{prefix}{waste if category == 'waste' else category}_share", share)
        for category, share in attribution.shares_by_category().items()
    ]


def _value_pairs(prefix, attribution):
    values = attribution.values_by_category()
    return [(f"{prefix}{category}_value", value) for category, value in values.items()]


RATE_KEYS = ("apparent", "dissipative_adjusted", "real_rate", "potential_ceiling")
DENOMINATORS = ("denominator_total", "denominator_recoverable", "denominator_annually_recoverable")


def test_machine_output_is_the_records_numbers_key_for_key():
    """Each machine report, parsed back, holds exactly what the records' own methods give.

    The renderers read each report and attribution once, through tables built
    at import; the oracle here reads ``rates()``, ``shares_by_category()``,
    ``values_by_category()`` and the waste shares instead, and the two must
    agree key for key, in order and with ``==``.  Economies include depletion
    years, ones with no reverse flow and rescaled ones.  Every ``*_share``
    property equals its entry of ``shares_by_category()``.
    """
    from circuflow.errors import StockDepletionWarning
    from circuflow.render import (
        RenderSpec,
        render_metrics,
        render_scenario_comparison,
        render_valuemap,
    )
    from support import scale_economy

    rng = random.Random(126)
    spec = RenderSpec(format="machine")
    for index in range(N):
        account = random_valid_account(rng)
        economy = random_economy(rng)
        kind = ("plain", "depletion", "no_reverse_flow", "scaled")[index % 4]
        if kind == "depletion":
            economy = economy.replace(gfcf_rate=economy.cfc_rate, cfc_rate=economy.gfcf_rate)
        elif kind == "no_reverse_flow":
            sectors = tuple(s for s in economy.sectors if s.category != "reverse_flow")
            economy = economy.replace(sectors=sectors)
        elif kind == "scaled":
            economy = scale_economy(economy, 10.0 ** rng.uniform(-6.0, 6.0))
        if rng.random() < 0.5:
            economy = economy.replace(services_share=rng.random())
        scenario = Scenario("step", (SetRecoveryRate(rng.random()),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StockDepletionWarning)
            attribution = attribute_value(economy)
            result = apply_scenario(account, economy, scenario)
        report = metric_suite(account)
        if kind == "depletion":
            assert attribution.stock_addition_share < 0.0, economy
        elif kind == "no_reverse_flow":
            assert attribution.reverse_flow_share == 0.0, economy

        for record in (attribution, result.attribution):
            shares = record.shares_by_category()
            for category, share in shares.items():
                assert getattr(record, f"{category}_share") == share, (record, category)

        expected = [*report.rates().items(), *((key, getattr(report, key)) for key in DENOMINATORS)]
        assert _machine_pairs(render_metrics(report, spec)) == expected

        expected = [
            ("gdp", attribution.gdp),
            *_value_pairs("", attribution),
            *_gdp_share_pairs("", attribution),
        ]
        if economy.services_share is not None:
            expected.append(("services_share", economy.services_share))
        text = render_valuemap(attribution, spec, services_share=economy.services_share)
        assert _machine_pairs(text) == expected

        sides = (
            ("baseline_", report, attribution, waste_share(account)),
            ("after_", result.report, result.attribution, waste_share(result.account)),
        )
        # rates interleave the two sides; GDP shares and values are grouped by side
        expected = [
            (f"{side}{key}", rates.rates()[key]) for key in RATE_KEYS for side, rates, _, _ in sides
        ]
        expected += [(f"{side}waste_share", share) for side, _, _, share in sides]
        expected += [pair for side, _, value, _ in sides for pair in _gdp_share_pairs(side, value)]
        expected += [pair for side, _, value, _ in sides for pair in _value_pairs(side, value)]
        numbers = [number for side in sides for number in side[1:]]
        text = render_scenario_comparison("step", *numbers, notes=result.notes, spec=spec)
        assert _machine_pairs(text) == expected


def test_adversarial_names_are_rejected_or_round_trip():
    from circuflow.documents import (
        parse_economy,
        parse_scenario,
        render_economy,
        render_scenario,
    )

    plain = "aZ7 =\xe9\x1f\xa0\ufeff"
    hostile = ",#\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\u3000 "
    rng = random.Random(120)
    rejected = kept = 0
    for _ in range(N):
        name = "".join(rng.choice(plain) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.5:
            at = rng.randint(0, len(name))
            name = name[:at] + rng.choice(hostile) + name[at:]
        try:
            sector = SectorValue(name, 1.0, "reverse_flow")
        except ValueError:
            rejected += 1
        else:
            kept += 1
            economy = EconomicAccount(year=2020, gdp=86.0, gfcf_rate=0.26, sectors=(sector,))
            assert parse_economy(render_economy(economy)) == economy, repr(name)
        try:
            scenario = Scenario(name, (SetRecoveryRate(0.5),))
        except ValueError:
            rejected += 1
        else:
            kept += 1
            assert parse_scenario(render_scenario(scenario)) == scenario, repr(name)
    assert rejected > N // 4 and kept > N // 4
