"""Shared test plumbing: reference records, paths, random generators.

The oracles themselves live next to the tests that use them, written
fresh from raw fields; only construction helpers are shared.
"""

from __future__ import annotations

import random
from pathlib import Path

from circuflow import EconomicAccount, MaterialFlowAccount, SectorValue
from circuflow.accounts import MASS_FIELDS

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
SCENARIO_DIR = REPO_ROOT / "scenarios"

ACCOUNT_PATH = DATA_DIR / "global_2020.account"
ECONOMY_PATH = DATA_DIR / "global_2020.economy"
FULL_RECOVERY_PATH = SCENARIO_DIR / "full_recovery.scenario"
WASTE_DIVERSION_PATH = SCENARIO_DIR / "waste_diversion.scenario"


def reference_account(**overrides) -> MaterialFlowAccount:
    """The 2020 global account: 104 = 40 + 64, outputs 45 + 25 + 31."""
    fields = dict(
        year=2020,
        total_input=104.0,
        energetic_input=40.0,
        structural_input=64.0,
        recycled_input=9.0,
        emissions_output=45.0,
        waste_output=25.0,
        net_stock_additions=31.0,
    )
    fields.update(overrides)
    return MaterialFlowAccount(**fields)


def reference_economy(**overrides) -> EconomicAccount:
    """The 2020 global economy: $86T GDP, 26%/13% GFCF/CFC, $1.2T + $15T sectors."""
    fields = dict(
        year=2020,
        gdp=86.0,
        gfcf_rate=0.26,
        cfc_rate=0.13,
        sectors=(
            SectorValue("waste_management", 1.2, "reverse_flow"),
            SectorValue("fossil_energy", 6.0, "dissipative_flow"),
            SectorValue("agriculture_food", 4.5, "dissipative_flow"),
            SectorValue("chemicals_industrial_materials", 4.5, "dissipative_flow"),
        ),
        services_share=0.65,
    )
    fields.update(overrides)
    return EconomicAccount(**fields)


def random_valid_account(rng: random.Random, year: int = 2020) -> MaterialFlowAccount:
    """A random account guaranteed to pass validation.

    Also guaranteed saturable: the recovery increase needed to reach 100%
    of the annually recoverable pool fits inside the waste bin, and the
    recycled flow never exceeds the pool (real rate stays in [0, 1]).
    """
    total = rng.uniform(1.0, 500.0)
    energetic = rng.uniform(0.05, 0.8) * total
    structural = total - energetic
    stock_additions = rng.uniform(0.0, 0.9) * structural
    residual_target = rng.uniform(-0.04, 0.04) * total
    outputs = total - residual_target
    emissions = rng.uniform(0.0, 1.0) * (outputs - stock_additions)
    waste = outputs - stock_additions - emissions
    pool = structural - stock_additions
    recycled = rng.uniform(max(0.0, pool - waste), pool)
    return MaterialFlowAccount(
        year=year,
        total_input=total,
        energetic_input=energetic,
        structural_input=structural,
        recycled_input=recycled,
        emissions_output=emissions,
        waste_output=waste,
        net_stock_additions=stock_additions,
    )


def random_economy(rng: random.Random, year: int = 2020) -> EconomicAccount:
    """A random, non-depleting economy that never over-attributes."""
    gdp = rng.uniform(1.0, 200.0)
    gfcf = rng.uniform(0.0, 0.5)
    cfc = rng.uniform(0.0, gfcf)
    budget = (1.0 - (gfcf - cfc)) * gdp
    count = rng.randint(0, 5)
    sectors = []
    if count:
        weights = [rng.random() for _ in range(count)]
        total_weight = sum(weights) or 1.0
        total_value = rng.uniform(0.0, 0.9) * budget
        for index, weight in enumerate(weights):
            sectors.append(
                SectorValue(
                    name=f"sector_{index}",
                    value=weight / total_weight * total_value,
                    category=rng.choice(("reverse_flow", "dissipative_flow")),
                )
            )
    return EconomicAccount(
        year=year, gdp=gdp, gfcf_rate=gfcf, cfc_rate=cfc, sectors=tuple(sectors)
    )


def scale_account(account: MaterialFlowAccount, factor: float) -> MaterialFlowAccount:
    """Multiply every mass field by ``factor`` (year and tolerance untouched)."""
    return account.replace(**{name: getattr(account, name) * factor for name in MASS_FIELDS})


def scale_economy(economy: EconomicAccount, factor: float) -> EconomicAccount:
    """Multiply GDP and every sector value by ``factor`` (rates untouched)."""
    return EconomicAccount(
        year=economy.year,
        gdp=economy.gdp * factor,
        gfcf_rate=economy.gfcf_rate,
        cfc_rate=economy.cfc_rate,
        sectors=tuple(
            SectorValue(s.name, s.value * factor, s.category)
            for s in economy.sectors
        ),
        services_share=economy.services_share,
    )


def reference_steps(fields: dict, sector_values: list, categories: list, steps: list) -> tuple:
    """Apply scenario steps to plain dicts, one op at a time, as docs/file-formats.md defines them.

    ``steps`` are ``(op, parameter)`` pairs as a scenario document writes
    them.  Returns ``(index, None, None)`` for the first step whose
    precondition fails, else ``(None, masses, sector_values)``.  Each new
    value is computed the way the op is worded, so results compare with ``==``.
    """
    mass = dict(fields)
    original_values = list(sector_values)
    values = list(sector_values)
    for index, (op, parameter) in enumerate(steps):
        if op == "set_recovery_rate":
            # recycled becomes f x (total - energetic - stock additions); the change leaves waste
            pool = mass["total_input"] - mass["energetic_input"] - mass["net_stock_additions"]
            recycled = parameter * pool
            waste = mass["waste_output"] - (recycled - mass["recycled_input"])
            if waste < 0:
                return index, None, None
            mass["recycled_input"], mass["waste_output"] = recycled, waste
        elif op == "divert_waste_to_stock":
            # f x waste moves into stock additions, which may not pass structural input;
            # recycled may not pass the pool left (total - energetic - stock) by over float dust
            moved = parameter * mass["waste_output"]
            stock = mass["net_stock_additions"] + moved
            pool = mass["total_input"] - mass["energetic_input"] - stock
            dust = 1e-9 * max(mass["total_input"], 1.0)
            if stock > mass["structural_input"] or mass["recycled_input"] - pool > dust:
                return index, None, None
            mass["waste_output"] -= moved
            mass["net_stock_additions"] = stock
        elif op == "replace_energetic_with_stock":
            # f x energetic becomes structural input added to stocks
            moved = parameter * mass["energetic_input"]
            mass["energetic_input"] -= moved
            mass["structural_input"] += moved
            mass["net_stock_additions"] += moved
        else:
            # on: reverse-flow values from their originals x current / original recycled
            if parameter == "on" and fields["recycled_input"] <= 0:
                return index, None, None
            factor = mass["recycled_input"] / fields["recycled_input"] if parameter == "on" else 1.0
            values = [
                original * factor if category == "reverse_flow" else value
                for value, original, category in zip(values, original_values, categories)
            ]
    return None, mass, values
