"""Procedural seed-company corpus (Crunchbase-export substitute).

The paper seeds its synthetic benchmark with the first 200K records of the
Crunchbase Basic Export (name, city, region, country_code,
short_description).  That export is licensed, so this module generates an
equivalent corpus procedurally from the word banks in
:mod:`repro.datagen.vocab`.  Names are built so that many companies share
industry / technology / geography tokens, which recreates the main source of
false-positive pressure the paper describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Iterator

from repro.datagen import vocab


@dataclass(frozen=True)
class SeedCompany:
    """One seed entity before any data-artifact perturbation.

    Mirrors the attributes extracted from Crunchbase in Section 3.2 plus the
    industry sector, which the description templates reference.
    """

    entity_id: str
    name: str
    city: str
    region: str
    country_code: str
    description: str
    industry: str

    def as_attributes(self) -> dict[str, str]:
        return {
            "name": self.name,
            "city": self.city,
            "region": self.region,
            "country_code": self.country_code,
            "description": self.description,
            "industry": self.industry,
        }


def _make_name(rng: random.Random, used_names: set[str]) -> str:
    """Compose a company name; collisions are retried with more tokens."""
    for attempt in range(20):
        root = rng.choice(vocab.BRAND_ROOTS)
        style = rng.random()
        if style < 0.35:
            # Two brand roots fused ("CrowdStrike", "CloudStream").
            second = rng.choice(vocab.BRAND_ROOTS)
            base = f"{root}{second}" if rng.random() < 0.5 else f"{root} {second}"
        elif style < 0.80:
            # Brand root + industry term ("Acme Analytics").
            term = rng.choice(vocab.INDUSTRY_TERMS)
            base = f"{root} {term}"
        else:
            # Brand root + two industry terms ("Nova Data Systems").
            first = rng.choice(vocab.INDUSTRY_TERMS)
            second = rng.choice(vocab.INDUSTRY_TERMS)
            while second == first:
                second = rng.choice(vocab.INDUSTRY_TERMS)
            base = f"{root} {first} {second}"

        # A corporate suffix on roughly half the names.
        if rng.random() < 0.5:
            base = f"{base} {rng.choice(vocab.CORPORATE_SUFFIXES)}"

        if attempt >= 10:
            # Very unlucky: disambiguate explicitly rather than loop forever.
            base = f"{base} {rng.randint(2, 99)}"
        if base.lower() not in used_names:
            used_names.add(base.lower())
            return base
    raise RuntimeError("unable to generate a unique company name")


def _make_description(rng: random.Random, name: str, city: str, sector: str) -> str:
    template = rng.choice(vocab.DESCRIPTION_TEMPLATES)
    return template.format(
        name=name,
        city=city,
        sector=sector,
        offer=rng.choice(vocab.OFFERS),
        audience=rng.choice(vocab.AUDIENCES),
        adjective=rng.choice(vocab.ADJECTIVES),
        benefit=rng.choice(vocab.BENEFITS),
    )


def iter_seed_companies(
    num_companies: int,
    seed: int = 0,
    description_probability: float = 0.32,
) -> Iterator[SeedCompany]:
    """Yield ``num_companies`` seed companies deterministically.

    ``description_probability`` controls the share of companies with a text
    description (32% for the synthetic companies dataset in Table 1); the
    remaining companies get an empty description, which is an important
    missing-data challenge for text-alignment matching.
    """
    if num_companies < 0:
        raise ValueError("num_companies must be non-negative")
    if not 0.0 <= description_probability <= 1.0:
        raise ValueError("description_probability must be in [0, 1]")

    rng = random.Random(seed)
    used_names: set[str] = set()
    for index in range(num_companies):
        name = _make_name(rng, used_names)
        city, region, country = rng.choice(vocab.CITIES)
        sector = rng.choice(vocab.INDUSTRY_SECTORS)
        if rng.random() < description_probability:
            description = _make_description(rng, name, city, sector)
        else:
            description = ""
        yield SeedCompany(
            entity_id=f"E{index:06d}",
            name=name,
            city=city,
            region=region,
            country_code=country,
            description=description,
            industry=sector,
        )

