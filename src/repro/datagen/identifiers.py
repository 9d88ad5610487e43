"""Financial identifier standards: generation and validation.

Securities records carry identifiers from several (inter)national standards
(Section 3.1, footnote 4).  The ID Overlap blocking and several data
artifacts manipulate them, so we implement the real formats including their
check-digit algorithms:

* **ISIN** — 2-letter country code + 9 alphanumeric characters + 1 check
  digit computed with the "double-add-double" Luhn variant over the digitised
  string.
* **CUSIP** — 8 alphanumeric characters + 1 check digit (modulus 10,
  alternating weights 1/2 on digitised characters).
* **SEDOL** — 6 alphanumeric characters (no vowels) + 1 weighted check digit
  (weights 1, 3, 1, 7, 3, 9).
* **VALOR** — Swiss numeric identifier, no check digit.
* **Ticker** — exchange ticker symbols (no checksum).
"""

from __future__ import annotations

import random
import string
from collections.abc import Sequence

_ALPHANUM = string.digits + string.ascii_uppercase
_SEDOL_ALPHABET = "0123456789BCDFGHJKLMNPQRSTVWXYZ"  # no vowels by standard
_SEDOL_WEIGHTS = (1, 3, 1, 7, 3, 9, 1)

ISIN_COUNTRY_CODES: tuple[str, ...] = (
    "US", "GB", "DE", "FR", "CH", "JP", "CA", "AU", "NL", "SE", "ES", "IT",
)


def _char_value(character: str) -> int:
    """Map an alphanumeric character to its numeric value (A=10 … Z=35)."""
    if character.isdigit():
        return int(character)
    return ord(character.upper()) - ord("A") + 10


def _digitise(text: str) -> list[int]:
    """Expand alphanumeric text into the digit sequence used by ISIN/CUSIP."""
    digits: list[int] = []
    for character in text:
        value = _char_value(character)
        if value >= 10:
            digits.extend(divmod(value, 10))
        else:
            digits.append(value)
    return digits


# --------------------------------------------------------------------------
# ISIN
# --------------------------------------------------------------------------

def isin_check_digit(body: str) -> int:
    """Check digit for an 11-character ISIN body (country code + 9 chars)."""
    if len(body) != 11:
        raise ValueError("ISIN body must be 11 characters (2 country + 9 NSIN)")
    digits = _digitise(body)
    # Double every second digit starting from the rightmost.
    total = 0
    for position, digit in enumerate(reversed(digits)):
        if position % 2 == 0:
            doubled = digit * 2
            total += doubled - 9 if doubled > 9 else doubled
        else:
            total += digit
    return (10 - total % 10) % 10


def make_isin(rng: random.Random, country: str | None = None) -> str:
    """Generate a structurally valid ISIN."""
    country_code = country or rng.choice(ISIN_COUNTRY_CODES)
    nsin = "".join(rng.choice(_ALPHANUM) for _ in range(9))
    body = country_code + nsin
    return body + str(isin_check_digit(body))


def is_valid_isin(value: str | None) -> bool:
    """Validate length, character set, country code format and check digit."""
    if not value or len(value) != 12:
        return False
    country, nsin, check = value[:2], value[2:11], value[11]
    if not country.isalpha() or not country.isupper():
        return False
    if not all(ch in _ALPHANUM for ch in nsin):
        return False
    if not check.isdigit():
        return False
    return isin_check_digit(value[:11]) == int(check)


# --------------------------------------------------------------------------
# CUSIP
# --------------------------------------------------------------------------

def cusip_check_digit(body: str) -> int:
    """Check digit over the first 8 CUSIP characters."""
    if len(body) != 8:
        raise ValueError("CUSIP body must be 8 characters")
    total = 0
    for index, character in enumerate(body):
        value = _char_value(character)
        if index % 2 == 1:
            value *= 2
        total += value // 10 + value % 10
    return (10 - total % 10) % 10


def make_cusip(rng: random.Random) -> str:
    body = "".join(rng.choice(_ALPHANUM) for _ in range(8))
    return body + str(cusip_check_digit(body))


def is_valid_cusip(value: str | None) -> bool:
    if not value or len(value) != 9:
        return False
    body, check = value[:8], value[8]
    if not all(ch in _ALPHANUM for ch in body) or not check.isdigit():
        return False
    return cusip_check_digit(body) == int(check)


# --------------------------------------------------------------------------
# SEDOL
# --------------------------------------------------------------------------

def sedol_check_digit(body: str) -> int:
    """Weighted check digit over the first 6 SEDOL characters."""
    if len(body) != 6:
        raise ValueError("SEDOL body must be 6 characters")
    total = sum(
        _char_value(character) * weight
        for character, weight in zip(body, _SEDOL_WEIGHTS)
    )
    return (10 - total % 10) % 10


def make_sedol(rng: random.Random) -> str:
    body = "".join(rng.choice(_SEDOL_ALPHABET) for _ in range(6))
    return body + str(sedol_check_digit(body))


def is_valid_sedol(value: str | None) -> bool:
    if not value or len(value) != 7:
        return False
    body, check = value[:6], value[6]
    if not all(ch in _SEDOL_ALPHABET for ch in body) or not check.isdigit():
        return False
    return sedol_check_digit(body) == int(check)


# --------------------------------------------------------------------------
# VALOR / tickers
# --------------------------------------------------------------------------

def make_valor(rng: random.Random) -> str:
    """Swiss VALOR number: 6-9 digits, no check digit."""
    length = rng.randint(6, 9)
    first = rng.choice("123456789")
    rest = "".join(rng.choice(string.digits) for _ in range(length - 1))
    return first + rest


def is_valid_valor(value: str | None) -> bool:
    return bool(value) and value.isdigit() and 6 <= len(value) <= 9


def make_ticker(rng: random.Random, name: str | None = None) -> str:
    """Generate a plausible exchange ticker, biased toward the company name."""
    if name:
        letters = [ch for ch in name.upper() if ch.isalpha()]
        if len(letters) >= 3:
            length = rng.randint(3, min(4, len(letters)))
            return "".join(letters[:length])
    length = rng.randint(3, 4)
    return "".join(rng.choice(string.ascii_uppercase) for _ in range(length))


# --------------------------------------------------------------------------
# Identifier bundles
# --------------------------------------------------------------------------

SECURITY_ID_FIELDS: tuple[str, ...] = ("isin", "cusip", "sedol", "valor")


def make_security_identifiers(rng: random.Random) -> dict[str, str]:
    """Generate a consistent bundle of identifiers for one security."""
    return {
        "isin": make_isin(rng),
        "cusip": make_cusip(rng),
        "sedol": make_sedol(rng),
        "valor": make_valor(rng),
    }


def corrupt_identifier(rng: random.Random, value: str) -> str:
    """Return a slightly corrupted copy of ``value`` (one character changed).

    Used by artifacts that simulate typos in manually curated identifiers;
    the result usually fails check-digit validation, which is realistic.
    """
    if not value:
        return value
    position = rng.randrange(len(value))
    current = value[position]
    alphabet = string.digits if current.isdigit() else _ALPHANUM
    replacement = rng.choice([ch for ch in alphabet if ch != current])
    return value[:position] + replacement + value[position + 1:]


def identifier_overlap(left: dict[str, str | None], right: dict[str, str | None],
                       fields: Sequence[str] = SECURITY_ID_FIELDS) -> set[str]:
    """Return the identifier fields on which two records agree (non-empty)."""
    overlap = set()
    for field in fields:
        left_value = left.get(field)
        if left_value and left_value == right.get(field):
            overlap.add(field)
    return overlap
