"""Text normalisation for company, security and product records.

Company names appear with a lot of incidental variation across data sources
("Microsoft Corporation", "MICROSOFT CORP.", "Microsoft corp"), most of which
is orthographic rather than semantic.  Normalisation lower-cases, collapses
whitespace, strips punctuation and optionally removes corporate suffix terms
so that downstream similarity measures and the Token Overlap blocking compare
the informative part of the names.
"""

from __future__ import annotations

import re
import unicodedata

# Corporate suffixes and legal-form terms that carry no entity identity.  The
# InsertCorporateTerm data artifact draws from the same list, so the matcher
# and the generator agree on what counts as "noise".
CORPORATE_TERMS: tuple[str, ...] = (
    "inc",
    "incorporated",
    "corp",
    "corporation",
    "ltd",
    "limited",
    "llc",
    "plc",
    "gmbh",
    "ag",
    "sa",
    "nv",
    "co",
    "company",
    "holdings",
    "holding",
    "group",
    "international",
    "technologies",
    "solutions",
    "partners",
    "ventures",
)

#: Pure legal-form suffixes (a strict subset of :data:`CORPORATE_TERMS`);
#: acronyms ignore these but keep informative words such as "Holdings".
LEGAL_SUFFIXES: tuple[str, ...] = (
    "inc", "incorporated", "corp", "corporation", "ltd", "limited", "llc",
    "plc", "gmbh", "ag", "sa", "nv", "co",
)

_PUNCTUATION_RE = re.compile(r"[^\w\s]")
_WHITESPACE_RE = re.compile(r"\s+")


def normalize_text(text: str | None, strip_punctuation: bool = True) -> str:
    """Return a canonical lower-case form of ``text``.

    ``None`` and empty values normalise to the empty string so callers can
    treat missing attributes uniformly.  Unicode is NFKD-decomposed and
    accents removed because data sources romanise names inconsistently.
    """
    if not text:
        return ""
    decomposed = unicodedata.normalize("NFKD", text)
    ascii_text = decomposed.encode("ascii", "ignore").decode("ascii")
    lowered = ascii_text.lower()
    if strip_punctuation:
        lowered = _PUNCTUATION_RE.sub(" ", lowered)
    return _WHITESPACE_RE.sub(" ", lowered).strip()


def strip_corporate_terms(name: str | None) -> str:
    """Remove corporate suffix terms from a (normalised) company name.

    The result keeps the original word order of the remaining tokens.  If
    stripping would leave nothing (e.g. the name is literally "Holdings
    Inc."), the normalised name is returned unchanged so that records never
    end up with an empty key.
    """
    return drop_corporate_terms(normalize_text(name))


def drop_corporate_terms(normalized: str) -> str:
    """:func:`strip_corporate_terms` of a name already through
    :func:`normalize_text`, which leaves its output unchanged, so this
    skips normalising it a second time."""
    if not normalized:
        return ""
    kept = [token for token in normalized.split() if token not in CORPORATE_TERMS]
    if not kept:
        return normalized
    return " ".join(kept)


def acronym_of(name: str | None) -> str:
    """Build the acronym of a company name (first letter of each word).

    Legal-form suffixes are ignored ("Advanced Micro Devices Inc" becomes
    "amd") but informative words such as "Holdings" are kept ("Crowdstrike
    Holdings" becomes "ch").  When stripping removes every token the full
    normalised name is used instead, so the result is never empty for a
    non-empty input.
    """
    normalized = normalize_text(name)
    tokens = [token for token in normalized.split() if token not in LEGAL_SUFFIXES]
    if not tokens:
        tokens = normalized.split()
    if not tokens:
        return ""
    return "".join(token[0] for token in tokens)


def normalize_identifier(value: str | None) -> str:
    """Canonicalise an identifier (ISIN/CUSIP/...): upper-case, no separators."""
    if not value:
        return ""
    return re.sub(r"[\s\-./]", "", value).upper()
