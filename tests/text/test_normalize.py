"""Tests for text normalisation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import normalize_text, strip_corporate_terms
from repro.text.normalize import acronym_of, drop_corporate_terms, normalize_identifier


class TestNormalizeText:
    def test_lowercases(self):
        assert normalize_text("MicroSoft") == "microsoft"

    def test_none_and_empty(self):
        assert normalize_text(None) == ""
        assert normalize_text("") == ""

    def test_strips_punctuation(self):
        assert normalize_text("Crowd-Strike, Inc.") == "crowd strike inc"

    def test_collapses_whitespace(self):
        assert normalize_text("  a   b \t c ") == "a b c"

    def test_removes_accents(self):
        assert normalize_text("Société Générale") == "societe generale"

    def test_keep_punctuation_option(self):
        assert normalize_text("A.B.C", strip_punctuation=False) == "a.b.c"


class TestStripCorporateTerms:
    def test_strips_suffixes(self):
        assert strip_corporate_terms("Crowdstrike Holdings Inc") == "crowdstrike"

    def test_keeps_informative_tokens(self):
        assert strip_corporate_terms("Acme Data Systems Ltd") == "acme data systems"

    def test_all_corporate_terms_returns_normalized_name(self):
        assert strip_corporate_terms("Holdings Inc") == "holdings inc"

    def test_empty_input(self):
        assert strip_corporate_terms("") == ""
        assert strip_corporate_terms(None) == ""


class TestAcronym:
    def test_basic_acronym(self):
        assert acronym_of("Advanced Micro Devices Inc") == "amd"

    def test_single_word(self):
        assert acronym_of("Crowdstrike") == "c"

    def test_empty(self):
        assert acronym_of("") == ""


class TestNormalizeIdentifier:
    def test_uppercases_and_strips_separators(self):
        assert normalize_identifier("us-0378 3310.0005") == "US03783310 0005".replace(" ", "")

    def test_none(self):
        assert normalize_identifier(None) == ""


@given(st.one_of(st.text(), st.text("Inc. ltd HOLDINGS ag Corp- \t\u00e9\u0130\u00df1_")))
@settings(max_examples=300, deadline=None)
def test_normalised_text_is_a_fixed_point_and_strips_the_same(text):
    # Profiling strips corporate terms from the name it already normalised.
    normalized = normalize_text(text)
    assert normalize_text(normalized) == normalized
    assert drop_corporate_terms(normalized) == strip_corporate_terms(text)
