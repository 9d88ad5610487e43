"""Tests for financial identifier generation and validation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.identifiers import (
    SECURITY_ID_FIELDS,
    corrupt_identifier,
    cusip_check_digit,
    identifier_overlap,
    is_valid_cusip,
    is_valid_isin,
    is_valid_sedol,
    is_valid_valor,
    isin_check_digit,
    make_cusip,
    make_isin,
    make_security_identifiers,
    make_sedol,
    make_ticker,
    make_valor,
    sedol_check_digit,
)

seeds = st.integers(min_value=0, max_value=10_000)


class TestIsin:
    def test_known_real_isins_validate(self):
        # Real ISINs: Apple, Microsoft, Nestlé.
        assert is_valid_isin("US0378331005")
        assert is_valid_isin("US5949181045")
        assert is_valid_isin("CH0038863350")

    def test_corrupted_real_isin_fails(self):
        assert not is_valid_isin("US0378331006")

    def test_wrong_length(self):
        assert not is_valid_isin("US037833100")
        assert not is_valid_isin(None)
        assert not is_valid_isin("")

    def test_lowercase_country_rejected(self):
        assert not is_valid_isin("us0378331005")

    def test_check_digit_of_a_known_body(self):
        assert isin_check_digit("US037833100") == 5
        assert isin_check_digit("CH003886335") == 0

    def test_check_digit_requires_11_chars(self):
        with pytest.raises(ValueError):
            isin_check_digit("US03783310")

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_generated_isins_are_valid(self, seed):
        assert is_valid_isin(make_isin(random.Random(seed)))

    def test_country_override(self):
        isin = make_isin(random.Random(0), country="CH")
        assert isin.startswith("CH")
        assert is_valid_isin(isin)


class TestCusip:
    def test_known_real_cusips_validate(self):
        # Apple and Cisco CUSIPs.
        assert is_valid_cusip("037833100")
        assert is_valid_cusip("17275R102")

    def test_corrupted_fails(self):
        assert not is_valid_cusip("037833101")

    def test_check_digit_of_a_known_body(self):
        assert cusip_check_digit("03783310") == 0
        assert cusip_check_digit("17275R10") == 2

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_generated_cusips_are_valid(self, seed):
        assert is_valid_cusip(make_cusip(random.Random(seed)))

    def test_wrong_length(self):
        assert not is_valid_cusip("03783310")
        assert not is_valid_cusip(None)


class TestSedol:
    def test_known_real_sedol_validates(self):
        assert is_valid_sedol("0263494")  # BAE Systems

    def test_corrupted_fails(self):
        assert not is_valid_sedol("0263495")

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_generated_sedols_are_valid(self, seed):
        assert is_valid_sedol(make_sedol(random.Random(seed)))

    def test_vowels_rejected(self):
        assert not is_valid_sedol("A263494")

    def test_check_digit_of_a_known_body(self):
        assert sedol_check_digit("026349") == 4

    def test_wrong_length(self):
        assert not is_valid_sedol("026349")
        assert not is_valid_sedol("02634940")
        assert not is_valid_sedol(None)


class TestValor:
    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_generated_valors_are_valid(self, seed):
        assert is_valid_valor(make_valor(random.Random(seed)))

    def test_valor_rejects_non_numeric(self):
        assert not is_valid_valor("ABC123")
        assert not is_valid_valor("12")

    def test_six_to_nine_digits(self):
        assert is_valid_valor("123456")
        assert is_valid_valor("123456789")
        assert not is_valid_valor("12345")
        assert not is_valid_valor("1234567890")
        assert not is_valid_valor(None)
        assert not is_valid_valor("")

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_generated_valors_have_no_leading_zero(self, seed):
        assert make_valor(random.Random(seed))[0] != "0"


class TestTicker:
    def test_derived_from_name(self):
        ticker = make_ticker(random.Random(0), "Crowdstrike")
        assert ticker.isupper()
        assert 3 <= len(ticker) <= 4
        assert ticker.startswith("CRO")

    def test_without_name(self):
        ticker = make_ticker(random.Random(0))
        assert ticker.isalpha()
        assert 3 <= len(ticker) <= 4


class TestBundlesAndHelpers:
    def test_bundle_has_all_fields(self):
        bundle = make_security_identifiers(random.Random(1))
        assert set(bundle) == set(SECURITY_ID_FIELDS)
        assert is_valid_isin(bundle["isin"])
        assert is_valid_cusip(bundle["cusip"])
        assert is_valid_sedol(bundle["sedol"])
        assert is_valid_valor(bundle["valor"])

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_corrupt_identifier_changes_value(self, seed):
        rng = random.Random(seed)
        original = make_isin(rng)
        corrupted = corrupt_identifier(rng, original)
        assert corrupted != original
        assert len(corrupted) == len(original)

    def test_corrupt_empty_identifier_is_noop(self):
        assert corrupt_identifier(random.Random(0), "") == ""

    def test_identifier_overlap(self):
        left = {"isin": "A", "cusip": "B", "sedol": None, "valor": "9"}
        right = {"isin": "A", "cusip": "C", "sedol": None, "valor": ""}
        assert identifier_overlap(left, right) == {"isin"}

    def test_identifier_overlap_over_chosen_fields(self):
        left = {"isin": "A", "cusip": "B", "ticker": "T"}
        right = {"isin": "A", "cusip": "B", "ticker": "T"}
        assert identifier_overlap(left, right, fields=("cusip", "ticker")) == {
            "cusip", "ticker",
        }

    def test_identifier_overlap_ignores_empty(self):
        left = {"isin": None, "cusip": "", "sedol": "X", "valor": "1"}
        right = {"isin": None, "cusip": "", "sedol": "Y", "valor": "2"}
        assert identifier_overlap(left, right) == set()

    def test_generation_is_deterministic(self):
        assert make_isin(random.Random(42)) == make_isin(random.Random(42))
