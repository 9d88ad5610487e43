"""Tests for tokenisation and the trainable vocabulary."""

import pytest

from repro.text import Vocabulary, char_ngrams, word_tokenize
from repro.text.tokenize import CLS_TOKEN, PAD_TOKEN, SEP_TOKEN, SPECIAL_TOKENS


class TestWordTokenize:
    def test_basic(self):
        assert word_tokenize("Crowdstrike Holdings, Inc.") == [
            "crowdstrike",
            "holdings",
            "inc",
        ]

    def test_none(self):
        assert word_tokenize(None) == []

    def test_runs_of_whitespace_split_once(self):
        assert word_tokenize("  A \t B\n") == ["a", "b"]


class TestCharNgrams:
    def test_trigram_count(self):
        grams = char_ngrams("abcd", n=3)
        # "#abcd#" has length 6 -> 4 trigrams
        assert grams == ["#ab", "abc", "bcd", "cd#"]

    def test_short_text_single_gram(self):
        assert char_ngrams("ab", n=5) == ["#ab#"]

    def test_empty(self):
        assert char_ngrams("", n=3) == []
        assert char_ngrams(None, n=3) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            char_ngrams("abc", n=0)

    def test_no_padding(self):
        assert char_ngrams("abcd", n=3, pad=False) == ["abc", "bcd"]


class TestVocabulary:
    def test_special_tokens_present(self):
        vocab = Vocabulary().fit(["hello world"])
        for token in SPECIAL_TOKENS:
            assert token in vocab

    def test_fit_learns_words(self):
        vocab = Vocabulary().fit(["crowdstrike holdings", "crowdstrike platforms"])
        assert "crowdstrike" in vocab
        assert vocab.token_id("crowdstrike") != vocab.unk_id

    def test_unknown_word_falls_back_to_subwords_or_unk(self):
        vocab = Vocabulary().fit(["alpha beta gamma"])
        ids = vocab.encode_word("zzzzqqqq")
        assert ids  # never empty
        assert all(isinstance(i, int) for i in ids)

    def test_encode_adds_cls_and_sep(self):
        vocab = Vocabulary().fit(["a b c"])
        ids = vocab.encode(["a", "b"])
        assert ids[0] == vocab.cls_id
        assert ids[-1] == vocab.sep_id

    def test_encode_respects_max_length(self):
        vocab = Vocabulary().fit(["one two three four five six"])
        ids = vocab.encode(["one"] * 100, max_length=16)
        assert len(ids) == 16
        assert ids[-1] == vocab.sep_id

    def test_encode_handles_special_tokens_inline(self):
        vocab = Vocabulary().fit(["a b"])
        ids = vocab.encode(["a", SEP_TOKEN, "b"], add_special_tokens=False)
        assert vocab.sep_id in ids

    def test_pad_extends_and_truncates(self):
        vocab = Vocabulary().fit(["x"])
        assert vocab.pad([5, 6], 4) == [5, 6, vocab.pad_id, vocab.pad_id]
        assert vocab.pad([1, 2, 3, 4, 5], 3) == [1, 2, 3]

    def test_max_size_limit(self):
        texts = [f"word{i}" for i in range(100)]
        vocab = Vocabulary(max_size=20).fit(texts)
        assert len(vocab) <= 20

    def test_max_size_too_small_raises(self):
        with pytest.raises(ValueError):
            Vocabulary(max_size=3)

    def test_ids_round_trip(self):
        vocab = Vocabulary().fit(["alpha beta"])
        idx = vocab.token_id("alpha")
        assert vocab.id_to_token(idx) == "alpha"

    def test_pad_and_cls_are_distinct(self):
        vocab = Vocabulary().fit(["a"])
        assert vocab.pad_id != vocab.cls_id
        assert vocab.token_id(PAD_TOKEN) == vocab.pad_id
        assert vocab.token_id(CLS_TOKEN) == vocab.cls_id
