"""Text substrate: normalisation, tokenisation, similarity and vectorisation.

The pairwise matchers and the Token Overlap blocking both operate on
serialised, tokenised record text.  This subpackage provides everything the
paper's DistilBERT / DITTO setups take from the HuggingFace stack, rebuilt on
plain Python + numpy:

* :mod:`repro.text.normalize` — lower-casing, punctuation handling, corporate
  suffix normalisation,
* :mod:`repro.text.tokenize` — word and character n-gram tokenisers plus a
  trainable :class:`~repro.text.tokenize.Vocabulary`,
* :mod:`repro.text.similarity` — classic string similarity measures,
* :mod:`repro.text.batch_similarity` — the same measures as batched numpy
  kernels over packed codepoint matrices (bitwise-equal to the scalar
  forms),
* :mod:`repro.text.vectorize` — TF-IDF and hashing vectorisers,
* :mod:`repro.text.serialize` — record-pair serialisation schemes (plain and
  DITTO-style ``[COL]/[VAL]`` encoding) with token budgets.
"""

from repro.text.normalize import normalize_text, strip_corporate_terms
from repro.text.tokenize import (
    Vocabulary,
    char_ngrams,
    whitespace_tokenize,
    word_tokenize,
)
from repro.text.similarity import (
    cosine_token_similarity,
    dice_coefficient,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    longest_common_substring,
    overlap_coefficient,
)
from repro.text.vectorize import HashingVectorizer, TfidfVectorizer
from repro.text.serialize import (
    PLAIN_SCHEME,
    DittoSerializer,
    PairSerializer,
    PlainSerializer,
)

__all__ = [
    "normalize_text",
    "strip_corporate_terms",
    "Vocabulary",
    "char_ngrams",
    "whitespace_tokenize",
    "word_tokenize",
    "cosine_token_similarity",
    "dice_coefficient",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "longest_common_substring",
    "overlap_coefficient",
    "HashingVectorizer",
    "TfidfVectorizer",
    "PLAIN_SCHEME",
    "PairSerializer",
    "PlainSerializer",
    "DittoSerializer",
]
