"""Unit tests for :class:`~repro.matching.decisions.DecisionCache`.

The incremental matcher's store of every scored decision: rows keyed by the
canonical id pair, appended from the engine's :class:`DecisionVector`,
gathered back as a vector in any key order, and pickled as bare arrays with
the index rebuilt on load.
"""

import pickle

import numpy as np
import pytest

from repro.matching.decisions import DecisionCache, DecisionVector

# As-scored orientation differs from the canonical key on the middle row.
PAIRS = [("a", "b"), ("d", "c"), ("e", "f")]
KEYS = [("a", "b"), ("c", "d"), ("e", "f")]
PROBABILITIES = [0.9, 0.2, 0.5]


def scored_vector():
    return DecisionVector(PAIRS, np.array(PROBABILITIES), threshold=0.5)


def filled_cache():
    cache = DecisionCache()
    cache.extend(KEYS, scored_vector())
    return cache


def test_empty_cache():
    cache = DecisionCache()
    assert len(cache) == 0
    assert ("a", "b") not in cache
    assert cache.vector([]) == []


def test_extend_indexes_every_key():
    cache = filled_cache()
    assert len(cache) == 3
    assert all(key in cache for key in KEYS)
    assert ("d", "c") not in cache  # keyed canonically, not as scored


def test_vector_gathers_in_the_requested_key_order():
    cache = filled_cache()
    vector = cache.vector([KEYS[2], KEYS[0]])
    assert isinstance(vector, DecisionVector)
    assert vector == [scored_vector()[2], scored_vector()[0]]


def test_rows_keep_the_as_scored_orientation():
    decision = filled_cache().vector([("c", "d")])[0]
    assert decision.pair == ("d", "c")
    assert decision.probability == 0.2
    assert decision.is_match is False


def test_repeated_extends_append_rows_in_order():
    cache = DecisionCache()
    vector = scored_vector()
    cache.extend(KEYS[:1], DecisionVector(PAIRS[:1], vector.probabilities[:1], threshold=0.5))
    cache.extend(KEYS[1:], DecisionVector(PAIRS[1:], vector.probabilities[1:], threshold=0.5))
    assert cache == filled_cache()
    assert cache.vector(KEYS) == vector


def test_misaligned_keys_are_rejected():
    cache = DecisionCache()
    with pytest.raises(ValueError, match="2 keys for 3 scored decisions"):
        cache.extend(KEYS[:2], scored_vector())
    assert len(cache) == 0


def test_pickle_rebuilds_the_canonical_index():
    restored = pickle.loads(pickle.dumps(filled_cache()))
    assert restored == filled_cache()
    assert all(key in restored for key in KEYS)
    assert restored.vector(KEYS) == scored_vector()


def test_equality_compares_rows():
    cache = filled_cache()
    other = DecisionCache()
    other.extend(KEYS, DecisionVector(PAIRS, np.array([0.9, 0.2, 0.6]), threshold=0.5))
    assert cache != other
    assert cache != {"a": 1}
