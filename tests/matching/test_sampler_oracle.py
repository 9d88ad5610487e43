"""The array pair sampler against the per-pair loop it replaced.

``reference_build`` is ``PairSampler.build`` as it was written before pairs
became row arrays: positives from ``Dataset.entity_groups``, negatives drawn
one ``random.sample(records, 2)`` call at a time and kept unless both
records share an entity or the pair's ``LabeledPair.key`` was kept before,
then ``random.Random(seed + 1).shuffle`` of the list.  ``PairSampler`` must
give the same ``(left id, right id, label)`` sequence on every dataset:
small ones, where ``random.sample`` takes its pool branch (at most 21
records), larger ones, where it takes its set branch, and ones where the
attempt cap ends the sampling.  The sampler replays CPython's ``random``
algorithms, so these tests are what holds it to each interpreter version.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.matching.pairs as pairs_module
from repro.datagen.records import CompanyRecord, Dataset
from repro.matching.pairs import (
    SAMPLE_POOL_LIMIT,
    LabeledPair,
    PairSampler,
    build_labeled_pairs,
    shuffled_order,
)


def reference_positive_pairs(dataset, entity_ids=None):
    groups = dataset.entity_groups()
    if entity_ids is not None:
        keep = set(entity_ids)
        groups = {entity: ids for entity, ids in groups.items() if entity in keep}  # repro-lint: disable=unordered-iteration -- entity_groups() is insertion-ordered by dataset order
    pairs = []
    for record_ids in groups.values():  # repro-lint: disable=unordered-iteration -- entity_groups() is insertion-ordered by dataset order
        for i, left_id in enumerate(record_ids):
            for right_id in record_ids[i + 1:]:
                pairs.append(LabeledPair(dataset.record(left_id), dataset.record(right_id), 1))
    return pairs


def reference_negative_pairs(dataset, num_negatives, entity_ids=None, seed=0):
    rng = random.Random(seed)
    if entity_ids is not None:
        keep = set(entity_ids)
        records = [record for record in dataset if record.entity_id in keep]
    else:
        records = dataset.records
    if len(records) < 2:
        return []
    negatives = []
    seen = set()
    attempts = 0
    max_attempts = num_negatives * 20 + 100
    while len(negatives) < num_negatives and attempts < max_attempts:
        attempts += 1
        left, right = rng.sample(records, 2)
        if left.entity_id == right.entity_id:
            continue
        pair = LabeledPair(left, right, 0)
        if pair.key in seen:
            continue
        seen.add(pair.key)
        negatives.append(pair)
    return negatives


def reference_build(dataset, entity_ids=None, negative_ratio=5, seed=0):
    positives = reference_positive_pairs(dataset, entity_ids)
    negatives = reference_negative_pairs(
        dataset, len(positives) * negative_ratio, entity_ids, seed
    )
    pairs = positives + negatives
    random.Random(seed + 1).shuffle(pairs)
    return pairs


def as_triples(pairs):
    return [(pair.left.record_id, pair.right.record_id, pair.label) for pair in pairs]


def assert_sampler_equals_reference(dataset, entity_ids, negative_ratio, seed):
    expected = as_triples(reference_build(dataset, entity_ids, negative_ratio, seed))
    sampled = PairSampler(negative_ratio=negative_ratio, seed=seed).sample(dataset, entity_ids)
    assert as_triples(sampled.labeled_pairs()) == expected
    assert [(left, right) for left, right, _ in expected] == sampled.id_pairs()


@st.composite
def datasets(draw, max_records=60):
    """Companies with ids that do not sort in row order, in few or many entities."""
    size = draw(st.integers(0, max_records))
    num_entities = draw(st.integers(1, max(1, size)))
    ids = draw(
        st.lists(
            st.text("abcxyz019", min_size=1, max_size=6),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    entities = draw(
        st.lists(st.integers(0, num_entities - 1), min_size=size, max_size=size)
    )
    records = [
        CompanyRecord(record_id=record_id, source=f"S{index % 3}", entity_id=f"E{entity}")
        for index, (record_id, entity) in enumerate(zip(ids, entities))
    ]
    return Dataset("drawn", records)


@given(
    datasets(),
    st.integers(0, 6),
    st.integers(0, 2**40),
    st.one_of(st.none(), st.lists(st.integers(0, 60), max_size=40)),
)
@settings(max_examples=300, deadline=None)
def test_sampler_equals_the_per_pair_loop(dataset, negative_ratio, seed, restriction):
    entity_ids = None if restriction is None else [f"E{entity}" for entity in restriction]
    assert_sampler_equals_reference(dataset, entity_ids, negative_ratio, seed)


@pytest.mark.parametrize("size", [SAMPLE_POOL_LIMIT - 1, SAMPLE_POOL_LIMIT, SAMPLE_POOL_LIMIT + 1, 40])
@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_attempt_cap_ends_sampling(size, seed):
    # All records but two share one entity: the ~C(size - 2, 2) positives ask
    # for five times as many negatives as there are cross-entity pairs, so
    # the loop stops at num_negatives * 20 + 100 attempts.
    records = [
        CompanyRecord(record_id=f"r{index:03d}", source="S1", entity_id="big")
        for index in range(size - 2)
    ]
    records[3:3] = [
        CompanyRecord(record_id="q1", source="S2", entity_id="one"),
        CompanyRecord(record_id="a2", source="S3", entity_id="two"),
    ]
    dataset = Dataset("capped", records)
    negatives = [pair for pair in reference_build(dataset, seed=seed) if pair.label == 0]
    assert len(negatives) == 2 * (size - 2) + 1  # every cross-entity pair, once
    assert_sampler_equals_reference(dataset, None, 5, seed)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_small_attempt_blocks_give_the_same_pairs(companies, monkeypatch, block):
    # A pair kept in one block of attempts is not kept again in a later one.
    monkeypatch.setattr(pairs_module, "ATTEMPT_BLOCK", block)
    assert_sampler_equals_reference(companies, None, 5, 3)
    records = [
        CompanyRecord(record_id=f"r{index:02d}", source="S1", entity_id="big")
        for index in range(30)
    ]
    capped = Dataset("capped", [*records, CompanyRecord(record_id="q1", source="S2", entity_id="one")])
    assert_sampler_equals_reference(capped, None, 2, 11)


@pytest.mark.parametrize("seed", [0, 1, 89])
def test_generated_corpus_splits(companies, seed):
    entities = sorted(companies.entity_groups())
    random.Random(seed).shuffle(entities)
    for entity_ids in (entities[: len(entities) * 3 // 5], entities[-15:], None):
        assert_sampler_equals_reference(companies, entity_ids, 5, seed)


def test_build_and_wrapper_give_the_sampled_pairs(companies):
    sampled = PairSampler(negative_ratio=2, seed=4).sample(companies)
    assert as_triples(build_labeled_pairs(companies, negative_ratio=2, seed=4)) == as_triples(
        sampled.labeled_pairs()
    )
    assert sampled.left.dtype == sampled.right.dtype == sampled.labels.dtype == np.int64


def test_filter_easy_on_arrays_equals_the_list_filter(securities):
    sampled = PairSampler(negative_ratio=1, seed=0).sample(securities)
    for budget in (None, 7, 40):
        assert as_triples(sampled.filter_easy(budget).labeled_pairs()) == as_triples(
            pairs_module.filter_easy_pairs(sampled.labeled_pairs(), budget)
        )


SHUFFLE_SIZES = sorted(
    {0, 1, 2, 3, 10_000}
    | {2**k + delta for k in range(1, 14) for delta in (-1, 0, 1)}
)


@pytest.mark.parametrize("count", SHUFFLE_SIZES)
def test_shuffled_order_equals_random_shuffle(count):
    for seed in (0, 2**40 + 3):
        items = list(range(count))
        random.Random(seed).shuffle(items)
        assert shuffled_order(random.Random(seed), count).tolist() == items


@given(st.integers(0, 10_000), st.integers(0, 2**40))
@settings(max_examples=60, deadline=None)
def test_shuffled_order_equals_random_shuffle_at_any_size(count, seed):
    items = list(range(count))
    random.Random(seed).shuffle(items)
    assert shuffled_order(random.Random(seed), count).tolist() == items
