"""The dictionary token index the array index replaced, kept as the oracle.

Before :class:`~repro.blocking.token_overlap.TokenIndex` held integer
arrays, ``prepare`` built dictionaries: each record's sorted token tuple,
every token's document frequency, and the ids of the records carrying each
token that survives the frequency cutoff.  :func:`dict_index` builds them
from a dataset as that code did.  The scorer tests walk them with
``reference_candidates_for``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from types import SimpleNamespace

from repro.blocking.token_overlap import TokenOverlapBlocking
from repro.datagen.records import Dataset


def dict_index(blocking: TokenOverlapBlocking, dataset: Dataset) -> SimpleNamespace:
    """The dictionary index of ``dataset``: ``record_tokens``,
    ``document_frequency``, ``token_index``, ``sources`` and
    ``num_tokenised``."""
    record_tokens = {
        record.record_id: tuple(sorted(blocking._tokens(record))) for record in dataset
    }
    document_frequency: Counter[str] = Counter()
    for tokens in record_tokens.values():
        document_frequency.update(tokens)
    num_tokenised = max(sum(1 for tokens in record_tokens.values() if tokens), 1)
    frequency_cutoff = blocking.max_token_frequency * num_tokenised
    token_index: dict[str, list[str]] = defaultdict(list)
    for record_id, tokens in record_tokens.items():
        for token in tokens:
            if document_frequency[token] <= frequency_cutoff:
                token_index[token].append(record_id)
    return SimpleNamespace(
        record_tokens=record_tokens,
        document_frequency=document_frequency,
        token_index=dict(token_index),
        sources={record.record_id: record.source for record in dataset},
        num_tokenised=num_tokenised,
    )

