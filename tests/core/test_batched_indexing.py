"""Equivalence harness for batched, table-level signature generation.

The batched index-construction pipeline must be *bit-identical* to the
per-attribute scalar path the seed implementation used: one MinHash
permutation application per attribute (fed by the uncached
``reference.scalar_hash_tokens``) and one matrix-vector product per
embedding.  These tests sweep seeds, signature sizes, and degenerate inputs
(empty token sets, zero embeddings, numeric columns) and compare every
signature byte for byte.
"""

import random

import numpy as np
import pytest

from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes
from repro.lsh.hashing import HashFamily, hash_tokens
from repro.lsh.minhash import MinHashFactory
from repro.lsh.random_projection import RandomProjectionFactory
from repro.lsh.reference import scalar_hash_tokens
from repro.tables.table import Table


def _token_sets(count: int, seed: int):
    """Token sets with family structure, duplicates, and empties."""
    rng = random.Random(seed)
    sets = []
    for index in range(count):
        if index % 11 == 0:
            sets.append(set())
            continue
        family = rng.randrange(6)
        size = rng.randrange(1, 60)
        sets.append({f"fam{family}-tok{t}" for t in rng.sample(range(120), size % 100 + 1)})
    return sets


class TestBatchedMinHashEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("num_perm", [32, 128, 256])
    def test_bit_identical_to_scalar_reference(self, seed, num_perm):
        factory = MinHashFactory(num_perm=num_perm, seed=seed)
        family = HashFamily(num_perm, seed=seed)
        token_sets = _token_sets(40, seed + 100)
        batched = factory.from_tokens_batch(token_sets)
        assert len(batched) == len(token_sets)
        for signature, tokens in zip(batched, token_sets):
            # Seed path: per-token blake2b hashing, one permutation per set.
            reference = family.minhash_values(scalar_hash_tokens(tokens, seed=seed))
            assert signature.hashvalues.dtype == np.uint32
            assert np.array_equal(signature.hashvalues, reference)
            # And therefore identical to the single-set factory path.
            assert signature == factory.from_tokens(tokens)

    def test_empty_sets_yield_empty_signatures(self):
        factory = MinHashFactory(num_perm=64, seed=3)
        batched = factory.from_tokens_batch([set(), {"a"}, set()])
        assert batched[0].is_empty()
        assert not batched[1].is_empty()
        assert batched[2].is_empty()

    def test_all_empty_batch(self):
        factory = MinHashFactory(num_perm=64, seed=3)
        batched = factory.from_tokens_batch([set(), set()])
        assert all(signature.is_empty() for signature in batched)

    def test_empty_batch(self):
        assert MinHashFactory(num_perm=64, seed=3).from_tokens_batch([]) == []

    def test_block_splitting_is_invisible(self):
        """Tiny block budgets (forcing many permutation passes) change nothing."""
        seed = 5
        family = HashFamily(96, seed=seed)
        # Enough sets to clear the small-batch fallback threshold.
        hashed = [hash_tokens(tokens, seed=seed) for tokens in _token_sets(120, 9)]
        whole = family.minhash_values_batch(hashed)
        assert np.array_equal(
            whole, np.vstack([family.minhash_values(values) for values in hashed])
        )
        for budget in (1, 7, 64):
            assert np.array_equal(
                family.minhash_values_batch(hashed, block_rows=budget), whole
            )

    def test_small_batch_fallback_is_identical(self):
        family = HashFamily(64, seed=2)
        hashed = [hash_tokens(tokens, seed=2) for tokens in _token_sets(5, 3)]
        batched = family.minhash_values_batch(hashed)
        assert np.array_equal(
            batched, np.vstack([family.minhash_values(values) for values in hashed])
        )

    def test_batch_signatures_are_mutually_comparable(self):
        factory = MinHashFactory(num_perm=128, seed=2)
        tokens = {"a", "b", "c"}
        batched = factory.from_tokens_batch([tokens, tokens])
        assert batched[0].jaccard(batched[1]) == 1.0


class TestBatchedRandomProjectionEquivalence:
    @pytest.mark.parametrize("seed", [0, 9, 42])
    def test_bit_identical_to_per_vector_path(self, seed):
        rng = np.random.default_rng(seed)
        vectors = [rng.standard_normal(48) for _ in range(25)]
        vectors[3] = np.zeros(48)
        vectors[17] = np.zeros(48)
        batch_factory = RandomProjectionFactory(num_bits=128, seed=seed)
        scalar_factory = RandomProjectionFactory(num_bits=128, seed=seed)
        batched = batch_factory.from_vectors(vectors)
        for signature, vector in zip(batched, vectors):
            reference = scalar_factory.from_vector(vector)
            assert signature.bits.dtype == np.uint8
            assert np.array_equal(signature.bits, reference.bits)
            assert signature.is_zero == reference.is_zero

    def test_empty_batch(self):
        assert RandomProjectionFactory(num_bits=32, seed=1).from_vectors([]) == []

    def test_zero_vectors_flagged(self):
        factory = RandomProjectionFactory(num_bits=32, seed=1)
        batched = factory.from_vectors([np.zeros(8), np.ones(8)])
        assert batched[0].is_zero and not batched[1].is_zero


class TestTableSignatures:
    @pytest.fixture(scope="class")
    def indexes(self):
        return D3LIndexes(config=D3LConfig(num_hashes=64, num_trees=8, embedding_dimension=16))

    @pytest.fixture(scope="class")
    def mixed_table(self):
        """Textual, numeric, constant, and effectively empty columns."""
        return Table.from_dict(
            "mixed",
            {
                "City": ["Belfast", "Salford", "Manchester", "Bolton"],
                "Patients": ["1202", "3572", "2209", "1840"],
                "Blank": ["", "", "", ""],
                "Code": ["M3 6AF", "BT7 1JL", "M3 1NN", "BL3 6PY"],
            },
        )

    def test_matches_per_attribute_signatures(self, indexes, mixed_table):
        profile = indexes.profile_table(mixed_table)
        batched = indexes.table_signatures(profile)
        for name, attribute_profile in profile.attributes.items():
            scalar = indexes.signatures_for(attribute_profile)
            for evidence in EvidenceType.indexed():
                left, right = batched[name][evidence], scalar[evidence]
                if right is None:
                    assert left is None
                else:
                    assert left == right

    def test_numeric_column_has_no_value_or_embedding_signature(self, indexes, mixed_table):
        profile = indexes.profile_table(mixed_table)
        batched = indexes.table_signatures(profile)
        assert batched["Patients"][EvidenceType.VALUE] is None
        assert batched["Patients"][EvidenceType.EMBEDDING] is None
        assert batched["Patients"][EvidenceType.NAME] is not None

    def test_add_table_indexes_identically_to_scalar_construction(self, mixed_table):
        """A lake indexed through the batch path answers lookups identically
        to indexes populated attribute-by-attribute from scalar signatures."""
        config = D3LConfig(num_hashes=64, num_trees=8, embedding_dimension=16)
        batched = D3LIndexes(config=config)
        batched.add_table(mixed_table)

        scalar = D3LIndexes(config=config)
        table_profile = scalar.profile_table(mixed_table)
        scalar.table_profiles[mixed_table.name] = table_profile
        for profile in table_profile.attributes.values():
            scalar.profiles[profile.ref] = profile
            signatures = scalar.signatures_for(profile)
            for evidence in EvidenceType.indexed():
                signature = signatures[evidence]
                if signature is None:
                    continue
                raw = signature.hashvalues if evidence is not EvidenceType.EMBEDDING else signature.bits
                scalar._forests[evidence].insert(profile.ref, raw)
                scalar._matrices[evidence].add(
                    profile.ref,
                    raw if evidence is not EvidenceType.EMBEDDING else np.packbits(raw),
                    signature.is_empty()
                    if evidence is not EvidenceType.EMBEDDING
                    else signature.is_zero,
                )

        for evidence in EvidenceType.indexed():
            batched_state = batched._matrices[evidence].export_state()
            scalar_state = scalar._matrices[evidence].export_state()
            assert batched_state[0] == scalar_state[0]
            assert np.array_equal(batched_state[1], scalar_state[1])
            assert np.array_equal(batched_state[2], scalar_state[2])
            for profile in table_profile.attributes.values():
                vectorized = batched.lookup(evidence, profile, k=5)
                reference = scalar.lookup(evidence, profile, k=5)
                assert vectorized == reference
