"""Locality-sensitive hashing substrate.

The paper's discovery engine (and both baselines) are built on LSH:

* :class:`~repro.lsh.minhash.MinHash` signatures approximate Jaccard
  similarity (Broder 1997) and back the name, value and format indexes;
* :class:`~repro.lsh.random_projection.RandomProjection` signatures
  approximate cosine similarity (Charikar 2002) and back the word-embedding
  index;
* :class:`~repro.lsh.lsh_forest.LSHForest` is the self-tuning top-k index of
  Bawa et al. (2005) that the paper configures with threshold 0.7 and
  MinHash size 256; every evidence index and the SA-join blocking step use
  it, and :mod:`repro.lsh.reference` keeps its scalar oracle.
"""

from repro.lsh.hashing import HashFamily, hash_token, hash_tokens
from repro.lsh.lsh_forest import LSHForest
from repro.lsh.minhash import MinHash, MinHashFactory, batch_jaccard_distances
from repro.lsh.random_projection import (
    RandomProjection,
    RandomProjectionFactory,
    batch_cosine_distances,
)

__all__ = [
    "HashFamily",
    "LSHForest",
    "MinHash",
    "MinHashFactory",
    "RandomProjection",
    "RandomProjectionFactory",
    "batch_cosine_distances",
    "batch_jaccard_distances",
    "hash_token",
    "hash_tokens",
]
