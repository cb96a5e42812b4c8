"""Hash primitives shared by the LSH machinery.

Two ingredients are needed:

* a stable 64-bit hash of arbitrary tokens (``hash_token``) that does not
  depend on ``PYTHONHASHSEED`` so that signatures are reproducible across
  processes, and
* a family of universal hash functions (``HashFamily``) of the form
  ``h_i(x) = (a_i * x + b_i) mod p`` used to simulate the random permutations
  MinHash requires.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Sequence

import numpy as np

#: Mersenne prime used by the universal hash family (same as datasketch).
MERSENNE_PRIME = np.uint64((1 << 61) - 1)
#: Maximum hash value produced for tokens.
MAX_HASH = np.uint64((1 << 32) - 1)

#: Upper bound on cached token hashes per seed.  Token vocabularies repeat
#: heavily across the columns of a lake, so a shared bounded cache turns most
#: ``hash_tokens`` work into dictionary lookups.
TOKEN_HASH_CACHE_LIMIT = 1 << 20

#: Row granularity of the batched MinHash path: distinct hash values are
#: permuted in slices of this many rows, and signatures are reduced in blocks
#: of this many sets, so every transient stays a few hundred KB — small
#: enough to live in L2 cache, which is where the batched path wins over one
#: huge bandwidth-bound matrix pass.
MINHASH_BATCH_BLOCK_ROWS = 256

#: Below this many non-empty sets a batch falls back to the per-set path:
#: the dedup + sort setup of the batched kernel only pays for itself once a
#: batch spans enough columns to share vocabulary.
MINHASH_BATCH_MIN_SETS = 32

_token_hash_cache: Dict[int, Dict[str, int]] = {}


def hash_token(token: str, seed: int = 0) -> int:
    """Stable 32-bit hash of ``token``.

    Uses blake2b keyed by ``seed`` so different indexes can use independent
    token hashes while remaining deterministic across runs.
    """
    digest = hashlib.blake2b(
        token.encode("utf-8", errors="replace"),
        digest_size=8,
        key=seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest[:4], "little")


def clear_token_hash_cache() -> None:
    """Drop every cached token hash (exposed for tests and benchmarks)."""
    _token_hash_cache.clear()


def hash_tokens(tokens: Iterable[str], seed: int = 0) -> np.ndarray:
    """Vector of stable hashes for ``tokens`` (deduplicated, order-free).

    The whole token set is hashed in one pass through a tight local-binding
    loop; hits come from an LRU cache shared across columns (hits refresh
    recency via dict ordering).  Values are identical to per-token
    :func:`hash_token` calls — misses delegate to it.
    """
    unique = set(tokens)
    if not unique:
        return np.empty(0, dtype=np.uint64)
    cache = _token_hash_cache.setdefault(seed, {})
    cache_pop = cache.pop
    hasher = hash_token
    out = np.empty(len(unique), dtype=np.uint64)
    for position, token in enumerate(unique):
        hashed = cache_pop(token, None)
        if hashed is None:
            hashed = hasher(token, seed=seed)
            if len(cache) >= TOKEN_HASH_CACHE_LIMIT:
                # Evict the least recently used entry (dict order = recency).
                cache_pop(next(iter(cache)))
        cache[token] = hashed
        out[position] = hashed
    return out


class HashFamily:
    """A family of ``size`` universal hash functions over 32-bit inputs.

    All MinHash signatures that should be comparable must be generated from
    the same family (same ``size`` and ``seed``), which is how
    :class:`~repro.lsh.minhash.MinHashFactory` uses it.
    """

    def __init__(self, size: int, seed: int = 1) -> None:
        if size <= 0:
            raise ValueError("hash family size must be positive")
        self.size = size
        self.seed = seed
        generator = np.random.default_rng(seed)
        # Coefficients a must be non-zero for the family to be universal.
        self._a = generator.integers(1, int(MERSENNE_PRIME), size=size, dtype=np.uint64)
        self._b = generator.integers(0, int(MERSENNE_PRIME), size=size, dtype=np.uint64)

    def permute(self, hashed_values: np.ndarray) -> np.ndarray:
        """Apply every function in the family to each value in ``hashed_values``.

        Returns an array of shape ``(len(hashed_values), size)`` whose values
        are masked to their low 32 bits.
        """
        if hashed_values.size == 0:
            return np.empty((0, self.size), dtype=np.uint64)
        values = hashed_values.astype(np.uint64).reshape(-1, 1)
        permuted = (values * self._a + self._b) % MERSENNE_PRIME
        return np.bitwise_and(permuted, MAX_HASH)

    def minhash_values(self, hashed_values: np.ndarray) -> np.ndarray:
        """Column-wise minima of :meth:`permute`, i.e. a MinHash signature:
        ``size`` values below 2^32, stored as ``uint32``."""
        if hashed_values.size == 0:
            return np.full(self.size, MAX_HASH, dtype=np.uint32)
        return self.permute(hashed_values).min(axis=0).astype(np.uint32)

    def minhash_values_batch(
        self,
        hashed_value_arrays: Sequence[np.ndarray],
        block_rows: int = MINHASH_BATCH_BLOCK_ROWS,
    ) -> np.ndarray:
        """MinHash signatures of many token-hash sets in one shared pass.

        Returns an array of shape ``(len(hashed_value_arrays), size)`` whose
        row ``i`` equals ``minhash_values(hashed_value_arrays[i])`` bit for
        bit.  Three exact transformations make the batch faster than one
        :meth:`minhash_values` call per set:

        * **sharing** — the sets of one table overlap heavily (q-gram,
          token, and format vocabularies repeat across columns), so every
          *distinct* hash value is permuted exactly once; ``(a * x + b) % p``
          is by far the hot arithmetic;
        * **narrowing** — permuted values are masked to 32 bits, so the
          permutation table and the signatures are ``uint32``;
        * **cache blocking** — values are permuted in ``block_rows`` slices
          and signatures reduced over blocks of ``block_rows`` sets, sorted
          by descending size, sweeping one value column at a time over the
          still-active prefix (``minima[:active]``), so every transient
          stays L2-resident instead of streaming one huge matrix.

        Minimum over unsigned integers is associative and commutative, so
        the result is the scalar one, bit for bit — which
        ``tests/core/test_batched_indexing.py`` locks down.
        """
        count = len(hashed_value_arrays)
        signatures = np.full((count, self.size), MAX_HASH, dtype=np.uint32)
        arrays = []
        populated = []
        for index in range(count):
            values = np.asarray(hashed_value_arrays[index], dtype=np.uint64)
            if values.size:
                arrays.append(values)
                populated.append(index)
        if not arrays:
            return signatures
        if len(arrays) < MINHASH_BATCH_MIN_SETS:
            # Tiny batches (a narrow table) cannot amortise the dedup + sort
            # setup; the per-set path is faster and trivially identical.
            for index, values in zip(populated, arrays):
                signatures[index] = self.minhash_values(values)
            return signatures
        sizes = np.fromiter((array.size for array in arrays), dtype=np.intp, count=len(arrays))
        order = np.argsort(-sizes, kind="stable")
        arrays = [arrays[position] for position in order]
        positions = np.asarray(populated, dtype=np.intp)[order]
        sizes = sizes[order]
        unique, inverse = np.unique(np.concatenate(arrays), return_inverse=True)
        permuted = np.empty((unique.size, self.size), dtype=np.uint32)
        for start in range(0, unique.size, block_rows):
            stop = min(start + block_rows, unique.size)
            permuted[start:stop] = self.permute(unique[start:stop])
        starts = np.zeros(len(arrays) + 1, dtype=np.intp)
        np.cumsum(sizes, out=starts[1:])
        for low in range(0, len(arrays), block_rows):
            high = min(low + block_rows, len(arrays))
            block_sizes = sizes[low:high]
            longest = int(block_sizes[0])
            padded = np.zeros((high - low, longest), dtype=np.intp)
            padded[np.arange(longest) < block_sizes[:, None]] = inverse[
                starts[low] : starts[high]
            ]
            columns = np.ascontiguousarray(padded.T)
            minima = permuted[columns[0]].copy()
            for depth in range(1, longest):
                active = int(np.searchsorted(-block_sizes, -(depth + 1), side="right"))
                np.minimum(
                    minima[:active], permuted[columns[depth, :active]], out=minima[:active]
                )
            signatures[positions[low:high]] = minima
        return signatures

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self.size == other.size and self.seed == other.seed

    def __hash__(self) -> int:
        return hash((self.size, self.seed))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HashFamily(size={self.size}, seed={self.seed})"


def stable_uint64(parts: Sequence[object], seed: int = 0) -> int:
    """Stable 64-bit hash of a tuple of parts (used for bucket keys)."""
    joined = "".join(str(part) for part in parts)
    digest = hashlib.blake2b(
        joined.encode("utf-8", errors="replace"),
        digest_size=8,
        key=seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")
