"""MinHash signatures (Broder 1997) for Jaccard similarity estimation.

The paper indexes set representations of attribute names, value tokens, and
format strings with MinHash, so that the Jaccard distance between two
attributes can be approximated from the fraction of agreeing signature
positions instead of comparing the sets directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.lsh.hashing import MAX_HASH, HashFamily, hash_tokens


class MinHash:
    """A MinHash signature over a token set.

    Instances created from the same :class:`MinHashFactory` (or the same
    ``num_perm``/``seed`` pair) are comparable with :meth:`jaccard`.
    """

    __slots__ = ("hashvalues", "num_perm", "seed")

    def __init__(self, hashvalues: np.ndarray, num_perm: int, seed: int) -> None:
        self.hashvalues = hashvalues
        self.num_perm = num_perm
        self.seed = seed

    def jaccard(self, other: "MinHash") -> float:
        """Estimate the Jaccard similarity with ``other``.

        The estimate is the fraction of positions on which the two signatures
        agree, which is an unbiased estimator of the true Jaccard similarity.
        """
        self._check_compatible(other)
        return float(np.count_nonzero(self.hashvalues == other.hashvalues) / self.num_perm)

    def jaccard_distance(self, other: "MinHash") -> float:
        """Estimated Jaccard distance (1 - similarity), clipped to [0, 1]."""
        return min(1.0, max(0.0, 1.0 - self.jaccard(other)))

    def is_empty(self) -> bool:
        """True when the signature was built from an empty token set."""
        return bool(np.all(self.hashvalues == MAX_HASH))

    def digest(self) -> np.ndarray:
        """The raw signature array (read-only view)."""
        return self.hashvalues

    def bytes_size(self) -> int:
        """Approximate in-memory size of the signature, for space accounting."""
        return int(self.hashvalues.nbytes)

    def _check_compatible(self, other: "MinHash") -> None:
        if self.num_perm != other.num_perm or self.seed != other.seed:
            raise ValueError(
                "MinHash signatures are not comparable: "
                f"(num_perm={self.num_perm}, seed={self.seed}) vs "
                f"(num_perm={other.num_perm}, seed={other.seed})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinHash):
            return NotImplemented
        return (
            self.num_perm == other.num_perm
            and self.seed == other.seed
            and bool(np.array_equal(self.hashvalues, other.hashvalues))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MinHash(num_perm={self.num_perm}, seed={self.seed})"


class MinHashFactory:
    """Creates mutually comparable MinHash signatures.

    The paper configures all systems with a MinHash size of 256; that is the
    default here as well.
    """

    def __init__(self, num_perm: int = 256, seed: int = 1) -> None:
        if num_perm <= 0:
            raise ValueError("num_perm must be positive")
        self.num_perm = num_perm
        self.seed = seed
        self._family = HashFamily(num_perm, seed=seed)

    def from_tokens(self, tokens: Iterable[str]) -> MinHash:
        """Build the signature of a token set."""
        hashed = hash_tokens(tokens, seed=self.seed)
        values = self._family.minhash_values(hashed)
        return MinHash(values, self.num_perm, self.seed)

    def from_tokens_batch(self, token_sets: Sequence[Iterable[str]]) -> List[MinHash]:
        """Build the signatures of many token sets in one batched pass.

        Signature ``i`` is bit-identical to ``from_tokens(token_sets[i])``;
        the work differs only in that all sets share a handful of permutation
        matrix applications (:meth:`HashFamily.minhash_values_batch`) instead
        of paying one per set — the table-level indexing fast path.
        """
        hashed = [hash_tokens(tokens, seed=self.seed) for tokens in token_sets]
        values = self._family.minhash_values_batch(hashed)
        return [
            MinHash(values[index], self.num_perm, self.seed)
            for index in range(len(hashed))
        ]

    def from_hashvalues(self, hashvalues: np.ndarray) -> MinHash:
        """Wrap an existing signature array (e.g. loaded from disk)."""
        values = np.asarray(hashvalues, dtype=np.uint64)
        if values.shape != (self.num_perm,):
            raise ValueError(
                f"expected signature of shape ({self.num_perm},), got {values.shape}"
            )
        return MinHash(values, self.num_perm, self.seed)

    def empty(self) -> MinHash:
        """Signature of the empty set (maximally distant from everything)."""
        return self.from_tokens(())

    def merge(self, first: MinHash, second: MinHash) -> MinHash:
        """Signature of the union of the two underlying sets."""
        first._check_compatible(second)
        values = np.minimum(first.hashvalues, second.hashvalues)
        return MinHash(values, self.num_perm, self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MinHashFactory(num_perm={self.num_perm}, seed={self.seed})"


@lru_cache(maxsize=None)
def _jaccard_distance_table(num_perm: int) -> np.ndarray:
    """``table[a]`` = the distance for ``a`` agreeing positions.

    Indexing a precomputed table makes the batched path bit-identical to the
    scalar ``jaccard_distance`` expression for every possible agreement count.
    """
    table = np.empty(num_perm + 1, dtype=np.float64)
    for agreements in range(num_perm + 1):
        jaccard = float(agreements / num_perm)
        table[agreements] = min(1.0, max(0.0, 1.0 - jaccard))
    table.setflags(write=False)
    return table


def batch_jaccard_distances(
    query: np.ndarray,
    matrix: np.ndarray,
    query_empty: bool = False,
    empty_rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Estimated Jaccard distances between one signature and a signature matrix.

    ``matrix`` has shape ``(n, num_perm)``; one vectorized agreement count
    replaces ``n`` pairwise ``jaccard_distance`` calls.  Rows flagged in
    ``empty_rows`` (and every row when ``query_empty``) get the maximal
    distance 1.0, matching the scalar empty-signature convention.
    """
    count = matrix.shape[0]
    if count == 0:
        return np.empty(0, dtype=np.float64)
    if query_empty:
        return np.ones(count, dtype=np.float64)
    num_perm = int(query.shape[0])
    agreements = np.count_nonzero(matrix == query[np.newaxis, :], axis=1)
    distances = _jaccard_distance_table(num_perm)[agreements]
    if empty_rows is not None:
        distances[empty_rows] = 1.0
    return distances


def exact_jaccard(first: Iterable[str], second: Iterable[str]) -> float:
    """Exact Jaccard similarity between two token collections.

    Provided for tests and for the small exact-distance paths (e.g. Table I
    style examples) where the approximation is unnecessary.
    """
    first_set = set(first)
    second_set = set(second)
    if not first_set and not second_set:
        return 0.0
    union_size = len(first_set | second_set)
    if union_size == 0:
        return 0.0
    return len(first_set & second_set) / union_size


def exact_jaccard_distance(first: Iterable[str], second: Iterable[str]) -> float:
    """Exact Jaccard distance between two token collections."""
    return 1.0 - exact_jaccard(first, second)
