"""Random-projection (SimHash) signatures for cosine similarity (Charikar 2002).

The paper's word-embedding evidence compares attribute embedding vectors by
cosine distance; random hyperplane projections give an LSH family for that
metric: the probability that two vectors fall on the same side of a random
hyperplane is ``1 - theta / pi`` where ``theta`` is the angle between them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Sequence

import numpy as np


class RandomProjection:
    """A bit signature of a real vector under random hyperplane projections."""

    __slots__ = ("bits", "num_bits", "seed", "is_zero")

    def __init__(self, bits: np.ndarray, num_bits: int, seed: int, is_zero: bool = False) -> None:
        self.bits = bits
        self.num_bits = num_bits
        self.seed = seed
        self.is_zero = is_zero

    def hamming_fraction(self, other: "RandomProjection") -> float:
        """Fraction of bit positions on which the signatures differ."""
        self._check_compatible(other)
        return float(np.count_nonzero(self.bits != other.bits) / self.num_bits)

    def cosine_similarity(self, other: "RandomProjection") -> float:
        """Estimated cosine similarity between the underlying vectors."""
        if self.is_zero or other.is_zero:
            return 0.0
        angle = self.hamming_fraction(other) * math.pi
        return math.cos(angle)

    def cosine_distance(self, other: "RandomProjection") -> float:
        """Estimated cosine distance, clipped to [0, 1].

        The paper's distances live in [0, 1]; negative cosine similarities
        (obtuse vectors) are treated as maximally distant.
        """
        return min(1.0, max(0.0, 1.0 - self.cosine_similarity(other)))

    def bytes_size(self) -> int:
        """Approximate in-memory size of the signature."""
        return int(self.bits.nbytes)

    def _check_compatible(self, other: "RandomProjection") -> None:
        if self.num_bits != other.num_bits or self.seed != other.seed:
            raise ValueError(
                "RandomProjection signatures are not comparable: "
                f"(num_bits={self.num_bits}, seed={self.seed}) vs "
                f"(num_bits={other.num_bits}, seed={other.seed})"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RandomProjection):
            return NotImplemented
        return (
            self.num_bits == other.num_bits
            and self.seed == other.seed
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomProjection(num_bits={self.num_bits}, seed={self.seed})"


class RandomProjectionFactory:
    """Creates mutually comparable random-projection signatures.

    The hyperplane matrix is lazily instantiated the first time a vector of a
    given dimensionality is hashed and reused afterwards, so all signatures
    produced by one factory share the same hyperplanes.
    """

    def __init__(self, num_bits: int = 256, seed: int = 1) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        self.num_bits = num_bits
        self.seed = seed
        self._dimension: Optional[int] = None
        self._hyperplanes: Optional[np.ndarray] = None

    @property
    def dimension(self) -> Optional[int]:
        """Dimensionality of vectors seen so far (None before first use)."""
        return self._dimension

    def _ensure_hyperplanes(self, dimension: int) -> np.ndarray:
        if self._hyperplanes is None:
            generator = np.random.default_rng(self.seed)
            self._hyperplanes = generator.standard_normal((self.num_bits, dimension))
            self._dimension = dimension
        elif dimension != self._dimension:
            raise ValueError(
                f"vector dimension {dimension} does not match factory dimension {self._dimension}"
            )
        return self._hyperplanes

    def from_vector(self, vector: Sequence[float]) -> RandomProjection:
        """Build the signature of a dense vector."""
        array = np.asarray(vector, dtype=np.float64)
        if array.ndim != 1:
            raise ValueError("random projections expect 1-dimensional vectors")
        norm = float(np.linalg.norm(array))
        hyperplanes = self._ensure_hyperplanes(array.shape[0])
        if norm == 0.0:
            bits = np.zeros(self.num_bits, dtype=np.uint8)
            return RandomProjection(bits, self.num_bits, self.seed, is_zero=True)
        projections = hyperplanes @ array
        bits = (projections >= 0.0).astype(np.uint8)
        return RandomProjection(bits, self.num_bits, self.seed)

    def from_vectors(self, vectors: Sequence[Sequence[float]]) -> List[RandomProjection]:
        """Build the signatures of many dense vectors (table-level batch).

        Signature ``i`` is bit-identical to ``from_vector(vectors[i])``.  The
        zero checks and bit thresholding are batched; the projection itself
        stays one matrix-vector product per vector because a batched
        matrix-matrix product uses a different BLAS reduction order, and the
        resulting last-ulp drift could flip a sign bit of a projection that
        lands exactly on a hyperplane.
        """
        if not len(vectors):
            return []
        stacked = np.asarray(vectors, dtype=np.float64)
        if stacked.ndim != 2:
            raise ValueError("random projections expect a batch of 1-dimensional vectors")
        hyperplanes = self._ensure_hyperplanes(stacked.shape[1])
        # norm == 0.0 exactly when every component is zero, for any float norm.
        zero = ~np.any(stacked, axis=1)
        projections = np.zeros((stacked.shape[0], self.num_bits), dtype=np.float64)
        for index in range(stacked.shape[0]):
            if not zero[index]:
                projections[index] = hyperplanes @ stacked[index]
        bits = (projections >= 0.0).astype(np.uint8)
        return [
            RandomProjection(
                np.zeros(self.num_bits, dtype=np.uint8), self.num_bits, self.seed, is_zero=True
            )
            if zero[index]
            else RandomProjection(bits[index], self.num_bits, self.seed)
            for index in range(stacked.shape[0])
        ]

    def from_bits(self, bits: np.ndarray, is_zero: bool = False) -> RandomProjection:
        """Wrap an existing bit signature (e.g. loaded from disk)."""
        array = np.asarray(bits, dtype=np.uint8)
        if array.shape != (self.num_bits,):
            raise ValueError(
                f"expected signature of shape ({self.num_bits},), got {array.shape}"
            )
        return RandomProjection(array, self.num_bits, self.seed, is_zero=is_zero)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RandomProjectionFactory(num_bits={self.num_bits}, seed={self.seed})"


@lru_cache(maxsize=None)
def _cosine_distance_table(num_bits: int) -> np.ndarray:
    """``table[d]`` = the cosine distance for ``d`` differing bit positions.

    Built with ``math.cos`` — the same libm call the scalar path makes — so
    the batched path is bit-identical to pairwise ``cosine_distance``.
    """
    table = np.empty(num_bits + 1, dtype=np.float64)
    for differing in range(num_bits + 1):
        similarity = math.cos(float(differing / num_bits) * math.pi)
        table[differing] = min(1.0, max(0.0, 1.0 - similarity))
    table.setflags(write=False)
    return table


def batch_cosine_distances(
    query_bits: np.ndarray,
    matrix: np.ndarray,
    query_zero: bool = False,
    zero_rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Estimated cosine distances between one bit signature and a packed bit matrix.

    ``query_bits`` holds one bit per byte (:attr:`RandomProjection.bits`);
    ``matrix`` holds signatures packed 8 bits to a byte (``np.packbits``
    rows, shape ``(n, ceil(num_bits / 8))``), so one popcount of the XOR
    with the packed query replaces ``n`` pairwise ``cosine_distance``
    calls (both sides pad the last byte with zeros, which never differ).
    Zero-vector rows (and every row when ``query_zero``) get the maximal
    distance 1.0, as in the scalar path.
    """
    count = matrix.shape[0]
    if count == 0:
        return np.empty(0, dtype=np.float64)
    if query_zero:
        return np.ones(count, dtype=np.float64)
    num_bits = int(query_bits.shape[0])
    differing = np.bitwise_count(matrix ^ np.packbits(query_bits)).sum(axis=1)
    distances = _cosine_distance_table(num_bits)[differing]
    if zero_rows is not None:
        distances[zero_rows] = 1.0
    return distances


def exact_cosine_similarity(first: Sequence[float], second: Sequence[float]) -> float:
    """Exact cosine similarity between two vectors (0 when either is zero)."""
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def exact_cosine_distance(first: Sequence[float], second: Sequence[float]) -> float:
    """Exact cosine distance, clipped to [0, 1]."""
    return min(1.0, max(0.0, 1.0 - exact_cosine_similarity(first, second)))
