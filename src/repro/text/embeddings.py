"""Word-embedding model substrate (E evidence).

The paper uses fastText as its word-embedding model (WEM).  A pre-trained
fastText binary is not available offline, so this module provides two
substitutes that preserve the properties D3L depends on:

* :class:`HashingSubwordEmbedding` — a deterministic bag-of-subwords model in
  the spirit of fastText: a word's vector is the average of hashed character
  n-gram vectors, so morphologically similar words (``practice`` /
  ``practices``, ``Salford`` / ``Salford Rd``) land close together, and any
  out-of-vocabulary word still receives a vector.
* :class:`CooccurrenceEmbedding` — a corpus-trained model (positive PMI
  matrix factorised with SVD) that adds distributional semantics on top: words
  that co-occur in generated corpus sentences (``street`` / ``road`` /
  ``avenue``) become neighbours even when they share no characters.  Unknown
  words fall back to the subword model, exactly as fastText backs off to
  subword units.

Both expose ``vector(word)`` returning an L2-normalised ``p``-vector and
``vectors(words)``, its batched form, and :func:`aggregate_vectors` combines
per-word vectors into the attribute vector of Algorithm 1.

The subword draw
----------------
A subword's vector is ``np.random.default_rng(seed).standard_normal(p)``,
``seed`` being the n-gram's keyed blake2b digest.  Building a ``Generator``
per n-gram costs most of that draw (SeedSequence construction, whose
``generate_state`` runs under an ``np.errstate`` block), so
:func:`_standard_normal_rows` draws a batch of seeds through one ``PCG64``
and reaches each seed's starting state directly:

1. SeedSequence's pool mixing and ``generate_state(4, np.uint64)``
   (``numpy/random/bit_generator.pyx``) run over the whole batch as
   ``uint32`` array arithmetic.  Their hash constants evolve independently
   of the data, and array products wrap mod ``2**32`` as the scalar code's
   do.  A seed below ``2**32`` is one entropy word to SeedSequence, and a
   pool word without entropy is mixed from a zero, so every seed is taken
   as two words, low first.
2. PCG64's seeding (``pcg64_set_seed``: ``srandom`` with the first two
   state words as ``initstate`` and the last two as ``initseq``) runs in
   128-bit Python ints, giving the ``(state, inc)`` pair per seed.
3. Each pair is assigned through ``PCG64.state`` and the row filled by
   NumPy's own ``Generator.standard_normal(out=...)``.

NumPy's stream-compatibility policy fixes SeedSequence's and PCG64's
seeding, so row ``i`` equals ``default_rng(seed_i).standard_normal(p)`` bit
for bit; ``tests/text/test_embeddings.py`` keeps that formula as the oracle.
A word's vector is then the normalised mean of its contiguous block of rows,
the same ``(n, p)`` block and summation as stacking the draws one by one.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np


class WordEmbeddingModel(Protocol):
    """Protocol every word-embedding model used by the framework satisfies."""

    dimension: int

    def vector(self, word: str) -> np.ndarray:
        """Return the embedding vector of ``word`` (never raises for OOV)."""
        ...

    def vectors(self, words: Sequence[str]) -> List[np.ndarray]:
        """``[self.vector(word) for word in words]``, computed in one batch."""
        ...


# SeedSequence's hashing constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, multiplier: int) -> Iterator[Tuple[np.uint32, np.uint32]]:
    """SeedSequence's running hash constant, as ``(xor, multiply)`` per round:
    a round xors in the constant, advances it, then multiplies by the new one."""
    constant = init
    while True:
        advanced = (constant * multiplier) & _MASK32
        yield np.uint32(constant), np.uint32(advanced)
        constant = advanced


def _hashmix(value: np.ndarray, constants: Iterator[Tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, multiply = next(constants)
    value = (value ^ xor) * multiply
    return value ^ (value >> _XSHIFT)


def _pcg64_states(seeds: np.ndarray) -> List[Tuple[int, int]]:
    """PCG64's ``(state, inc)`` as ``np.random.default_rng(seed)`` seeds it,
    for every ``uint64`` seed."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = ((seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero)
    # SeedSequence.mix_entropy
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in entropy]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                mixed = _MIX_MULT_L * pool[target] - _MIX_MULT_R * _hashmix(pool[source], constants)
                pool[target] = mixed ^ (mixed >> _XSHIFT)
    # SeedSequence.generate_state(4, np.uint64): eight uint32 words read as
    # four little-endian uint64 words.
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    state_words = [(words[2 * i] | (words[2 * i + 1] << 32)).tolist() for i in range(4)]
    # pcg64_set_seed: srandom(initstate = w0:w1, initseq = w2:w3).
    states = []
    for high, low, seq_high, seq_low in zip(*state_words):
        inc = ((((seq_high << 64) | seq_low) << 1) | 1) & _MASK128
        state = ((inc + ((high << 64) | low)) * _PCG64_MULTIPLIER + inc) & _MASK128
        states.append((state, inc))
    return states


def _standard_normal_rows(seeds: np.ndarray, dimension: int) -> np.ndarray:
    """Row ``i`` is ``np.random.default_rng(seeds[i]).standard_normal(dimension)``."""
    rows = np.empty((len(seeds), dimension), dtype=np.float64)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    position = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": position, "has_uint32": 0, "uinteger": 0}
    for row, (seeded, inc) in zip(rows, _pcg64_states(seeds)):
        position["state"] = seeded
        position["inc"] = inc
        bit_generator.state = state
        generator.standard_normal(out=row)
    return rows


def _normalise(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        return vector
    return vector / norm


def aggregate_vectors(vectors: Sequence[np.ndarray], dimension: int) -> np.ndarray:
    """Combine per-word vectors into a single attribute vector.

    The paper combines the p-vectors of the selected words into one p-vector
    for the attribute; we use the mean followed by L2 normalisation, the
    standard bag-of-words aggregation.  An empty input yields the zero vector
    (treated as maximally distant by the cosine machinery).
    """
    if not vectors:
        return np.zeros(dimension, dtype=np.float64)
    stacked = np.vstack([np.asarray(v, dtype=np.float64) for v in vectors])
    return _normalise(stacked.mean(axis=0))


class HashingSubwordEmbedding:
    """Deterministic subword-hashing embedding (fastText-style bag of n-grams)."""

    def __init__(
        self,
        dimension: int = 64,
        seed: int = 17,
        ngram_range: Tuple[int, int] = (3, 5),
        cache_size: int = 50000,
    ) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        low, high = ngram_range
        if low <= 0 or high < low:
            raise ValueError("ngram_range must be a (low, high) pair with 0 < low <= high")
        self.dimension = dimension
        self.seed = seed
        self.ngram_range = ngram_range
        self._cache: Dict[str, np.ndarray] = {}
        self._cache_size = cache_size

    def _subword_seeds(self, ngrams: Sequence[str]) -> np.ndarray:
        """Each n-gram's draw seed: its blake2b digest keyed by the model seed."""
        key = self.seed.to_bytes(8, "little", signed=False)
        digests = b"".join(
            hashlib.blake2b(
                ngram.encode("utf-8", errors="replace"), digest_size=8, key=key
            ).digest()
            for ngram in ngrams
        )
        return np.frombuffer(digests, dtype="<u8")

    def _ngrams(self, word: str) -> List[str]:
        padded = f"<{word}>"
        low, high = self.ngram_range
        grams = []
        for n in range(low, high + 1):
            if len(padded) < n:
                continue
            grams.extend(padded[i : i + n] for i in range(len(padded) - n + 1))
        if not grams:
            grams = [padded]
        return grams

    def vector(self, word: str) -> np.ndarray:
        """Embedding of ``word``: the normalised mean of its subword vectors."""
        return self.vectors([word])[0]

    def vectors(self, words: Sequence[str]) -> List[np.ndarray]:
        """The embedding of every word, drawing all uncached subwords in one batch.

        Words are case- and whitespace-normalised; an empty word embeds as
        the zero vector.  New words enter the cache in order until it holds
        ``cache_size`` words.
        """
        keys = [word.strip().lower() for word in words]
        found: Dict[str, np.ndarray] = {}
        fresh: List[str] = []
        for key in dict.fromkeys(keys):
            cached = self._cache.get(key)
            if cached is not None:
                found[key] = cached
            elif key:
                fresh.append(key)
        if fresh:
            grams = [self._ngrams(key) for key in fresh]
            rows = _standard_normal_rows(
                self._subword_seeds([gram for word_grams in grams for gram in word_grams]),
                self.dimension,
            )
            stop = 0
            for key, word_grams in zip(fresh, grams):
                start, stop = stop, stop + len(word_grams)
                vector = _normalise(rows[start:stop].mean(axis=0))
                found[key] = vector
                if len(self._cache) < self._cache_size:
                    self._cache[key] = vector
        return [
            found[key] if key else np.zeros(self.dimension, dtype=np.float64) for key in keys
        ]


class CooccurrenceEmbedding:
    """Corpus-trained embedding: positive PMI matrix factorised with SVD.

    Train with :meth:`train` on an iterable of token sequences (sentences).
    Words outside the training vocabulary fall back to a
    :class:`HashingSubwordEmbedding` so the model is total, like fastText.
    """

    def __init__(
        self,
        vectors: Dict[str, np.ndarray],
        dimension: int,
        fallback: Optional[HashingSubwordEmbedding] = None,
    ) -> None:
        self.dimension = dimension
        self._vectors = vectors
        self._fallback = fallback or HashingSubwordEmbedding(dimension=dimension)

    @property
    def vocabulary(self) -> List[str]:
        """Words with trained vectors."""
        return list(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word.strip().lower() in self._vectors

    def vector(self, word: str) -> np.ndarray:
        """Trained vector when available, subword fallback otherwise."""
        key = word.strip().lower()
        trained = self._vectors.get(key)
        if trained is not None:
            return trained
        return self._fallback.vector(key)

    def vectors(self, words: Sequence[str]) -> List[np.ndarray]:
        """Per-word :meth:`vector`, with every fallback word in one subword batch."""
        keys = [word.strip().lower() for word in words]
        fallback = iter(self._fallback.vectors([key for key in keys if key not in self._vectors]))
        return [self._vectors[key] if key in self._vectors else next(fallback) for key in keys]

    @classmethod
    def train(
        cls,
        sentences: Iterable[Sequence[str]],
        dimension: int = 64,
        window: int = 4,
        min_count: int = 2,
        seed: int = 23,
    ) -> "CooccurrenceEmbedding":
        """Train an embedding from co-occurrence statistics.

        Builds a symmetric word-context count matrix over a sliding window,
        converts it to positive pointwise mutual information, and factorises
        with a truncated SVD.  This is the classic count-based construction
        that approximates what skip-gram models learn.
        """
        sentences = [
            [token.strip().lower() for token in sentence if token and token.strip()]
            for sentence in sentences
        ]
        counts: Dict[str, int] = {}
        for sentence in sentences:
            for token in sentence:
                counts[token] = counts.get(token, 0) + 1
        vocabulary = sorted(word for word, count in counts.items() if count >= min_count)
        if not vocabulary:
            return cls({}, dimension, HashingSubwordEmbedding(dimension=dimension, seed=seed))
        index = {word: i for i, word in enumerate(vocabulary)}
        size = len(vocabulary)

        cooccurrence = np.zeros((size, size), dtype=np.float64)
        for sentence in sentences:
            positions = [index[token] for token in sentence if token in index]
            for center, row in enumerate(positions):
                start = max(0, center - window)
                stop = min(len(positions), center + window + 1)
                for neighbour in range(start, stop):
                    if neighbour == center:
                        continue
                    cooccurrence[row, positions[neighbour]] += 1.0

        total = cooccurrence.sum()
        if total == 0:
            return cls({}, dimension, HashingSubwordEmbedding(dimension=dimension, seed=seed))
        row_sums = cooccurrence.sum(axis=1, keepdims=True)
        col_sums = cooccurrence.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.log((cooccurrence * total) / (row_sums @ col_sums))
        pmi[~np.isfinite(pmi)] = 0.0
        ppmi = np.maximum(pmi, 0.0)

        rank = min(dimension, size - 1) if size > 1 else 1
        if rank < 1:
            rank = 1
        u, singular_values, _ = np.linalg.svd(ppmi, full_matrices=False)
        projected = u[:, :rank] * np.sqrt(singular_values[:rank])
        if rank < dimension:
            padding = np.zeros((size, dimension - rank))
            projected = np.hstack([projected, padding])

        vectors = {
            word: _normalise(projected[index[word]]) for word in vocabulary
        }
        return cls(vectors, dimension, HashingSubwordEmbedding(dimension=dimension, seed=seed))
