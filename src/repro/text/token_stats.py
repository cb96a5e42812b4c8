"""Token histograms and the informative-token selection of Algorithm 1.

For every value in an attribute extent the paper splits the value into parts
and, per part, adds to the attribute's tset the word with the *fewest*
occurrences in the extent (a TF/IDF-like notion of informativeness), and
looks up the word-embedding vector of the word with the *most* occurrences
(a frequently occurring word like ``street`` is weak evidence of value
overlap but strong evidence of the attribute's domain-specific type).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.text.tokenizer import tokenize_parts


class TokenHistogram:
    """Occurrence histogram of word tokens across an attribute extent.

    Mirrors the ``histogram`` data structure of Algorithm 1: tokens are
    inserted per value, and the histogram can report which tokens are
    frequent or infrequent relative to the extent.
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._total_values = 0

    def insert(self, tokens: Iterable[str], times: int = 1) -> None:
        """Record the tokens of one value, repeated ``times`` in the extent."""
        if times == 1:
            self._counts.update(tokens)
        else:
            self._counts.update({token: count * times for token, count in Counter(tokens).items()})
        self._total_values += times

    def count(self, token: str) -> int:
        """Number of occurrences of ``token`` across the extent."""
        return self._counts[token]

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def total_values(self) -> int:
        """Number of values inserted so far."""
        return self._total_values

    def frequency_threshold(self) -> float:
        """Occurrence count above which a token is considered frequent.

        Tokens appearing more often than the mean occurrence count are
        frequent; everything else is infrequent.  With near-unique extents
        (mean ~1) every token is infrequent, which matches the intuition that
        such extents carry value-overlap signal rather than type signal.
        """
        if not self._counts:
            return 0.0
        return sum(self._counts.values()) / len(self._counts)

    def frequent(self) -> Set[str]:
        """Tokens whose occurrence count exceeds the frequency threshold."""
        threshold = self.frequency_threshold()
        return {token for token, count in self._counts.items() if count > threshold}

    def infrequent(self) -> Set[str]:
        """Tokens whose occurrence count does not exceed the threshold."""
        threshold = self.frequency_threshold()
        return {token for token, count in self._counts.items() if count <= threshold}

    def most_common(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` most frequent tokens with their counts."""
        return self._counts.most_common(n)

    def as_dict(self) -> Dict[str, int]:
        """A copy of the raw counts."""
        return dict(self._counts)


def informative_and_frequent_tokens(values: Sequence[str]) -> Tuple[Set[str], Set[str]]:
    """Compute the tset and the embedding-token set of an attribute extent.

    Implements the per-part selection of Algorithm 1:

    * the tset receives, for each part of each value, the word with the
      fewest occurrences across the extent (ties broken towards the longer,
      then lexicographically smaller word so the choice is deterministic);
    * the embedding-token set receives, for each part, the word with the most
      occurrences across the extent (same deterministic tie-breaking).

    Each distinct value is tokenized once and its tokens counted as often
    as it repeats; repeats select the same words again, so they add nothing.

    Returns ``(tset, embedding_tokens)``.
    """
    histogram = TokenHistogram()
    per_value_parts: List[List[List[str]]] = []
    for value, times in Counter(map(str, values)).items():
        parts = tokenize_parts(value)
        per_value_parts.append(parts)
        histogram.insert([token for part in parts for token in part], times=times)

    tset: Set[str] = set()
    embedding_tokens: Set[str] = set()
    for parts in per_value_parts:
        for part in parts:
            if not part:
                continue
            rarest = min(part, key=lambda token: (histogram.count(token), -len(token), token))
            commonest = max(part, key=lambda token: (histogram.count(token), len(token), token))
            tset.add(rarest)
            embedding_tokens.add(commonest)
    return tset, embedding_tokens


def value_token_set(values: Sequence[str]) -> Set[str]:
    """The union of all word tokens of an extent (used by the baselines).

    TUS and Aurum index full token sets rather than the informative subset;
    exposing this here lets the baselines share the tokenizer.
    """
    tokens: Set[str] = set()
    for value in dict.fromkeys(map(str, values)):
        for part in tokenize_parts(value):
            tokens.update(part)
    return tokens
