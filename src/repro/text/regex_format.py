"""Format-describing regular expression strings (F evidence).

The paper grounds format evidence on six primitive lexical classes:

* ``C`` = ``[A-Z][a-z]+``  (capitalised word)
* ``U`` = ``[A-Z]+``        (upper-case run)
* ``L`` = ``[a-z]+``        (lower-case run)
* ``N`` = ``[0-9]+``        (digit run)
* ``A`` = ``[A-Za-z0-9]+``  (mixed alphanumeric run)
* ``P`` = punctuation and anything not caught above

Each value is tokenised, each token mapped to the *first* matching class in
the order above, and consecutive repetitions of the same symbol are collapsed
to ``<symbol>+`` — e.g. a UK postcode part ``M1 3BE`` yields ``A+``, and
``18 Portland Street`` yields ``NCC`` → ``NC+``.
"""

from __future__ import annotations

import re
from typing import List, Sequence, Set

_CLASS_PATTERNS = (
    ("C", re.compile(r"[A-Z][a-z]+\Z")),
    ("U", re.compile(r"[A-Z]+\Z")),
    ("L", re.compile(r"[a-z]+\Z")),
    ("N", re.compile(r"[0-9]+\Z")),
    ("A", re.compile(r"[A-Za-z0-9]+\Z")),
)

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]+")


def classify_token(token: str) -> str:
    """Return the primitive-class symbol of a single token."""
    for symbol, pattern in _CLASS_PATTERNS:
        if pattern.match(token):
            return symbol
    return "P"


def _collapse(symbols: Sequence[str]) -> str:
    """Collapse consecutive repeats: ``['N','C','C','P','P'] -> 'NC+P+'``."""
    collapsed: List[str] = []
    previous = None
    run_length = 0
    for symbol in symbols:
        if symbol == previous:
            run_length += 1
            continue
        if previous is not None:
            collapsed.append(previous + ("+" if run_length > 1 else ""))
        previous = symbol
        run_length = 1
    if previous is not None:
        collapsed.append(previous + ("+" if run_length > 1 else ""))
    return "".join(collapsed)


def format_string(value: str) -> str:
    """The format-describing string of a single attribute value."""
    if value is None:
        return ""
    tokens = _TOKEN_RE.findall(str(value).strip())
    if not tokens:
        return ""
    symbols = [classify_token(token) for token in tokens]
    return _collapse(symbols)


def format_set(values: Sequence[str]) -> Set[str]:
    """The rset of an attribute: format strings of every value in its extent.

    Each distinct value is formatted once, in order of first occurrence, so
    the set is filled in the same order as formatting every value would.
    """
    result: Set[str] = set()
    for value in dict.fromkeys(str(value) for value in values if value is not None):
        rendered = format_string(value)
        if rendered:
            result.add(rendered)
    return result
