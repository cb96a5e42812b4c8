"""Read-only sequences whose entries are built when read.

The batched engine and Algorithm 3 keep their answers as flat arrays and
columns; a caller usually reads a few entries (the wire keeps the top k
rankings and 20 join paths) of rankings and path sets that hold hundreds or
thousands.  Holding every entry as an object would cost its construction
and, for long-lived answers, full garbage collections that walk them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator


class BuiltOnRead(Sequence):
    """A read-only sequence whose entries are built when read.

    Subclasses give ``__len__`` and ``_entry(position)``.  ``len``, integer
    and negative indexing and iteration work, slicing returns a list, the
    sequence compares equal to a list of the same entries (in either
    direction), and a pickled copy is that list.
    """

    __slots__ = ()

    def _entry(self, position: int):
        raise NotImplementedError

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._entry(position) for position in range(len(self))[index]]
        return self._entry(range(len(self))[index])

    def __iter__(self) -> Iterator:
        return map(self._entry, range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (BuiltOnRead, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]  # list-like equality

    def __reduce__(self):
        return (list, (list(self),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"
