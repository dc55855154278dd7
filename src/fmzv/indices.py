"""Multi-indices (compositions of integers) and their statistics.

An index is a finite tuple of positive integers (k1, ..., kr).  Its
weight is the sum of the parts, its depth the number of parts, and its
height the number of parts that are at least 2.  The empty index is a
first-class value with weight = depth = height = 0.

Two index families recur throughout the package:

* ``iter_admissible_indices(k, s)``: indices of weight k, height s,
  whose first part is at least 2.  Empty when k < 2s.
* ``iter_all_indices(k, s)``: same weight/height constraint but no
  restriction on the first part.

Both stream their family in lexicographic order, so golden-file tests
stay stable and nothing is materialized (the family sizes grow like
2^k).
"""

from __future__ import annotations

from typing import Iterator


class Index:
    """An ordered tuple of positive integer parts; possibly empty.

    An immutable value: equal parts compare and hash equal, and setting or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...] = ()):
        for x in parts:
            if not isinstance(x, int) or x < 1:
                raise ValueError(f"index parts must be positive integers, got {x!r}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Index is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Index is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __reduce__(self):
        return self.__class__, (self.parts,)

    @classmethod
    def of(cls, *parts: int) -> "Index":
        return cls(tuple(parts))

    @classmethod
    def parse(cls, text: str) -> "Index":
        """Parse the textual syntax "k1,k2,...,kr"; "" is the empty index.

        Tokens are bare decimal digits: no spaces, signs, or blanks.
        """
        if text == "":
            return cls(())
        tokens = text.split(",")
        if any(not tok.isascii() or not tok.isdigit() for tok in tokens):
            raise ValueError(f"bad index syntax: {text!r}")
        parts = tuple(int(tok) for tok in tokens)
        if any(x < 1 for x in parts):
            raise ValueError(f"index parts must be positive: {text!r}")
        return cls(parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def height(self) -> int:
        return sum(1 for x in self.parts if x >= 2)

    def reverse(self) -> "Index":
        return Index(self.parts[::-1])

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __str__(self):
        return ",".join(str(x) for x in self.parts)

    def __repr__(self):
        return f"Index({','.join(map(str, self.parts))})"


def _feasible(weight: int, height: int) -> bool:
    # A composition of `weight` with exactly `height` parts >= 2 exists
    # iff weight >= 2*height, padding with 1s (weight 0 forces height 0).
    if height < 0:
        return False
    if weight == 0:
        return height == 0
    return weight >= 2 * height


def _compositions(weight: int, height: int, first_min: int) -> Iterator[tuple[int, ...]]:
    """Compositions of `weight` with `height` parts >= 2, lexicographic order."""
    if weight == 0:
        if height == 0:
            yield ()
        return
    for first in range(first_min, weight + 1):
        rest_height = height - (1 if first >= 2 else 0)
        if not _feasible(weight - first, rest_height):
            continue
        for tail in _compositions(weight - first, rest_height, 1):
            yield (first,) + tail


def iter_admissible_indices(k: int, s: int) -> Iterator[Index]:
    """Stream indices of weight k, height s, first part >= 2, in lex order."""
    if k < 1 or s < 1:
        raise ValueError(f"need k >= 1 and s >= 1, got k={k}, s={s}")
    for parts in _compositions(k, s, 2):
        yield Index(parts)


def iter_all_indices(k: int, s: int) -> Iterator[Index]:
    """Stream indices of weight k and height s with unrestricted first part."""
    if k < 0 or s < 0:
        raise ValueError(f"need k >= 0 and s >= 0, got k={k}, s={s}")
    for parts in _compositions(k, s, 1):
        yield Index(parts)


def _compositions_any_height(weight: int) -> Iterator[tuple[int, ...]]:
    if weight == 0:
        yield ()
        return
    for first in range(1, weight + 1):
        for tail in _compositions_any_height(weight - first):
            yield (first,) + tail


def iter_indices_of_weight(w_max: int) -> Iterator[Index]:
    """Stream every index of weight 1..w_max, ordered by (weight, parts)."""
    for w in range(1, w_max + 1):
        for parts in _compositions_any_height(w):
            yield Index(parts)
