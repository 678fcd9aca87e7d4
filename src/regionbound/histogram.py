"""Dimension/activation histograms and their algebra.

A histogram is a finite sequence of non-negative arbitrary-precision
integers indexed by dimension (or activation count).  Trailing zeros are
semantically irrelevant, so they are stripped on construction and plain
structural equality gives the intended value equality.
"""
from __future__ import annotations

from typing import Iterable, Iterator


class Histogram:
    """Immutable sequence of non-negative counts, index = dimension."""

    __slots__ = ("entries",)

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int] = ()):
        es = list(entries)
        for e in es:
            if e < 0:
                raise ValueError(f"negative histogram entry: {e}")
        while es and es[-1] == 0:
            es.pop()
        object.__setattr__(self, "entries", tuple(es))

    def __setattr__(self, name, value):
        raise AttributeError("Histogram is immutable")

    @classmethod
    def unit(cls, n: int) -> "Histogram":
        """Unit-mass histogram: entry 1 at index n, zeros elsewhere."""
        if n < 0:
            raise ValueError("index must be non-negative")
        return cls((0,) * n + (1,))

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        if i < 0:
            raise IndexError("histogram indices start at 0")
        return self.entries[i] if i < len(self.entries) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Histogram({list(self.entries)})"

    # -- algebra -------------------------------------------------------------

    def l1(self) -> int:
        return sum(self.entries)

    def tail(self, j: int) -> int:
        """Sum of entries at indices >= j."""
        return sum(self.entries[j:])

    def clip(self, istar: int) -> "Histogram":
        """Move all mass at indices >= istar down onto index istar."""
        if istar < 0:
            raise ValueError("clip index must be non-negative")
        if len(self.entries) <= istar + 1:
            return self
        return Histogram(self.entries[:istar] + (self.tail(istar),))

    # -- rendering -----------------------------------------------------------

    def render(self, pad_to: int | None = None) -> str:
        """Canonical "(a,b,c)" text, optionally zero-padded to a fixed length."""
        es = list(self.entries)
        if pad_to is not None:
            if len(es) > pad_to:
                raise ValueError(
                    f"histogram of length {len(es)} does not fit in {pad_to}")
            es += [0] * (pad_to - len(es))
        return "(" + ",".join(str(e) for e in es) + ")"

