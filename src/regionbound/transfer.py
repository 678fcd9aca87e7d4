"""The ReLU-layer B matrix.

Every stage of a network maps the region-dimension histogram to a new
one (see ``regionbound.engine``).  Rank limits are clips and max-pooling
and skip/residual wrappers are diagonal scalings; only a ReLU layer
needs a matrix.  For n' hyperplanes, column j of B is
clip(gamma(j, n'), j): the pieces an n'-hyperplane cut makes of one
j-dimensional region, none of dimension above j.  B is therefore upper
triangular.  It is stored by columns, so applying it adds h[j] times
column j over the non-zero entries of h only, and applying its transpose
takes one dot product per column.  B is built once per gamma provider
and n' from a gamma column that is then dropped; the provider keeps
only B, under its lock and column cap.  All entries are exact
non-negative integers.
"""
from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING

from .histogram import Histogram

if TYPE_CHECKING:
    from .gamma import GammaProvider


class BMatrix:
    """Square upper-triangular matrix of big integers, stored by columns."""

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[Histogram, ...]):
        self.columns = columns

    @classmethod
    def from_gamma_column(cls, col: tuple[Histogram, ...]) -> BMatrix:
        """B for n' = len(col) - 1 from gamma(j, n') for j = 0..n'."""
        return cls(tuple(g.clip(j) for j, g in enumerate(col)))

    @property
    def rows(self) -> int:
        return len(self.columns)

    @property
    def cols(self) -> int:
        return len(self.columns)

    def render(self) -> str:
        """Rows of space-separated decimals (appendix matrix layout)."""
        return "\n".join(" ".join(str(c[i]) for c in self.columns)
                         for i in range(self.rows))

    def apply(self, h: Histogram) -> Histogram:
        """Exact product B h: the sum of h[j] * column j."""
        if len(h) > self.cols:
            raise ValueError(f"histogram of length {len(h)} does not fit "
                             f"{self.rows}x{self.cols} transform")
        acc = [0] * self.rows
        for x, col in zip(h.entries, self.columns):
            if x:
                for i, c in enumerate(col.entries):
                    acc[i] += x * c
        return Histogram(acc)

    def transposed(self, w: list[int]) -> list[int]:
        """Exact product B^T w: entry j is the dot product of w and col j."""
        return [sum(map(mul, w, col.entries)) for col in self.columns]


def b_matrix(provider: GammaProvider, nprime: int) -> BMatrix:
    """ReLU-layer matrix: column j is clip(gamma(j, nprime), j).

    The same object is returned for every call with this provider and
    nprime."""
    if nprime < 1:
        raise ValueError("no hyperplanes")
    return provider.b_matrix(nprime)
