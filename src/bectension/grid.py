"""Uniform 1D grids and discrete (v, phi) field pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def require_positive(name: str, value: float) -> None:
    """Reject a value outside (0, inf), nan included."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L] with an odd number of nodes (node at 0)."""

    half_width: float
    n_points: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_positive("half_width", self.half_width)
        if self.n_points < 3:
            raise ValueError("need at least 3 nodes")
        if self.n_points % 2 == 0:
            raise ValueError("n_points must be odd so the grid is symmetric about 0")
        object.__setattr__(
            self, "nodes",
            np.linspace(-self.half_width, self.half_width, self.n_points),
        )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    @classmethod
    def from_spacing(cls, half_width: float, spacing: float) -> "Grid1D":
        """Smallest odd node count whose spacing does not exceed ``spacing``."""
        require_positive("half_width", half_width)
        require_positive("spacing", spacing)
        n_cells = int(np.ceil(2.0 * half_width / spacing))
        if n_cells % 2 == 1:
            n_cells += 1
        return cls(half_width, n_cells + 1)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.ones(self.n_points)
        w[0] = w[-1] = 0.5
        return w


@dataclass
class ProfilePair:
    """Amplitude v in [0,1] and mixing angle phi in [0,pi] on a grid.

    A pair admissible for the transition problem is pinned at the ends:
    v(+-L)=1, phi(-L)=0, phi(L)=pi.  Construction does not enforce the
    pinning so that relaxed pairs (energy probes) can be
    represented; solver entry points validate what they need.
    """

    grid: Grid1D
    v: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.v.shape != (self.grid.n_points,) or self.phi.shape != (self.grid.n_points,):
            raise ValueError("field lengths must match the grid")


_DUMP_BLOCK_ROWS = 4096  # rows formatted per write; bounds the text held at once


def dump_profile(pair: ProfilePair, path):
    """Write a plain-text profile dump: header then one node per line.

    Columns are ``t v phi``, each at ``%.17g``, so ``np.loadtxt`` reads the
    values back bit-exactly.  Rows are formatted and written in blocks of
    ``_DUMP_BLOCK_ROWS``; the bytes are the same as formatting each value
    with ``format(x, ".17g")`` row by row.
    """
    table = np.column_stack([pair.grid.nodes, pair.v, pair.phi])
    row = "%.17g %.17g %.17g\n"
    with open(path, "w") as fh:
        fh.write("# t v phi\n")
        for start in range(0, len(table), _DUMP_BLOCK_ROWS):
            block = table[start:start + _DUMP_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
