"""Uniform 1D grids and discrete (v, phi) field pairs."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import orjson


def require_positive(name: str, value: float) -> None:
    """Reject a value outside (0, inf), nan included."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def odd_node_count(half_width: float, spacing: float) -> int:
    """Smallest odd node count on [-half_width, half_width] at most ``spacing`` apart."""
    require_positive("half_width", half_width)
    require_positive("spacing", spacing)
    cells = 2.0 * half_width / spacing
    if cells == math.inf:
        raise MemoryError(f"a grid of half-width {half_width:g} at spacing {spacing:g} has "
                          f"more nodes than a double can count")
    n_cells = math.ceil(cells)
    return n_cells + n_cells % 2 + 1


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
        node_bytes = 8 * self.n_points  # one float64 array over the nodes
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if node_bytes > memory:
            from decimal import Decimal  # formats an int of any size; needed only here
            n, size, total = (f"{Decimal(x):.1e}" for x in (self.n_points, node_bytes, memory))
            raise MemoryError(f"a grid of {n} nodes needs {size} bytes per node array, "
                              f"more than the {total} bytes of physical memory")
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
        return cls(half_width, odd_node_count(half_width, spacing))

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

    Columns are ``t v phi``, each value as its shortest round-trip text
    (orjson's, e.g. ``-999.99 0.9999999999999993 6.320385104174875e-9``),
    so ``np.loadtxt`` reads the values back bit-exactly.  The rows are
    formatted ``_DUMP_BLOCK_ROWS`` at a time in this process: each block is
    one ``orjson.dumps`` of its nested list, turned into lines.  orjson
    writes a non-finite value as ``null``, so a table holding one raises
    ``ValueError`` before the file is opened.
    """
    table = np.column_stack([pair.grid.nodes, pair.v, pair.phi])
    if not np.isfinite(table).all():
        raise ValueError("profile dump needs finite values; the table holds nan or inf")
    with open(path, "wb") as fh:
        fh.write(b"# t v phi\n")
        for start in range(0, len(table), _DUMP_BLOCK_ROWS):
            text = orjson.dumps(table[start:start + _DUMP_BLOCK_ROWS],
                                option=orjson.OPT_SERIALIZE_NUMPY)
            fh.write(text[2:-2].replace(b"],[", b"\n").replace(b",", b" ") + b"\n")
