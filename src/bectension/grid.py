"""Uniform 1D grids and discrete (v, phi) field pairs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid on [-L, L] with an odd number of nodes (node at 0)."""

    half_width: float
    n_points: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
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
    def from_spacing(cls, half_width: float, max_spacing: float) -> "Grid1D":
        """Smallest odd node count whose spacing does not exceed ``max_spacing``."""
        if max_spacing <= 0:
            raise ValueError("max_spacing must be positive")
        n_cells = int(np.ceil(2.0 * half_width / max_spacing))
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
    pinning so that relaxed pairs (energy probes, stretch sources) can be
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

    def copy(self) -> "ProfilePair":
        return ProfilePair(self.grid, self.v.copy(), self.phi.copy())

    def check_boxes(self, slack: float = 1e-12):
        if self.v.min() < -slack or self.v.max() > 1.0 + slack:
            raise ValueError("v must take values in [0, 1]")
        if self.phi.min() < -slack or self.phi.max() > np.pi + slack:
            raise ValueError("phi must take values in [0, pi]")

    def is_pinned(self, tol: float = 1e-12) -> bool:
        return (
            abs(self.v[0] - 1.0) <= tol
            and abs(self.v[-1] - 1.0) <= tol
            and abs(self.phi[0]) <= tol
            and abs(self.phi[-1] - np.pi) <= tol
        )


_DUMP_BLOCK_ROWS = 4096  # rows formatted per write; bounds the text held at once


def dump_profile(pair: ProfilePair, path, eta: np.ndarray | None = None):
    """Write a plain-text profile dump: header then one node per line.

    Columns are ``t v phi`` (plus ``eta`` when given), each at ``%.17g``, so
    ``np.loadtxt`` reads the values back bit-exactly.  Rows are formatted and
    written in blocks of ``_DUMP_BLOCK_ROWS``; the bytes are the same as
    formatting each value with ``format(x, ".17g")`` row by row.
    """
    cols = [pair.grid.nodes, pair.v, pair.phi]
    header = "# t v phi"
    if eta is not None:
        eta = np.asarray(eta, dtype=float)
        if eta.shape != pair.v.shape:
            raise ValueError(f"eta has {eta.size} values but the grid has {pair.v.size} nodes")
        cols.append(eta)
        header += " eta"
    table = np.column_stack(cols)
    row = " ".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _DUMP_BLOCK_ROWS):
            block = table[start:start + _DUMP_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))
