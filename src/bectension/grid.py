"""Uniform 1D grids and discrete (v, phi) field pairs."""

from __future__ import annotations

import math
import os
import shutil
import signal
import tempfile
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
_COPY_CHUNK = 1 << 20     # bytes per read when a part file is appended to the target


def _write_rows(fh, table) -> None:
    """Write ``table``'s rows to the binary file ``fh`` at ``%.17g``, in blocks."""
    row = "%.17g %.17g %.17g\n"
    for start in range(0, len(table), _DUMP_BLOCK_ROWS):
        block = table[start:start + _DUMP_BLOCK_ROWS]
        fh.write(((row * len(block)) % tuple(block.ravel().tolist())).encode())


def _part_count(n_rows: int) -> int:
    """One part per CPU this process may run on, each of at least one block.

    One part where the affinity mask is unknown, which includes every
    platform without ``os.fork``.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_rows // _DUMP_BLOCK_ROWS))


def dump_profile(pair: ProfilePair, path):
    """Write a plain-text profile dump: header then one node per line.

    Columns are ``t v phi``, each at ``%.17g``, so ``np.loadtxt`` reads the
    values back bit-exactly.  Formatting holds the GIL, so the rows are cut
    into one contiguous part per available CPU (``_part_count``).  This
    process writes the header and part 0 straight into ``path``; each other
    part is formatted by a forked child into a temporary file beside
    ``path``, which is appended and deleted in order.  A child touches only
    its rows, its own file and ``%`` formatting, so it needs no lock that
    another thread of this process could hold at the fork, and it leaves
    through ``os._exit``, running no cleanup of this process.  Every process
    formats ``_DUMP_BLOCK_ROWS`` rows at a time.  The bytes are the same as
    formatting each value with ``format(x, ".17g")`` row by row, whatever
    the part count.  A failed child raises ``OSError``; no child and no
    part file outlive the call.
    """
    table = np.column_stack([pair.grid.nodes, pair.v, pair.phi])
    n_parts = _part_count(len(table))
    cuts = [len(table) * k // n_parts for k in range(n_parts + 1)]
    path = os.fspath(path)
    with open(path, "wb") as fh:
        children = []  # [pid, or None once reaped; part file] of each part left, in order
        try:
            for k in range(1, n_parts):
                fd, part = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.",
                                            suffix=".part", dir=os.path.dirname(path))
                os.close(fd)
                children.append([None, part])
                pid = os.fork()
                if pid == 0:  # child: format part k
                    status = 1
                    try:
                        with open(part, "wb") as out:
                            _write_rows(out, table[cuts[k]:cuts[k + 1]])
                        status = 0
                    finally:
                        os._exit(status)
                children[-1][0] = pid
            fh.write(b"# t v phi\n")
            _write_rows(fh, table[:cuts[1]])
            while children:
                pid, part = children[0]
                _, status = os.waitpid(pid, 0)
                children[0][0] = None
                if os.waitstatus_to_exitcode(status) != 0:
                    raise OSError(f"worker process {pid} failed to format its rows of {path}")
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh, _COPY_CHUNK)
                os.unlink(part)
                children.pop(0)
        finally:
            for pid, part in children:
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                os.unlink(part)
