import numpy as np
import pytest

from bectension.grid import Grid1D, ProfilePair, dump_profile


def row_at_a_time_dump(pair, path):
    """Reference writer: one row per write, each value through format(x, ".17g")."""
    with open(path, "w") as fh:
        fh.write("# t v phi\n")
        for row in zip(pair.grid.nodes, pair.v, pair.phi):
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


# Values whose shortest round-trip text differs from their %.17g text, and
# the extremes of the double range: a signed zero, the smallest subnormal,
# a tiny normal, the classic 0.1 + 0.2 and the double just below 1.
PLANTED = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1.0 - 2.0**-53]


def planted_pair(n_points):
    grid = Grid1D(7.3, n_points)
    rng = np.random.default_rng(4)
    v = rng.uniform(0.0, 1.0, n_points)
    phi = np.pi * rng.uniform(0.0, 1.0, n_points)
    for k, value in enumerate(PLANTED):
        v[3 * k + 1] = value
        phi[-(3 * k + 2)] = value
    return ProfilePair(grid, v, phi)


class TestDumpProfile:
    # 8 195 nodes: two full 4 096-row blocks and a partial third of 3 rows
    @pytest.mark.parametrize("columns", ["t v phi"], ids=["t-v-phi"])
    def test_bytes_match_row_at_a_time_writer(self, tmp_path, columns):
        pair = planted_pair(8195)
        dump_profile(pair, tmp_path / "blocked.txt")
        row_at_a_time_dump(pair, tmp_path / "rows.txt")
        blocked = (tmp_path / "blocked.txt").read_bytes()
        assert blocked == (tmp_path / "rows.txt").read_bytes()
        assert blocked.count(b"\n") == 8196
        assert blocked.startswith(f"# {columns}\n".encode())

    def test_planted_values_read_back_bit_exactly(self, tmp_path):
        pair = planted_pair(8195)
        dump_profile(pair, tmp_path / "dump.txt")
        t, v, phi = np.loadtxt(tmp_path / "dump.txt", unpack=True)
        for got, want in [(t, pair.grid.nodes), (v, pair.v), (phi, pair.phi)]:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
