import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bectension.grid import Grid1D, ProfilePair, dump_profile


def row_at_a_time_dump(pair, path):
    """Reference writer: one row per write, each value through its own orjson.dumps."""
    with open(path, "wb") as fh:
        fh.write(b"# t v phi\n")
        for row in zip(pair.grid.nodes, pair.v, pair.phi):
            fh.write(b" ".join(orjson.dumps(float(x)) for x in row) + b"\n")


def significant_digits(text):
    """Digits of the mantissa of a decimal float text, leading and trailing zeros dropped."""
    mantissa = text.lower().lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.strip("0")) or 1


# Values whose shortest round-trip text differs from their %.17g text, and
# the extremes of the double range: a signed zero, the smallest subnormal,
# a tiny normal, the classic 0.1 + 0.2 and the double just below 1.
PLANTED = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1.0 - 2.0**-53]


def planted_pair(n_points):
    grid = Grid1D(7.3, n_points)
    rng = np.random.default_rng(4)
    v = rng.uniform(0.0, 1.0, n_points)
    phi = np.pi * rng.uniform(0.0, 1.0, n_points)
    for k, value in enumerate(PLANTED[:(n_points + 1) // 3]):  # as many as fit
        v[3 * k + 1] = value
        phi[-(3 * k + 2)] = value
    return ProfilePair(grid, v, phi)


class TestGridMemory:
    def test_grid_beyond_physical_memory_is_refused_before_allocation(self, monkeypatch):
        def no_linspace(*args, **kwargs):
            raise AssertionError("allocated before the node count was checked")

        monkeypatch.setattr(np, "linspace", no_linspace)
        n_points = 2 * 10**15 + 1  # 16 PB per node array
        with pytest.raises(MemoryError, match=r"a grid of 2\.0e\+15 nodes needs 1\.6e\+16 bytes "
                                              r"per node array, more than the \d\.\de\+\d+ bytes "
                                              r"of physical memory$"):
            Grid1D(1.0, n_points)


class TestDumpProfile:
    # 8 195 nodes: two full 4 096-row blocks and a partial third of 3 rows
    @pytest.mark.parametrize("columns", ["t v phi"], ids=["t-v-phi"])
    def test_bytes_match_row_at_a_time_writer(self, tmp_path, columns):
        pair = planted_pair(8195)
        dump_profile(pair, tmp_path / "blocked.txt")
        row_at_a_time_dump(pair, tmp_path / "rows.txt")
        blocked = (tmp_path / "blocked.txt").read_bytes()
        assert blocked == (tmp_path / "rows.txt").read_bytes()
        lines = blocked.decode().split("\n")
        assert lines[0] == f"# {columns}" and lines[-1] == ""
        assert len(lines) == 8195 + 2
        for line, row in zip(lines[1:-1], zip(pair.grid.nodes, pair.v, pair.phi), strict=True):
            tokens = line.split(" ")
            assert len(tokens) == 3
            for token, value in zip(tokens, row):
                # the same bits back, from no more digits than repr, the shortest
                assert np.float64(token).view(np.int64) == np.float64(value).view(np.int64)
                assert significant_digits(token) == significant_digits(repr(float(value)))

    # a grid of one row, a block short by one row, a block and one row more,
    # two blocks and one row more
    @pytest.mark.parametrize("n_points", [3, 4095, 4097, 8193])
    def test_block_edges_match_row_at_a_time_writer(self, tmp_path, n_points):
        pair = ProfilePair(Grid1D(7.3, n_points), np.linspace(0.0, 1.0, n_points),
                           np.linspace(0.0, np.pi, n_points))
        edges = sorted({0, 1, 4094, 4095, 4096, n_points - 2, n_points - 1} & set(range(n_points)))
        values = [-0.0, 5e-324, 1e308, 1e-7, -999.99]
        for k, row in enumerate(edges):  # every planted value in both columns
            pair.v[row] = values[k % len(values)]
            pair.phi[row] = values[(k + 2) % len(values)]
        dump_profile(pair, tmp_path / "blocked.txt")
        row_at_a_time_dump(pair, tmp_path / "rows.txt")
        assert (tmp_path / "blocked.txt").read_bytes() == (tmp_path / "rows.txt").read_bytes()

    def test_planted_values_read_back_bit_exactly(self, tmp_path):
        pair = planted_pair(8195)
        dump_profile(pair, tmp_path / "dump.txt")
        t, v, phi = np.loadtxt(tmp_path / "dump.txt", unpack=True)
        for got, want in [(t, pair.grid.nodes), (v, pair.v), (phi, pair.phi)]:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["v", "phi"])
    @pytest.mark.parametrize("row", [0, 4095, 4096, 8194])  # block edges and the last row
    def test_non_finite_value_is_refused_before_the_file_opens(self, tmp_path, value,
                                                                column, row):
        pair = planted_pair(8195)
        getattr(pair, column)[row] = value
        with pytest.raises(ValueError, match="finite"):
            dump_profile(pair, tmp_path / "dump.txt")
        assert list(tmp_path.iterdir()) == []


# Every value is tiled over 8 193 rows, so each one lands in all three blocks.
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=16))
@example(values=[-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308])
def test_finite_doubles_read_back_bit_exactly_across_blocks(tmp_path_factory, values):
    values = np.array(values)
    pair = ProfilePair(Grid1D(7.3, 8_193), np.resize(values, 8_193),
                       np.resize(values[::-1], 8_193))
    path = tmp_path_factory.mktemp("dump") / "dump.txt"
    dump_profile(pair, path)
    t, v, phi = np.loadtxt(path, unpack=True)
    for got, want in [(t, pair.grid.nodes), (v, pair.v), (phi, pair.phi)]:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
