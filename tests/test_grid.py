import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bectension.grid
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
    for k, value in enumerate(PLANTED[:(n_points + 1) // 3]):  # as many as fit
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


def allow_cpus(monkeypatch, n):
    """Make ``dump_profile`` see ``n`` CPUs, so it cuts the table into up to ``n`` parts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test, as the parent saw them."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_nothing_left(directory, target):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [p.name for p in directory.iterdir()] == [target]


class TestDumpInParts:
    @pytest.mark.parametrize("n_points, cpus, parts", [
        (3, 2, 1),         # fewer rows than one block
        (5, 8, 1),         # fewer rows than CPUs
        (12_289, 8, 3),    # fewer blocks than CPUs: one part per whole block
        (9_001, 2, 2),     # the cut, at row 4 500, falls inside the second block
        (8_195, 3, 2),     # two full blocks and 3 rows
    ])
    def test_bytes_match_row_at_a_time_writer(self, tmp_path, monkeypatch, forks, n_points,
                                              cpus, parts):
        allow_cpus(monkeypatch, cpus)
        out = tmp_path / "out"
        out.mkdir()
        pair = planted_pair(n_points)
        dump_profile(pair, out / "dump.txt")
        row_at_a_time_dump(pair, tmp_path / "rows.txt")
        assert len(forks) == parts - 1
        assert (out / "dump.txt").read_bytes() == (tmp_path / "rows.txt").read_bytes()
        assert_nothing_left(out, "dump.txt")

    def test_relative_path(self, tmp_path, monkeypatch, forks):
        allow_cpus(monkeypatch, 2)
        monkeypatch.chdir(tmp_path)
        pair = planted_pair(8_195)
        dump_profile(pair, "dump.txt")
        row_at_a_time_dump(pair, tmp_path / "rows.txt")
        assert len(forks) == 1
        assert (tmp_path / "dump.txt").read_bytes() == (tmp_path / "rows.txt").read_bytes()

    def test_failed_child_raises_oserror(self, tmp_path, monkeypatch, forks):
        allow_cpus(monkeypatch, 2)
        parent, write_rows = os.getpid(), bectension.grid._write_rows

        def fail_in_child(fh, table):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            write_rows(fh, table)

        monkeypatch.setattr(bectension.grid, "_write_rows", fail_in_child)
        with pytest.raises(OSError, match="worker process"):
            dump_profile(planted_pair(8_195), tmp_path / "dump.txt")
        assert len(forks) == 1
        assert_nothing_left(tmp_path, "dump.txt")

    def test_failed_parent_stops_its_children(self, tmp_path, monkeypatch, forks):
        allow_cpus(monkeypatch, 3)
        parent, write_rows = os.getpid(), bectension.grid._write_rows

        def fail_in_parent(fh, table):
            if os.getpid() == parent:
                raise RuntimeError("formatting failed")
            write_rows(fh, table)

        monkeypatch.setattr(bectension.grid, "_write_rows", fail_in_parent)
        with pytest.raises(RuntimeError, match="formatting failed"):
            dump_profile(planted_pair(12_289), tmp_path / "dump.txt")
        assert len(forks) == 2
        assert_nothing_left(tmp_path, "dump.txt")

    def test_missing_directory_forks_nothing(self, tmp_path, monkeypatch, forks):
        allow_cpus(monkeypatch, 2)
        with pytest.raises(FileNotFoundError):
            dump_profile(planted_pair(8_195), tmp_path / "missing" / "dump.txt")
        assert forks == []


# Every value is tiled over 8 193 rows, so each one lands in both parts.
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=16))
@example(values=[-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308])
def test_finite_doubles_read_back_bit_exactly_from_two_parts(tmp_path_factory, values):
    values = np.array(values)
    pair = ProfilePair(Grid1D(7.3, 8_193), np.resize(values, 8_193),
                       np.resize(values[::-1], 8_193))
    path = tmp_path_factory.mktemp("dump") / "dump.txt"
    with pytest.MonkeyPatch.context() as mp:
        allow_cpus(mp, 2)
        dump_profile(pair, path)
    t, v, phi = np.loadtxt(path, unpack=True)
    for got, want in [(t, pair.grid.nodes), (v, pair.v), (phi, pair.phi)]:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
