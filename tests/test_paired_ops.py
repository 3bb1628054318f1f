import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("paired_ops", ROOT / "tools" / "paired_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(*args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ops.py"), *args],
                          capture_output=True, text=True, timeout=120)


def test_tree_against_itself_matches():
    proc = run_tool(str(ROOT), str(ROOT), "-n", "2", "--ops", "tf1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("2 rounds")
    assert len(lines) == 3  # the header and one operation
    name, *numbers, output = lines[2].split()
    assert (name, output) == ("tf1", "same")
    assert len(numbers) == 5 and all(float(x) > 0.0 for x in numbers)


def test_unknown_operation_is_a_usage_error():
    proc = run_tool(str(ROOT), str(ROOT), "--ops", "tf9")
    assert proc.returncode == 2 and "unknown operations ['tf9']" in proc.stderr


def test_no_rounds_is_a_usage_error():
    proc = run_tool(str(ROOT), str(ROOT), "-n", "0")
    assert proc.returncode == 2 and "-n must be at least 1, got 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_tree_without_the_package_is_a_usage_error(tmp_path):
    proc = run_tool(str(ROOT), str(tmp_path))
    assert proc.returncode == 2
    assert f"{tmp_path} is not a checkout of this repository: no src/bectension" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_column_differences_name_each_differing_column():
    base = ("beta,sigma,tag,iters\n"
            "1,0.5,a,20\n"
            "10,0.25,b,18\n"
            "100,0.75,c,16\n")
    change = ("beta,sigma,tag,iters\n"
              "1,0.5000000001,a,10\n"
              "10,0.25,x,18\n"
              "100,0.7500000003,c,11\n")
    assert load_tool().column_differences(base, change) == [
        "sigma: max relative difference 4e-10, max absolute difference 3e-10", "tag: b -> x", "iters: 20 -> 10, 16 -> 11"]


def test_column_differences_of_unlike_tables():
    tool = load_tool()
    assert tool.column_differences("a,b\n1,2\n", "a,b\n1,2\n") == []
    assert tool.column_differences("a,b\n1,2\n", "a,c\n1,2\n") == ["header or row count differs"]
    assert tool.column_differences("a\nnan\n", "a\n1.5\n") == ["a: nan -> 1.5"]
    assert tool.column_differences("a\n0\n", "a\n0.0\n") == [
        "a: max relative difference 0, max absolute difference 0"]


def test_dump_differences_give_each_column_its_largest_change(tmp_path):
    base, change = tmp_path / "base.txt", tmp_path / "change.txt"
    base.write_text("# t v phi\n-1 1 0\n0 0.5 1.5\n1 1 3\n")
    change.write_text("# t v phi\n-1 1 0\n0 0.5000001 1.5\n1 0.99 3.25\n")
    assert load_tool().dump_differences(str(base), str(change)) == [
        "profile dump: max |dt| 0, |dv| 0.01, |dphi| 0.25"]
    change.write_text("# t v phi\n-1 1 0\n")
    assert load_tool().dump_differences(str(base), str(change)) == [
        "profile dump: row count differs"]
