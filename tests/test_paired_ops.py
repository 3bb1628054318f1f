import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tree_against_itself_matches():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ops.py"), str(ROOT),
                           str(ROOT), "-n", "2", "--ops", "tf1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("2 rounds")
    assert len(lines) == 3  # the header and one operation
    name, *numbers, output = lines[2].split()
    assert (name, output) == ("tf1", "same")
    assert len(numbers) == 5 and all(float(x) > 0.0 for x in numbers)


def test_unknown_operation_is_a_usage_error():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "paired_ops.py"), str(ROOT),
                           str(ROOT), "--ops", "tf9"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2 and "unknown operations ['tf9']" in proc.stderr
