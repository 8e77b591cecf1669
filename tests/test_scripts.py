"""The demo scripts under scripts/ run end to end and print what they promise."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd,
    )


def test_rabi_demo(tmp_path):
    out = tmp_path / "demo.csv"
    proc = run_script("rabi_demo.py", "--samples", "5", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    closed = re.search(r"closed form vs cos\^2\(gt\): (\S+)", proc.stdout)
    assert closed is not None, proc.stdout
    assert float(closed.group(1)) <= 1e-12
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,pop_0,pop_1,rk4_pop_0,rk4_pop_1"
    assert len(lines) == 1 + 5


def test_rwa_error_scan(tmp_path):
    proc = run_script("rwa_error_scan.py", "--ratios", "0.2", "0.1", "--cycles", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [0.2, 0.1]
    assert all(len(row) == 3 and float(row[2]) >= 0.0 for row in rows)
