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


def test_csv_format_check(tmp_path):
    proc = run_script("csv_format_check.py", "--count", "20000", "--seed", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.match(r"2\d{4} values written as \"%\.17g\" writes them \(20000 random, seed 3\)", proc.stdout)


def test_csv_format_check_names_the_first_mismatch(tmp_path):
    # a writer that drops the last digit of 0.1 must be caught and reported
    code = (
        "import sys, runpy\n"
        "from nrabi import cli\n"
        "real = cli._csv_text\n"
        "cli._csv_text = lambda rows: real(rows).replace(b'0.10000000000000001', b'0.1000000000000000')\n"
        "sys.argv = ['csv_format_check.py', '--count', '0']\n"
        f"runpy.run_path({str(SCRIPTS / 'csv_format_check.py')!r}, run_name='__main__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.startswith("mismatch: 0.1 (bits 0x3fb999999999999a)"), proc.stdout
