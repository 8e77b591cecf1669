"""Smoke test of the benchmark itself: schema, metric names and exact counts.

    python3 bench/smoke.py

Runs every workload at minimal size with and without tracing and checks the
result line against BENCHMARK.json; repeats each traced run with the same
seed and requires every count to repeat exactly; checks that the tracer
wraps the right names on the bundled three-level scenario; and checks that
the benchmark refuses to run without the package sources. No timing bounds.
Not part of the package's test suite.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COUNT_UNITS = {"count", "calls/q", "ratio", "evals/step"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}", flush=True)


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def check_result(workload: str, trace: int, proc, declared: dict) -> dict:
    where = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{where}: exit code {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {}
    result = json.loads(lines[-1])
    expect(lines[-2].startswith("# detail {"), f"{where}: no detail line")
    detail = json.loads(lines[-2].removeprefix("# detail "))
    expect(set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}")
    expect(isinstance(result["correct"], bool), f"{where}: correct is not a bool")
    attempted, failed = result["attempted"], result["failed"]
    expect(isinstance(attempted, int) and attempted >= 1, f"{where}: attempted {attempted!r}")
    expect(isinstance(failed, int) and 0 <= failed <= attempted, f"{where}: failed {failed!r}")
    expect(result["correct"] == (failed == 0), f"{where}: correct disagrees with failed")
    wanted = declared["per_layer" if trace else "end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in wanted], f"{where}: metric names differ")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        expect(set(got) == {"value", "unit"}, f"{where}: {m['name']} keys {sorted(got)}")
        expect(got.get("unit") == m["unit"], f"{where}: {m['name']} unit {got.get('unit')!r}")
        value = got.get("value")
        expect(isinstance(value, float) and math.isfinite(value), f"{where}: {m['name']} value {value!r}")
        if not trace:
            expect(value > 0.0, f"{where}: {m['name']} is {value!r}, end-to-end metrics are never 0")
    return dict(result, detail=detail)


def check_probe(workload: str, probe) -> None:
    """closed_form reports its untimed near-equal probe; no other workload has one."""
    if workload != "closed_form":
        expect(probe is None, f"{workload}: unexpected near_equal_probe {probe!r}")
        return
    ok = isinstance(probe, dict) and probe.get("systems", 0) >= 1
    expect(ok and 0 <= probe["defects"] <= probe["systems"]
           and probe["defects"] == sum(probe["reasons"].values()), f"{workload}: near_equal_probe {probe!r}")
    print(f"{workload}: near-equal probe {probe}", flush=True)


def counts(result: dict, declared: dict) -> dict:
    return {
        m["name"]: result["metrics"][m["name"]]["value"]
        for m in declared["per_layer"]
        if m["unit"] in COUNT_UNITS and not m["name"].startswith("trace.")
    }


def check_workloads(declared: dict) -> None:
    for w in declared["workloads"]:
        name = w["name"]
        print(f"{name} ...", flush=True)
        plain = check_result(name, 0, run(name, 0), declared)
        if plain:
            check_probe(name, plain["detail"]["near_equal_probe"])
        first = check_result(name, 1, run(name, 1), declared)
        second = check_result(name, 1, run(name, 1), declared)
        if first and second:
            a, b = counts(first, declared), counts(second, declared)
            for key in a:
                expect(a[key] == b[key], f"{name}: {key} differs between runs: {a[key]} vs {b[key]}")


def check_tracer_names() -> None:
    """The counts the package's structure fixes on the bundled three-level scenario."""
    sys.path.insert(0, str(BENCH))
    import run as bench_run

    bench_run.pin_threads()
    import tracer as tracing

    nrabi = bench_run.import_nrabi()
    scenario = str(ROOT / "scenarios" / "three_level_consistent.json")
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for command in ("simulate", "compare"):
            tr = tracing.Tracer(nrabi)
            tr.op = 0
            tr.install()
            try:
                rc = tr.wrap("cli.cmd", nrabi["cli"].main)([command, scenario, "--out", f"{tmp}/out.csv"])
            finally:
                tr.uninstall()
            expect(rc == 0, f"{command}: exit code {rc}")
            m = tracing.layer_metrics(tr, 1)
            if command == "simulate":
                expect(m["roots.spectrum.calls"] == 1002, f"simulate: roots.spectrum.calls = {m['roots.spectrum.calls']}")
                expect(m["model.check.calls"] == 1004, f"simulate: model.check.calls = {m['model.check.calls']}")
            else:
                # 3483 attempted steps over the two integrations, 2 of them
                # rejected: 12 evaluations per attempt plus one Hermiticity
                # check per accepted step and two endpoint checks per run
                expect(m["oracle.rk4_step.calls"] == 10449, f"compare: oracle.rk4_step.calls = {m['oracle.rk4_step.calls']}")
                expect(m["model.hamiltonian.calls"] == 45281, f"compare: model.hamiltonian.calls = {m['model.hamiltonian.calls']}")
                expect(m["oracle.accept_ratio"] == 3481 / 3483, f"compare: oracle.accept_ratio = {m['oracle.accept_ratio']}")
                h = m["oracle.h_evals_per_step"]
                expect(h == 45281 / 3483, f"compare: oracle.h_evals_per_step = {h}")
            print(f"{command} on three_level_consistent: "
                  f"{ {k: v for k, v in m.items() if not k.endswith('self_ms') and v} }", flush=True)


def check_refuses_without_sources(declared: dict) -> None:
    """Only BENCHMARK.json and the benchmark's own paths: must exit non-zero, print no result."""
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in declared["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        proc = run(declared["workloads"][0]["name"], 0, cwd=bare)
        expect(proc.returncode != 0, "bare directory: exit code 0")
        expect('"metrics"' not in proc.stdout, "bare directory: printed a result")


def main() -> int:
    os.chdir(ROOT)
    (BENCH / ".work").mkdir(exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_refuses_without_sources(declared)
    check_tracer_names()
    check_workloads(declared)
    print("smoke: " + ("OK" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
