"""Run every workload once and print its metrics by name and unit.

    python3 bench/report.py                       # end-to-end table, one row per workload
    python3 bench/report.py --trace               # plus the per-layer table and tracing overhead
    python3 bench/report.py --trace --write bench/baselines/seed.json

Each workload runs in its own process (``bench/run.py``), so ``peak_mem_mb``
is that of a process that ran only that workload. ``--write`` stores the
results with the environment: git SHA, Python and numpy versions, CPU model
and nproc.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload}: run failed ({proc.returncode}): {proc.stderr.strip()[-800:]}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("# detail "))
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.4g}"


def print_end_to_end(declared: dict, results: dict) -> None:
    names = [m["name"] for m in declared["end_to_end"]]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    head = ["workload"] + [f"{n} ({units[n]})" for n in names] + ["samples", "tail pct", "fail_ratio", "correct"]
    rows = []
    for workload, res in results.items():
        d = res["detail"]
        rows.append([workload] + [_fmt(res["metrics"][n]["value"]) for n in names] + [
            str(d["samples"]), f"p{d['tail_percentile']:g}",
            f"{res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4f}",
            str(res["correct"]),
        ])
    _table(head, rows)
    for workload, res in results.items():
        if res["detail"]["failures"]:
            print(f"{workload} failures: {res['detail']['failures']}")
        probe = res["detail"]["near_equal_probe"]
        if probe:
            print(f"{workload} near-equal probe (untimed): {probe['defects']}/{probe['systems']} "
                  f"systems miss the oracle check {probe['reasons']}")


def print_per_layer(declared: dict, results: dict) -> None:
    workloads = list(results)
    head = ["metric (unit)"] + workloads
    rows = [
        [f"{m['name']} ({m['unit']})"] + [_fmt(results[w]["metrics"][m["name"]]["value"]) for w in workloads]
        for m in declared["per_layer"]
    ]
    _table(head, rows)
    print("per round of ops; rounds: " + ", ".join(
        f"{w} {results[w]['detail']['rounds']} x {results[w]['detail']['round_size']}" for w in workloads))


def _table(head: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(r[k]) for r in [head] + rows) for k in range(len(head))]
    for r in [head] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true", help="also run the traced per-layer pass")
    parser.add_argument("--write", type=Path, help="store results and environment as JSON")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or declared["run_seconds"]
    names = [w["name"] for w in declared["workloads"]]

    untraced = {w: run(w, args.seed, seconds, 0) for w in names}
    print_end_to_end(declared, untraced)
    traced = {}
    if args.trace:
        traced = {w: run(w, args.seed, seconds, 1) for w in names}
        print_per_layer(declared, traced)
    if args.write:
        env = next(iter(untraced.values()))["detail"]["environment"]
        env.update(git_sha=git_sha(), cpu_model=cpu_model())
        record = {"seed": args.seed, "seconds": seconds, "environment": env,
                  "end_to_end": untraced, "per_layer": traced}
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
