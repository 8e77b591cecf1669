"""Benchmark runner for nrabi: one process, one thread, one closed-loop client.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; ``nrabi`` is imported from its
``src/`` directory and nowhere else. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it, prefixed ``# detail``, holds
the sample counts, the tail percentile, failure reasons and the environment.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 7
TAIL_BEYOND = 10

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def pin_threads() -> None:
    # must run before numpy is first imported, here and in child processes
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def import_nrabi() -> dict:
    """The package modules, imported from this checkout's src/ only."""
    src = ROOT / "src"
    if not (src / "nrabi" / "__init__.py").is_file():
        raise BenchError(f"no nrabi sources under {src}")
    sys.path.insert(0, str(src))
    import nrabi

    if Path(nrabi.__file__).resolve().parent != (src / "nrabi").resolve():
        raise BenchError(f"nrabi imported from {nrabi.__file__}, not from {src}")
    # nrabi.propagator on the package is the re-exported function
    return {
        name: importlib.import_module(f"nrabi.{name}")
        for name in ("cli", "model", "roots", "propagator", "oracle")
    }


def set_up(workload: str, seed: int, workdir: Path):
    """Import nrabi, generate the seeded inputs and run one warm-up op."""
    t0 = perf_counter()
    nrabi = import_nrabi()
    import workloads  # imports numpy, whose import time belongs to set-up

    spec = workloads.WORKLOADS[workload]
    ops = spec.ops(nrabi, seed, workdir, ROOT)
    next(ops).run()
    return perf_counter() - t0, nrabi, spec, ops


def probe_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds measured in fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Loop:
    """Latencies, op kinds and failure reasons of one closed-loop pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.reasons: Counter = Counter()

    def rate(self) -> float:
        """Ops per second of timed work."""
        return len(self.latencies) / sum(self.latencies)

    def p50_by_kind(self) -> dict:
        by_kind: dict[str, list[float]] = {}
        for dt, kind in zip(self.latencies, self.kinds):
            by_kind.setdefault(kind, []).append(dt)
        return {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by_kind.items())}


def run_ops(ops, seconds: float, round_size: int, tracer=None) -> Loop:
    """Closed loop over whole rounds of ops until ``seconds`` of timed work.

    Each op is timed alone; its output is checked outside the timed region.
    With a tracer, every op becomes a root span with the op's index as id.
    """
    import workloads

    loop = Loop()
    busy = 0.0
    k = 0
    while busy < seconds or k % round_size:
        op = next(ops)
        call = op.run
        if tracer is not None:
            tracer.op = k
            call = tracer.wrap(op.layer, op.run)
        t0 = perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            loop.reasons[f"raised {type(exc).__name__}"] += 1
            out = None
        dt = perf_counter() - t0
        if out is not None:
            try:
                op.check(out)
            except workloads.OpFailed as exc:
                loop.reasons[exc.kind] += 1
        loop.latencies.append(dt)
        loop.kinds.append(op.kind)
        busy += dt
        k += 1
    return loop


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def environment() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_probe(nrabi, spec, seed) -> dict | None:
    """The workload's untimed probe of known-defect inputs, if it has one."""
    return spec.probe(nrabi, seed) if spec.probe else None


def end_to_end(nrabi, spec, seed, seconds, ops, setup_s):
    loop = run_ops(ops, seconds, spec.round_size)
    probe = run_probe(nrabi, spec, seed)
    setups = probe_setup(spec.name, seed)
    value, pct = tail(loop.latencies)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(loop.rate(), "1/s"),
        "op_p50_ms": _metric(statistics.median(loop.latencies) * 1e3, "ms"),
        "op_tail_ms": _metric(value * 1e3, "ms"),
        "peak_mem_mb": _metric(peak_mb, "MB"),
    }
    detail = {
        "samples": len(loop.latencies),
        "tail_percentile": round(pct, 2),
        "fail_ratio": sum(loop.reasons.values()) / len(loop.latencies),
        "p50_ms_by_kind": loop.p50_by_kind(),
        "setup_samples_s": setups,
        "first_setup_s": setup_s,
        "near_equal_probe": probe,
    }
    return len(loop.latencies), loop.reasons, metrics, detail


def traced(declared, nrabi, spec, seed, seconds, ops, workdir):
    """Half the time untraced, half traced from a fresh op stream of the same seed."""
    import tracer as tracing

    plain = run_ops(ops, seconds / 2.0, spec.round_size)
    tr = tracing.Tracer(nrabi)
    fresh = spec.ops(nrabi, seed, workdir, ROOT)
    tr.install()
    try:
        traced_loop = run_ops(fresh, seconds / 2.0, spec.round_size, tr)
    finally:
        tr.uninstall()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"spans-{spec.name}.csv.gz")
    layer = tracing.layer_metrics(tr, spec.round_size)
    probe = run_probe(nrabi, spec, seed)
    layer["propagator.near_equal_defect_ratio"] = probe["defects"] / probe["systems"] if probe else 0.0
    untraced_rate = plain.rate()
    traced_rate = traced_loop.rate()
    layer["trace.untraced_ops_per_s"] = untraced_rate
    layer["trace.ops_per_s"] = traced_rate
    layer["trace.overhead_ratio"] = untraced_rate / traced_rate
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    metrics = {name: _metric(layer[name], units[name]) for name in units}
    attempted = len(plain.latencies) + len(traced_loop.latencies)
    reasons = plain.reasons + traced_loop.reasons
    detail = {
        "samples": attempted,
        "rounds": len(traced_loop.latencies) // spec.round_size,
        "round_size": spec.round_size,
        "spans": len(tr),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": sum(reasons.values()) / attempted,
        "near_equal_probe": probe,
    }
    return attempted, reasons, metrics, detail


def _declared() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit(f"benchmark error: {exc}") from exc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    pin_threads()
    args = parse_args(argv)
    declared = _declared()
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"benchmark error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        setup_s, nrabi, spec, ops = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            attempted, reasons, metrics, detail = traced(
                declared, nrabi, spec, args.seed, args.seconds, ops, workdir
            )
        else:
            attempted, reasons, metrics, detail = end_to_end(nrabi, spec, args.seed, args.seconds, ops, setup_s)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(reasons.values())
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=dict(reasons), environment=environment())
    print("# detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
