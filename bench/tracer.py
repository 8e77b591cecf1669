"""Outside-in tracer: wraps nrabi's public functions where they are looked up.

Nothing in the package changes. ``Tracer.install`` replaces module
attributes with wrappers that record one span per call (name, start, end,
parent span, op id, an optional tag and whether an exception passed through)
and ``uninstall`` restores the originals. Spans stay in memory until the run
ends. ``layer_metrics`` turns the spans of one round of ops into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter


def _auto_dispatch_tag(args, kwargs):
    # propagator(q, t, method=None): an automatic dispatch at n = 3, 4
    method = args[2] if len(args) > 2 else kwargs.get("method")
    return method is None and args[0].n in (3, 4)


def _q_tag(args, kwargs):
    return hash(args[0].entries.tobytes())


# (module, attribute, span name, tag function); each name is patched on the
# module whose globals the caller reads it from
PATCHES = (
    ("cli", "load_scenario", "cli.load_scenario", None),
    ("cli", "check_resonance", "model.check", None),
    ("cli", "check_consistency", "model.check", None),
    ("cli", "full_solution", "model.full_solution", None),
    ("cli", "hamiltonian_rwa", "model.hamiltonian", None),
    ("cli", "hamiltonian_full", "model.hamiltonian", None),
    ("cli", "integrate_schrodinger", "oracle.integrate", None),
    ("model", "check_resonance", "model.check", None),
    ("model", "check_consistency", "model.check", None),
    ("model", "build_q", "model.build_q", None),
    ("model", "frame_matrix", "model.frame_matrix", None),
    ("model", "full_solution", "model.full_solution", None),
    ("propagator", "closed_form_spectrum", "roots.spectrum", _q_tag),
    ("propagator", "propagator", "propagator.dispatch", _auto_dispatch_tag),
    ("propagator", "propagator_lagrange", "propagator.lagrange", None),
    ("propagator", "lagrange_coeffs", "propagator.lagrange_coeffs", None),
    ("propagator", "jacobi_eigendecompose", "propagator.jacobi", None),
    ("propagator", "eigenvectors_three_level", "propagator.closed_eigen3", None),
    ("propagator", "propagator_from_eigen", "propagator.from_eigen", None),
    ("oracle", "rk4_step", "oracle.rk4_step", None),
)


class Tracer:
    """Spans in columns (one entry per span) so a long traced run stays small."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.op = -1
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.tags: list = []
        self.errors = bytearray()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn, tag=None):
        names, starts, ends, stack = self.names, self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.ops.append(self.op)
            self.tags.append(tag(args, kwargs) if tag else None)
            self.errors.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[index] = 1
                raise
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, name, tag in PATCHES:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, tag))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Spans as gzipped CSV, times in microseconds from the first span."""
        origin = self.starts[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_us,end_us,parent,op,error\n")
            for k, name in enumerate(self.names):
                fh.write(
                    f"{k},{name},{(self.starts[k] - origin) * 1e6:.1f},"
                    f"{(self.ends[k] - origin) * 1e6:.1f},{self.parents[k]},{self.ops[k]},{self.errors[k]}\n"
                )


def _round_totals(tr: Tracer, ids: range):
    """Calls, self seconds, errors and the derived tallies for one round."""
    names, parents, tags = tr.names, tr.parents, tr.tags
    dur = [tr.ends[k] - tr.starts[k] for k in ids]
    child = defaultdict(float)
    for k, d in zip(ids, dur):
        if parents[k] >= 0:
            child[parents[k]] += d
    calls = Counter()
    self_s = defaultdict(float)
    errors = Counter()
    h_in_step = h_checks = jacobi_fallbacks = auto34 = 0
    q_per_op = set()
    for k, d in zip(ids, dur):
        name = names[k]
        calls[name] += 1
        self_s[name] += d - child[k]
        errors[name] += tr.errors[k]
        parent = parents[k]
        parent_name = names[parent] if parent >= 0 else None
        if name == "model.hamiltonian":
            if parent_name == "oracle.rk4_step":
                h_in_step += 1
            elif parent_name == "oracle.integrate":
                h_checks += 1
        elif name == "propagator.dispatch" and tags[k]:
            auto34 += 1
        elif name == "propagator.jacobi" and parent_name == "propagator.dispatch" and tags[parent]:
            jacobi_fallbacks += 1
        elif name == "roots.spectrum":
            q_per_op.add((tr.ops[k], tags[k]))
    return calls, self_s, errors, dict(
        h_in_step=h_in_step, h_checks=h_checks, auto34=auto34,
        jacobi_fallbacks=jacobi_fallbacks, distinct_q=len(q_per_op),
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, round_size: int) -> dict:
    """Per-layer metrics: counts from the first round, self times as the
    median per-round value over every round.

    Ops run in order and spans are recorded in call order, so each round's
    spans are one contiguous index range.
    """
    bounds = [0]
    for k in range(1, len(tr)):
        if tr.ops[k] // round_size != tr.ops[k - 1] // round_size:
            bounds.append(k)
    bounds.append(len(tr))
    rounds = [_round_totals(tr, range(a, b)) for a, b in zip(bounds, bounds[1:])]
    calls, _, errors, extra = rounds[0]

    def self_ms(*names):
        return statistics.median(sum(r[1][n] for n in names) * 1e3 for r in rounds)

    attempted = calls["oracle.rk4_step"] / 3.0
    accepted = extra["h_checks"] - 2 * calls["oracle.integrate"]  # 2 endpoint checks per run
    return {
        "cli.load_scenario.calls": calls["cli.load_scenario"],
        "cli.load_scenario.self_ms": self_ms("cli.load_scenario"),
        "cli.cmd.self_ms": self_ms("cli.cmd"),
        "model.check.calls": calls["model.check"],
        "model.check.self_ms": self_ms("model.check"),
        "model.full_solution.calls": calls["model.full_solution"],
        "model.full_solution.self_ms": self_ms("model.full_solution"),
        "model.build_q.calls": calls["model.build_q"],
        "model.frame_matrix.self_ms": self_ms("model.frame_matrix"),
        "model.hamiltonian.calls": calls["model.hamiltonian"],
        "model.hamiltonian.self_ms": self_ms("model.hamiltonian"),
        "roots.spectrum.calls": calls["roots.spectrum"],
        "roots.spectrum.self_ms": self_ms("roots.spectrum"),
        "roots.spectrum.errors": errors["roots.spectrum"],
        "roots.spectrum.calls_per_q": _ratio(calls["roots.spectrum"], extra["distinct_q"]),
        "propagator.dispatch.calls": calls["propagator.dispatch"],
        "propagator.dispatch.self_ms": self_ms("propagator.dispatch"),
        "propagator.lagrange.calls": calls["propagator.lagrange"],
        "propagator.lagrange.self_ms": self_ms("propagator.lagrange", "propagator.lagrange_coeffs"),
        "propagator.eigen.calls": calls["propagator.jacobi"] + calls["propagator.closed_eigen3"],
        "propagator.eigen.self_ms": self_ms(
            "propagator.jacobi", "propagator.closed_eigen3", "propagator.from_eigen"
        ),
        "propagator.fallback_ratio": _ratio(extra["jacobi_fallbacks"], extra["auto34"]),
        "oracle.integrate.calls": calls["oracle.integrate"],
        "oracle.integrate.self_ms": self_ms("oracle.integrate"),
        "oracle.rk4_step.calls": calls["oracle.rk4_step"],
        "oracle.rk4_step.self_ms": self_ms("oracle.rk4_step"),
        "oracle.steps_attempted": attempted,
        "oracle.accept_ratio": _ratio(accepted, attempted),
        "oracle.h_evals_per_step": _ratio(extra["h_in_step"] + extra["h_checks"], attempted),
    }
