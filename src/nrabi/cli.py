"""Scenario-file front end: simulate, verify, eigen and compare subcommands.

Scenario files are flat JSON (schema in the README); trajectory output is CSV
with a fixed header, 17-significant-digit values, LF line endings and
``#``-prefixed footer comments.  Exit codes: 0 success, 1 I/O or parse
failure, 2 resonance/consistency violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditionError,
    DegenerateSpectrumError,
    IntegrationError,
    InvalidInputError,
)
from .model import (
    LevelSystem,
    StateVector,
    _count,
    _real,
    build_q,
    check_consistency,
    check_resonance,
    full_solution,  # noqa: F401  (part of this module's namespace; bench/tracer.py wraps it)
    hamiltonian_full,
    hamiltonian_rwa,
    trajectory,
)
from .oracle import IntegrationConfig, integrate_schrodinger
from .propagator import Method, eigenvectors_three_level, jacobi_eigendecompose
from .roots import closed_form_spectrum

_DEFAULT_SAMPLES = 1001
_MAX_SAMPLES = 100_000


class ScenarioError(ValueError):
    """Scenario file could not be read, parsed or validated."""


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: the physical system plus run parameters.

    ``initial`` is either a level index or a tuple of (re, im) pairs.
    """

    system: LevelSystem
    initial: int | tuple[tuple[float, float], ...]
    t_end: float
    samples: int = _DEFAULT_SAMPLES
    method: str | None = None

    def initial_state(self) -> StateVector:
        if isinstance(self.initial, int):
            return StateVector.basis(self.system.n, self.initial)
        amplitudes = np.array([complex(re, im) for re, im in self.initial])
        return StateVector.normalized(amplitudes)


def _number(value, what: str) -> float:
    # the real rule of model, worded for a JSON field: float() would also take "1e0" and true
    try:
        return _real(value, what)
    except InvalidInputError:
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None


def _integer(value, what: str, minimum: int) -> int:
    # the count rule of model; JSON has one number type, so 3.0 counts
    if type(value) is float and value.is_integer():
        value = int(value)
    try:
        return _count(value, what, minimum)
    except InvalidInputError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_from_dict(data: dict) -> Scenario:
    try:
        raw_levels = data["levels"]
        if not isinstance(raw_levels, (list, tuple)):
            raise ScenarioError(f"levels must be an array of numbers, got {raw_levels!r}")
        levels = [_number(x, f"levels[{k}]") for k, x in enumerate(raw_levels)]
        entries = data["couplings"]
        couplings = {}
        freqs = {}
        phases = {}
        for k, item in enumerate(entries):
            pair = tuple(_integer(item[key], f"couplings[{k}].{key}", 0) for key in "ij")
            if pair in couplings:
                raise ScenarioError(f"couplings[{k}] repeats the pair {pair}")
            couplings[pair] = _number(item["g"], f"couplings[{k}].g")
            freqs[pair] = _number(item["omega"], f"couplings[{k}].omega")
            if "phi" in item:
                phases[pair] = _number(item["phi"], f"couplings[{k}].phi")
        system = LevelSystem(tuple(levels), couplings, freqs, phases)
        raw_initial = data["initial"]
        if isinstance(raw_initial, (int, float)) and not isinstance(raw_initial, bool):
            initial: int | tuple = _integer(raw_initial, "initial", 0)
            if initial >= system.n:
                raise ScenarioError(f"initial level index {raw_initial!r} out of range")
        else:
            if not isinstance(raw_initial, (list, tuple)) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in raw_initial
            ):
                raise ScenarioError(
                    "initial must be a level index or a list of [re, im] pairs"
                )
            initial = tuple(
                (_number(re, f"initial[{k}][0]"), _number(im, f"initial[{k}][1]"))
                for k, (re, im) in enumerate(raw_initial)
            )
            if len(initial) != system.n:
                raise ScenarioError("initial amplitude list length must equal n")
        t_end = _number(data["t_end"], "t_end")
        if t_end < 0.0:
            raise ScenarioError(f"t_end must be non-negative, got {t_end!r}")
        # one sample only at t_end = 0
        samples = _integer(data.get("samples", _DEFAULT_SAMPLES), "samples", 2 if t_end > 0.0 else 1)
        if samples > _MAX_SAMPLES:
            raise ScenarioError(f"samples must be at most {_MAX_SAMPLES}")
        method = data.get("method")
        if method is not None:
            method = str(method)
            if method != "auto" and method not in Method._value2member_map_:
                raise ScenarioError(f"unknown method {method!r}")
        return Scenario(system, initial, t_end, samples, method)
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    system = scenario.system
    couplings = []
    for (i, j) in sorted(system.couplings):
        item = {
            "i": i,
            "j": j,
            "g": system.couplings[(i, j)],
            "omega": system.drive_frequencies[(i, j)],
        }
        if system.phases[(i, j)] != 0.0:
            item["phi"] = system.phases[(i, j)]
        couplings.append(item)
    data = {
        "levels": list(system.energies),
        "couplings": couplings,
        "initial": scenario.initial
        if isinstance(scenario.initial, int)
        else [list(pair) for pair in scenario.initial],
        "t_end": scenario.t_end,
        "samples": scenario.samples,
    }
    if scenario.method is not None:
        data["method"] = scenario.method
    return data


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer literal past Python's digit limit, deep nesting
        raise ScenarioError(f"{path}: unreadable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(data)


_CSV_CHUNK_ROWS = 256


def _write_csv(path: str, header: list[str], rows: np.ndarray, footer: list[str]) -> None:
    # "%.17g" % x and format(x, ".17g") make the same PyOS_double_to_string
    # call, so one pattern per row gives the same bytes; chunks bound memory
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(rows), _CSV_CHUNK_ROWS):
                chunk = rows[start : start + _CSV_CHUNK_ROWS].tolist()
                fh.write("".join([line % tuple(row) for row in chunk]))
            for text in footer:
                fh.write(f"# {text}\n")
    except OSError as exc:
        raise ScenarioError(f"cannot write {path}: {exc}") from exc


def _times(scenario: Scenario) -> np.ndarray:
    if scenario.t_end == 0.0:
        return np.array([0.0])
    return np.linspace(0.0, scenario.t_end, scenario.samples)


def _print_reports(resonance, consistency, stream) -> None:
    for name, report in (("resonance", resonance), ("consistency", consistency)):
        for label, residual in sorted(report.residuals.items()):
            print(f"  {name:<12} {label:<16} {residual:.6e}", file=stream)
        verdict = "OK" if report.satisfied else "VIOLATED"
        print(
            f"{name}: {verdict} (worst {report.worst:.1e}, tol {report.tolerance:.1e})",
            file=stream,
        )


def _condition_failure(exc: ConditionError) -> int:
    # the verdict of a run comes from trajectory, which checks the conditions first
    print("condition check failed:", file=sys.stderr)
    _print_reports(exc.resonance, exc.consistency, sys.stderr)
    return 2


def _resolve_method(scenario: Scenario, flag: str | None):
    chosen = flag if flag is not None else scenario.method
    if chosen in (None, "auto"):
        return None
    return Method(chosen)


def cmd_simulate(scenario_path: str, out_path: str, method: str | None = None) -> int:
    """Closed-form evolution of a scenario, written as a CSV trajectory."""
    scenario = load_scenario(scenario_path)
    system = scenario.system
    psi0 = scenario.initial_state()
    forced = _resolve_method(scenario, method)
    times = _times(scenario)
    try:
        traj = trajectory(system, psi0, times, forced)
    except ConditionError as exc:
        return _condition_failure(exc)
    n = system.n
    pops = traj.populations()
    rows = np.empty((len(times), 1 + 3 * n))
    rows[:, 0] = times
    rows[:, 1 : 1 + n] = pops
    rows[:, 1 + n :: 2] = traj.amplitudes.real
    rows[:, 2 + n :: 2] = traj.amplitudes.imag
    worst_pop = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))  # NaN propagates
    header = ["t"]
    header += [f"pop_{k}" for k in range(n)]
    for k in range(n):
        header += [f"re_{k}", f"im_{k}"]
    footer = [
        f"method = {traj.method.value} ({'forced' if forced else 'auto'})",
        f"max |sum(populations) - 1| = {worst_pop:.3e}",
    ]
    _write_csv(out_path, header, rows, footer)
    return 0


def cmd_verify(scenario_path: str) -> int:
    """Print the resonance and consistency reports; exit 0 iff both hold."""
    scenario = load_scenario(scenario_path)
    resonance = check_resonance(scenario.system)
    consistency = check_consistency(scenario.system)
    print(f"{'condition':<14} {'pair':<16} residual")
    _print_reports(resonance, consistency, sys.stdout)
    return 0 if (resonance.satisfied and consistency.satisfied) else 2


def cmd_eigen(scenario_path: str) -> int:
    """Print closed-form and Jacobi spectra side by side (eigenvectors for n = 3)."""
    scenario = load_scenario(scenario_path)
    q = build_q(scenario.system)
    jacobi = jacobi_eigendecompose(q)
    closed = closed_form_spectrum(q) if q.n in (3, 4) else None
    print(f"eigenvalues (n = {q.n})")
    print(f"  {'#':>2}  {'closed-form':>22}  {'jacobi':>22}  |difference|")
    for k in range(q.n):
        jac = jacobi.spectrum.eigenvalues[k]
        if closed is None:
            print(f"  {k:>2}  {'unavailable':>22}  {jac:>22.15g}  -")
        else:
            cf = closed.eigenvalues[k]
            print(f"  {k:>2}  {cf:>22.15g}  {jac:>22.15g}  {abs(cf - jac):.3e}")
    if q.n == 3:
        try:
            decomp = eigenvectors_three_level(q, closed)
        except DegenerateSpectrumError as exc:
            print(f"closed-form eigenvectors unavailable: {exc}")
        else:
            print("closed-form eigenvectors (columns match the eigenvalue order):")
            for row in decomp.vectors:
                print("  [" + "  ".join(f"{v:>22.15g}" for v in row) + "]")
    return 0


def cmd_compare(
    scenario_path: str,
    out_path: str,
    method: str | None = None,
    rtol: float | None = None,
    atol: float | None = None,
) -> int:
    """Closed form vs RK4-on-RWA vs RK4-on-cosine-drive population trajectories."""
    scenario = load_scenario(scenario_path)
    system = scenario.system
    stripped = system.without_phases()
    psi0 = scenario.initial_state()
    forced = _resolve_method(scenario, method)
    times = _times(scenario)
    n = system.n
    try:
        closed = trajectory(stripped, psi0, times, forced).populations()
    except ConditionError as exc:
        return _condition_failure(exc)

    # built before any integration so bad tolerances fail even when t_end is 0
    cfg = IntegrationConfig(
        rel_tol=rtol if rtol is not None else IntegrationConfig.rel_tol,
        abs_tol=atol if atol is not None else IntegrationConfig.abs_tol,
    )
    runs = {}
    if scenario.t_end == 0.0:
        rwa_pops = closed.copy()
        full_pops = closed.copy()
    else:
        runs["rwa"] = integrate_schrodinger(
            lambda t: hamiltonian_rwa(stripped, t),
            psi0,
            scenario.t_end,
            scenario.samples,
            cfg,
        )
        runs["full"] = integrate_schrodinger(
            lambda t: hamiltonian_full(system, t),
            psi0,
            scenario.t_end,
            scenario.samples,
            cfg,
        )
        rwa_pops = runs["rwa"].populations
        full_pops = runs["full"].populations

    header = ["t"]
    for tag in ("closed", "rwa", "full"):
        header += [f"{tag}_pop_{k}" for k in range(n)]
    rows = np.column_stack((times, closed, rwa_pops, full_pops))
    footer = [
        f"max |closed - rwa| = {float(np.max(np.abs(closed - rwa_pops))):.3e}",
        f"max |closed - full| = {float(np.max(np.abs(closed - full_pops))):.3e}",
        f"max |rwa - full| = {float(np.max(np.abs(rwa_pops - full_pops))):.3e}",
    ]
    footer += [
        f"{tag} steps accepted = {run.steps_accepted}, rejected = {run.steps_rejected}, "
        f"H evaluations = {run.h_evals}"
        for tag, run in runs.items()
    ]
    _write_csv(out_path, header, rows, footer)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them to exit code 1
    def error(self, message):
        raise ScenarioError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it was
    parser = _Parser(prog="nrabi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    method_choices = ["auto"] + [m.value for m in Method]

    sim = sub.add_parser("simulate", help="closed-form trajectory to CSV")
    sim.add_argument("scenario")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--method", choices=method_choices)

    ver = sub.add_parser("verify", help="report the reduction conditions")
    ver.add_argument("scenario")

    eig = sub.add_parser("eigen", help="closed-form vs Jacobi spectrum")
    eig.add_argument("scenario")

    cmp_ = sub.add_parser("compare", help="closed form vs RWA vs cosine drive")
    cmp_.add_argument("scenario")
    cmp_.add_argument("--out", required=True, help="output CSV path")
    cmp_.add_argument("--method", choices=method_choices)
    cmp_.add_argument("--rtol", type=float, help="integrator relative tolerance")
    cmp_.add_argument("--atol", type=float, help="integrator absolute tolerance")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(args.scenario, args.out, args.method)
        if args.command == "verify":
            return cmd_verify(args.scenario)
        if args.command == "eigen":
            return cmd_eigen(args.scenario)
        if args.command == "compare":
            return cmd_compare(args.scenario, args.out, args.method, args.rtol, args.atol)
        raise ScenarioError(f"unknown command {args.command!r}")
    except (
        ScenarioError,
        InvalidInputError,
        DegenerateSpectrumError,
        IntegrationError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
