"""Scenario-file front end: simulate, verify, eigen and compare subcommands.

Scenario files are flat JSON (schema in the README); trajectory output is CSV
with a fixed header, 17-significant-digit values, LF line endings and
``#``-prefixed footer comments.  Exit codes: 0 success, 1 I/O or parse
failure, 2 resonance/consistency violation.  The couplings entries go
straight into ``LevelSystem``'s maps; only when those are refused are the
entries walked by the file's own rules, so a refusal names the first faulty
entry and field.
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
    _shown,
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
        raise ScenarioError(f"{what} must be a number, got {_shown(value)}") from None


def _integer(value, what: str, minimum: int) -> int:
    # the count rule of model; JSON has one number type, so 3.0 counts
    if type(value) is float and value.is_integer():
        value = int(value)
    try:
        return _count(value, what, minimum)
    except InvalidInputError as exc:
        raise ScenarioError(str(exc)) from None


def _index(x):
    # x as _integer returns it when it is a count (3.0 counts, as JSON has one
    # number type, and numpy's ints become ints); else x, for the checks to refuse
    if type(x) is int:
        return x
    if type(x) is float and x.is_integer() or isinstance(x, (int, np.integer)) and type(x) is not bool:
        return int(x)
    return x


def _coupling_maps(entries: list) -> tuple[dict, dict, dict]:
    """g, omega and phi of the couplings entries by pair (i, j), unchecked:
    KeyError or TypeError at an entry without its fields, ScenarioError when
    a pair repeats; LevelSystem checks the rest."""
    g, omega, phi = {}, {}, {}
    for item in entries:
        pair = _index(item["i"]), _index(item["j"])
        g[pair] = item["g"]
        omega[pair] = item["omega"]
        if "phi" in item:
            phi[pair] = item["phi"]
    if len(g) != len(entries):
        raise ScenarioError("couplings repeat a pair")
    return g, omega, phi


def _check_coupling(k: int, item, earlier: set) -> None:
    # the rules of couplings[k] in their order, the first broken one raising;
    # earlier: the pairs of the entries before it, to which this one is added
    pair = tuple(_integer(item[key], f"couplings[{k}].{key}", 0) for key in "ij")
    if pair in earlier:
        raise ScenarioError(f"couplings[{k}] repeats the pair {_shown(pair)}")
    earlier.add(pair)
    for key in ("g", "omega", "phi") if "phi" in item else ("g", "omega"):
        _number(item[key], f"couplings[{k}].{key}")


def scenario_from_dict(data: dict) -> Scenario:
    try:
        raw_levels = data["levels"]
        if not isinstance(raw_levels, (list, tuple)):
            raise ScenarioError(f"levels must be an array of numbers, got {_shown(raw_levels)}")
        levels = [_number(x, f"levels[{k}]") for k, x in enumerate(raw_levels)]
        entries = list(data["couplings"])
        try:
            system = LevelSystem(tuple(levels), *_coupling_maps(entries))
        except (ValueError, LookupError, TypeError):
            # a refusal of the file's own rules, named by entry and field, comes first
            earlier = set()
            for k, item in enumerate(entries):
                _check_coupling(k, item, earlier)
            raise
        raw_initial = data["initial"]
        if isinstance(raw_initial, (int, float)) and not isinstance(raw_initial, bool):
            initial: int | tuple = _integer(raw_initial, "initial", 0)
            if initial >= system.n:
                raise ScenarioError(f"initial level index {_shown(raw_initial)} out of range")
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
        _method(method)  # a name that is no method is refused here
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

# The CSV number format is "%.17g": the 17 correctly rounded significant
# digits D = d0 d1 ... d16 of x and the decimal exponent E of d0, trailing
# zeros dropped, in fixed notation for -4 <= E <= 16 and as "d.ddde+XX"
# otherwise. Python's "%" finds D with Gay's dtoa, one value at a time.
# _csv_text finds it for a whole chunk as the rounded long double product
# |x| 10**(16 - E), and hands to "%" every field that product cannot settle,
# NaN, the infinities and every nonzero |x| outside [1e-98, 1e99).
_LONG = np.finfo(np.longdouble)
# E of [1e-98, 1e99) is -99..99; floor(log10) and its fix-up stray one further
_E_MIN, _E_MAX = -100, 100
# 10**(16 - E) is rounded once in _POW10 and once in the product, so for
# D < 10**17 the product is within 10**17 eps of |x| 10**(16 - E). A fraction
# that close to 1/2 may round either way. At 1/2 (a long double no wider than
# a double) no field is settled.
_TIE_BAND = min(0.5, 1.001e17 * float(_LONG.eps))


# 10**(16 - E) for E = _E_MAX .. _E_MIN, each rounded to the nearest long
# double by numpy's parser (the C library's strtold)
_POW10 = np.array(["1e%d" % (16 - e) for e in range(_E_MAX, _E_MIN - 1, -1)], dtype=np.longdouble)

# A field is laid out in 48 bytes, six little-endian words:
#   0      "-"
#   1-5    "0.000"
#   6-39   d0 "." d1 "." ... d16 "."   (d_i at byte 6 + 2i)
#   40-43  "e", the sign of E, two digits of |E|
#   44     "," or "\n"
# One row of _KEEP, chosen by notation class, significant digits and sign,
# zeroes every byte not in its text, and the zeros are then deleted. A field
# sent to "%" holds that text in bytes 0-31.
_WORD = np.dtype("<i8")
_SEPARATOR = 44


def _digit_tables():
    """The words "d.d.d.d." of 0..9999, and for each group of four digits
    (d1-d4, ..., d13-d16) and value the count of significant digits of D when
    that is the last group with a nonzero digit (0 for 0)."""
    one = np.arange(ord("0"), ord("9") + 1, dtype=_WORD) | ord(".") << 8
    two = (one[:, None] | one << 16).ravel()
    words = (two[:, None] | two << 32).ravel()
    nonzero = np.arange(10) != 0
    used = np.where(nonzero, 2, np.where(nonzero[:, None], 1, 0)).ravel().astype(np.uint8)  # of 00..99
    used = np.where(used > 0, used + np.uint8(2), used[:, None]).ravel()
    sig = np.where(used > 0, used + (4 * np.arange(4, dtype=np.uint8) + 1)[:, None], np.uint8(0))
    sig[0, 0] = 1  # d0 alone: D = 10**16, or a zero
    return words, sig


_DIGITS, _SIGNIFICANT = _digit_tables()
# word 0: the prefix, then d0 and "."
_HEAD = (_DIGITS[:10] & -(1 << 48)) | int.from_bytes(b"-0.000", "little")


def _exponent_tables():
    """Word 5 less the separator, and the notation class, for each E."""
    e = np.arange(_E_MIN, _E_MAX + 1)
    m = np.abs(e).astype(_WORD)
    sign = np.where(e < 0, ord("-"), ord("+")).astype(_WORD)
    tens = m // 10 % 10 + ord("0")
    units = m % 10 + ord("0")
    words = ord("e") | sign << 8 | tens << 16 | units << 24
    # classes 0..20: fixed notation at E = -4..16; 21: "e" notation
    return words, np.where((e >= -4) & (e <= 16), e + 4, 21)


_EXPONENT, _CLASS = _exponent_tables()


def _keep_masks() -> np.ndarray:
    """Rows (class, significant digits, sign), then the row of a "%" text:
    0xFF on each byte of the field's text, 0 elsewhere."""
    e = np.arange(-4, 18)[:, None, None]  # E of each class, 17 for "e" notation
    fixed = e <= 16
    k = np.arange(18)[:, None]
    pos = np.arange(48)
    i = (pos - 6) // 2
    digit = (pos >= 6) & (pos < 40) & (pos % 2 == 0)
    dot = (pos >= 7) & (pos < 40) & (pos % 2 == 1)
    keep = digit & ((i < k) | (fixed & (i <= e)))
    keep |= dot & (k > 1) & (i == np.where(fixed, e, 0)) & ((k > e + 1) | ~fixed)
    keep |= (pos >= 1) & (pos <= 1 - e) & (e < 0)
    keep |= (pos >= 40) & (pos < _SEPARATOR) & ~fixed
    keep |= pos == _SEPARATOR
    signed = np.repeat(keep[:, :, None, :], 2, axis=2)
    signed[:, :, 1, 0] = True
    text = (pos < 32) | (pos == _SEPARATOR)  # NUL padding is dropped with the rest
    rows = np.concatenate([signed.reshape(-1, 48), text[None]])
    return (-rows.view(np.int8)).view(_WORD)


_KEEP = _keep_masks()
_TEXT_ROW = len(_KEEP) - 1


def _decimal(x: np.ndarray):
    """E, D and the fields "%" must write, of a 1-D float array; D = 0 at a zero."""
    a = np.abs(x)
    usual = (a >= 1e-98) & (a < 1e99)
    np.copyto(a, 1.0, where=~usual)
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a.astype(np.longdouble) * _POW10[_E_MAX - e]
    whole = y.astype(np.int64)
    frac = (y - whole.astype(np.longdouble)).astype(np.float64)
    digits = whole + (frac > 0.5)
    # floor(log10) is one off next to a power of ten, and D may round up to 10**17
    shift = (digits >= 10**17).view(np.int8) - (whole < 10**16)
    if shift.any():
        at = np.flatnonzero(shift)
        e[at] += shift[at]
        y = a[at].astype(np.longdouble) * _POW10[_E_MAX - e[at]]
        whole = y.astype(np.int64)
        frac[at] = y - whole.astype(np.longdouble)
        digits[at] = whole + (frac[at] > 0.5)
    exact = (
        (~usual & (x != 0.0))
        | ~(np.abs(frac - 0.5) > _TIE_BAND)
        | (digits < 10**16)
        | (digits >= 10**17)
    )
    digits[~usual | exact] = 0  # a zero is d0 = 0 at E = 0
    return e, digits, exact


def _csv_text(rows: np.ndarray) -> bytearray:
    """The bytes of ``"".join(",".join("%.17g" % x for x in row) + "\\n" for row in rows)``."""
    n_rows, n_cols = rows.shape
    x = np.ascontiguousarray(rows, dtype=np.float64).ravel()
    e, digits, exact = _decimal(x)
    text = bytearray(48 * x.size)
    words = np.frombuffer(text, dtype=_WORD).reshape(x.size, 6)
    head, rest = np.divmod(digits, 10**16)
    words[:, 0] = _HEAD[head]
    # the groups d1-d4 .. d13-d16; spent arrays go at once, to keep the peak low
    halves = np.divmod(rest, 10**8)
    del digits, head, rest
    groups = tuple(part.astype(np.int16) for half in halves for part in np.divmod(half, 10**4))
    del halves
    for at, group in enumerate(groups):
        words[:, 1 + at] = _DIGITS[group]
    separator = np.full(n_cols, ord(","), dtype=_WORD)
    separator[-1] = ord("\n")
    words[:, 5] = (_EXPONENT[e - _E_MIN].reshape(n_rows, n_cols) | separator << 8 * (_SEPARATOR - 40)).ravel()
    significant = functools.reduce(np.maximum, map(np.take, _SIGNIFICANT, groups))
    row = (_CLASS[e - _E_MIN] * 18 + significant) * 2 + np.signbit(x)
    at = np.flatnonzero(exact)
    if at.size:
        texts = np.array([b"%.17g" % v for v in x[at].tolist()], dtype="S32")
        words.view(np.uint8)[at, :32] = texts.view(np.uint8).reshape(-1, 32)
        row[at] = _TEXT_ROW
    for column, keep in zip(words.T, _KEEP.T):
        column &= keep[row]
    return text.translate(None, b"\0")


def _write_csv(path: str, header: list[str], rows: np.ndarray, footer: list[str]) -> None:
    # _csv_text gives the bytes of "%.17g" % x per value; chunks bound memory
    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            for start in range(0, len(rows), _CSV_CHUNK_ROWS):
                fh.write(_csv_text(rows[start : start + _CSV_CHUNK_ROWS]))
            for text in footer:
                fh.write(f"# {text}\n".encode("utf-8"))
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


def _method(name) -> Method | None:
    # the one reading of a method name, a scenario's or --method's: None and
    # "auto" leave the route to dispatch, any other name goes through Method
    if name is None or name == "auto":
        return None
    try:
        return Method(name)
    except ValueError:
        raise ScenarioError(f"unknown method {_shown(name)}") from None


def cmd_simulate(scenario_path: str, out_path: str, method: str | None = None) -> int:
    """Closed-form evolution of a scenario, written as a CSV trajectory."""
    scenario = load_scenario(scenario_path)
    system = scenario.system
    psi0 = scenario.initial_state()
    forced = _method(scenario.method if method is None else method)
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
    forced = _method(scenario.method if method is None else method)
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
    if scenario.t_end > 0.0:
        for tag, build, driven in (("rwa", hamiltonian_rwa, stripped), ("full", hamiltonian_full, system)):
            h = functools.partial(build, driven)
            runs[tag] = integrate_schrodinger(h, psi0, scenario.t_end, scenario.samples, cfg)
    rwa_pops, full_pops = (runs[tag].populations if runs else closed.copy() for tag in ("rwa", "full"))

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
    if system.has_phases():
        footer.append("closed and rwa are phase-free: the drive phases act on full only")
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
    method_help = "auto (the default) or a propagator method, " + ", ".join(Method)

    sim = sub.add_parser("simulate", help="closed-form trajectory to CSV")
    sim.add_argument("scenario")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--method", help=method_help)

    ver = sub.add_parser("verify", help="report the reduction conditions")
    ver.add_argument("scenario")

    eig = sub.add_parser("eigen", help="closed-form vs Jacobi spectrum")
    eig.add_argument("scenario")

    cmp_ = sub.add_parser("compare", help="closed form vs RWA vs cosine drive")
    cmp_.add_argument("scenario")
    cmp_.add_argument("--out", required=True, help="output CSV path")
    cmp_.add_argument("--method", help=method_help)
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
        return cmd_compare(args.scenario, args.out, args.method, args.rtol, args.atol)
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
