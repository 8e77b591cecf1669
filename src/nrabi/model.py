"""Driven n-level systems and their reduction to a constant coupling matrix.

A system of n levels (energies E_0 < ... < E_{n-1}, hbar = 1) is driven by one
laser per level pair, n(n-1)/2 fields in total.  Under the rotating-wave
approximation, and when every drive frequency matches the level spacing it
addresses (resonance for adjacent pairs, consistency for the rest), the
rotating-frame Hamiltonian collapses to the real symmetric zero-diagonal
matrix Q of coupling constants, and the state evolves as
U(t) exp(-itQ) psi(0) with U(t) a diagonal phase matrix.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConditionError, InvalidInputError

if TYPE_CHECKING:
    from .propagator import Method, SpectralPlan

Pair = tuple[int, int]

_NORM_ATOL = 1e-12
# the largest n an array is sized by: the equal-coupling plan holds two n x n
# float matrices and its propagator a complex one, 0.5 GB together at 4096
_MAX_LEVELS = 4096
_INT_TYPES = (int, np.integer)
_REAL_TYPES = (float, *_INT_TYPES, np.floating)
_BOOL_TYPES = frozenset((bool, np.bool_))


def _real(x, what: str) -> float:
    """x as a float if it is a real, else InvalidInputError naming ``what``.

    A real is an int or a float (numpy's too, not a bool) with a finite
    value; an int past the float range is not finite.  With ``_count`` and
    ``_as_times``, the rule for every number the package takes from outside.
    """
    if isinstance(x, _REAL_TYPES) and type(x) is not bool:  # np.bool_ is not an np.integer
        value = _float(x)
        if math.isfinite(value):
            return value
    raise InvalidInputError(f"{what} must be a finite int or float, got {_shown(x)}")


def _float(x) -> float:
    # inf for an int past the float range
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _count(x, what: str, minimum: int, maximum: int | None = None) -> int:
    """x as an int if it is a count, else InvalidInputError naming ``what``.

    A count is an int (numpy's too, not a bool) at or above ``minimum`` and,
    for a count that sizes an array, at most ``maximum``.
    """
    if isinstance(x, _INT_TYPES) and type(x) is not bool and x >= minimum:
        if maximum is None or x <= maximum:
            return int(x)
        raise InvalidInputError(f"{what} must be at most {maximum}, got {_shown(x)}")
    raise InvalidInputError(f"{what} must be an integer >= {minimum}, got {_shown(x)}")


def _shown(x) -> str:
    # repr(x) in a refusal, but an int past 64 bits, also in a tuple (a pair key), by its
    # bit count: the repr of 10**400 has 401 digits, and Python writes no int past 4300
    if isinstance(x, tuple):
        return f"({', '.join(map(_shown, x))}{',' if len(x) == 1 else ''})"
    if isinstance(x, int) and x.bit_length() > 64:
        return f"an integer of {x.bit_length()} bits"
    return repr(x)


def _as_times(times) -> np.ndarray:
    """Sample times as a fresh 1-D float array, else InvalidInputError.

    The real rule over an array: a non-empty 1-D array of finite ints or
    floats, and no int past 64 bits (numpy holds one as an object).  A float conversion
    would take "1.5" and True, so the type is checked first, item by item in
    a list or tuple: numpy makes [0.0, True] floats.
    """
    if type(times) is list and len(times) == 1 and type(times[0]) is float and math.isfinite(times[0]):
        return np.array(times)  # one finite Python float, as full_solution passes it
    try:
        t = np.array(times)  # a fresh copy, so the caller's array is never exposed
    except ValueError:  # ragged, as [0.0, [1.0]]
        raise InvalidInputError("times must be a non-empty 1-D array") from None
    if t.dtype.kind not in "iuf" or (
        isinstance(times, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, times))
    ):
        # numpy holds an int outside the 64-bit range, like any non-number, as an object
        cause = "ints outside the 64-bit range" if t.dtype.kind == "O" else "booleans, strings"
        raise InvalidInputError(f"sample times must be ints or floats, not {cause} or other objects")
    if t.ndim != 1 or t.size == 0:
        raise InvalidInputError("times must be a non-empty 1-D array")
    t = t.astype(float, copy=False)
    if np.count_nonzero(np.isfinite(t)) != t.size:
        raise InvalidInputError("sample times must be finite")
    return t


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous complex (T, n) array.

    The squares of the interleaved real and imaginary parts, summed by one
    matrix-vector product with ones (BLAS, and few numpy calls at T = 1);
    the one norm behind StateVector's invariant and ``trajectory``'s row
    check.
    """
    parts = a.view(float)
    return np.sqrt(np.square(parts).dot(_ones(parts.shape[1])))


@cache
def _ones(k: int) -> np.ndarray:
    # k ones, shared read-only per length
    ones = np.ones(k)
    ones.setflags(write=False)
    return ones


def _level_pairs(n: int) -> list[Pair]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@cache
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the pairs i < j in row-major order as (rows, cols), shared read-only per n
    rows, cols = np.triu_indices(n, k=1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class _PairArrays(NamedTuple):
    """Per-pair columns of a LevelSystem, in ``drive_frequencies`` order, read-only."""

    rows: np.ndarray
    cols: np.ndarray
    g: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    sequential: np.ndarray  # the drive frequencies of the pairs (i, i + 1), i = 0..n-2


def _pair_map(values, n: int, what: str) -> dict[Pair, float]:
    """A {(i, j): value} map checked entry by entry: sorted pairs, float values, in map order.

    Two ints and a finite float are taken at once when the sorted pair is new
    and below n; any other entry goes to ``_check_pair``, which raises at the
    first rule it breaks.
    """
    out = {}
    for key, value in values.items():
        if type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int and isinstance(value, float):
            i, j = key if key[0] < key[1] else key[::-1]
            v = float(value)  # np.float64 and other float subclasses, as _real returns them
            if 0 <= i < j < n and (i, j) not in out and math.isfinite(v):
                out[i, j] = v
                continue
        pair, v = _check_pair(key, value, n, what, out)
        out[pair] = v
    return out


def _check_pair(key, value, n: int, what: str, earlier: dict) -> tuple[Pair, float]:
    # one entry's rules in order, the first broken one raising; earlier: the sorted pairs before it
    if not (isinstance(key, tuple) and len(key) == 2):
        raise InvalidInputError(f"{what} key {_shown(key)} is not a valid level pair")
    index = f"{what} key index"
    i, j = sorted((_count(key[0], index, 0), _count(key[1], index, 0)))
    if i == j or j >= n:
        raise InvalidInputError(f"{what} key {_shown(key)} is not a valid level pair")
    if (i, j) in earlier:
        raise InvalidInputError(f"duplicate {what} entry for pair ({i}, {j})")
    return (i, j), _real(value, f"{what}[{i},{j}]")


def _require_every_pair(name: str, count: int, n: int) -> None:
    if count != n * (n - 1) // 2:
        raise InvalidInputError(f"{name} must list every pair: expected {n * (n - 1) // 2} entries, got {count}")


def _energies(values) -> tuple[float, ...]:
    return tuple(_real(e, f"energies[{k}]") for k, e in enumerate(values))


@dataclass(frozen=True)
class LevelSystem:
    """Physical scenario: level energies plus one drive per level pair.

    ``couplings`` holds the post-RWA coupling constants g_ij >= 0,
    ``drive_frequencies`` the laser frequencies omega_ij, and ``phases`` the
    optional drive phases phi_ij (radians).  All three are keyed by the level
    pair (i, j) with i < j; couplings and frequencies must cover every pair.
    All quantities share one angular-frequency unit; time is its inverse.

    The three maps are checked entry by entry in one pass (``_pair_map``) and
    stored read-only, each in its input's order, so a system never changes
    after construction; build a new one to change a coupling.  A pair table
    built from them in ``drive_frequencies`` order is what Q, the
    Hamiltonians, the frame frequencies and the condition checks read.
    Whether any phase is nonzero is therefore decided once, at
    construction, and its t-independent closed-form work (condition reports,
    Q, frame frequencies, spectral plans) once per system, and both are
    reused by every ``trajectory`` call on it.
    """

    energies: tuple[float, ...]
    couplings: Mapping[Pair, float]
    drive_frequencies: Mapping[Pair, float]
    phases: Mapping[Pair, float] = field(default_factory=dict)

    def __post_init__(self):
        energies = _energies(self.energies)
        object.__setattr__(self, "energies", energies)
        n = len(energies)
        if n < 2:
            raise InvalidInputError("a level system needs at least two levels")
        if any(energies[j] <= energies[j - 1] for j in range(1, n)):
            raise InvalidInputError("energies must be strictly increasing")

        couplings = _pair_map(self.couplings, n, "coupling")
        freqs = _pair_map(self.drive_frequencies, n, "drive frequency")
        # the keys are distinct pairs i < j < n, so the count alone tells
        # whether all n (n - 1) / 2 are there, before any pair list is built
        for name, table in (("couplings", couplings), ("drive_frequencies", freqs)):
            _require_every_pair(name, len(table), n)
        if any(g < 0.0 for g in couplings.values()):
            raise InvalidInputError("couplings must be non-negative")
        phases = _pair_map(self.phases, n, "phase")
        for pair in _level_pairs(n):  # the phases not given, as zeros in row-major order
            phases.setdefault(pair, 0.0)
        for name, pair_map in (("couplings", couplings), ("drive_frequencies", freqs), ("phases", phases)):
            object.__setattr__(self, name, MappingProxyType(pair_map))

        # one table in drive_frequencies order
        rows, cols = zip(*freqs)
        g, phi = ([m[p] for p in freqs] for m in (couplings, phases))
        sequential = np.array([freqs[i, i + 1] for i in range(n - 1)])
        table = _PairArrays(*map(np.array, (rows, cols, g, list(freqs.values()), phi)), sequential)
        for a in table:
            a.setflags(write=False)
        object.__setattr__(self, "_pairs", table)
        # read by has_phases, trajectory and hamiltonian_rwa
        object.__setattr__(self, "_phased", any(phi))
        # requested method (None for auto) -> plan of Q and its reuse; filled by trajectory
        object.__setattr__(self, "_plans", {})

    def __reduce__(self):
        # read-only maps do not pickle; a copy is rebuilt (and re-validated)
        # from plain dicts and starts with empty caches
        return LevelSystem, (self.energies, *map(dict, (self.couplings, self.drive_frequencies, self.phases)))

    @property
    def n(self) -> int:
        return len(self.energies)

    @classmethod
    def resonant(cls, energies, couplings, phases=None) -> "LevelSystem":
        """Build a system whose every drive satisfies omega_ij = E_j - E_i.

        Such a system meets both the resonance and the consistency condition
        by construction.
        """
        energies = _energies(energies)
        couplings = dict(couplings)
        # a table with fewer entries than pairs is refused before the
        # n (n - 1) / 2 frequencies are built; the constructor checks the rest
        if len(couplings) < len(energies) * (len(energies) - 1) // 2:
            _require_every_pair("couplings", len(couplings), len(energies))
        freqs = {(i, j): energies[j] - energies[i] for (i, j) in _level_pairs(len(energies))}
        return cls(energies, couplings, freqs, dict(phases or {}))

    def detunings(self) -> np.ndarray:
        """Delta_j = E_j - E_0 for j = 0..n-1 (the constant E_0 is dropped)."""
        e = np.asarray(self.energies)
        return e - e[0]

    def sequential_frequencies(self) -> np.ndarray:
        """The adjacent-pair drive frequencies omega_l = omega_{l-1,l}, l = 1..n-1."""
        return self._pairs.sequential.copy()

    def max_drive_frequency(self) -> float:
        # over Python floats, the float np.abs(omega).max() gives
        return max(map(abs, self._pairs.omega.tolist()))

    def has_phases(self) -> bool:
        return self._phased

    def without_phases(self) -> "LevelSystem":
        if not self.has_phases():
            return self
        return LevelSystem(self.energies, self.couplings, self.drive_frequencies)

    # The closed-form memo: what ``trajectory`` needs that does not depend on
    # t, with the plans in ``_plans``, made empty at construction.  A
    # cached_property stores nothing when it raises, so a failure is
    # recomputed (and raised again) on every call.

    @cached_property
    def _conditions(self) -> tuple[ConditionReport, ConditionReport]:
        # at the default tolerance; cached only when both conditions hold
        return _require_conditions(self, None)

    @cached_property
    def _q(self) -> CouplingMatrix:
        return build_q(self)

    @cached_property
    def _frame_frequencies(self) -> np.ndarray:
        # (0, omega_1, omega_1 + omega_2, ...): the frame phase rates of U(t),
        # summed left to right as np.cumsum does
        acc = np.array([0.0, *accumulate(self._pairs.sequential.tolist())])
        acc.setflags(write=False)
        return acc

    @cached_property
    def _h0(self) -> np.ndarray:
        # diag(0, Delta_1, ..., Delta_{n-1}) as a complex matrix, read by the Hamiltonians
        h0 = np.diag(self.detunings().astype(complex))
        h0.setflags(write=False)
        return h0


class _PlanEntry:
    """One spectral plan of a system's Q and what its calls reuse.

    ``rates`` is the plan's (rates, largest |rate|) joined with the frame
    rates, built with the entry; ``projected`` holds (state bytes, P psi0)
    of the last state evolved, one tuple, so a reader never pairs one call's
    key with another call's value.
    """

    __slots__ = ("plan", "rates", "projected")

    def __init__(self, plan: SpectralPlan, frame: np.ndarray):
        self.plan, self.rates, self.projected = plan, plan._phase_rates(frame), (None, None)


@dataclass(frozen=True)
class CouplingMatrix:
    """Real symmetric matrix of coupling constants with exactly zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
            raise InvalidInputError("coupling matrix must be square, n >= 2")
        # one count per rule: a count is cheaper than .all() or .any() on small arrays
        if np.count_nonzero(np.isfinite(a)) != a.size:
            raise InvalidInputError("coupling matrix entries must be finite")
        if np.count_nonzero(a.diagonal()):
            raise InvalidInputError("coupling matrix diagonal must be exactly zero")
        if np.count_nonzero(a != a.T):
            raise InvalidInputError("coupling matrix must be exactly symmetric")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "CouplingMatrix":
        # a fresh float (n, n) array, n >= 2, that is finite, zero on the
        # diagonal and exactly symmetric by construction, as build_q's
        matrix = object.__new__(cls)
        a.setflags(write=False)
        object.__setattr__(matrix, "entries", a)
        return matrix

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _largest(self) -> float:
        # max |Q_ij| over Python floats, found once per Q: roots.scale_exponent reads it
        return max(map(abs, self.entries.ravel().tolist()))


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a resonance or consistency check.

    ``residuals`` maps a condition label to its absolute frequency mismatch;
    ``worst`` is the largest residual and ``satisfied`` is worst <= tolerance.
    """

    satisfied: bool
    residuals: dict[str, float]
    worst: float
    tolerance: float


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector of unit Euclidean norm (within 1e-12)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size < 2:
            raise InvalidInputError("state vector must be 1-D with n >= 2")
        norm = float(_row_norms(a[None, :])[0])
        if not abs(norm - 1.0) <= _NORM_ATOL:  # also rejects NaN
            raise InvalidInputError(
                f"state vector norm {norm!r} deviates from 1 by more than {_NORM_ATOL}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """amplitudes / |amplitudes| for any finite nonzero amplitudes: the parts are
        first scaled by 2^-e, e the exponent of the largest |re| or |im|, so no
        square in the norm under- or overflows, and no other bit changes."""
        a = np.array(amplitudes, dtype=complex)
        top = float(np.abs(np.stack((a.real, a.imag))).max(initial=0.0))
        if not math.isfinite(top):
            raise InvalidInputError("cannot normalize non-finite amplitudes")
        if top == 0.0:
            raise InvalidInputError("cannot normalize the zero vector")
        e = math.frexp(top)[1]
        a.real, a.imag = np.ldexp(a.real, -e), np.ldexp(a.imag, -e)
        return cls(a / np.linalg.norm(a))

    @classmethod
    def _of_checked_row(cls, row: np.ndarray) -> "StateVector":
        # a read-only complex (n,) row, n >= 2, that already passed
        # trajectory's check: the same norm at the same bound
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", row)
        return state

    @classmethod
    def basis(cls, n: int, index: int) -> "StateVector":
        """|index> in n levels: n and index are counts (see ``_count``), index < n."""
        n = _count(n, "n", 2, _MAX_LEVELS)
        if _count(index, "basis index", 0) >= n:
            raise InvalidInputError(f"basis index must be below n = {n}, got {_shown(index)}")
        a = np.zeros(n, dtype=complex)
        a[index] = 1.0
        return cls(a)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def default_condition_tolerance(system: LevelSystem) -> float:
    """1e-9 relative to the largest drive frequency, in any frequency unit.

    Rounding-level residuals stay below 2 n^2 eps max|omega|, so a resonant
    system passes at every scale.
    """
    return 1e-9 * system.max_drive_frequency()


def build_q(system: LevelSystem) -> CouplingMatrix:
    """Assemble Q: Q[i][j] = g_ij off the diagonal, zeros on it.

    Q depends only on the couplings, not on energies, frequencies or phases.
    The system's couplings are finite and each pair i < j is written to both
    (i, j) and (j, i), so Q is finite, zero on the diagonal and exactly
    symmetric without ``CouplingMatrix``'s checks.
    """
    p = system._pairs
    q = np.zeros((system.n, system.n))
    q[p.rows, p.cols] = p.g
    q[p.cols, p.rows] = p.g
    return CouplingMatrix._trusted(q)


def _tolerance(system: LevelSystem, tol) -> float:
    # None means the default; otherwise a finite positive int or float
    if tol is None:
        return default_condition_tolerance(system)
    tol = _real(tol, "tolerance")
    if tol <= 0.0:
        raise InvalidInputError("tolerance must be positive")
    return tol


def check_resonance(system: LevelSystem, tol: float | None = None) -> ConditionReport:
    """Check omega_{j-1,j} = E_j - E_{j-1} for every adjacent pair.

    ``tol`` is None (the default tolerance) or a finite positive int or float.
    """
    tol = _tolerance(system, tol)
    e = system.energies
    seq = system._pairs.sequential.tolist()
    residuals = {f"omega[{j - 1},{j}]": abs(w - (e[j] - e[j - 1])) for j, w in enumerate(seq, 1)}
    worst = max(residuals.values())
    return ConditionReport(worst <= tol, residuals, worst, tol)


def check_consistency(system: LevelSystem, tol: float | None = None) -> ConditionReport:
    """Check omega_ij = omega_{i+1} + ... + omega_j for every pair with j - i >= 2.

    The omega_l on the right are the adjacent-pair frequencies; under
    resonance the sum equals E_j - E_i.  The residual is
    |epsilon_ij| = |omega_ij - (acc_j - acc_i)| with acc the accumulated
    frame frequencies, the same epsilon_ij that ``rotating_frame_hamiltonian``
    puts in its off-diagonal phases.  Two-level systems satisfy this
    vacuously.  ``tol`` is as in ``check_resonance``.
    """
    tol = _tolerance(system, tol)
    p = system._pairs
    acc = system._frame_frequencies.tolist()
    residuals = {
        f"epsilon[{i},{j}]": abs(w - (acc[j] - acc[i]))
        for i, j, w in zip(p.rows.tolist(), p.cols.tolist(), p.omega.tolist())
        if j - i >= 2
    }
    worst = max(residuals.values(), default=0.0)
    return ConditionReport(worst <= tol, residuals, worst, tol)


def _require_conditions(
    system: LevelSystem, tol: float | None
) -> tuple[ConditionReport, ConditionReport]:
    if tol is None:
        tol = default_condition_tolerance(system)  # once, for both checks
    resonance = check_resonance(system, tol)
    consistency = check_consistency(system, tol)
    if not (resonance.satisfied and consistency.satisfied):
        raise ConditionError(resonance, consistency)
    return resonance, consistency


def frame_matrix(system: LevelSystem, t: float) -> np.ndarray:
    """Diagonal frame transform U(t) = diag(1, e^{-i omega_1 t}, e^{-i(omega_1+omega_2)t}, ...).

    The accumulated phases use the adjacent-pair drive frequencies; U is
    unitary for every t.
    """
    return np.diag(np.exp(-1j * system._frame_frequencies * t))


def _stack(h0: np.ndarray, t: np.ndarray) -> np.ndarray:
    # one fresh copy of H_0 per time: shape t.shape + (n, n)
    h = np.empty(t.shape + h0.shape, dtype=complex)
    h[...] = h0
    return h


def hamiltonian_rwa(system: LevelSystem, t) -> np.ndarray:
    """Lab-frame RWA Hamiltonian H_0 + V(t).

    H_0 = diag(0, Delta_1, ..., Delta_{n-1}); V carries g_ij e^{i omega_ij t}
    above the diagonal and its conjugate below, so H is Hermitian exactly.
    A scalar ``t`` gives one (n, n) matrix and a 1-D array of T times a
    (T, n, n) stack whose slices equal the scalar calls bit for bit.
    Drive phases are not representable on this path and are rejected.
    """
    if system._phased:
        raise InvalidInputError(
            "the RWA interaction is phase-free; nonzero drive phases are only "
            "supported by hamiltonian_full"
        )
    p = system._pairs
    t = np.asarray(t, dtype=float)
    h = _stack(system._h0, t)
    v = p.g * np.exp(1j * p.omega * t[..., None])
    h[..., p.rows, p.cols] = v
    h[..., p.cols, p.rows] = np.conjugate(v)
    return h


def hamiltonian_full(system: LevelSystem, t) -> np.ndarray:
    """Cosine-drive Hamiltonian without the rotating-wave approximation.

    Off-diagonal entries are 2 g_ij cos(omega_ij t + phi_ij); the matrix is
    real symmetric at every t, and phases are honored here.  The factor 2
    keeps both Hamiltonians describing the same physical drive: the stored
    couplings follow the rotating-frame convention, where a cosine drive of
    amplitude A contributes A/2 to the co-rotating term that survives the
    approximation.  ``t`` is a scalar or a 1-D array, as in
    ``hamiltonian_rwa``.
    """
    p = system._pairs
    t = np.asarray(t, dtype=float)
    h = _stack(system._h0, t)
    v = 2.0 * p.g * np.cos(p.omega * t[..., None] + p.phi)
    h[..., p.rows, p.cols] = v
    h[..., p.cols, p.rows] = v
    return h


def rotating_frame_hamiltonian(system: LevelSystem, t: float) -> np.ndarray:
    """Generator of the rotating-frame dynamics, U(t)^dag H(t) U(t) - diag(accumulated omega).

    Diagonal entries are Delta_j minus the accumulated adjacent frequencies;
    off-diagonal entries are g_ij e^{i epsilon_ij t}.  When the resonance and
    consistency conditions hold this equals Q for all t.
    """
    p = system._pairs
    acc = system._frame_frequencies
    h = np.diag((system.detunings() - acc).astype(complex))
    eps = p.omega - (acc[p.cols] - acc[p.rows])
    v = p.g * np.exp(1j * eps * t)
    h[p.rows, p.cols] = v
    h[p.cols, p.rows] = np.conjugate(v)
    return h


@dataclass(frozen=True)
class Trajectory:
    """Closed-form amplitudes U(t) exp(-itQ) psi0, one row per sample time.

    ``method`` is the propagator route that produced them.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    method: Method

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def trajectory(
    system: LevelSystem,
    psi0: StateVector,
    times,
    method=None,
    tol: float | None = None,
) -> Trajectory:
    """Evolve psi0 to every time in ``times`` through U(t) exp(-itQ) psi0.

    Requires the resonance and consistency conditions (checked first, at
    ``tol``, defaulting to 1e-9 relative to the largest drive frequency;
    ConditionError otherwise), then zero drive phases and a ``psi0`` that is
    a StateVector of the system's size.  ``tol`` is None or a finite positive
    int or float.  Q and its spectral plan are built once for all times;
    ``method`` optionally forces a propagator method, and a name that is no
    method raises InvalidInputError.  The t-independent work (the
    default-tolerance verdict, Q, the frame frequencies and one plan per
    requested method) is kept on the system and reused by later calls; a
    check or plan that raises is redone, and raises again, on every call.
    With each plan the system keeps its eigen rates joined with the frame
    rates, and P psi0 of the last state evolved, so a later call on the same
    state repeats only the phase work.  ``times`` must be a non-empty 1-D
    array of finite values; anything else is rejected before any phase is
    computed.  The frame phases of U(t) and the eigenphases of the plan come
    from one exponential.  Every row must have unit norm within 1e-12, as a
    StateVector must, or InvalidInputError is raised.
    """
    times, amplitudes, route = _framed_rows(system, psi0, times, method, tol)
    times.setflags(write=False)
    return Trajectory(times, amplitudes, route)


def full_solution(
    system: LevelSystem,
    psi0: StateVector,
    t: float,
    method=None,
    tol: float | None = None,
) -> StateVector:
    """The state U(t) exp(-itQ) psi0 at one time: ``trajectory`` at T = 1.

    Same conditions, errors and ``method``/``tol`` arguments as ``trajectory``.
    The row is checked once, by trajectory's norm check, which is
    StateVector's.
    """
    _, amplitudes, _ = _framed_rows(system, psi0, [t], method, tol)
    return StateVector._of_checked_row(amplitudes[0])


def _framed_rows(system, psi0, times, method, tol) -> tuple[np.ndarray, np.ndarray, Method]:
    """Times, amplitudes and route behind ``trajectory`` and ``full_solution``.

    The times are checked after the conditions, the state and the plan, so
    an input fails with the same error whichever entry point took it.  The
    times come back as a fresh float array, the amplitudes U(t) exp(-itQ)
    psi0 as a read-only (T, n) array whose every row passed the norm check.
    """
    if tol is None:
        system._conditions  # the cached verdict; raises ConditionError unless both hold
    else:
        _require_conditions(system, tol)
    if system._phased:
        raise InvalidInputError("closed-form evolution requires zero drive phases")
    if not isinstance(psi0, StateVector):
        raise InvalidInputError(f"initial state must be a StateVector, got {type(psi0).__name__}")
    if psi0.n != system.n:
        raise InvalidInputError("initial state dimension does not match the system")
    # spectral_plan is looked up on its module per call, so a patch there applies
    key = None if method is None else _propagator._method(method)
    entry = system._plans.get(key)
    if entry is None:
        entry = system._plans[key] = _PlanEntry(_propagator.spectral_plan(system._q, key), system._frame_frequencies)
    plan = entry.plan
    times = _as_times(times)
    psi = psi0.amplitudes
    state = psi.tobytes()
    if entry.projected[0] != state:
        entry.projected = (state, plan._projections(psi))
    amplitudes = plan._apply(psi, times, *entry.rates, entry.projected[1])
    norms = _row_norms(amplitudes)
    if norms.size == 1:  # one time, the single-time calls' case: on its Python float
        ok = abs(norms.item() - 1.0) <= _NORM_ATOL
    else:
        ok = np.count_nonzero(np.abs(norms - 1.0) <= _NORM_ATOL) == norms.size
    if not ok:  # NaN is not ok
        defect = np.abs(norms - 1.0)
        k = int(np.argmin(defect <= _NORM_ATOL))
        raise InvalidInputError(
            f"state norm at t = {float(times[k])!r} deviates from 1 by {float(defect[k]):.3e}, "
            f"more than {_NORM_ATOL} ({plan.method.value} route)"
        )
    amplitudes.setflags(write=False)
    return times, amplitudes, plan.method


# last: propagator builds on the types above
from . import propagator as _propagator  # noqa: E402
