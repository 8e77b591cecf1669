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
from functools import cached_property
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
    value; an int past the float range is not finite.  With ``_count``, the
    rule for every number the package takes from outside.
    """
    if isinstance(x, _REAL_TYPES) and type(x) is not bool:  # np.bool_ is not an np.integer
        try:
            value = float(x)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise InvalidInputError(f"{what} must be a finite int or float, got {x!r}")


def _count(x, what: str, minimum: int, maximum: int | None = None) -> int:
    """x as an int if it is a count, else InvalidInputError naming ``what``.

    A count is an int (numpy's too, not a bool) at or above ``minimum`` and,
    for a count that sizes an array, at most ``maximum``.
    """
    if isinstance(x, _INT_TYPES) and type(x) is not bool and x >= minimum:
        if maximum is None or x <= maximum:
            return int(x)
        bits = int(x).bit_length()  # the repr of 10**400 has 401 digits
        shown = repr(x) if bits <= 64 else f"an integer of {bits} bits"
        raise InvalidInputError(f"{what} must be at most {maximum}, got {shown}")
    raise InvalidInputError(f"{what} must be an integer >= {minimum}, got {x!r}")


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous complex (T, n) array.

    One real reduction over the interleaved parts; the one norm behind
    StateVector's invariant and ``trajectory``'s row check.
    """
    parts = a.view(float)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


def _level_pairs(n: int) -> list[Pair]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class _PairArrays(NamedTuple):
    """Per-pair columns of a LevelSystem, in ``couplings`` order, read-only."""

    rows: np.ndarray
    cols: np.ndarray
    g: np.ndarray
    omega: np.ndarray
    phi: np.ndarray
    h0: np.ndarray  # diag(0, Delta_1, ..., Delta_{n-1}) as a complex matrix


def _canonical_pairs(values, n: int, what: str) -> dict[Pair, float]:
    """Normalize a {(i, j): value} map to i < j keys: indices are counts, values reals."""
    out: dict[Pair, float] = {}
    index = f"{what} key index"
    for key, value in values.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise InvalidInputError(f"{what} key {key!r} is not a valid level pair")
        i, j = sorted((_count(key[0], index, 0), _count(key[1], index, 0)))
        if i == j or j >= n:
            raise InvalidInputError(f"{what} key {key!r} is not a valid level pair")
        if (i, j) in out:
            raise InvalidInputError(f"duplicate {what} entry for pair ({i}, {j})")
        out[(i, j)] = _real(value, f"{what}[{i},{j}]")
    return out


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

    The three maps are stored read-only, so a system never changes after
    construction; build a new one to change a coupling.  Whether any phase
    is nonzero is therefore decided once, at construction, and its
    t-independent closed-form work (condition reports, Q, frame
    frequencies, spectral plans) once per system, and both are reused by
    every ``trajectory`` call on it.
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

        couplings = _canonical_pairs(self.couplings, n, "coupling")
        freqs = _canonical_pairs(self.drive_frequencies, n, "drive frequency")
        # the keys are distinct pairs i < j < n, so the count alone tells
        # whether all n (n - 1) / 2 are there, before any pair list is built
        expected = n * (n - 1) // 2
        for name, table in (("couplings", couplings), ("drive_frequencies", freqs)):
            if len(table) != expected:
                raise InvalidInputError(
                    f"{name} must list every pair: expected {expected} entries, "
                    f"got {len(table)}"
                )
        if any(g < 0.0 for g in couplings.values()):
            raise InvalidInputError("couplings must be non-negative")

        phases = _canonical_pairs(self.phases, n, "phase")
        phased = any(p != 0.0 for p in phases.values())
        for pair in _level_pairs(n):
            phases.setdefault(pair, 0.0)

        object.__setattr__(self, "couplings", MappingProxyType(couplings))
        object.__setattr__(self, "drive_frequencies", MappingProxyType(freqs))
        object.__setattr__(self, "phases", MappingProxyType(phases))
        # read by has_phases, trajectory and hamiltonian_rwa
        object.__setattr__(self, "_phased", phased)

    def __reduce__(self):
        # read-only maps do not pickle; a copy is rebuilt (and re-validated)
        # from plain dicts and starts with empty caches
        return LevelSystem, (
            self.energies,
            dict(self.couplings),
            dict(self.drive_frequencies),
            dict(self.phases),
        )

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
        freqs = {
            (i, j): energies[j] - energies[i]
            for (i, j) in _level_pairs(len(energies))
        }
        return cls(energies, dict(couplings), freqs, dict(phases or {}))

    def detunings(self) -> np.ndarray:
        """Delta_j = E_j - E_0 for j = 0..n-1 (the constant E_0 is dropped)."""
        e = np.asarray(self.energies)
        return e - e[0]

    def sequential_frequencies(self) -> np.ndarray:
        """The adjacent-pair drive frequencies omega_l = omega_{l-1,l}, l = 1..n-1."""
        return np.array(
            [self.drive_frequencies[(j - 1, j)] for j in range(1, self.n)]
        )

    def max_drive_frequency(self) -> float:
        return max(map(abs, self.drive_frequencies.values()))

    def has_phases(self) -> bool:
        return self._phased

    def without_phases(self) -> "LevelSystem":
        if not self.has_phases():
            return self
        return LevelSystem(self.energies, self.couplings, self.drive_frequencies)

    @cached_property
    def _pairs(self) -> _PairArrays:
        # built once per system (the fields are frozen) for the Hamiltonians
        keys = list(self.couplings)
        arrays = _PairArrays(
            np.array([i for i, _ in keys], dtype=np.intp),
            np.array([j for _, j in keys], dtype=np.intp),
            np.array([self.couplings[k] for k in keys]),
            np.array([self.drive_frequencies[k] for k in keys]),
            np.array([self.phases[k] for k in keys]),
            np.diag(self.detunings().astype(complex)),
        )
        for a in arrays:
            a.setflags(write=False)
        return arrays

    # The closed-form memo: what ``trajectory`` needs that does not depend on
    # t.  A cached_property stores nothing when it raises, so a failure is
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
        seq = (self.drive_frequencies[(j - 1, j)] for j in range(1, self.n))
        acc = np.array([0.0, *accumulate(seq)])
        acc.setflags(write=False)
        return acc

    @cached_property
    def _plans(self) -> dict[Method | None, SpectralPlan]:
        # requested method (None for auto) -> plan of Q; filled by trajectory
        return {}


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

    @property
    def n(self) -> int:
        return self.entries.shape[0]


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
        a = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(a)
        if not np.isfinite(norm):
            raise InvalidInputError("cannot normalize non-finite amplitudes")
        if norm == 0.0:
            raise InvalidInputError("cannot normalize the zero vector")
        return cls(a / norm)

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
            raise InvalidInputError(f"basis index must be below n = {n}, got {index!r}")
        a = np.zeros(n, dtype=complex)
        a[index] = 1.0
        return cls(a)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def default_condition_tolerance(system: LevelSystem) -> float:
    """1e-9 relative to the largest drive frequency (floored at 1 unit)."""
    return 1e-9 * max(1.0, system.max_drive_frequency())


def build_q(system: LevelSystem) -> CouplingMatrix:
    """Assemble Q: Q[i][j] = g_ij off the diagonal, zeros on it.

    Q depends only on the couplings, not on energies, frequencies or phases.
    """
    n = system.n
    q = np.zeros((n, n))
    for (i, j), g in system.couplings.items():
        q[i, j] = g
        q[j, i] = g
    return CouplingMatrix(q)


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
    residuals = {
        f"omega[{j - 1},{j}]": abs(
            system.drive_frequencies[(j - 1, j)] - (e[j] - e[j - 1])
        )
        for j in range(1, system.n)
    }
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
    acc = system._frame_frequencies.tolist()
    residuals = {
        f"epsilon[{i},{j}]": abs(w - (acc[j] - acc[i]))
        for (i, j), w in system.drive_frequencies.items()
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
    h = _stack(p.h0, t)
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
    h = _stack(p.h0, t)
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
    The plan keeps the joined frame and eigen rates and P psi0 of the last
    state it evolved, so a later call on the same state repeats only the
    phase work.  ``times`` must be a non-empty 1-D array of finite values;
    the plan rejects anything else before any phase is computed.  The frame
    phases of U(t) and the eigenphases of the plan come from one
    exponential.  Every row must have unit norm within 1e-12, as a
    StateVector must, or InvalidInputError is raised.
    """
    times, amplitudes, route = _framed_rows(system, psi0, times, method, tol, _propagator._as_times)
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
    StateVector's.  A finite Python float ``t`` skips the sequence checks of
    ``trajectory``'s times; any other value gets them.
    """
    _, amplitudes, _ = _framed_rows(system, psi0, t, method, tol, _single_time)
    return StateVector._of_checked_row(amplitudes[0])


def _single_time(t) -> np.ndarray:
    # the one scalar time check; ints keep _as_times's rule, under which numpy
    # refuses ints past 64 bits
    if type(t) is float and math.isfinite(t):
        return np.array([t])
    return _propagator._as_times([t])


def _framed_rows(system, psi0, times, method, tol, as_times) -> tuple[np.ndarray, np.ndarray, Method]:
    """Times, amplitudes and route behind ``trajectory`` and ``full_solution``.

    ``as_times`` turns ``times`` into a checked float array; it runs after
    the conditions, the state and the plan are checked, so an input fails
    with the same error whichever entry point took it.  The times come back as a fresh float array, the
    amplitudes U(t) exp(-itQ) psi0 as a read-only (T, n) array whose every
    row passed the norm check.
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
    plan = system._plans.get(key)
    if plan is None:
        plan = system._plans[key] = _propagator.spectral_plan(system._q, key)
    times = as_times(times)
    amplitudes = plan._evolve_in_frame(psi0.amplitudes, times, system._frame_frequencies)
    defect = np.abs(_row_norms(amplitudes) - 1.0)
    ok = defect <= _NORM_ATOL  # NaN is not ok
    if np.count_nonzero(ok) != ok.size:
        k = int(np.argmin(ok))
        raise InvalidInputError(
            f"state norm at t = {float(times[k])!r} deviates from 1 by {float(defect[k]):.3e}, "
            f"more than {_NORM_ATOL} ({plan.method.value} route)"
        )
    amplitudes.setflags(write=False)
    return times, amplitudes, plan.method


# last: propagator builds on the types above
from . import propagator as _propagator  # noqa: E402
