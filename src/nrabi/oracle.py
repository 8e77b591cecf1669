"""Numerical ground truth: Schrodinger integration and a reference exponential.

Everything here is deliberately independent of the closed-form propagator
paths so it can arbitrate them: time evolution is classic RK4 with
step-doubling error control, and the matrix exponential is plain
scaling-and-squaring of a truncated Taylor series.  The integrator does not
hide its own error: norm drift is left visible unless renormalization is
requested explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, InvalidInputError
from .model import LevelSystem, StateVector, _count, _real, hamiltonian_full, hamiltonian_rwa

_HERMITICITY_RTOL = 1e-12
_TAYLOR_DEGREE = 12
_MAX_EXPM_NORM = 1e6
# the states are a (samples, n) complex array: 32 MB a level at the cap
_MAX_SAMPLES = 2_000_000


@dataclass(frozen=True)
class IntegrationConfig:
    """Adaptive RK4 settings; the defaults suit the bundled scenarios."""

    dt: float = 1e-2
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    renormalize: bool = False

    def __post_init__(self):
        for name in ("dt", "rel_tol", "abs_tol"):
            value = getattr(self, name)
            if _real(value, name) <= 0.0:
                raise InvalidInputError(f"{name} must be positive, got {value!r}")
        _count(self.max_steps, "max_steps", 1)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory: times, state amplitudes (rows) and level populations.

    ``steps_accepted`` and ``steps_rejected`` count step-doubling attempts;
    ``h_evals`` counts the times at which the caller's Hamiltonian was
    evaluated.
    """

    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    steps_accepted: int = 0
    steps_rejected: int = 0
    h_evals: int = 0

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.size > 1 and np.any(np.diff(times) <= 0.0):
            raise InvalidInputError("sample times must be strictly increasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)


def _hamiltonians(hamiltonian, ts: list, n: int) -> np.ndarray:
    """The caller's Hamiltonians at ``ts`` as a (T, n, n) stack, each checked
    finite and Hermitian within 1e-12 of max(1, its largest entry)."""
    hs = np.asarray(hamiltonian(np.array(ts)), dtype=complex)
    if hs.shape != (len(ts), n, n):
        raise InvalidInputError(
            f"hamiltonian must map {len(ts)} times to a ({len(ts)}, {n}, {n}) stack, "
            f"got shape {hs.shape}"
        )
    scale = np.abs(hs).max(axis=(1, 2))
    bad = ~np.isfinite(scale)
    if not bad.any():
        defect = np.abs(hs - hs.conj().swapaxes(1, 2)).max(axis=(1, 2))
        bad = defect > _HERMITICITY_RTOL * np.maximum(scale, 1.0)
    if bad.any():
        t = ts[int(np.argmax(bad))]
        raise IntegrationError(f"Hamiltonian is not finite and Hermitian at t = {t!r}")
    return hs


def _rk4(psi, dt, k1, h2, h3, h4):
    # the classic RK4 stages after k1 = -i H(t) psi
    k2 = -1j * (h2 @ (psi + (0.5 * dt) * k1))
    k3 = -1j * (h3 @ (psi + (0.5 * dt) * k2))
    k4 = -1j * (h4 @ (psi + dt * k3))
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step(hamiltonian, t: float, psi: np.ndarray, dt: float) -> np.ndarray:
    """One classic fourth-order Runge-Kutta step of i dpsi/dt = H(t) psi."""
    k1 = -1j * (hamiltonian(t) @ psi)
    return _rk4(
        psi, dt, k1, hamiltonian(t + 0.5 * dt), hamiltonian(t + 0.5 * dt), hamiltonian(t + dt)
    )


def integrate_schrodinger(
    hamiltonian,
    psi0: StateVector,
    t_end: float,
    samples: int,
    config: IntegrationConfig | None = None,
) -> TimeSeries:
    """Integrate i dpsi/dt = H(t) psi over [0, t_end] and sample it uniformly.

    ``hamiltonian`` maps a 1-D array of T times to a (T, n, n) stack of
    Hermitian matrices, e.g. ``lambda t: hamiltonian_rwa(system, t)``; a
    stack of another shape raises InvalidInputError.  Each step is taken
    once at full size and twice at half size; the pair must agree within
    abs_tol + rel_tol * ||psi|| for the step to be accepted, and the step size
    follows the usual fourth-order controller.  Every attempt evaluates its
    distinct new times t + s/4, t + s/2, t + s/2 + s/4, t + s/2 + s/2 and
    t + s in one call (H(t) is carried over from the accepted step before),
    so ``hamiltonian`` must depend on t alone, and every matrix it returns
    must be finite and Hermitian or IntegrationError is raised.  Raises
    IntegrationError when the step budget runs out.  The result counts
    accepted and rejected attempts and the times evaluated.
    """
    cfg = config or IntegrationConfig()
    t_end = _real(t_end, "t_end")
    if t_end <= 0.0:
        raise InvalidInputError(f"t_end must be positive, got {t_end!r}")
    samples = _count(samples, "samples", 2, _MAX_SAMPLES)
    times = np.linspace(0.0, t_end, samples)
    grid = times.tolist()

    psi = np.array(psi0.amplitudes, dtype=complex)
    n = psi.size
    h_t = _hamiltonians(hamiltonian, [0.0, t_end], n)[0]
    h_evals = 2
    states = np.empty((samples, n), dtype=complex)
    states[0] = psi
    h = min(cfg.dt, t_end / (samples - 1))
    steps = accepted = 0
    for k in range(1, samples):
        t = grid[k - 1]
        t_target = grid[k]
        while t < t_target:
            remaining = t_target - t
            last = h >= remaining
            step = remaining if last else h
            half = 0.5 * step
            mid = t + half
            # the times at which the full step and the two half steps need H,
            # each distinct float once, in order, t first
            stage = (t, t + 0.5 * half, mid, mid + 0.5 * half, mid + half, t + step)
            at = dict.fromkeys(stage)
            new = list(at)[1:]
            at.update(zip(new, _hamiltonians(hamiltonian, new, n)))
            at[t] = h_t
            h_evals += len(new)
            h_q1, h_mid, h_q3, h_half_end, h_end = (at[x] for x in stage[1:])
            k1 = -1j * (h_t @ psi)
            full = _rk4(psi, step, k1, h_mid, h_mid, h_end)
            psi_half = _rk4(psi, half, k1, h_q1, h_q1, h_mid)
            k1 = -1j * (h_mid @ psi_half)
            psi_half = _rk4(psi_half, half, k1, h_q3, h_q3, h_half_end)
            err = float(np.linalg.norm(psi_half - full))
            tol = cfg.abs_tol + cfg.rel_tol * float(np.linalg.norm(psi_half))
            steps += 1
            if steps > cfg.max_steps:
                raise IntegrationError(
                    f"exceeded max_steps = {cfg.max_steps} before t = {t_target!r}"
                )
            if err <= tol:
                accepted += 1
                psi = psi_half
                t = t_target if last else t + step
                h_t = at.get(t)
                if h_t is None:
                    # a clamped final sub-step can end off its own stage times
                    h_t = _hamiltonians(hamiltonian, [t], n)[0]
                    h_evals += 1
                if cfg.renormalize:
                    psi = psi / np.linalg.norm(psi)
                if not last:
                    # clamped final sub-steps must not shrink the working step
                    factor = 4.0 if err == 0.0 else 0.9 * (tol / err) ** 0.2
                    h = step * min(4.0, max(0.5, factor))
            else:
                h = step * max(0.1, 0.9 * (tol / err) ** 0.25)
        states[k] = psi
    populations = np.abs(states) ** 2
    return TimeSeries(times, states, populations, accepted, steps - accepted, h_evals)


def rwa_error(
    system: LevelSystem,
    psi0: StateVector,
    t_end: float,
    samples: int,
    config: IntegrationConfig | None = None,
) -> float:
    """Largest state-vector distance between cosine-drive and RWA evolution.

    Both trajectories start from the same psi0 and share the sample grid.
    Drive phases act on the cosine-drive side only; the RWA side always runs
    phase-free.
    """
    full = integrate_schrodinger(
        lambda t: hamiltonian_full(system, t), psi0, t_end, samples, config
    )
    stripped = system.without_phases()
    rwa = integrate_schrodinger(
        lambda t: hamiltonian_rwa(stripped, t), psi0, t_end, samples, config
    )
    return float(np.max(np.linalg.norm(full.states - rwa.states, axis=1)))


def reference_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring of a degree-12 Taylor sum.

    The argument is halved until its 1-norm is at most 0.5, the series is
    evaluated by Horner's scheme, and the result is squared back up.  Shares
    no code with the closed-form propagator paths.  Norms above 1e6 are
    rejected rather than silently losing accuracy.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("matrix exponential needs a square matrix")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix entries must be finite")
    norm = float(np.linalg.norm(a, 1))
    if norm > _MAX_EXPM_NORM:
        raise InvalidInputError(f"matrix norm {norm:.3e} exceeds {_MAX_EXPM_NORM:.0e}")
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = a / (2.0 ** squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    result = eye.copy()
    for k in range(_TAYLOR_DEGREE, 0, -1):
        result = eye + (b @ result) / k
    for _ in range(squarings):
        result = result @ result
    return result
