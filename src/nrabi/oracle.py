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
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError, InvalidInputError
from .model import LevelSystem, StateVector, hamiltonian_full, hamiltonian_rwa

_HERMITICITY_RTOL = 1e-12
_TAYLOR_DEGREE = 12
_MAX_EXPM_NORM = 1e6


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
            if not (value > 0.0 and math.isfinite(value)):
                raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")
        # a bool is an int, and NaN would switch the step budget off
        steps = self.max_steps
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
            raise InvalidInputError(f"max_steps must be an integer >= 1, got {steps!r}")


@dataclass(frozen=True)
class TimeSeries:
    """Sampled trajectory: times, state amplitudes (rows) and level populations.

    ``steps_accepted`` and ``steps_rejected`` count step-doubling attempts;
    ``h_evals`` counts calls to the caller's Hamiltonian.
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


def _require_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    h = np.asarray(h, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(h))))
    # NaN-safe: a non-finite entry makes the defect NaN, which fails the test
    if not float(np.max(np.abs(h - h.conj().T))) <= _HERMITICITY_RTOL * scale:
        raise IntegrationError(f"Hamiltonian is not finite and Hermitian at t = {t!r}")
    return h


def rk4_step(hamiltonian, t: float, psi: np.ndarray, dt: float) -> np.ndarray:
    """One classic fourth-order Runge-Kutta step of i dpsi/dt = H(t) psi."""
    k1 = -1j * (hamiltonian(t) @ psi)
    k2 = -1j * (hamiltonian(t + 0.5 * dt) @ (psi + (0.5 * dt) * k1))
    k3 = -1j * (hamiltonian(t + 0.5 * dt) @ (psi + (0.5 * dt) * k2))
    k4 = -1j * (hamiltonian(t + dt) @ (psi + dt * k3))
    return psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_schrodinger(
    hamiltonian,
    psi0: StateVector,
    t_end: float,
    samples: int,
    config: IntegrationConfig | None = None,
) -> TimeSeries:
    """Integrate i dpsi/dt = H(t) psi over [0, t_end] and sample it uniformly.

    ``hamiltonian`` maps a time to a Hermitian matrix (checked hard at the
    endpoints and spot-checked at every accepted step).  Each step is taken
    once at full size and twice at half size; the pair must agree within
    abs_tol + rel_tol * ||psi|| for the step to be accepted, and the step size
    follows the usual fourth-order controller.  Raises IntegrationError when
    the step budget runs out.  ``hamiltonian`` must depend on t alone: within
    one attempt each distinct time is evaluated once and the matrix reused.
    The result counts accepted and rejected attempts and calls to
    ``hamiltonian``.
    """
    cfg = config or IntegrationConfig()
    if not (t_end > 0.0 and math.isfinite(t_end)):
        raise InvalidInputError(f"t_end must be positive and finite, got {t_end!r}")
    if samples < 2:
        raise InvalidInputError("need at least two samples")
    times = np.linspace(0.0, t_end, samples)

    # An attempt of step s makes 12 calls at t, t + s/4, t + s/2,
    # t + s/2 + s/4, t + s/2 + s/2 and t + s; the memo, keyed by the exact
    # float and cleared per attempt except for H(t), makes each one call.
    memo: dict = {}
    h_evals = 0

    def h_at(t):
        nonlocal h_evals
        h = memo.get(t)
        if h is None:
            h = memo[t] = hamiltonian(t)
            h_evals += 1
        return h

    _require_hermitian(h_at(0.0), 0.0)
    _require_hermitian(h_at(t_end), t_end)

    psi = np.array(psi0.amplitudes, dtype=complex)
    states = np.empty((samples, psi.size), dtype=complex)
    states[0] = psi
    h = min(cfg.dt, t_end / (samples - 1))
    steps = accepted = 0
    for k in range(1, samples):
        t = times[k - 1]
        t_target = times[k]
        while t < t_target:
            h_t = h_at(t)
            memo.clear()
            memo[t] = h_t
            remaining = t_target - t
            last = h >= remaining
            step = remaining if last else h
            full = rk4_step(h_at, t, psi, step)
            half = rk4_step(h_at, t, psi, 0.5 * step)
            half = rk4_step(h_at, t + 0.5 * step, half, 0.5 * step)
            err = float(np.linalg.norm(half - full))
            tol = cfg.abs_tol + cfg.rel_tol * float(np.linalg.norm(half))
            steps += 1
            if steps > cfg.max_steps:
                raise IntegrationError(
                    f"exceeded max_steps = {cfg.max_steps} before t = {t_target!r}"
                )
            if err <= tol:
                accepted += 1
                psi = half
                t = t_target if last else t + step
                _require_hermitian(h_at(t), t)
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
