"""The spectral plan against per-time formulas written out independently.

Each ``per_t_*`` function below evaluates one route at a single time the
direct way (a Python loop for the Lagrange coefficients, a cyclic Jacobi
sweep for the eigenvectors); the plan must match their stacked results.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nrabi import (
    InvalidInputError,
    LevelSystem,
    Method,
    StateVector,
    closed_form_spectrum,
    eigenvectors_three_level,
    frame_matrix,
    jacobi_eigendecompose,
    reference_expm,
    spectral_plan,
    trajectory,
)

from conftest import coupling_matrix, random_coupling_matrix

TIMES = np.array([0.0, -3.7, -0.25, 0.4, 1.9, 6.3, 10.0])
TOL = 1e-12


def per_t_two_level(g, t):
    c, s = math.cos(g * t), math.sin(g * t)
    return np.array([[c, -1j * s], [-1j * s, c]])


def per_t_equal_coupling(n, g, t):
    phase = np.exp(1j * g * t)
    shared = phase * (np.exp(-1j * n * g * t) - 1.0) / n
    matrix = np.full((n, n), shared, dtype=complex)
    np.fill_diagonal(matrix, phase + shared)
    return matrix


def per_t_lagrange(q, t):
    lam = closed_form_spectrum(q).eigenvalues
    n = q.n
    f = np.zeros(n, dtype=complex)
    for j in range(n):
        basis = np.array([1.0])
        denom = 1.0
        for k in range(n):
            if k != j:
                extended = np.zeros(len(basis) + 1)
                extended[:-1] -= lam[k] * basis
                extended[1:] += basis
                basis = extended
                denom *= lam[j] - lam[k]
        f += np.exp(-1j * t * lam[j]) / denom * basis
    if t == 0.0:
        return np.eye(n, dtype=complex)
    matrix = f[0] * np.eye(n, dtype=complex)
    power = np.eye(n)
    for k in range(1, n):
        power = power @ q.entries
        matrix += f[k] * power
    return matrix


def cyclic_jacobi(a):
    """Eigenvalues (descending) and vectors of a real symmetric matrix by Jacobi sweeps.

    Sweeps run until the off-diagonal norm reaches roundoff (or 20 sweeps), so
    the vectors are accurate to about machine precision.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    vectors = np.eye(n)
    target = 1e-15 * float(np.linalg.norm(a))
    for _ in range(20):
        if math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2))) <= target:
            break
        for p in range(n - 1):
            for s in range(p + 1, n):
                apq = a[p, s]
                if apq == 0.0:
                    continue
                theta = (a[s, s] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                rot = np.eye(n)
                rot[p, p] = rot[s, s] = c
                rot[p, s], rot[s, p] = sn, -sn
                a = rot.T @ a @ rot
                vectors = vectors @ rot
    order = np.argsort(-np.diag(a), kind="stable")
    return np.diag(a)[order], vectors[:, order]


def per_t_from_eigen(lam, vectors, t):
    if t == 0.0:
        return np.eye(len(lam), dtype=complex)
    return (vectors * np.exp(-1j * t * lam)) @ vectors.T


def per_t(q, method, t):
    """The route ``method`` at one time, written out directly."""
    if method is Method.TWO_LEVEL:
        return per_t_two_level(q.entries[0, 1], t)
    if method is Method.EQUAL_COUPLING:
        return per_t_equal_coupling(q.n, q.entries[0, 1], t)
    if method in (Method.LAGRANGE3, Method.LAGRANGE4):
        return per_t_lagrange(q, t)
    if method is Method.CLOSED_EIGEN3:
        decomp = eigenvectors_three_level(q, closed_form_spectrum(q))
        return per_t_from_eigen(decomp.spectrum.eigenvalues, decomp.vectors, t)
    if method is Method.JACOBI:
        return per_t_from_eigen(*cyclic_jacobi(q.entries), t)
    return reference_expm(-1j * t * q.entries)


def well_separated(rng, n):
    """A random Q whose eigenvalue gaps exceed 5 % of its spectral radius."""
    while True:
        q = random_coupling_matrix(rng, n, 0.2, 2.0)
        lam = np.linalg.eigvalsh(q.entries)
        if np.min(np.diff(lam)) > 0.05 * np.max(np.abs(lam)):
            return q


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def cases(rng):
    """(Q, method) for every Method, n = 2..8."""
    for n in range(2, 9):
        q = well_separated(rng, n)
        yield q, Method.JACOBI
        yield q, Method.REFERENCE
        yield coupling_matrix([rng.uniform(0.2, 2.0)] * (n * (n - 1) // 2), n), Method.EQUAL_COUPLING
    yield well_separated(rng, 2), Method.TWO_LEVEL
    yield well_separated(rng, 3), Method.LAGRANGE3
    yield well_separated(rng, 3), Method.CLOSED_EIGEN3
    yield well_separated(rng, 4), Method.LAGRANGE4


class TestPlanMatchesPerTimeFormulas:
    def test_propagators_every_method(self, rng):
        for q, method in cases(rng):
            plan = spectral_plan(q, method)
            assert plan.method is method
            stacked = np.array([per_t(q, method, t) for t in TIMES])
            got = plan.propagators(TIMES)
            assert got.shape == (len(TIMES), q.n, q.n)
            assert np.max(np.abs(got - stacked)) <= TOL, (q.n, method)

    def test_evolve_every_method(self, rng):
        for q, method in cases(rng):
            psi = random_state(rng, q.n)
            stacked = np.array([per_t(q, method, t) @ psi for t in TIMES])
            got = spectral_plan(q, method).evolve(psi, TIMES)
            assert got.shape == (len(TIMES), q.n)
            assert np.max(np.abs(got - stacked)) <= TOL, (q.n, method)

    def test_t0_is_exact_identity(self, rng):
        for q, method in cases(rng):
            plan = spectral_plan(q, method)
            psi = random_state(rng, q.n)
            assert np.array_equal(plan.propagators([0.0])[0], np.eye(q.n))
            assert np.array_equal(plan.evolve(psi, [0.0, 1.0, 0.0])[[0, 2]], [psi, psi])

    def test_automatic_dispatch_unchanged(self, rng):
        expected = {2: Method.TWO_LEVEL, 3: Method.LAGRANGE3, 4: Method.LAGRANGE4}
        for n in range(2, 9):
            q = well_separated(rng, n)
            plan = spectral_plan(q)
            assert plan.method is expected.get(n, Method.JACOBI)
            stacked = np.array([per_t(q, plan.method, t) for t in TIMES])
            assert np.max(np.abs(plan.propagators(TIMES) - stacked)) <= TOL
        equal5 = coupling_matrix([0.7] * 10, 5)
        assert spectral_plan(equal5).method is Method.EQUAL_COUPLING

    def test_forced_routes_raise_their_own_errors(self, rng):
        with pytest.raises(InvalidInputError):
            spectral_plan(well_separated(rng, 4), Method.CLOSED_EIGEN3)
        with pytest.raises(InvalidInputError):
            spectral_plan(well_separated(rng, 3), "lagrange4")
        with pytest.raises(InvalidInputError):
            spectral_plan(well_separated(rng, 3)).propagators([[1.0]])

    def test_trajectory_matches_per_time_pipeline(self, rng):
        for n in (2, 3, 4, 5, 6):
            energies = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))))
            q = well_separated(rng, n)
            couplings = {(i, j): q.entries[i, j] for i in range(n) for j in range(i + 1, n)}
            system = LevelSystem.resonant(energies, couplings)
            psi = random_state(rng, n)
            traj = trajectory(system, StateVector(psi), TIMES)
            expected = [frame_matrix(system, t) @ per_t(q, traj.method, t) @ psi for t in TIMES]
            assert np.max(np.abs(traj.amplitudes - np.array(expected))) <= TOL


couplings = st.floats(0.05, 2.0, allow_nan=False, allow_infinity=False)
time_arrays = st.lists(st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6)


@given(st.integers(2, 6).flatmap(lambda n: st.lists(couplings, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)), time_arrays)
def test_plan_matches_reference_on_random_q(values, times):
    n = int(round((1 + math.sqrt(1 + 8 * len(values))) / 2))
    q = coupling_matrix(values, n)
    lam = np.linalg.eigvalsh(q.entries)
    # well-conditioned spectra only: the Lagrange route divides by the gaps
    assume(np.min(np.diff(lam)) > 1e-3 * np.max(np.abs(lam)))
    plan = spectral_plan(q)
    props = plan.propagators(times)
    reference = np.array([reference_expm(-1j * t * q.entries) for t in times])
    assert np.max(np.abs(props - reference)) <= 1e-9
    psi = np.linspace(1.0, 2.0, n) + 0.5j
    assert np.max(np.abs(plan.evolve(psi, times) - props @ psi)) <= 1e-12 * np.linalg.norm(psi) * n


class TestJacobiIsEigh:
    def test_descending_orthonormal_same_gap(self, rng):
        for n in (2, 3, 4, 5, 8, 12):
            q = random_coupling_matrix(rng, n)
            decomp = jacobi_eigendecompose(q)
            lam = decomp.spectrum.eigenvalues
            v = decomp.vectors
            assert np.all(np.diff(lam) <= 0.0)
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
            assert np.max(np.abs(q.entries @ v - v * lam)) <= 1e-12 * n
            swept, _ = cyclic_jacobi(q.entries)
            assert np.max(np.abs(lam - swept)) <= 1e-12 * n
            assert decomp.spectrum.degeneracy_gap == pytest.approx(
                float(np.min(np.abs(np.diff(swept)))), abs=1e-12 * n
            )
