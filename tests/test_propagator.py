import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrabi import (
    DegenerateSpectrumError,
    InvalidInputError,
    LevelSystem,
    Method,
    Spectrum,
    StateVector,
    closed_form_spectrum,
    eigenvectors_three_level,
    full_solution,
    jacobi_eigendecompose,
    lagrange_coeffs,
    propagator,
    propagator_equal_coupling,
    propagator_from_eigen,
    propagator_lagrange,
    propagator_two_level,
    reference_expm,
    spectral_plan,
)

from conftest import coupling_matrix, random_coupling_matrix

times = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def equal_q(n, g):
    return coupling_matrix([g] * (n * (n - 1) // 2), n)


def spectrum_of(values):
    lam = np.sort(np.asarray(values, float))[::-1]
    gap = float(np.min(np.abs(np.diff(lam))))
    return Spectrum(eigenvalues=lam, degeneracy_gap=gap, n=len(lam))


class TestTwoLevel:
    def test_identity_at_zero(self):
        assert np.array_equal(propagator_two_level(1.3, 0.0).matrix, np.eye(2))

    def test_quarter_period(self):
        p = propagator_two_level(1.0, np.pi / 2)
        assert np.allclose(p.matrix, [[0.0, -1j], [-1j, 0.0]], atol=1e-15)

    @given(st.floats(0.0, 3.0), times)
    def test_agrees_with_equal_coupling(self, g, t):
        a = propagator_two_level(g, t).matrix
        b = propagator_equal_coupling(2, g, t).matrix
        assert np.max(np.abs(a - b)) <= 1e-12


class TestLagrangeCoeffs:
    def test_identity_interpolation_at_zero(self):
        coeffs = lagrange_coeffs(spectrum_of([1.7, 0.4, -2.1]), 0.0)
        assert np.allclose(coeffs.f, [1.0, 0.0, 0.0], atol=1e-12)

    def test_interpolation_identity_simple_spectrum(self):
        spectrum = spectrum_of([1.0, 0.0, -1.0])
        for t in (0.3, 2.0, -4.7):
            coeffs = lagrange_coeffs(spectrum, t)
            for lam in spectrum.eigenvalues:
                value = sum(coeffs.f[k] * lam ** k for k in range(3))
                assert abs(value - np.exp(-1j * t * lam)) <= 1e-9

    def test_matches_vandermonde_solve(self, rng):
        for _ in range(50):
            lam = np.sort(rng.uniform(-3, 3, 4))[::-1]
            lam -= np.mean(lam)
            spectrum = spectrum_of(lam)
            if spectrum.degeneracy_gap <= 1e-3:
                continue
            t = rng.uniform(-5, 5)
            coeffs = lagrange_coeffs(spectrum, t)
            vander = np.vander(spectrum.eigenvalues, increasing=True)
            oracle = np.linalg.solve(vander, np.exp(-1j * t * spectrum.eigenvalues))
            assert np.max(np.abs(coeffs.f - oracle)) <= 1e-10

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            lagrange_coeffs(spectrum_of([1.0, 1.0 + 1e-12, -2.0]), 1.0)


class TestLagrangePropagator:
    def test_identity_at_zero_exactly(self, rng):
        q = random_coupling_matrix(rng, 3)
        assert np.array_equal(propagator_lagrange(q, 0.0).matrix, np.eye(3))

    def test_three_level_matches_jacobi(self, rng):
        q = coupling_matrix([1.0, 3.0, 2.0], 3)
        for t in rng.uniform(0, 10, 10):
            a = propagator_lagrange(q, t).matrix
            b = propagator_from_eigen(jacobi_eigendecompose(q), t).matrix
            assert np.linalg.norm(a - b) <= 1e-9

    def test_four_level_matches_reference(self):
        q = coupling_matrix([1.0, 4.0, 6.0, 2.0, 5.0, 3.0], 4)
        for t in (0.1, 0.9, 3.7):
            a = propagator_lagrange(q, t).matrix
            b = reference_expm(-1j * t * q.entries)
            assert np.linalg.norm(a - b) <= 1e-9

    def test_wrong_dimension(self, rng):
        with pytest.raises(InvalidInputError):
            propagator_lagrange(random_coupling_matrix(rng, 5), 1.0)

    def test_degeneracy_propagates(self):
        with pytest.raises(DegenerateSpectrumError):
            propagator_lagrange(equal_q(3, 1.0), 1.0)


class TestEqualCoupling:
    def test_identity_at_zero(self):
        assert np.array_equal(propagator_equal_coupling(5, 0.7, 0.0).matrix, np.eye(5))

    def test_zero_coupling_identity_for_all_t(self):
        for t in (0.0, 1.3, -8.0):
            assert np.allclose(propagator_equal_coupling(4, 0.0, t).matrix, np.eye(4))

    def test_matches_reference_across_sizes(self, rng):
        for n in range(3, 17):
            g = rng.uniform(0.1, 2.0)
            t = rng.uniform(0.0, 10.0)
            p = propagator_equal_coupling(n, g, t).matrix
            r = np.ones((n, n)) - np.eye(n)
            assert np.linalg.norm(p - reference_expm(-1j * t * g * r)) <= 1e-10

    def test_global_phase_revival(self, rng):
        for n in (2, 3, 7, 12):
            g = rng.uniform(0.3, 1.5)
            t = 2.0 * np.pi / (n * g)
            p = propagator_equal_coupling(n, g, t).matrix
            assert np.max(np.abs(p - np.exp(1j * g * t) * np.eye(n))) <= 1e-9


class TestClosedEigenvectors:
    def test_g3_zero_explicit_vectors(self):
        g1, g2 = 1.3, 0.7
        lam = np.hypot(g1, g2)
        q = coupling_matrix([g1, 0.0, g2], 3)
        decomp = eigenvectors_three_level(q, closed_form_spectrum(q))
        top = np.array([g1, 1.0 * lam, g2]) / (np.sqrt(2) * lam)
        middle = np.array([g2, 0.0, -g1]) / lam
        assert np.allclose(decomp.vectors[:, 0] * np.sign(decomp.vectors[0, 0]), top, atol=1e-12)
        column = decomp.vectors[:, 1]
        sign = np.sign(column[0]) or 1.0
        assert np.allclose(column * sign, middle, atol=1e-12)

    def test_residuals_on_random_matrices(self, rng):
        for _ in range(200):
            q = random_coupling_matrix(rng, 3)
            spectrum = closed_form_spectrum(q)
            decomp = eigenvectors_three_level(q, spectrum)
            for k, lam in enumerate(spectrum.eigenvalues):
                x = decomp.vectors[:, k]
                assert np.linalg.norm(q.entries @ x - lam * x) <= 1e-8 * np.linalg.norm(q.entries)

    def test_orthogonality_and_reconstruction(self, rng):
        q = random_coupling_matrix(rng, 3)
        decomp = eigenvectors_three_level(q, closed_form_spectrum(q))
        o = decomp.vectors
        assert np.max(np.abs(o @ o.T - np.eye(3))) <= 1e-10
        rebuilt = (o * decomp.spectrum.eigenvalues) @ o.T
        assert np.linalg.norm(rebuilt - q.entries) <= 1e-9 * np.linalg.norm(q.entries)

    def test_degenerate_direction_raises(self):
        q = equal_q(3, 1.0)
        with pytest.raises(DegenerateSpectrumError):
            eigenvectors_three_level(q, closed_form_spectrum(q))


class TestJacobi:
    def test_two_by_two(self):
        decomp = jacobi_eigendecompose(coupling_matrix([0.9], 2))
        assert np.allclose(decomp.spectrum.eigenvalues, [0.9, -0.9], atol=1e-12)
        assert np.allclose(np.abs(decomp.vectors), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)

    def test_equal_coupling_five_levels(self):
        decomp = jacobi_eigendecompose(equal_q(5, 1.0))
        assert np.allclose(decomp.spectrum.eigenvalues, [4, -1, -1, -1, -1], atol=1e-12)

    def test_matches_cubic_solver(self, rng):
        for _ in range(100):
            q = random_coupling_matrix(rng, 3)
            jac = jacobi_eigendecompose(q).spectrum.eigenvalues
            cardano = closed_form_spectrum(q).eigenvalues
            assert np.max(np.abs(jac - cardano)) <= 1e-9

    def test_orthogonal_and_reconstructs(self, rng):
        for n in (2, 4, 7, 11):
            q = random_coupling_matrix(rng, n)
            decomp = jacobi_eigendecompose(q)
            o = decomp.vectors
            assert np.max(np.abs(o @ o.T - np.eye(n))) <= 1e-10
            rebuilt = (o * decomp.spectrum.eigenvalues) @ o.T
            assert np.linalg.norm(rebuilt - q.entries) <= 1e-9 * max(
                1e-30, np.linalg.norm(q.entries)
            )


class TestPropagatorFromEigen:
    def test_identity_at_zero(self, rng):
        decomp = jacobi_eigendecompose(random_coupling_matrix(rng, 4))
        assert np.array_equal(propagator_from_eigen(decomp, 0.0).matrix, np.eye(4))

    def test_g3_zero_entry_formula(self):
        g1, g2, t = 1.3, 0.7, 2.4
        lam = np.hypot(g1, g2)
        q = coupling_matrix([g1, 0.0, g2], 3)
        decomp = eigenvectors_three_level(q, closed_form_spectrum(q))
        p = propagator_from_eigen(decomp, t, Method.CLOSED_EIGEN3)
        expected_00 = (g1 ** 2 * np.cos(t * lam) + g2 ** 2) / lam ** 2
        assert p.matrix[0, 0] == pytest.approx(expected_00, abs=1e-12)
        assert p.method is Method.CLOSED_EIGEN3

    def test_matches_reference(self, rng):
        for _ in range(20):
            q = random_coupling_matrix(rng, 5)
            t = rng.uniform(0, 10)
            p = propagator_from_eigen(jacobi_eigendecompose(q), t).matrix
            assert np.linalg.norm(p - reference_expm(-1j * t * q.entries)) <= 1e-9


class TestDispatcher:
    def test_equal_coupling_routed_before_lagrange(self):
        p = propagator(equal_q(3, 0.8), 1.0)
        assert p.method is Method.EQUAL_COUPLING

    def test_generic_four_level_uses_lagrange(self, rng):
        p = propagator(random_coupling_matrix(rng, 4), 1.0)
        assert p.method is Method.LAGRANGE4

    def test_two_level_uses_closed_form(self, rng):
        p = propagator(random_coupling_matrix(rng, 2), 1.0)
        assert p.method is Method.TWO_LEVEL

    def test_large_n_uses_jacobi_and_stays_unitary(self, rng):
        q = random_coupling_matrix(rng, 7)
        p = propagator(q, 2.2)
        assert p.method is Method.JACOBI
        assert np.linalg.norm(p.matrix @ p.matrix.conj().T - np.eye(7)) <= 1e-9 * 7

    def test_forced_method_mismatch_raises(self, rng):
        q3 = random_coupling_matrix(rng, 3)
        with pytest.raises(InvalidInputError):
            propagator(q3, 1.0, Method.TWO_LEVEL)
        with pytest.raises(InvalidInputError):
            propagator(q3, 1.0, "lagrange4")
        with pytest.raises(InvalidInputError):
            propagator(q3, 1.0, Method.EQUAL_COUPLING)

    def test_forced_string_methods(self, rng):
        q = random_coupling_matrix(rng, 3)
        t = 1.1
        ref = propagator(q, t, "reference")
        assert ref.method is Method.REFERENCE
        closed = propagator(q, t, "closed_eigen3")
        assert closed.method is Method.CLOSED_EIGEN3
        assert np.linalg.norm(ref.matrix - closed.matrix) <= 1e-8


def _all_methods(rng):
    yield propagator_two_level(rng.uniform(0, 2), rng.uniform(0, 10))
    yield propagator_lagrange(random_coupling_matrix(rng, 3), rng.uniform(0, 10))
    yield propagator_lagrange(random_coupling_matrix(rng, 4), rng.uniform(0, 10))
    yield propagator_equal_coupling(rng.integers(2, 9), rng.uniform(0, 2), rng.uniform(0, 10))
    q3 = random_coupling_matrix(rng, 3)
    yield propagator(q3, rng.uniform(0, 10), Method.CLOSED_EIGEN3)
    qn = random_coupling_matrix(rng, int(rng.integers(2, 8)))
    yield propagator(qn, rng.uniform(0, 10), Method.JACOBI)
    yield propagator(q3, rng.uniform(0, 10), Method.REFERENCE)


class TestSharedInvariants:
    def test_unitarity_all_methods(self, rng):
        for _ in range(30):
            for p in _all_methods(rng):
                defect = np.linalg.norm(p.matrix @ p.matrix.conj().T - np.eye(p.n))
                assert defect <= 1e-9 * p.n

    def test_matrices_are_complex_symmetric(self, rng):
        for _ in range(30):
            for p in _all_methods(rng):
                assert np.max(np.abs(p.matrix - p.matrix.T)) <= 1e-10

    def test_group_law_and_inverse(self, rng):
        for n in (2, 3, 4, 6):
            q = random_coupling_matrix(rng, n)
            t, s = rng.uniform(0, 5, 2)
            pt = propagator(q, t)
            ps = propagator(q, s)
            pts = propagator(q, t + s)
            assert np.linalg.norm(pts.matrix - pt.matrix @ ps.matrix) <= 1e-9
            back = propagator(q, -t)
            assert np.max(np.abs(back.matrix - pt.matrix.conj().T)) <= 1e-10

    def test_spectral_mapping_via_trace(self, rng):
        for n in (3, 4):
            q = random_coupling_matrix(rng, n)
            t = rng.uniform(0, 8)
            spectrum = closed_form_spectrum(q)
            expected = np.sum(np.exp(-1j * t * spectrum.eigenvalues))
            assert abs(np.trace(propagator(q, t).matrix) - expected) <= 1e-9

    def test_eigenvector_route_agrees_with_lagrange(self, rng):
        # diagonalization route vs polynomial route wherever both apply
        for _ in range(50):
            q = random_coupling_matrix(rng, 3)
            spectrum = closed_form_spectrum(q)
            if spectrum.degeneracy_gap <= 1e-6 * spectrum.spectral_radius:
                continue
            t = rng.uniform(0, 10)
            a = propagator(q, t, Method.CLOSED_EIGEN3).matrix
            b = propagator_lagrange(q, t).matrix
            assert np.max(np.abs(a - b)) <= 1e-8


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("method", [None, "lagrange3", "closed_eigen3", "jacobi", "reference"])
def test_non_finite_time_raises_before_any_phase(bad, method):
    system = LevelSystem.resonant((0.0, 1.0, 3.0), {(0, 1): 0.7, (0, 2): 1.1, (1, 2): 0.4})
    q = coupling_matrix([0.7, 1.1, 0.4], 3)
    plan = spectral_plan(q, method)
    psi = StateVector.basis(3, 0)
    calls = (
        lambda: propagator(q, bad, method),
        lambda: plan.propagators([0.0, bad]),
        lambda: plan.evolve(psi.amplitudes, [bad]),
        lambda: full_solution(system, psi, bad, method),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN phase would warn first
        for call in calls:
            with pytest.raises(InvalidInputError, match="finite"):
                call()
