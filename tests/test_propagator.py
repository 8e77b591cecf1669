import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    trajectory,
)

from nrabi.propagator import equal_coupling_value

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

    def test_near_degenerate_direction_raises(self):
        # the eigenvalue pair 2e-5 apart is reported as one repeated value
        q = coupling_matrix([1.0, 1.0, 1.0 + 1e-5], 3)
        with pytest.raises(DegenerateSpectrumError):
            propagator(q, 1.0, "closed_eigen3")

    def test_unmerged_near_degenerate_spectrum_raises(self):
        # LAPACK keeps the pair 1e-8 apart; each column passes its residual
        # check, but together they are 3.8e-8 from orthonormal
        q = coupling_matrix([1.0, 1.0, 1.0 + 1e-8], 3)
        spectrum = jacobi_eigendecompose(q).spectrum
        assert spectrum.degeneracy_gap > 0.0
        with pytest.raises(DegenerateSpectrumError, match="orthonormal"):
            eigenvectors_three_level(q, spectrum)


    def test_q01_zero_explicit_vectors(self):
        # Q01 = 0: a V atom driven on 0-2 and 1-2, spectrum (lam, 0, -lam)
        g02, g12 = 1.3, 0.7
        lam = np.hypot(g02, g12)
        q = coupling_matrix([0.0, g02, g12], 3)
        decomp = eigenvectors_three_level(q, closed_form_spectrum(q))
        expected = np.column_stack(
            [
                np.array([g02, g12, lam]) / (np.sqrt(2) * lam),
                np.array([g12, -g02, 0.0]) / lam,
                np.array([g02, g12, -lam]) / (np.sqrt(2) * lam),
            ]
        )
        assert np.max(np.abs(decomp.vectors - expected)) <= 1e-15

    @pytest.mark.parametrize("pair", [0, 1, 2])
    @pytest.mark.parametrize("g", [0.8, -1.7, 3e5])
    def test_single_coupling(self, pair, g):
        # two zero couplings: one driven pair and one spectator level
        values = [0.0, 0.0, 0.0]
        values[pair] = g
        q = coupling_matrix(values, 3)
        spectrum = closed_form_spectrum(q)
        v = eigenvectors_three_level(q, spectrum).vectors
        assert np.max(np.abs((v * spectrum.eigenvalues) @ v.T - q.entries)) <= 1e-15 * abs(g)
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-15
        # first components non-negative, and no -0.0 for ``nrabi eigen`` to print
        assert (v[0] >= 0.0).all() and not np.signbit(v[v == 0.0]).any()

    @pytest.mark.parametrize("scale", [1e-100, 1e-20, 1e20, 1e100])
    def test_scale_free(self, scale):
        q = coupling_matrix(np.array([1.3, -0.4, 0.7]) * scale, 3)
        spectrum = closed_form_spectrum(q)
        v = eigenvectors_three_level(q, spectrum).vectors
        assert np.max(np.abs((v * spectrum.eigenvalues) @ v.T - q.entries)) <= 1e-15 * scale
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-15

    def test_wrong_eigenvalue_fails_the_residual_check(self):
        # Q's eigenvalues are near 4.11, -0.91 and -3.20; each given value has
        # a nonzero D, so its column is built, but that column is no eigenvector
        q = coupling_matrix([1.0, 3.0, 2.0], 3)
        with pytest.raises(DegenerateSpectrumError, match="closed-form eigenvector residual exceeds"):
            eigenvectors_three_level(q, Spectrum([5.0, 0.5, -4.0], 0.1, 3))

    def test_zero_matrix_raises(self):
        q = coupling_matrix([0.0, 0.0, 0.0], 3)
        with pytest.raises(DegenerateSpectrumError):
            eigenvectors_three_level(q, spectrum_of([0.0, 0.0, 0.0]))

    def test_spectrum_must_hold_three_eigenvalues(self):
        q = coupling_matrix([1.0, 2.0, 3.0], 3)
        with pytest.raises(InvalidInputError, match="3 eigenvalues"):
            eigenvectors_three_level(q, spectrum_of([4.0, 1.0, -2.0, -3.0]))

    def test_messages_print_plain_floats(self):
        q = equal_q(3, 1.0)
        with pytest.raises(DegenerateSpectrumError) as excinfo:
            eigenvectors_three_level(q, closed_form_spectrum(q))
        assert "np." not in str(excinfo.value)

    @settings(max_examples=400)
    @given(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-3, 2.0)).map(
                    lambda sg: sg[0] * sg[1]
                ),
                st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 6.0)).map(
                    lambda se: se[0] * 10.0 ** se[1]
                ),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_succeeds_on_every_well_separated_spectrum(self, values):
        # signed, zeroed (one or two) and mixed-scale couplings
        q = coupling_matrix(values, 3)
        norm_q = np.linalg.norm(q.entries)
        assume(norm_q > 0.0)
        spectrum = closed_form_spectrum(q)
        assume(spectrum.degeneracy_gap >= 1e-2 * spectrum.spectral_radius)
        v = eigenvectors_three_level(q, spectrum).vectors
        assert np.max(np.abs((v * spectrum.eigenvalues) @ v.T - q.entries)) <= 1e-12 * norm_q
        assert np.max(np.abs(v.T @ v - np.eye(3))) <= 1e-12


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: propagator_two_level(float("nan"), 1.0),
        lambda: propagator_two_level(float("inf"), 1.0),
        lambda: propagator_two_level(True, 1.0),
        lambda: propagator_two_level(0.5, float("nan")),
        lambda: propagator_two_level(10**400, 1.0),
        lambda: propagator_two_level(-(10**400), 1.0),
        lambda: propagator_equal_coupling(3, float("nan"), 1.0),
        lambda: propagator_equal_coupling(3, float("-inf"), 1.0),
        lambda: propagator_equal_coupling(2.5, 1.0, 1.0),
        lambda: propagator_equal_coupling(True, 1.0, 1.0),
        lambda: propagator_equal_coupling(3, 10**400, 1.0),
        lambda: lagrange_coeffs(spectrum_of([1.7, 0.4, -2.1]), float("nan")),
        lambda: lagrange_coeffs(spectrum_of([1.7, 0.4, -2.1]), "1.0"),
        lambda: propagator_from_eigen(
            jacobi_eigendecompose(coupling_matrix([1.0, 2.0, 3.0], 3)), 1.0, Method.LAGRANGE3
        ),
        lambda: propagator_from_eigen(
            jacobi_eigendecompose(coupling_matrix([1.0, 2.0, 3.0], 3)), 1.0, "reference"
        ),
    ],
    ids=[
        "two_level_nan_g",
        "two_level_inf_g",
        "two_level_bool_g",
        "two_level_nan_t",
        "two_level_int_past_float_g",
        "two_level_negative_int_past_float_g",
        "equal_coupling_nan_g",
        "equal_coupling_inf_g",
        "equal_coupling_fractional_n",
        "equal_coupling_bool_n",
        "equal_coupling_int_past_float_g",
        "lagrange_coeffs_nan_t",
        "lagrange_coeffs_str_t",
        "from_eigen_lagrange3_label",
        "from_eigen_reference_label",
    ],
)
def test_single_time_wrappers_fail_loudly(call):
    with pytest.raises(InvalidInputError):
        call()


def test_int_coupling_past_64_bits_is_its_float():
    # numpy would hold 2**70 in an object array, which its exp cannot take
    g = 2**70
    pairs = [
        (propagator_two_level(g, 1.0), propagator_two_level(float(g), 1.0)),
        (propagator_equal_coupling(3, g, 1.0), propagator_equal_coupling(3, float(g), 1.0)),
    ]
    for got, expected in pairs:
        assert got.method is expected.method
        assert got.matrix.tobytes() == expected.matrix.tobytes()


@pytest.mark.parametrize(
    "t", [np.float32(0.1), np.array(0.25), np.float64(0.5), 2], ids=["float32", "0d_array", "float64", "int"]
)
def test_time_is_kept_as_the_checked_python_float(t):
    # the caller's object was kept: a numpy.float32, or a 0-d array by reference
    q = coupling_matrix([1.0, 0.5, 0.3], 3)
    checked = float(t)
    kept = (propagator(q, t).t, propagator_two_level(1.0, t).t, lagrange_coeffs(closed_form_spectrum(q), t).t)
    assert [type(x) for x in kept] == [float] * 3 and kept == (checked,) * 3
    assert propagator(q, t).matrix.tobytes() == propagator(q, checked).matrix.tobytes()


def test_from_eigen_accepts_eigen_route_names():
    decomp = jacobi_eigendecompose(coupling_matrix([1.0, 2.0, 3.0], 3))
    assert propagator_from_eigen(decomp, 1.0, "closed_eigen3").method is Method.CLOSED_EIGEN3


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

    @pytest.mark.parametrize(
        "levels, couplings, samples",
        [
            # a random n = 4 Q with relative eigenvalue gap 5.3e-5
            (
                (0.0, 1.0, 2.0, 3.0),
                {(0, 1): 1.7615, (0, 2): 1.6291, (0, 3): 0.7005,
                 (1, 2): 0.7020, (1, 3): 1.6691, (2, 3): 1.5450},
                1001,
            ),
            # near-equal n = 3, relative gap 6.7e-5
            ((0.0, 1.0, 2.0), {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0001}, 101),
        ],
    )
    def test_close_eigenvalues_diagonalize(self, levels, couplings, samples):
        system = LevelSystem.resonant(levels, couplings)
        times = np.linspace(0.0, 10.0, samples)
        result = trajectory(system, StateVector.basis(len(levels), 0), times)
        assert result.method is Method.JACOBI

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


class TestCouplingsNearTheFloatMax:
    """Every plan's eigenvalues are finite, or the system is refused without a warning."""

    @staticmethod
    def _system(n, couplings):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return LevelSystem.resonant(tuple(range(n)), dict(zip(pairs, couplings)))

    @pytest.mark.parametrize(
        "n, couplings, route",
        [
            (3, [1.5e308] * 3, Method.EQUAL_COUPLING),  # (n - 1) g = 3e308
            (5, (np.random.default_rng(5).uniform(0.5, 1.0, 10) * 1e308).tolist(), Method.JACOBI),
        ],
        ids=["equal_coupling_n3", "jacobi_n5"],
    )
    def test_eigenvalue_past_the_float_range_is_refused(self, n, couplings, route):
        system = self._system(n, couplings)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"eigenvalues of {n}x{n} Q overflow the float range"):
                trajectory(system, StateVector.basis(n, 0), [0.0, 1e-308])
            with pytest.raises(InvalidInputError, match="overflow the float range"):
                spectral_plan(system._q, route)

    def test_equal_couplings_whose_sum_overflows_are_served(self):
        # 2 g = 1.4e308 is finite, but the sum of the three entries is not
        system = self._system(3, [7e307] * 3)
        times = np.array([0.0, 2e-308, 1e-307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = trajectory(system, StateVector.basis(3, 0), times)
        assert traj.method is Method.EQUAL_COUPLING
        lam, v = np.linalg.eigh(system._q.entries)
        expected = (v * np.exp(-1j * times[:, None, None] * lam)) @ v[0]
        expected *= np.exp(-1j * times[:, None] * system._frame_frequencies)
        assert np.max(np.abs(traj.amplitudes - expected)) <= 1e-15

    def test_phase_past_the_float_range_is_refused(self):
        # t * lambda overflowed in the exponential's argument: numpy warned, then
        # the norm check refused with "deviates from 1 by nan"
        psi = StateVector.basis(3, 0)
        plain = LevelSystem.resonant((0.0, 1.0, 3.0), {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0})
        calls = [
            ("10.0", lambda: trajectory(self._system(3, [7e307] * 3), psi, np.linspace(0.0, 10.0, 11))),
            ("1e+308", lambda: full_solution(plain, psi, 1e308)),
            ("1e+308", lambda: lagrange_coeffs(closed_form_spectrum(plain._q), 1e308)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for span, call in calls:
                with pytest.raises(InvalidInputError, match=re.escape(f"at |t| = {span} overflow")):
                    call()
            assert full_solution(plain, psi, 1e300).n == 3  # every rate (below 5) times 1e300 is finite
            assert lagrange_coeffs(closed_form_spectrum(plain._q), 1e307).t == 1e307

    def test_reference_phase_past_the_float_range_is_refused(self):
        # the reference plan holds no eigenvalues, so only the frame rate
        # (1e-10) was counted, and t Q overflowed in numpy
        system = LevelSystem.resonant((0.0, 1e-10), {(0, 1): 3.0})
        psi = StateVector.basis(2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=re.escape("at |t| = 1e+308 overflow")):
                trajectory(system, psi, [0.0, 1e308], method="reference")
            # finite entries whose 1-norm passes the float range
            with pytest.raises(InvalidInputError, match="matrix norm inf exceeds"):
                reference_expm(np.full((3, 3), 1e308))
            huge = coupling_matrix([1e308] * 3, 3)
            assert np.array_equal(propagator(huge, 0.0, "reference").matrix, np.eye(3))

    @given(st.floats(1e-40, 1e40), st.lists(st.floats(-1e-13, 1e-13), min_size=6, max_size=6))
    def test_mean_in_the_safe_band_keeps_its_bits(self, g, spread):
        q = coupling_matrix([g * (1.0 + d) for d in spread], 4)
        off = q.entries[np.triu_indices(4, k=1)]
        assert equal_coupling_value(q) == float(np.mean(off))
