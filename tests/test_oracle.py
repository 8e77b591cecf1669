import numpy as np
import pytest

from nrabi import (
    IntegrationConfig,
    IntegrationError,
    InvalidInputError,
    LevelSystem,
    StateVector,
    full_solution,
    hamiltonian_full,
    hamiltonian_rwa,
    integrate_schrodinger,
    jacobi_eigendecompose,
    propagator_from_eigen,
    reference_expm,
    rk4_step,
    rwa_error,
)

from conftest import random_coupling_matrix

TWO_LEVEL = LevelSystem.resonant((0.0, 1.0), {(0, 1): 1.0})
THREE_LEVEL = LevelSystem.resonant((0.0, 1.0, 3.0), {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0})


class TestIntegrate:
    def test_diagonal_hamiltonian_is_pure_phase(self):
        h = np.diag([0.0, 1.5, 4.0]).astype(complex)
        series = integrate_schrodinger(
            lambda ts: np.broadcast_to(h, (len(ts), 3, 3)), StateVector.basis(3, 1), 3.0, 31
        )
        for k, t in enumerate(series.times):
            expected = np.array([0.0, np.exp(-1j * 1.5 * t), 0.0])
            assert np.linalg.norm(series.states[k] - expected) <= 1e-8
        assert np.allclose(series.populations[:, 1], 1.0, atol=1e-10)

    def test_two_level_rabi_populations(self):
        series = integrate_schrodinger(
            lambda t: hamiltonian_rwa(TWO_LEVEL, t), StateVector.basis(2, 0), 4 * np.pi, 201
        )
        expected = np.cos(series.times) ** 2
        assert np.max(np.abs(series.populations[:, 0] - expected)) <= 1e-6

    def test_matches_closed_form_three_level(self):
        psi0 = StateVector.normalized([1.0, 1.0, 1.0j])
        series = integrate_schrodinger(
            lambda t: hamiltonian_rwa(THREE_LEVEL, t), psi0, 8.0, 81
        )
        for k, t in enumerate(series.times):
            closed = full_solution(THREE_LEVEL, psi0, float(t))
            assert np.linalg.norm(series.states[k] - closed.amplitudes) <= 1e-6

    def test_norm_drift_stays_small(self):
        series = integrate_schrodinger(
            lambda t: hamiltonian_rwa(THREE_LEVEL, t), StateVector.basis(3, 0), 20.0, 51
        )
        norms = np.linalg.norm(series.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-7
        assert np.max(np.abs(np.sum(series.populations, axis=1) - 1.0)) <= 1e-8

    def test_renormalize_option(self):
        cfg = IntegrationConfig(rel_tol=1e-6, abs_tol=1e-9, renormalize=True)
        series = integrate_schrodinger(
            lambda t: hamiltonian_rwa(THREE_LEVEL, t), StateVector.basis(3, 0), 10.0, 11, cfg
        )
        norms = np.linalg.norm(series.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-14

    def test_time_reversal_recovers_initial_state(self):
        psi0 = StateVector.normalized([0.2, -0.5, 0.6 + 0.4j])
        t_end = 7.0
        forward = integrate_schrodinger(
            lambda t: hamiltonian_rwa(THREE_LEVEL, t), psi0, t_end, 11
        )
        flipped = StateVector.normalized(np.conj(forward.states[-1]))
        backward = integrate_schrodinger(
            lambda s: np.conj(hamiltonian_rwa(THREE_LEVEL, t_end - s)), flipped, t_end, 11
        )
        recovered = np.conj(backward.states[-1])
        assert np.linalg.norm(recovered - psi0.amplitudes) <= 1e-6

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(IntegrationError):
            integrate_schrodinger(
                lambda ts: np.broadcast_to(bad, (len(ts), 2, 2)), StateVector.basis(2, 0), 1.0, 5
            )

    def test_every_evaluated_matrix_is_checked(self):
        # Hermitian on the sample grid, not in between: when only the
        # matrices at accepted times were checked this integrated silently
        grid = np.linspace(0.0, 2.0, 3)
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

        def hamiltonian(ts):
            return np.where(np.isin(ts, grid)[:, None, None], 0.0, bad)

        with pytest.raises(IntegrationError, match=r"at t = 0\.25$"):
            integrate_schrodinger(
                hamiltonian, StateVector.basis(2, 0), 2.0, 3, IntegrationConfig(dt=1.0)
            )

    @pytest.mark.parametrize(
        "hamiltonian",
        [
            lambda ts: np.zeros((len(ts), 3, 3), dtype=complex),
            lambda ts: np.zeros((2, 2), dtype=complex),
        ],
        ids=["three-level-stack", "one-matrix"],
    )
    def test_stack_shape_must_match_state(self, hamiltonian):
        with pytest.raises(InvalidInputError, match="stack"):
            integrate_schrodinger(hamiltonian, StateVector.basis(2, 0), 1.0, 5)

    def test_max_steps_exceeded(self):
        cfg = IntegrationConfig(dt=1e-6, rel_tol=1e-13, abs_tol=1e-16, max_steps=10)
        with pytest.raises(IntegrationError):
            integrate_schrodinger(
                lambda t: hamiltonian_rwa(TWO_LEVEL, t), StateVector.basis(2, 0), 10.0, 5, cfg
            )

    def test_argument_validation(self):
        with pytest.raises(InvalidInputError):
            integrate_schrodinger(
                lambda t: np.eye(2, dtype=complex), StateVector.basis(2, 0), 0.0, 5
            )
        with pytest.raises(InvalidInputError):
            integrate_schrodinger(
                lambda t: np.eye(2, dtype=complex), StateVector.basis(2, 0), 1.0, 1
            )


class TestRejectsNonFiniteSettings:
    @pytest.mark.parametrize("name", ["dt", "rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_config(self, name, value):
        with pytest.raises(InvalidInputError, match=name):
            IntegrationConfig(**{name: value})

    @pytest.mark.parametrize("steps", [-5, 0, 2.5, True, False, float("nan"), "10", None])
    def test_max_steps(self, steps):
        with pytest.raises(InvalidInputError, match="max_steps"):
            IntegrationConfig(max_steps=steps)

    @pytest.mark.parametrize("steps", [1, np.int64(50)])
    def test_max_steps_accepts_integers(self, steps):
        assert IntegrationConfig(max_steps=steps).max_steps == steps

    @pytest.mark.parametrize("samples", [2.5, np.float64(3.0), True, 1, "3"])
    def test_samples(self, samples):
        # 2.5 and float64(3.0) escaped as a TypeError from linspace
        with pytest.raises(InvalidInputError, match="samples must be an integer >= 2"):
            integrate_schrodinger(
                lambda ts: np.zeros((len(ts), 2, 2), dtype=complex),
                StateVector.basis(2, 0),
                1.0,
                samples,
            )

    @pytest.mark.parametrize("samples", [2, np.int64(3)])
    def test_samples_accepts_integers(self, samples):
        series = integrate_schrodinger(
            lambda ts: np.zeros((len(ts), 2, 2), dtype=complex),
            StateVector.basis(2, 0),
            1.0,
            samples,
        )
        assert series.states.shape == (samples, 2)

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
    def test_t_end(self, t_end):
        with pytest.raises(InvalidInputError, match="t_end"):
            integrate_schrodinger(
                lambda t: np.eye(2, dtype=complex), StateVector.basis(2, 0), t_end, 5
            )

    def test_nan_hamiltonian_rejected(self):
        nan = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(IntegrationError):
            integrate_schrodinger(
                lambda ts: np.broadcast_to(nan, (len(ts), 2, 2)), StateVector.basis(2, 0), 1.0, 5
            )


def reference_integrate(hamiltonian, psi0, t_end, samples, cfg):
    """The integrator without evaluation reuse: no memo, every call
    goes to ``hamiltonian``.  Returns states, accepted, rejected, calls."""
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return hamiltonian(t)

    times = np.linspace(0.0, t_end, samples)
    counted(0.0)
    counted(t_end)
    psi = np.array(psi0.amplitudes, dtype=complex)
    states = np.empty((samples, psi.size), dtype=complex)
    states[0] = psi
    h = min(cfg.dt, t_end / (samples - 1))
    accepted = rejected = 0
    for k in range(1, samples):
        t = times[k - 1]
        t_target = times[k]
        while t < t_target:
            remaining = t_target - t
            last = h >= remaining
            step = remaining if last else h
            full = rk4_step(counted, t, psi, step)
            half = rk4_step(counted, t, psi, 0.5 * step)
            half = rk4_step(counted, t + 0.5 * step, half, 0.5 * step)
            err = float(np.linalg.norm(half - full))
            tol = cfg.abs_tol + cfg.rel_tol * float(np.linalg.norm(half))
            if err <= tol:
                accepted += 1
                psi = half
                t = t_target if last else t + step
                counted(t)
                if cfg.renormalize:
                    psi = psi / np.linalg.norm(psi)
                if not last:
                    factor = 4.0 if err == 0.0 else 0.9 * (tol / err) ** 0.2
                    h = step * min(4.0, max(0.5, factor))
            else:
                rejected += 1
                h = step * max(0.1, 0.9 * (tol / err) ** 0.25)
        states[k] = psi
    return states, accepted, rejected, calls


FOUR_LEVEL = LevelSystem.resonant(
    (0.0, 0.8, 2.1, 2.9),
    {(0, 1): 0.3, (0, 2): 0.15, (0, 3): 0.05, (1, 2): 0.25, (1, 3): 0.1, (2, 3): 0.2},
)
PHASED_THREE_LEVEL = LevelSystem(
    (0.0, 1.0, 2.5),
    {(0, 1): 0.2, (0, 2): 0.1, (1, 2): 0.15},
    {(0, 1): 1.0, (0, 2): 2.5, (1, 2): 1.5},
    {(0, 1): 0.4, (0, 2): -1.1, (1, 2): 2.0},
)


class TestEvaluationReuse:
    """Memoized Hamiltonian calls leave every state bit-for-bit unchanged."""

    @pytest.mark.parametrize(
        "hamiltonian, psi0, t_end, samples, cfg, must_reject",
        [
            (lambda t: hamiltonian_rwa(TWO_LEVEL, t), StateVector.basis(2, 0), 6.0, 13,
             IntegrationConfig(), False),
            # a first step far too large: the controller must reject it
            (lambda t: hamiltonian_rwa(THREE_LEVEL, t), StateVector.normalized([1.0, 1.0j, 0.5]),
             4.0, 3, IntegrationConfig(dt=1.0), True),
            (lambda t: hamiltonian_rwa(FOUR_LEVEL, t), StateVector.basis(4, 1), 5.0, 21,
             IntegrationConfig(rel_tol=1e-7, renormalize=True), False),
            (lambda t: hamiltonian_full(PHASED_THREE_LEVEL, t), StateVector.basis(3, 0), 5.0, 11,
             IntegrationConfig(dt=0.5), True),
        ],
        ids=["two-level", "three-level-rejected", "four-level", "three-level-full-phases"],
    )
    def test_equal_to_unmemoized_loop(self, hamiltonian, psi0, t_end, samples, cfg, must_reject):
        states, accepted, rejected, calls = reference_integrate(
            hamiltonian, psi0, t_end, samples, cfg
        )
        series = integrate_schrodinger(hamiltonian, psi0, t_end, samples, cfg)
        assert np.array_equal(series.states, states)
        assert (series.steps_accepted, series.steps_rejected) == (accepted, rejected)
        assert rejected > 0 or not must_reject
        attempted = accepted + rejected
        # 12 calls per attempt, one check per acceptance, two endpoint checks
        assert calls == 12 * attempted + accepted + 2
        assert series.h_evals <= 5 * attempted + 3


    def test_final_sub_step_off_its_stage_times(self):
        # the clamped last sub-step ends at t_end, which none of its stage
        # times hits in floating point, so H is evaluated there once more
        hamiltonian = lambda t: np.zeros(np.shape(t) + (2, 2))  # noqa: E731
        psi0, t_end, cfg = StateVector.basis(2, 0), 6.192312603664413, IntegrationConfig(dt=1.3787487399327696)
        states, accepted, rejected, _ = reference_integrate(hamiltonian, psi0, t_end, 2, cfg)
        series = integrate_schrodinger(hamiltonian, psi0, t_end, 2, cfg)
        assert series.h_evals == 11
        assert np.array_equal(series.states, states)
        assert (series.steps_accepted, series.steps_rejected) == (accepted, rejected)


class TestIntegratorOrder:
    def test_error_shrinks_fourth_order(self, rng):
        a = rng.normal(size=(3, 3))
        h = (a + a.T) / 2.0
        psi0 = StateVector.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        t_end = 2.0
        exact = reference_expm(-1j * t_end * h) @ psi0.amplitudes
        errors = []
        for nsteps in (32, 64, 128, 256):
            dt = t_end / nsteps
            psi = np.array(psi0.amplitudes)
            for k in range(nsteps):
                psi = rk4_step(lambda t: h, k * dt, psi, dt)
            errors.append(np.linalg.norm(psi - exact))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 12.0


class TestHermiticityRule:
    """Each evaluated H must be finite and within 1e-12 max(1, max|H|) of Hermitian."""

    def test_defect_within_the_relative_bound_is_accepted(self):
        # max|H| = 1e6 allows a defect up to 1e-6; 1e-8 is far above 1e-12
        h = np.array([[1e6, 1e-8], [0.0, -1e6]], dtype=complex)
        series = integrate_schrodinger(
            lambda ts: np.broadcast_to(h, (len(ts), 2, 2)), StateVector.basis(2, 0), 1e-6, 3
        )
        assert np.all(np.isfinite(series.states))
        assert series.populations[-1] == pytest.approx([1.0, 0.0], abs=1e-9)

    @pytest.mark.parametrize("entry", [(1, 1), (0, 1)], ids=["diagonal", "off_diagonal"])
    def test_infinite_entry_names_its_time(self, entry):
        # the first stack holds t = 0 and t_end; the second time is the bad one
        def hamiltonian(ts):
            hs = np.zeros((len(ts), 2, 2), dtype=complex)
            hs[(ts == 2.0), entry[0], entry[1]] = np.inf
            return hs

        with pytest.raises(IntegrationError, match=r"at t = 2\.0$"):
            integrate_schrodinger(hamiltonian, StateVector.basis(2, 0), 2.0, 3)


class TestStageArithmetic:
    def test_constant_hamiltonian_step_is_the_degree_four_taylor_polynomial(self):
        # for a constant H, classic RK4 is sum_k (-i dt H)^k / k! psi, k <= 4
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (a + a.conj().T) / 2.0
            dt = rng.uniform(0.01, 1.0) / np.linalg.norm(h, 2)
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            taylor = term = psi
            for k in range(1, 5):
                term = (-1j * dt) * (h @ term) / k
                taylor = taylor + term
            step = rk4_step(lambda t: h, rng.uniform(-5.0, 5.0), psi, dt)
            assert np.linalg.norm(step - taylor) <= 1e-14 * np.linalg.norm(taylor)


class TestRwaError:
    def test_vanishing_drive_limit(self):
        omega = 1.0
        system = LevelSystem.resonant((0.0, omega), {(0, 1): 1e-8 * omega})
        err = rwa_error(system, StateVector.basis(2, 0), 2 * np.pi / omega, 21)
        assert err <= 1e-6

    def test_error_decreases_with_drive_ratio(self):
        omega = 1.0
        errors = []
        for ratio in (0.05, 0.02, 0.01):
            g = ratio * omega
            system = LevelSystem.resonant((0.0, omega), {(0, 1): g})
            cfg = IntegrationConfig(rel_tol=1e-8, abs_tol=1e-11)
            errors.append(
                rwa_error(system, StateVector.basis(2, 0), 10.0 / g, 101, cfg)
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] > 1e-8  # the comparison is measuring something real

    def test_phases_run_on_full_path_only(self):
        system = LevelSystem(
            (0.0, 1.0), {(0, 1): 0.05}, {(0, 1): 1.0}, {(0, 1): 0.7}
        )
        err = rwa_error(system, StateVector.basis(2, 0), 5.0, 11)
        assert np.isfinite(err) and err >= 0.0


class TestReferenceExpm:
    def test_zero_matrix(self):
        assert np.array_equal(reference_expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_case(self):
        lam = np.array([0.3, -1.2, 2.0])
        t = 1.7
        out = reference_expm(-1j * t * np.diag(lam))
        assert np.max(np.abs(out - np.diag(np.exp(-1j * t * lam)))) <= 1e-12

    def test_matches_jacobi_diagonalization(self, rng):
        for _ in range(20):
            q = random_coupling_matrix(rng, 4)
            t = rng.uniform(0, 10)
            via_eigen = propagator_from_eigen(jacobi_eigendecompose(q), t).matrix
            assert np.linalg.norm(reference_expm(-1j * t * q.entries) - via_eigen) <= 1e-9

    def test_unitary_for_skew_hermitian_argument(self, rng):
        q = random_coupling_matrix(rng, 6)
        out = reference_expm(-1j * 3.0 * q.entries)
        assert np.linalg.norm(out @ out.conj().T - np.eye(6)) <= 1e-10 * 6

    def test_rejects_huge_norm(self):
        with pytest.raises(InvalidInputError):
            reference_expm(np.full((2, 2), 1e7))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            reference_expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))
