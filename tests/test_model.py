import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrabi import (
    ConditionError,
    CouplingMatrix,
    InvalidInputError,
    LevelSystem,
    StateVector,
    build_q,
    check_consistency,
    check_resonance,
    frame_matrix,
    full_solution,
    hamiltonian_full,
    hamiltonian_rwa,
    integrate_schrodinger,
    propagator,
    rotating_frame_hamiltonian,
    spectral_plan,
    trajectory,
)
from nrabi import model as nrabi_model
from nrabi.cli import Scenario, scenario_from_dict, scenario_to_dict
from nrabi.propagator import Method, SpectralPlan

THREE_LEVEL = LevelSystem.resonant((0.0, 1.0, 3.0), {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0})


SEED55_FOUR_LEVEL = LevelSystem.resonant(
    (0.0, 1.0, 2.0, 3.0),
    {(0, 1): 1.79492, (0, 2): 1.80062, (0, 3): 1.70504,
     (1, 2): 1.80065, (1, 3): 1.65391, (2, 3): 1.69777},
)


def detuned_three_level(omega_02=2.5):
    return LevelSystem(
        (0.0, 1.0, 3.0),
        {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0},
        {(0, 1): 1.0, (0, 2): omega_02, (1, 2): 2.0},
    )


class TestLevelSystem:
    def test_requires_increasing_energies(self):
        with pytest.raises(InvalidInputError):
            LevelSystem.resonant((0.0, 0.0), {(0, 1): 1.0})

    def test_requires_all_pairs(self):
        with pytest.raises(InvalidInputError):
            LevelSystem((0.0, 1.0, 2.0), {(0, 1): 1.0}, {(0, 1): 1.0})

    def test_too_few_couplings_refused_before_the_pair_list(self, monkeypatch):
        # the 1999000 pairs of 2000 levels took 0.7 s and 300 MB to refuse
        def no_pair_list(n):
            raise AssertionError(f"pair list of n = {n} built")

        monkeypatch.setattr(nrabi_model, "_level_pairs", no_pair_list)
        energies = tuple(float(k) for k in range(2000))
        with pytest.raises(InvalidInputError, match="expected 1999000 entries, got 1"):
            LevelSystem(energies, {(0, 1): 1.0}, {(0, 1): 1.0})

    def test_rejects_negative_coupling(self):
        with pytest.raises(InvalidInputError):
            LevelSystem.resonant((0.0, 1.0), {(0, 1): -0.5})

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), "1e0", "0.5", True, pytest.param(10**400, id="1e400")],
    )
    @pytest.mark.parametrize("table", ["couplings", "drive_frequencies", "phases"])
    def test_rejects_non_finite_entries(self, table, value):
        # float() took the strings and True, and raised OverflowError on 10**400
        maps = {"couplings": {(0, 1): 1.0}, "drive_frequencies": {(0, 1): 1.0}, "phases": {}}
        maps[table] = {(0, 1): value}
        with pytest.raises(InvalidInputError, match="must be a finite int or float"):
            LevelSystem((0.0, 1.0), **maps)

    def test_key_order_is_canonicalized(self):
        system = LevelSystem((0.0, 1.0), {(1, 0): 0.5}, {(1, 0): 1.0})
        assert system.couplings == {(0, 1): 0.5}

    def test_phases_default_to_zero(self):
        assert THREE_LEVEL.phases == {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0}
        assert not THREE_LEVEL.has_phases()

    def test_maps_are_read_only(self):
        couplings = {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0}
        system = LevelSystem.resonant((0.0, 1.0, 3.0), couplings, {(0, 2): 0.25})
        for table in (system.couplings, system.drive_frequencies, system.phases):
            with pytest.raises(TypeError):
                table[(0, 1)] = -7.0
            with pytest.raises(TypeError):
                del table[(0, 1)]
        couplings[(0, 1)] = 5.0  # the caller's dict is not the system's
        assert system.couplings[(0, 1)] == 1.0
        assert hamiltonian_rwa(system.without_phases(), 0.0)[0, 1] == 1.0

    def test_read_only_maps_keep_equality_and_round_trips(self):
        energies = (0.0, 1.0, 3.0)
        couplings = {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0}
        phased = LevelSystem.resonant(energies, couplings, {(1, 2): -0.5})
        assert phased == LevelSystem.resonant(energies, couplings, {(1, 2): -0.5})
        assert phased != THREE_LEVEL
        assert phased.without_phases() == THREE_LEVEL
        assert not phased.without_phases().has_phases()
        data = scenario_to_dict(Scenario(phased, 0, 1.0, 11))
        assert data["couplings"][2]["phi"] == -0.5
        assert scenario_from_dict(data).system == phased
        for clone in (pickle.loads(pickle.dumps(phased)), copy.deepcopy(phased), copy.copy(phased)):
            assert clone == phased


class TestStateVector:
    def test_construction_enforces_unit_norm(self):
        with pytest.raises(InvalidInputError):
            StateVector(np.array([1.0, 1.0]))

    def test_normalized_factory(self):
        state = StateVector.normalized([3.0, 4.0])
        assert np.allclose(state.amplitudes, [0.6, 0.8])

    def test_basis_and_populations(self):
        state = StateVector.basis(3, 1)
        assert state.populations().tolist() == [0.0, 1.0, 0.0]
        assert StateVector.basis(3, np.int64(2)).populations().tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("index", [-1, 3, 1.5, True, np.bool_(False), np.float64(1.0), "1"])
    def test_basis_index_must_be_a_level(self, index):
        with pytest.raises(InvalidInputError, match="basis index"):
            StateVector.basis(3, index)


class TestBuildQ:
    def test_three_level_placement(self):
        q = build_q(THREE_LEVEL)
        assert q.entries.tolist() == [[0, 1, 3], [1, 0, 2], [3, 2, 0]]

    def test_two_level(self):
        q = build_q(LevelSystem.resonant((0.0, 1.0), {(0, 1): 0.7}))
        assert q.entries.tolist() == [[0.0, 0.7], [0.7, 0.0]]

    def test_four_level_all_ones_is_ones_off_diagonal(self):
        system = LevelSystem.resonant(
            (0.0, 1.0, 2.0, 3.0), {p: 1.0 for p in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]}
        )
        q = build_q(system)
        assert np.array_equal(q.entries, np.ones((4, 4)) - np.eye(4))

    def test_independent_of_frequencies_and_phases(self):
        other = LevelSystem(
            (0.0, 2.0, 7.0),
            THREE_LEVEL.couplings,
            {(0, 1): 9.0, (0, 2): 4.0, (1, 2): 1.0},
            {(0, 1): 0.3},
        )
        assert np.array_equal(build_q(other).entries, build_q(THREE_LEVEL).entries)

    def test_exact_invariants(self):
        q = build_q(THREE_LEVEL)
        assert np.all(np.diag(q.entries) == 0.0)
        assert np.trace(q.entries) == 0.0
        assert np.array_equal(q.entries, q.entries.T)


class TestCouplingMatrix:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidInputError):
            CouplingMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidInputError):
            CouplingMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestConditions:
    def test_resonant_by_construction(self):
        report = check_resonance(THREE_LEVEL, 1e-9)
        assert report.satisfied and report.worst == 0.0

    def test_detuned_adjacent_pair(self):
        system = LevelSystem(
            (0.0, 1.0, 3.0),
            THREE_LEVEL.couplings,
            {(0, 1): 1.1, (0, 2): 3.0, (1, 2): 2.0},
        )
        report = check_resonance(system, 1e-9)
        assert not report.satisfied
        assert report.worst == pytest.approx(0.1)
        assert report.residuals["omega[0,1]"] == pytest.approx(0.1)

    def test_two_level_resonance(self):
        delta = 2.5
        system = LevelSystem((0.0, delta), {(0, 1): 1.0}, {(0, 1): delta})
        assert check_resonance(system, 1e-9).satisfied

    def test_consistency_holds_for_summed_frequency(self):
        report = check_consistency(THREE_LEVEL, 1e-9)
        assert report.satisfied and report.worst == 0.0

    def test_consistency_residual(self):
        report = check_consistency(detuned_three_level(2.5), 1e-9)
        assert not report.satisfied
        assert report.residuals["epsilon[0,2]"] == pytest.approx(0.5)

    def test_four_level_resonant_is_consistent(self):
        system = LevelSystem.resonant(
            (0.0, 1.0, 2.5, 4.0),
            {p: 0.5 for p in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]},
        )
        assert check_consistency(system, 1e-9).satisfied

    def test_two_level_consistency_is_vacuous(self):
        system = LevelSystem.resonant((0.0, 1.0), {(0, 1): 1.0})
        report = check_consistency(system, 1e-9)
        assert report.satisfied and report.residuals == {}

    def test_satisfied_matches_tolerance(self):
        report = check_consistency(detuned_three_level(3.0 + 1e-12), 1e-9)
        assert report.satisfied and report.worst <= report.tolerance

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(InvalidInputError):
            check_resonance(THREE_LEVEL, 0.0)


class TestFrameMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(frame_matrix(THREE_LEVEL, 0.0), np.eye(3))

    def test_two_level_phase(self):
        omega, t = 1.7, 0.43
        system = LevelSystem((0.0, omega), {(0, 1): 1.0}, {(0, 1): omega})
        expected = np.diag([1.0, np.exp(-1j * omega * t)])
        assert np.allclose(frame_matrix(system, t), expected, atol=1e-15)

    def test_three_level_accumulated_phases_at_pi(self):
        u = frame_matrix(THREE_LEVEL, np.pi)
        assert np.allclose(np.diag(u), [1.0, -1.0, -1.0], atol=1e-12)

    @given(st.floats(-50.0, 50.0))
    def test_unitary_for_all_times(self, t):
        u = frame_matrix(THREE_LEVEL, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-12


class TestHamiltonians:
    def test_rwa_two_level_matrix(self):
        g, omega, t = 0.8, 1.5, 0.6
        system = LevelSystem((0.0, omega), {(0, 1): g}, {(0, 1): omega})
        h = hamiltonian_rwa(system, t)
        expected = np.array(
            [[0.0, g * np.exp(1j * omega * t)], [g * np.exp(-1j * omega * t), omega]]
        )
        assert np.allclose(h, expected, atol=1e-15)

    def test_rwa_three_level_real_at_t0(self):
        h = hamiltonian_rwa(THREE_LEVEL, 0.0)
        assert np.allclose(h, [[0, 1, 3], [1, 1, 2], [3, 2, 3]], atol=1e-15)

    def test_rwa_hermitian_at_random_times(self, rng):
        for t in rng.uniform(-20, 20, 10):
            h = hamiltonian_rwa(THREE_LEVEL, t)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-15

    def test_rwa_rejects_phases(self):
        system = LevelSystem(
            (0.0, 1.0), {(0, 1): 1.0}, {(0, 1): 1.0}, {(0, 1): 0.4}
        )
        with pytest.raises(InvalidInputError):
            hamiltonian_rwa(system, 0.0)

    def test_full_three_level_cosine_entries(self):
        system = LevelSystem(
            (0.0, 1.0, 3.0),
            {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0},
            {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0},
            {(0, 1): 0.2, (0, 2): 0.5, (1, 2): 0.0},
        )
        t = 0.77
        h = hamiltonian_full(system, t)
        # cosine amplitudes are twice the stored rotating-frame couplings
        assert h[0, 1] == pytest.approx(2.0 * np.cos(1.0 * t + 0.2))
        assert h[0, 2] == pytest.approx(6.0 * np.cos(3.0 * t + 0.5))
        assert h[1, 2] == pytest.approx(4.0 * np.cos(2.0 * t))
        assert np.allclose(np.diag(h), [0.0, 1.0, 3.0])
        assert np.array_equal(h, h.T)
        assert np.all(h.imag == 0.0)

    def test_full_two_level_cosine(self):
        g, omega, phi, t = 0.5, 2.0, 0.3, 1.1
        system = LevelSystem((0.0, 1.0), {(0, 1): g}, {(0, 1): omega}, {(0, 1): phi})
        h = hamiltonian_full(system, t)
        assert h[0, 1] == pytest.approx(2.0 * g * np.cos(omega * t + phi))
        assert h[1, 1] == pytest.approx(1.0)

    def test_full_without_drive_is_diagonal(self):
        system = LevelSystem.resonant((0.0, 1.0, 3.0), {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 0.0})
        for t in (0.0, 0.9, 13.0):
            h = hamiltonian_full(system, t)
            assert np.allclose(h, np.diag([0.0, 1.0, 3.0]))


def loop_hamiltonian_rwa(system, t):
    h = np.diag(system.detunings().astype(complex))
    for (i, j), g in system.couplings.items():
        v = g * np.exp(1j * system.drive_frequencies[(i, j)] * t)
        h[i, j] = v
        h[j, i] = np.conjugate(v)
    return h


def loop_hamiltonian_full(system, t):
    h = np.diag(system.detunings().astype(complex))
    for (i, j), g in system.couplings.items():
        v = 2.0 * g * np.cos(system.drive_frequencies[(i, j)] * t + system.phases[(i, j)])
        h[i, j] = v
        h[j, i] = v
    return h


def loop_rotating_frame_hamiltonian(system, t):
    acc = np.concatenate(([0.0], np.cumsum(system.sequential_frequencies())))
    h = np.diag((system.detunings() - acc).astype(complex))
    for (i, j), g in system.couplings.items():
        eps = system.drive_frequencies[(i, j)] - (acc[j] - acc[i])
        v = g * np.exp(1j * eps * t)
        h[i, j] = v
        h[j, i] = np.conjugate(v)
    return h


@st.composite
def driven_systems(draw):
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=n - 1, max_size=n - 1))
    energies = np.concatenate(([0.0], np.cumsum(gaps)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    draw(st.randoms()).shuffle(pairs)  # dict order need not be row-major

    def per_pair(lo, hi):
        values = draw(st.lists(st.floats(lo, hi), min_size=len(pairs), max_size=len(pairs)))
        return dict(zip(pairs, values))

    return LevelSystem(
        tuple(energies), per_pair(0.0, 5.0), per_pair(-10.0, 10.0), per_pair(-4.0, 4.0)
    )


@st.composite
def nearly_consistent_systems(draw):
    system = draw(driven_systems())
    # some drives consistent up to a small mismatch, so verdicts go both ways
    seq = system.sequential_frequencies()
    freqs = {
        (i, j): w if draw(st.booleans()) else float(np.sum(seq[i:j])) + draw(st.floats(-1e-6, 1e-6))
        for (i, j), w in system.drive_frequencies.items()
    }
    return LevelSystem(system.energies, system.couplings, freqs)


@given(nearly_consistent_systems(), st.floats(1e-9, 1e-5))
def test_consistency_residuals_match_per_pair_sums(system, tol):
    report = check_consistency(system, tol)
    seq = system.sequential_frequencies()
    expected = {
        f"epsilon[{i},{j}]": abs(w - float(np.sum(seq[i:j])))
        for (i, j), w in system.drive_frequencies.items()
        if j - i >= 2
    }
    assert list(report.residuals) == list(expected)
    # acc_j - acc_i and the per-pair sum round differently: fewer than 3n
    # additions, each off by at most eps/2 of a partial sum below n max|omega|
    scale = max(abs(w) for w in system.drive_frequencies.values())
    bound = 2 * system.n**2 * np.finfo(float).eps * scale
    for label, residual in expected.items():
        assert abs(report.residuals[label] - residual) <= bound
    assert report.worst == max(report.residuals.values(), default=0.0)
    assert report.satisfied == (report.worst <= tol)


class TestPairArrayHamiltonians:
    """The array-built Hamiltonians equal the per-pair loops bit for bit."""

    @given(
        system=driven_systems(),
        t=st.floats(-100.0, 100.0),
        ts=st.lists(st.floats(-100.0, 100.0), max_size=8),
    )
    def test_equal_to_per_pair_loops(self, system, t, ts):
        stripped = system.without_phases()
        assert np.array_equal(hamiltonian_rwa(stripped, t), loop_hamiltonian_rwa(stripped, t))
        assert np.array_equal(hamiltonian_full(system, t), loop_hamiltonian_full(system, t))
        assert np.array_equal(
            rotating_frame_hamiltonian(system, t), loop_rotating_frame_hamiltonian(system, t)
        )
        # a 1-D time array gives a stack whose slices are the scalar calls
        rwa = hamiltonian_rwa(stripped, np.array(ts))
        full = hamiltonian_full(system, np.array(ts))
        assert rwa.shape == full.shape == (len(ts), system.n, system.n)
        for k, tk in enumerate(ts):
            assert np.array_equal(rwa[k], hamiltonian_rwa(stripped, tk))
            assert np.array_equal(full[k], hamiltonian_full(system, tk))

    def test_returned_matrices_are_fresh(self):
        h = hamiltonian_rwa(THREE_LEVEL, 0.5)
        h[0, 1] = 99.0
        assert np.array_equal(hamiltonian_rwa(THREE_LEVEL, 0.5), loop_hamiltonian_rwa(THREE_LEVEL, 0.5))


class TestFrameIdentity:
    def test_transform_reproduces_q_under_both_conditions(self, rng):
        q = build_q(THREE_LEVEL).entries
        acc = np.concatenate(([0.0], np.cumsum(THREE_LEVEL.sequential_frequencies())))
        for t in rng.uniform(0, 30, 10):
            u = frame_matrix(THREE_LEVEL, t)
            h = hamiltonian_rwa(THREE_LEVEL, t)
            transformed = u.conj().T @ h @ u - np.diag(acc)
            assert np.max(np.abs(transformed - q)) <= 1e-12

    def test_rotating_frame_helper_matches_sandwich(self, rng):
        system = detuned_three_level(2.8)
        acc = np.concatenate(([0.0], np.cumsum(system.sequential_frequencies())))
        for t in rng.uniform(0, 10, 5):
            u = frame_matrix(system, t)
            sandwich = u.conj().T @ hamiltonian_rwa(system, t) @ u - np.diag(acc)
            assert np.max(np.abs(rotating_frame_hamiltonian(system, t) - sandwich)) <= 1e-12


class TestFullSolution:
    def test_t0_returns_initial_state(self):
        psi0 = StateVector.normalized([0.3, 0.4 + 0.2j, 0.8])
        out = full_solution(THREE_LEVEL, psi0, 0.0)
        assert np.allclose(out.amplitudes, psi0.amplitudes, atol=1e-15)

    def test_two_level_rabi_solution(self):
        g, omega = 1.0, 1.0
        system = LevelSystem((0.0, omega), {(0, 1): g}, {(0, 1): omega})
        psi0 = StateVector.basis(2, 0)
        for t in (0.1, 0.9, 2.7, 6.4):
            out = full_solution(system, psi0, t)
            expected = np.array(
                [np.cos(g * t), -1j * np.exp(-1j * omega * t) * np.sin(g * t)]
            )
            assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_matches_rk4_oracle_three_level(self):
        psi0 = StateVector.basis(3, 0)
        series = integrate_schrodinger(
            lambda t: hamiltonian_rwa(THREE_LEVEL, t), psi0, 6.0, 61
        )
        for k, t in enumerate(series.times):
            closed = full_solution(THREE_LEVEL, psi0, float(t))
            assert np.linalg.norm(closed.amplitudes - series.states[k]) <= 1e-6

    def test_condition_violation_carries_report(self):
        psi0 = StateVector.basis(3, 0)
        with pytest.raises(ConditionError) as excinfo:
            full_solution(detuned_three_level(2.5), psi0, 1.0)
        assert excinfo.value.consistency.residuals["epsilon[0,2]"] == pytest.approx(0.5)
        assert excinfo.value.resonance.satisfied

    def test_rejects_phases(self):
        system = LevelSystem(
            (0.0, 1.0), {(0, 1): 1.0}, {(0, 1): 1.0}, {(0, 1): 0.1}
        )
        with pytest.raises(InvalidInputError):
            full_solution(system, StateVector.basis(2, 0), 1.0)

    def test_norm_preserved_over_long_window(self):
        psi0 = StateVector.normalized([1.0, 1.0j, -1.0])
        g_max = max(THREE_LEVEL.couplings.values())
        for t in np.linspace(0.0, 100.0 / g_max, 40):
            out = full_solution(THREE_LEVEL, psi0, float(t))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10


class TestTrajectory:
    def test_rows_match_full_solution_and_report_method(self):
        psi0 = StateVector.normalized([0.3, 0.4 + 0.2j, 0.8])
        times = np.linspace(0.0, 7.0, 15)
        traj = trajectory(THREE_LEVEL, psi0, times)
        assert traj.method.value == "lagrange3"
        assert traj.amplitudes.shape == (15, 3)
        for k, t in enumerate(times):
            row = full_solution(THREE_LEVEL, psi0, float(t)).amplitudes
            assert np.max(np.abs(traj.amplitudes[k] - row)) <= 1e-12
        assert np.allclose(traj.populations().sum(axis=1), 1.0, atol=1e-12)

    def test_conditions_checked(self):
        with pytest.raises(ConditionError):
            trajectory(detuned_three_level(2.5), StateVector.basis(3, 0), [0.0, 1.0])

    def test_conditions_checked_before_phases(self):
        detuned = detuned_three_level(2.5)
        phased = LevelSystem(
            detuned.energies, detuned.couplings, detuned.drive_frequencies, {(0, 1): 0.1}
        )
        with pytest.raises(ConditionError):
            trajectory(phased, StateVector.basis(3, 0), [0.0, 1.0])

    def test_norm_message_prints_plain_floats(self):
        # near-equal couplings: the forced Lagrange route misses the 1e-12 norm
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        system = LevelSystem.resonant(
            (0.0, 1.0, 2.0, 3.0), {p: 1.001 if p == (0, 1) else 1.0 for p in pairs}
        )
        times = np.linspace(0.0, 10.0, 101)
        with pytest.raises(InvalidInputError) as excinfo:
            trajectory(system, StateVector.basis(4, 0), times, "lagrange4")
        assert re.fullmatch(
            r"state norm at t = \d+\.\d+ deviates from 1 by \d\.\d{3}e-\d\d, "
            r"more than 1e-12 \(lagrange4 route\)",
            str(excinfo.value),
        )

    @pytest.mark.parametrize("times", [[0.0, float("nan")], [float("inf")], [], [[1.0]]])
    def test_rejects_bad_times(self, times):
        with pytest.raises(InvalidInputError):
            trajectory(THREE_LEVEL, StateVector.basis(3, 0), times)

    def test_int_times_match_float_times_and_the_caller_keeps_its_array(self):
        psi0 = StateVector.basis(3, 0)
        times = np.array([0.0, 1.0, 2.0])
        traj = trajectory(THREE_LEVEL, psi0, times)
        assert times.flags.writeable and traj.times is not times
        for same in (np.arange(3), [0, 1, 2.0], (0, 1, 2)):
            assert np.array_equal(trajectory(THREE_LEVEL, psi0, same).amplitudes, traj.amplitudes)
        single = full_solution(THREE_LEVEL, psi0, 2.0).amplitudes
        for t in (2, np.int64(2), np.float32(2.0), np.float64(2.0), np.array(2.0)):
            assert full_solution(THREE_LEVEL, psi0, t).amplitudes.tobytes() == single.tobytes()

    def test_random_four_level_on_auto_dispatch(self):
        # a random n = 4 draw of the closed_form benchmark (seed 55), at a
        # relative eigenvalue gap of 9.6e-4
        traj = trajectory(SEED55_FOUR_LEVEL, StateVector.basis(4, 2), np.linspace(0.0, 10.0, 1001))
        assert traj.method is Method.LAGRANGE4

    def test_random_four_level_on_jacobi(self):
        traj = trajectory(
            SEED55_FOUR_LEVEL, StateVector.basis(4, 2), np.linspace(0.0, 10.0, 1001), "jacobi"
        )
        assert np.max(np.abs(traj.populations().sum(axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("defect", [1e-9, float("nan")])
    def test_every_row_must_have_unit_norm(self, monkeypatch, defect):
        evolve = SpectralPlan._evolve_in_frame

        def spoiled(plan, psi0, times, frame):
            out = evolve(plan, psi0, times, frame)
            out[-1] *= 1.0 + defect
            return out

        monkeypatch.setattr(SpectralPlan, "_evolve_in_frame", spoiled)
        with pytest.raises(InvalidInputError, match="norm"):
            trajectory(THREE_LEVEL, StateVector.basis(3, 0), [0.0, 1.0, 2.0])


# a float conversion takes every one of these; sample times are ints or floats
BAD_TIME_SCALARS = ["1.5", b"1", True, np.bool_(True)]
BAD_TIME_SEQUENCES = [
    np.array([True, False]),
    np.array(["0", "2.5"]),
    np.array([b"0", b"1"]),
    np.array([0.0, 1.0], dtype=object),
    [0.0, True],
    (0.0, "2.5"),
    [np.bool_(False), 1.0],
    ["0", "2.5", True],
    [b"1"],
]


@pytest.mark.parametrize("times", BAD_TIME_SCALARS + BAD_TIME_SEQUENCES)
def test_sample_times_must_be_ints_or_floats(times):
    plan = spectral_plan(build_q(THREE_LEVEL))
    calls = [
        lambda: trajectory(THREE_LEVEL, StateVector.basis(3, 0), times),
        lambda: plan.evolve(np.eye(3)[0], times),
        lambda: plan.propagators(times),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="ints or floats"):
            call()


@pytest.mark.parametrize("t", BAD_TIME_SCALARS)
def test_single_time_must_be_an_int_or_float(t):
    with pytest.raises(InvalidInputError, match="ints or floats"):
        full_solution(THREE_LEVEL, StateVector.basis(3, 0), t)
    with pytest.raises(InvalidInputError, match="ints or floats"):
        propagator(build_q(THREE_LEVEL), t)


RAGGED_TIMES = [[0.0, [1.0]], [[0.0], 1.0], (0.0, [1.0, 2.0])]


@pytest.mark.parametrize("times", RAGGED_TIMES)
def test_ragged_times_are_invalid_input(times):
    plan = spectral_plan(build_q(THREE_LEVEL))
    psi0 = StateVector.basis(3, 0)
    calls = [
        lambda: trajectory(THREE_LEVEL, psi0, times),
        lambda: plan.evolve(np.eye(3)[0], times),
        lambda: plan.propagators(times),
        lambda: full_solution(THREE_LEVEL, psi0, times),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="non-empty 1-D array"):
            call()


@pytest.mark.parametrize("t", [10**400, -(10**400), 2**64], ids=["1e400", "-1e400", "2**64"])
def test_single_time_int_beyond_numpy_range_is_invalid_input(t):
    # numpy keeps such an int as an object, as it does in a list of times
    with pytest.raises(InvalidInputError, match="ints or floats"):
        full_solution(THREE_LEVEL, StateVector.basis(3, 0), t)
    with pytest.raises(InvalidInputError, match="ints or floats"):
        trajectory(THREE_LEVEL, StateVector.basis(3, 0), [t])


def test_int_time_past_64_bits_names_its_cause():
    plan = spectral_plan(build_q(THREE_LEVEL))
    psi0 = StateVector.basis(3, 0)
    calls = [
        lambda: trajectory(THREE_LEVEL, psi0, [2**64]),
        lambda: full_solution(THREE_LEVEL, psi0, 2**64),
        lambda: plan.evolve(np.eye(3)[0], [0.0, 2**64]),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="not ints outside the 64-bit range"):
            call()


@pytest.mark.parametrize(
    "tol",
    [float("inf"), float("-inf"), float("nan"), "1e-9", b"1", True, np.bool_(True), [1e-9], 10**400],
    ids=["inf", "-inf", "nan", "str", "bytes", "bool", "numpy_bool", "list", "int_past_float"],
)
def test_tolerance_must_be_a_finite_int_or_float(tol):
    system = detuned_three_level()  # consistency residual 0.5
    psi0 = StateVector.basis(3, 0)
    calls = [
        lambda: check_resonance(system, tol),
        lambda: check_consistency(system, tol),
        lambda: trajectory(system, psi0, [1.0], tol=tol),
        lambda: full_solution(system, psi0, 1.0, tol=tol),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="tolerance must be a finite int or float"):
            call()


def test_tolerance_takes_numpy_and_int_values():
    system = detuned_three_level()  # consistency residual 0.5
    for tol in (1, np.int64(1), np.float64(1.0)):
        report = check_consistency(system, tol)
        assert report.satisfied and report.tolerance == 1.0
        trajectory(system, StateVector.basis(3, 0), [1.0], tol=tol)


@pytest.mark.parametrize("method", ["bogus", "", "Jacobi", 3])
def test_unknown_method_is_invalid_input(method):
    q = build_q(THREE_LEVEL)
    psi0 = StateVector.basis(3, 0)
    calls = [
        lambda: full_solution(THREE_LEVEL, psi0, 1.0, method),
        lambda: trajectory(THREE_LEVEL, psi0, [1.0], method),
        lambda: spectral_plan(q, method),
        lambda: propagator(q, 1.0, method),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="unknown propagator method"):
            call()


@pytest.mark.parametrize("psi0", [np.array([1.0, 0.0, 0.0], dtype=complex), [1.0, 0.0, 0.0], None])
def test_initial_state_must_be_a_state_vector(psi0):
    with pytest.raises(InvalidInputError, match="StateVector"):
        trajectory(THREE_LEVEL, psi0, [1.0])
    with pytest.raises(InvalidInputError, match="StateVector"):
        full_solution(THREE_LEVEL, psi0, 1.0)


def test_state_vector_rejects_nan():
    with pytest.raises(InvalidInputError):
        StateVector(np.array([np.nan, 1.0]))
    with pytest.raises(InvalidInputError):
        StateVector.normalized([np.nan, 1.0])
