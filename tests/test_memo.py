"""The per-system closed-form memo behind ``trajectory`` and ``full_solution``.

A ``LevelSystem`` keeps its t-independent work (the default-tolerance
condition verdict, Q, the frame frequencies and one spectral plan per
requested method) after the first call.  With each plan it keeps the plan's
eigen rates joined with the frame rates and P psi0 of the last state
evolved; the plan itself never changes.  Later calls must give exactly what
a freshly built, identical system gives, and a check or plan that raises
must raise again on every call.
"""

import dataclasses
import importlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrabi import (
    ConditionError,
    DegenerateSpectrumError,
    InvalidInputError,
    LevelSystem,
    Method,
    StateVector,
    full_solution,
    trajectory,
)

# the modules, not the package's same-named functions; ``trajectory`` looks up
# spectral_plan, check_* and build_q in them at call time
MODEL = importlib.import_module("nrabi.model")
PROPAGATOR = importlib.import_module("nrabi.propagator")

TIMES = [0.0, 2.5, -1.25, 7.0, 2.5]


def system_args(n, equal=False, seed=0):
    """Energies and couplings of a resonant n-level system, drawn from a seed."""
    rng = np.random.default_rng(seed)
    energies = tuple(np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1)))))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = np.full(len(pairs), 0.7) if equal else rng.uniform(0.2, 2.0, len(pairs))
    return energies, dict(zip(pairs, values))


def state(n, seed=0):
    rng = np.random.default_rng(seed + 100)
    return StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))


# (n, equal couplings, requested method, route that must run): every route at n = 2..5
ROUTES = [
    (2, False, None, Method.TWO_LEVEL),
    (3, True, None, Method.EQUAL_COUPLING),
    (5, True, "equal_coupling", Method.EQUAL_COUPLING),
    (3, False, None, Method.LAGRANGE3),
    (4, False, None, Method.LAGRANGE4),
    (3, False, Method.CLOSED_EIGEN3, Method.CLOSED_EIGEN3),
    (5, False, None, Method.JACOBI),
] + [(n, False, m, Method(m)) for n in (2, 3, 4, 5) for m in ("jacobi", "reference")]


class CallCounter:
    """Wraps a module function and records each call's second argument, if any."""

    def __init__(self, monkeypatch, module, name):
        self.calls = []
        original = getattr(module, name)

        def counted(*args):
            self.calls.append(args[1] if len(args) > 1 else None)
            return original(*args)

        monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "n, equal, method, route",
    ROUTES + [
        (2, False, "two_level", Method.TWO_LEVEL),
        (3, False, "lagrange3", Method.LAGRANGE3),
        (4, False, "lagrange4", Method.LAGRANGE4),
        (4, True, "equal_coupling", Method.EQUAL_COUPLING),
    ],
)
def test_time_zero_returns_psi0_exactly(n, equal, method, route):
    energies, couplings = system_args(n, equal)
    psi0 = state(n)
    system = LevelSystem.resonant(energies, couplings)
    traj = trajectory(system, psi0, [0.0, 1.5, -0.0, 0.0], method)
    assert traj.method is route
    for k in (0, 2, 3):
        assert np.array_equal(traj.amplitudes[k], psi0.amplitudes)
    assert np.array_equal(trajectory(system, psi0, [0.0], method).amplitudes[0], psi0.amplitudes)
    assert np.array_equal(full_solution(system, psi0, 0.0, method).amplitudes, psi0.amplitudes)


@pytest.mark.parametrize("n, equal, method, route", ROUTES)
def test_repeated_calls_equal_a_fresh_system(n, equal, method, route):
    energies, couplings = system_args(n, equal)
    psi0 = state(n)
    memoized = LevelSystem.resonant(energies, couplings)
    for _ in range(2):
        for t in TIMES:
            fresh = LevelSystem.resonant(energies, couplings)
            got = full_solution(memoized, psi0, t, method).amplitudes
            assert np.array_equal(got, full_solution(fresh, psi0, t, method).amplitudes)
        traj = trajectory(memoized, psi0, TIMES, method)
        expected = trajectory(LevelSystem.resonant(energies, couplings), psi0, TIMES, method)
        assert traj.method is route
        assert np.array_equal(traj.amplitudes, expected.amplitudes)


def test_plan_built_once_per_system_and_method(monkeypatch):
    plans = CallCounter(monkeypatch, PROPAGATOR, "spectral_plan")
    checks = CallCounter(monkeypatch, MODEL, "check_resonance")
    builds = CallCounter(monkeypatch, MODEL, "build_q")
    energies, couplings = system_args(3)
    system = LevelSystem.resonant(energies, couplings)
    psi0 = state(3)
    for t in TIMES:
        full_solution(system, psi0, t)
    trajectory(system, psi0, TIMES)
    for method in ("jacobi", Method.JACOBI, "jacobi"):
        full_solution(system, psi0, 1.0, method)
    assert plans.calls == [None, Method.JACOBI]
    assert len(checks.calls) == 1
    assert len(builds.calls) == 1
    # another system, even an equal one, has its own memo
    full_solution(LevelSystem.resonant(energies, couplings), psi0, 1.0)
    assert plans.calls == [None, Method.JACOBI, None]


def test_explicit_tolerance_is_checked_on_every_call(monkeypatch):
    checks = CallCounter(monkeypatch, MODEL, "check_resonance")
    psi0 = StateVector.basis(3, 0)
    # consistency residual 1e-6: fails the default 3e-9, passes 1e-5
    system = LevelSystem((0.0, 1.0, 3.0), {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0},
                         {(0, 1): 1.0, (0, 2): 3.0 + 1e-6, (1, 2): 2.0})
    for _ in range(2):
        trajectory(system, psi0, TIMES, tol=1e-5)
        with pytest.raises(ConditionError):
            trajectory(system, psi0, TIMES)
    # a satisfied default verdict does not hide a tighter explicit one
    resonant = LevelSystem.resonant(*system_args(3))
    trajectory(resonant, psi0, TIMES)
    with pytest.raises(InvalidInputError, match="tolerance"):
        trajectory(resonant, psi0, TIMES, tol=0.0)
    assert len(checks.calls) == 6


def test_condition_error_raised_on_every_call(monkeypatch):
    checks = CallCounter(monkeypatch, MODEL, "check_consistency")
    system = LevelSystem((0.0, 1.0, 3.0), {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0},
                         {(0, 1): 1.0, (0, 2): 2.5, (1, 2): 2.0})
    for _ in range(3):
        with pytest.raises(ConditionError) as excinfo:
            full_solution(system, StateVector.basis(3, 0), 1.0)
        assert excinfo.value.consistency.residuals["epsilon[0,2]"] == pytest.approx(0.5)
    assert len(checks.calls) == 3


def test_failed_plan_raises_on_every_call(monkeypatch):
    plans = CallCounter(monkeypatch, PROPAGATOR, "spectral_plan")
    system = LevelSystem.resonant(*system_args(3, equal=True))
    psi0 = StateVector.basis(3, 0)
    for _ in range(3):
        with pytest.raises(DegenerateSpectrumError):
            full_solution(system, psi0, 1.0, "lagrange3")
    assert plans.calls == [Method.LAGRANGE3] * 3
    # the failure left the memo usable for the routes that do work
    assert trajectory(system, psi0, TIMES).method is Method.EQUAL_COUPLING
    trajectory(system, psi0, TIMES)
    assert plans.calls == [Method.LAGRANGE3] * 3 + [None]


def test_without_phases_shares_the_memo(monkeypatch):
    plans = CallCounter(monkeypatch, PROPAGATOR, "spectral_plan")
    system = LevelSystem.resonant(*system_args(4))
    assert system.without_phases() is system
    psi0 = state(4)
    first = full_solution(system, psi0, 3.0).amplitudes
    again = full_solution(system.without_phases(), psi0, 3.0).amplitudes
    assert np.array_equal(first, again)
    assert plans.calls == [None]


@st.composite
def systems_and_times(draw):
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=n - 1, max_size=n - 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(0.05, 2.0), min_size=len(pairs), max_size=len(pairs)))
    else:
        values = [draw(st.floats(0.05, 2.0))] * len(pairs)
    args = (tuple(np.concatenate(([0.0], np.cumsum(gaps)))), dict(zip(pairs, values)))
    times = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
    method = draw(st.sampled_from([None, "jacobi", "reference"]))
    return args, times, method


@given(systems_and_times())
def test_single_time_calls_equal_one_batched_trajectory(case):
    args, times, method = case
    system = LevelSystem.resonant(*args)
    psi0 = state(system.n)
    rows = np.array([full_solution(system, psi0, t, method).amplitudes for t in times])
    fresh = [full_solution(LevelSystem.resonant(*args), psi0, t, method).amplitudes for t in times]
    assert np.array_equal(rows, np.array(fresh))
    batched = trajectory(LevelSystem.resonant(*args), psi0, times, method).amplitudes
    # T = 1 and T > 1 products may round differently in the last bits
    assert np.max(np.abs(rows - batched)) <= 1e-12
    assert np.array_equal(trajectory(system, psi0, times, method).amplitudes, batched)


def test_reference_route_keeps_unit_norm_on_equal_couplings():
    # a draw that a degree-12 Taylor sum refused: n = 5, every coupling
    # 1.6875, t = 18.75, where ||tQ||_1 = 127 takes 8 squarings, and the
    # rounding they add reached the 1e-12 norm bound (1.032e-12)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    energies = (0.0, 1.0, 2.0, 3.0, 4.0)
    system = LevelSystem.resonant(energies, dict.fromkeys(pairs, 1.6875))
    full_solution(system, state(5), 18.75, "reference")
    for g in (0.5, 1.0, 1.25, 1.6875, 2.0, 2.5):
        system = LevelSystem.resonant(energies, dict.fromkeys(pairs, g))
        trajectory(system, state(5), np.linspace(-20.0, 20.0, 161), "reference")


# (n, equal couplings): every route, automatic or forced, at n = 2..5; a forced
# route that does not apply must raise the same error on both entry points
SHAPES = [(n, equal) for n in (2, 3, 4, 5) for equal in (False, True)]
SINGLE_TIMES = [0.0, 1.7, -2.3, -0.0, 6.1, 0.0, -9.5]


@pytest.mark.parametrize("method", [None, *Method])
@pytest.mark.parametrize("n, equal", SHAPES)
def test_single_time_equals_the_trajectory_row_bit_for_bit(n, equal, method):
    energies, couplings = system_args(n, equal, seed=n)
    memoized = LevelSystem.resonant(energies, couplings)
    for psi0 in (state(n, 1), state(n, 2), state(n, 1)):
        for t in SINGLE_TIMES:
            fresh = LevelSystem.resonant(energies, couplings)
            try:
                row = trajectory(fresh, psi0, [t], method).amplitudes[0]
            except (InvalidInputError, DegenerateSpectrumError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    full_solution(memoized, psi0, t, method)
                continue
            assert full_solution(memoized, psi0, t, method).amplitudes.tobytes() == row.tobytes()


def plan_fields(plan):
    """Each field of a plan: the object itself, and an array's bytes and write flag."""
    return [
        (f.name, id(value), value.tobytes(), value.flags.writeable) if isinstance(value, np.ndarray)
        else (f.name, id(value), value)
        for f in dataclasses.fields(plan)
        for value in [getattr(plan, f.name)]
    ]


@pytest.mark.parametrize("n, equal, method, route", ROUTES)
def test_calls_leave_a_plan_unchanged(n, equal, method, route):
    system = LevelSystem.resonant(*system_args(n, equal))
    psi_a, psi_b = state(n, 1), state(n, 2)
    full_solution(system, psi_a, 1.0, method)  # builds the plan
    key = None if method is None else Method(method)
    plan = system._plans[key].plan
    before = plan_fields(plan)
    for psi0 in (psi_a, psi_b, psi_a):
        plan.propagators(TIMES)
        plan.evolve(psi0.amplitudes, TIMES)
        trajectory(system, psi0, TIMES, method)
        for t in TIMES:
            full_solution(system, psi0, t, method)
    assert system._plans[key].plan is plan
    assert plan_fields(plan) == before


class CountingProjectors(np.ndarray):
    """A projector stack that counts the products ``P @ block`` taken with it."""

    products = 0

    def __matmul__(self, other):
        CountingProjectors.products += 1
        return np.asarray(self) @ other


def test_one_projection_per_state_in_a_run_of_calls(monkeypatch):
    energies, couplings = system_args(4)
    system = LevelSystem.resonant(energies, couplings)
    psi_a, psi_b = state(4, 1), state(4, 2)
    copy_a = StateVector(np.array(psi_a.amplitudes))
    assert copy_a is not psi_a and copy_a.amplitudes is not psi_a.amplitudes
    full_solution(system, psi_a, 1.0)  # builds the plan
    plan = system._plans[None].plan
    monkeypatch.setattr(CountingProjectors, "products", 0)
    object.__setattr__(plan, "projectors", plan.projectors.view(CountingProjectors))
    runs = [(psi_a, 0), (copy_a, 0), (psi_b, 1), (psi_a, 2), (psi_b, 3), (copy_a, 4)]
    for psi0, projections in runs:
        for t in TIMES:
            got = full_solution(system, psi0, t).amplitudes
            expected = full_solution(LevelSystem.resonant(energies, couplings), psi0, t).amplitudes
            assert got.tobytes() == expected.tobytes()
        # the same state at many times at once reuses the projection too
        assert np.array_equal(
            trajectory(system, psi0, TIMES).amplitudes,
            trajectory(LevelSystem.resonant(energies, couplings), psi0, TIMES).amplitudes,
        )
        assert CountingProjectors.products == projections
