"""One table of every public entry point that takes an outside number.

A real is an int or float (numpy's too, not a bool) with a finite value; a
count is a non-bool int at or above a minimum and, where it sizes an array,
at most a maximum.  Every value below breaks the
rule its argument follows, so each call must raise InvalidInputError, no
other exception and no result, with a message that names the argument.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrabi import (
    InvalidInputError,
    LevelSystem,
    StateVector,
    build_q,
    check_consistency,
    check_resonance,
    jacobi_eigendecompose,
    propagator_equal_coupling,
    propagator_from_eigen,
    propagator_two_level,
    spectral_plan,
    trajectory,
)
from nrabi import cli, model
from nrabi.model import _count, _real, _shown
from nrabi.oracle import IntegrationConfig, integrate_schrodinger
from nrabi.roots import CubicCoeffs, QuarticCoeffs, solve_cubic_depressed, solve_quartic

NOT_REALS = {
    "True": True,
    "np_bool": np.bool_(True),
    "str": "1",
    "bytes": b"1",
    "None": None,
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "1e400": 10**400,
    # Python writes no int past 4300 digits: a repr in the message raised ValueError
    "-1e5000": -10**5000,
}
# 10**400 is a count; it is out of range only where n bounds the count
NOT_SIZES = {**{k: v for k, v in NOT_REALS.items() if k != "1e400"}, "2.5": 2.5}
# a count that sizes an array also has a maximum, checked before anything is
# allocated (these raised ValueError, OverflowError or MemoryError)
NOT_ARRAY_SIZES = {**NOT_SIZES, "1e400": 10**400, "2**40": 2**40}
# int(0.7) is 0: a key (0.7, 1) was read as the pair (0, 1)
NOT_INDICES = {**NOT_REALS, "2.5": 2.5, "0.7": 0.7}
NOT_TOLERANCES = {k: v for k, v in NOT_REALS.items() if v is not None}  # None: the default

TWO_LEVEL = LevelSystem.resonant((0.0, 1.0), {(0, 1): 1.0})


def _pairs(**changes):
    maps = {"couplings": {(0, 1): 1.0}, "drive_frequencies": {(0, 1): 1.0}, "phases": {}}
    maps.update(changes)
    return LevelSystem((0.0, 1.0), **maps)


def _integrate(t_end=1.0, samples=5):
    zero = lambda ts: np.zeros((len(ts), 2, 2), dtype=complex)  # noqa: E731
    return integrate_schrodinger(zero, StateVector.basis(2, 0), t_end, samples)


# (name the message must contain, values, call taking one value)
TABLE = {
    "energies": ("energies[1]", NOT_REALS, lambda v: LevelSystem((0.0, v), {(0, 1): 1.0}, {(0, 1): 1.0})),
    "resonant_energies": ("energies[1]", NOT_REALS, lambda v: LevelSystem.resonant((0.0, v), {(0, 1): 1.0})),
    "coupling": ("coupling[0,1]", NOT_REALS, lambda v: _pairs(couplings={(0, 1): v})),
    "drive_frequency": ("drive frequency[0,1]", NOT_REALS, lambda v: _pairs(drive_frequencies={(0, 1): v})),
    "phase": ("phase[0,1]", NOT_REALS, lambda v: _pairs(phases={(0, 1): v})),
    "key_i": ("coupling key", NOT_INDICES, lambda v: _pairs(couplings={(v, 1): 1.0})),
    "key_j": ("drive frequency key", NOT_INDICES, lambda v: _pairs(drive_frequencies={(0, v): 1.0})),
    "basis_n": ("n must be", NOT_ARRAY_SIZES, lambda v: StateVector.basis(v, 0)),
    "basis_index": ("basis index", NOT_INDICES, lambda v: StateVector.basis(3, v)),
    "dt": ("dt", NOT_REALS, lambda v: IntegrationConfig(dt=v)),
    "rel_tol": ("rel_tol", NOT_REALS, lambda v: IntegrationConfig(rel_tol=v)),
    "abs_tol": ("abs_tol", NOT_REALS, lambda v: IntegrationConfig(abs_tol=v)),
    "max_steps": ("max_steps", NOT_SIZES, lambda v: IntegrationConfig(max_steps=v)),
    "t_end": ("t_end", NOT_REALS, lambda v: _integrate(t_end=v)),
    "samples": ("samples", NOT_ARRAY_SIZES, lambda v: _integrate(samples=v)),
    "two_level_g": ("coupling", NOT_REALS, lambda v: propagator_two_level(v, 1.0)),
    "two_level_t": ("times", NOT_REALS, lambda v: propagator_two_level(1.0, v)),
    "equal_coupling_n": ("n must be", NOT_ARRAY_SIZES, lambda v: propagator_equal_coupling(v, 1.0, 1.0)),
    "equal_coupling_g": ("coupling", NOT_REALS, lambda v: propagator_equal_coupling(3, v, 1.0)),
    "equal_coupling_t": ("times", NOT_REALS, lambda v: propagator_equal_coupling(3, 1.0, v)),
    "resonance_tol": ("tolerance", NOT_TOLERANCES, lambda v: check_resonance(TWO_LEVEL, v)),
    "consistency_tol": ("tolerance", NOT_TOLERANCES, lambda v: check_consistency(TWO_LEVEL, v)),
    "cubic_c1": ("c1", NOT_REALS, lambda v: solve_cubic_depressed(CubicCoeffs(v, 0.0))),
    "cubic_c0": ("c0", NOT_REALS, lambda v: solve_cubic_depressed(CubicCoeffs(3.0, v))),
    "quartic_p": ("coefficient p", NOT_REALS, lambda v: solve_quartic(QuarticCoeffs(v, -8.0, -3.0))),
    "quartic_q": ("coefficient q", NOT_REALS, lambda v: solve_quartic(QuarticCoeffs(-6.0, v, -3.0))),
    "quartic_r": ("coefficient r", NOT_REALS, lambda v: solve_quartic(QuarticCoeffs(-6.0, -8.0, v))),
}

CASES = [
    pytest.param(name, call, value, id=f"{entry}-{tag}")
    for entry, (name, values, call) in TABLE.items()
    for tag, value in values.items()
]


@pytest.mark.parametrize("name, call, value", CASES)
def test_outside_value_raises_invalid_input(name, call, value):
    with pytest.raises(InvalidInputError) as caught:
        call(value)
    assert type(caught.value) is InvalidInputError
    assert name in str(caught.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: LevelSystem((0.0, 1.0), {(0, 1, 2): 1.0}, {(0, 1): 1.0}),
        lambda: LevelSystem((0.0, 1.0), {0: 1.0}, {(0, 1): 1.0}),
        lambda: LevelSystem((0.0, 1.0), {(1, 1): 1.0}, {(0, 1): 1.0}),
    ],
    ids=["three_indices", "int_key", "diagonal"],
)
def test_key_that_is_no_pair(call):
    # (0, 1, 2) used to be read as (0, 1)
    with pytest.raises(InvalidInputError, match="not a valid level pair"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: LevelSystem((0.0, 1.0), {(0, 10**5000): 1.0}, {(0, 1): 1.0}),
        lambda: LevelSystem((0.0, 1.0), {(0, 1, 10**5000): 1.0}, {(0, 1): 1.0}),
        lambda: StateVector.basis(2, 10**5000),
    ],
    ids=["pair_key", "three_index_key", "basis_index"],
)
def test_index_past_the_digit_limit_is_named_by_its_bits(call):
    # Python writes no int past 4300 digits: the repr in the message raised ValueError
    with pytest.raises(InvalidInputError, match="an integer of 16610 bits"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: spectral_plan(build_q(TWO_LEVEL), 10**5000),
        lambda: trajectory(TWO_LEVEL, StateVector.basis(2, 0), [1.0], 10**5000),
        lambda: propagator_from_eigen(jacobi_eigendecompose(build_q(TWO_LEVEL)), 1.0, 10**5000),
    ],
    ids=["spectral_plan", "trajectory", "eigen_label"],
)
def test_method_past_the_digit_limit_is_named_by_its_bits(call):
    # the repr in the message raised ValueError
    with pytest.raises(InvalidInputError, match="an integer of 16610 bits"):
        call()


def test_scenario_index_past_the_digit_limit_is_named_by_its_bits():
    # the repr in the message raised ValueError, reported as "invalid scenario: Exceeds the limit"
    data = {"levels": [0.0, 1.0], "couplings": [{"i": 0, "j": 1, "g": 1.0, "omega": 1.0}], "t_end": 1.0}
    with pytest.raises(cli.ScenarioError, match="^initial level index an integer of 16610 bits out of range$"):
        cli.scenario_from_dict({**data, "initial": 10**5000})


def test_range_refusal_writes_the_checked_float():
    # the caller's int was written with its 301 digits
    with pytest.raises(InvalidInputError, match=r"^dt must be positive, got -1e\+300$"):
        IntegrationConfig(dt=-10**300)


def test_numpy_and_int_values_are_reals_and_counts():
    system = LevelSystem(
        (0, np.float32(1.0)), {(np.int64(1), 0): np.int64(2)}, {(0, 1): 1}, {(0, 1): np.float64(0.5)}
    )
    assert system.energies == (0.0, 1.0)
    assert system.couplings == {(0, 1): 2.0} and system.phases == {(0, 1): 0.5}
    assert all(type(x) is float for x in (*system.energies, *system.couplings.values()))
    assert all(type(i) is int for pair in system.couplings for i in pair)


@pytest.mark.parametrize(
    "solve, coeffs",
    [
        (solve_cubic_depressed, CubicCoeffs(1e300, 0.0)),
        (solve_quartic, QuarticCoeffs(-1e280, 0.0, 0.0)),
    ],
    ids=["cubic", "quartic"],
)
def test_roots_past_the_float_range(solve, coeffs):
    # r ** 3 (or p ** 3) raised a bare OverflowError
    with pytest.raises(InvalidInputError, match="overflow the float range"):
        solve(coeffs)


# ---- refusal parity of the pair tables -------------------------------------
# The reference copies below are the per-entry loops the column checks
# replaced: each entry's rules in order, the first broken one raising, a
# refused key written by the one writer, ``model._shown``.


def _reference_pairs(values, n, what):
    out = {}
    index = f"{what} key index"
    for key, value in values.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise InvalidInputError(f"{what} key {_shown(key)} is not a valid level pair")
        i, j = sorted((_count(key[0], index, 0), _count(key[1], index, 0)))
        if i == j or j >= n:
            raise InvalidInputError(f"{what} key {_shown(key)} is not a valid level pair")
        if (i, j) in out:
            raise InvalidInputError(f"duplicate {what} entry for pair ({i}, {j})")
        out[(i, j)] = _real(value, f"{what}[{i},{j}]")
    return out


def _reference_level_system(n, couplings, freqs, phases):
    couplings = _reference_pairs(couplings, n, "coupling")
    freqs = _reference_pairs(freqs, n, "drive frequency")
    for name, table in (("couplings", couplings), ("drive_frequencies", freqs)):
        if len(table) != n * (n - 1) // 2:
            raise InvalidInputError(
                f"{name} must list every pair: expected {n * (n - 1) // 2} entries, got {len(table)}"
            )
    if any(g < 0.0 for g in couplings.values()):
        raise InvalidInputError("couplings must be non-negative")
    phases = _reference_pairs(phases, n, "phase")
    for pair in [(i, j) for i in range(n) for j in range(i + 1, n)]:
        phases.setdefault(pair, 0.0)
    return couplings, freqs, phases


def _reference_scenario_pairs(levels, entries):
    try:
        couplings, freqs, phases = {}, {}, {}
        for k, item in enumerate(entries):
            pair = tuple(cli._integer(item[key], f"couplings[{k}].{key}", 0) for key in "ij")
            if pair in couplings:
                raise cli.ScenarioError(f"couplings[{k}] repeats the pair {_shown(pair)}")
            couplings[pair] = cli._number(item["g"], f"couplings[{k}].g")
            freqs[pair] = cli._number(item["omega"], f"couplings[{k}].omega")
            if "phi" in item:
                phases[pair] = cli._number(item["phi"], f"couplings[{k}].phi")
        return _reference_level_system(len(levels), couplings, freqs, phases)
    except cli.ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise cli.ScenarioError(f"invalid scenario: {exc}") from exc


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


BAD_KEYS = [(0,), (0, 1, 2), 0, "01"]
BAD_INDICES = [True, np.bool_(False), "1", 2.5]
BAD_VALUES = [True, "1", float("nan"), 10**400]
FAULTS = ["key", "index", "range", "diagonal", "duplicate", "value"]


@st.composite
def faulty_tables(draw):
    """n and lists of (key, value) entries for couplings, frequencies, phases,
    in random order and orientation, with one to three faults injected."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tables = []
    for name in ("couplings", "drive_frequencies", "phases"):
        listed = pairs if name != "phases" else draw(st.lists(st.sampled_from(pairs), unique=True))
        tables.append(
            [
                ((j, i) if draw(st.booleans()) else (i, j), draw(st.floats(0.0, 10.0)))
                for i, j in draw(st.permutations(listed))
            ]
        )
    for _ in range(draw(st.integers(1, 3))):
        entries = tables[draw(st.integers(0, 2))]
        listed = [key for key, _ in entries if type(key) is tuple and {type(x) for x in key} == {int} and len(key) == 2]
        i, j = draw(st.sampled_from(listed)) if listed else (0, 1)
        value, side = draw(st.floats(0.0, 10.0)), draw(st.integers(0, 1))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "key":
            key = draw(st.sampled_from(BAD_KEYS))
        elif fault in ("index", "range"):
            bad = draw(st.sampled_from(BAD_INDICES)) if fault == "index" else draw(st.sampled_from([n, n + 3, 10**30]))
            key = (bad, j) if side == 0 else (i, bad)
        elif fault == "diagonal":
            key = (i, i)
        elif fault == "duplicate":
            key = (j, i)
        else:
            key, value = (i, j), draw(st.sampled_from(BAD_VALUES))
        entries.insert(draw(st.integers(0, len(entries))), (key, value))
    return n, tables


@given(faulty_tables())
def test_level_system_refuses_as_the_per_entry_loops(case):
    n, tables = case
    maps = [dict(entries) for entries in tables]
    energies = tuple(float(k) for k in range(n))
    got = _outcome(lambda: LevelSystem(energies, *maps))
    expected = _outcome(lambda: _reference_level_system(n, *maps))
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
    else:
        assert [list(m.items()) for m in (got.couplings, got.drive_frequencies, got.phases)] == [
            list(m.items()) for m in expected
        ]


class _Index(int):
    """An int subclass, as a caller's own index type may be."""


@st.composite
def valid_mixed_tables(draw):
    """n and three valid tables as lists of (key, value) entries, in random
    order and orientation, whose indices and values mix Python and numpy types."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    tables = []
    for name in ("couplings", "drive_frequencies", "phases"):
        listed = pairs if name != "phases" else draw(st.lists(st.sampled_from(pairs), unique=True))
        entries = []
        for pair in draw(st.permutations(listed)):
            key = tuple(draw(st.sampled_from([int, np.int64, np.int32, _Index]))(x) for x in pair)
            value = draw(st.floats(0.0 if name == "couplings" else -10.0, 10.0))
            value = draw(st.sampled_from([float, int, np.float64, np.float32]))(value)
            entries.append((key[::-1] if draw(st.booleans()) else key, value))
        tables.append(entries)
    return n, tables


@given(valid_mixed_tables())
def test_level_system_takes_numbers_of_every_type_as_the_per_entry_loops(case):
    n, tables = case
    maps = [dict(entries) for entries in tables]
    got = LevelSystem(tuple(float(k) for k in range(n)), *maps)
    expected = _reference_level_system(n, *maps)
    assert [list(m.items()) for m in (got.couplings, got.drive_frequencies, got.phases)] == [
        list(m.items()) for m in expected
    ]
    for m in (got.couplings, got.drive_frequencies, got.phases):
        assert {type(x) for pair in m for x in pair} == {int} and {type(v) for v in m.values()} == {float}


def test_scenario_names_numpy_indices_as_ints():
    # the per-entry loop reads each index as an int, so a pair past n is named by ints
    entry = {"i": np.int64(0), "j": _Index(np.int32(5)), "g": 1.0, "omega": 1.0}
    data = {"levels": [0.0, 1.0], "couplings": [entry], "initial": 0, "t_end": 1.0}
    expected = _outcome(lambda: _reference_scenario_pairs(data["levels"], [entry]))
    assert _outcome(lambda: cli.scenario_from_dict(data)) == expected
    assert "key (0, 5) is not a valid level pair" in expected[1]


@st.composite
def faulty_coupling_entries(draw):
    """n and a scenario's couplings entries with one to three faults injected."""
    n, (couplings, _, phases) = draw(faulty_tables())
    phases = dict(phases)
    entries = []
    for key, g in couplings:
        item = {"g": g, "omega": draw(st.floats(-5.0, 5.0))}
        if isinstance(key, tuple) and len(key) == 2:
            item["i"], item["j"] = (float(x) if type(x) is int and draw(st.booleans()) else x for x in key)
        else:
            item["i"] = key  # not a count, or a missing "j"
        if key in phases:
            item["phi"] = phases[key]
        entries.append(item)
    for _ in range(draw(st.integers(0, 2))):
        if entries:
            item = dict(draw(st.sampled_from(entries)))
            if draw(st.booleans()):
                item[draw(st.sampled_from(["g", "omega", "phi"]))] = draw(st.sampled_from(BAD_VALUES))
            entries.insert(draw(st.integers(0, len(entries))), item)  # repeats its pair
    return n, entries


@given(faulty_coupling_entries())
def test_scenario_refuses_as_the_per_entry_loops(case):
    n, entries = case
    levels = [float(k) for k in range(n)]
    data = {"levels": levels, "couplings": entries, "initial": 0, "t_end": 1.0, "samples": 2}
    got = _outcome(lambda: cli.scenario_from_dict(data))
    expected = _outcome(lambda: _reference_scenario_pairs(levels, entries))
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
    else:
        assert [list(m.items()) for m in (got.system.couplings, got.system.drive_frequencies, got.system.phases)] == [
            list(m.items()) for m in expected
        ]


def test_parse_checks_the_pair_table_by_column(monkeypatch):
    # one scalar rule call per pair and table made 2113 _real and 2977
    # _count calls at n = 32; the pair table is now checked a column at a time
    calls = {"_real": 0, "_count": 0}
    for name in calls:
        rule = getattr(model, name)

        def spy(*args, _rule=rule, _name=name, **kwargs):
            calls[_name] += 1
            return _rule(*args, **kwargs)

        for module in (model, cli):
            monkeypatch.setattr(module, name, spy)
    n = 32
    couplings = [
        {"i": i, "j": j, "g": 1.0 + 0.01 * (i + j), "omega": float(j - i)} for i in range(n) for j in range(i + 1, n)
    ]
    data = {"levels": [float(k) for k in range(n)], "couplings": couplings, "initial": 0, "t_end": 1.0, "samples": 2}
    assert cli.scenario_from_dict(data).system.n == n
    assert calls["_real"] + calls["_count"] <= 4 * n  # O(n): the levels and run parameters
