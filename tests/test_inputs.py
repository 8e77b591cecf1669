"""One table of every public entry point that takes an outside number.

A real is an int or float (numpy's too, not a bool) with a finite value; a
count is a non-bool int at or above a minimum and, where it sizes an array,
at most a maximum.  Every value below breaks the
rule its argument follows, so each call must raise InvalidInputError, no
other exception and no result, with a message that names the argument.
"""

import numpy as np
import pytest

from nrabi import (
    InvalidInputError,
    LevelSystem,
    StateVector,
    check_consistency,
    check_resonance,
    propagator_equal_coupling,
    propagator_two_level,
)
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
