"""Refusals no other test reaches: each raises its own type with its own message."""

import json

import numpy as np
import pytest

from nrabi import (
    CouplingMatrix,
    CubicCoeffs,
    DegenerateSpectrumError,
    InvalidInputError,
    LevelSystem,
    StateVector,
    closed_form_spectrum,
    eigenvectors_three_level,
    reference_expm,
    solve_cubic_depressed,
    spectral_plan,
    trajectory,
)
from nrabi.cli import main
from nrabi.oracle import TimeSeries

from conftest import coupling_matrix

FOUR_LEVEL = coupling_matrix([1.0, 0.5, 0.3, 0.7, 0.2, 0.9], 4)

CASES = {
    "duplicate_pair": (
        "duplicate coupling entry for pair (0, 1)",
        lambda: LevelSystem((0.0, 1.0), {(0, 1): 1.0, (1, 0): 1.0}, {(0, 1): 1.0}),
    ),
    "one_level": ("at least two levels", lambda: LevelSystem((0.0,), {}, {})),
    "coupling_matrix_not_square": ("must be square", lambda: CouplingMatrix(np.zeros((2, 3)))),
    "coupling_matrix_not_finite": (
        "must be finite",
        lambda: CouplingMatrix(np.array([[0.0, np.inf], [np.inf, 0.0]])),
    ),
    "state_vector_2d": ("must be 1-D", lambda: StateVector(np.eye(2))),
    "normalize_zero_vector": ("zero vector", lambda: StateVector.normalized([0.0, 0.0])),
    "trajectory_state_size": (
        "dimension does not match",
        lambda: trajectory(LevelSystem.resonant((0.0, 1.0), {(0, 1): 1.0}), StateVector.basis(3, 0), [1.0]),
    ),
    "time_series_not_increasing": (
        "strictly increasing",
        lambda: TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)), np.zeros((3, 2))),
    ),
    "reference_expm_not_square": ("square matrix", lambda: reference_expm(np.zeros((2, 3)))),
    "evolve_state_shape": (
        "state must have shape (4,)",
        lambda: spectral_plan(FOUR_LEVEL).evolve([1.0, 0.0, 0.0], [1.0]),
    ),
    "closed_eigenvectors_n4": (
        "need n = 3, got n = 4",
        lambda: eigenvectors_three_level(FOUR_LEVEL, closed_form_spectrum(FOUR_LEVEL)),
    ),
    # no real symmetric matrix has these coefficients: the clamped Viete
    # cosine leaves roots far from any root of the cubic
    "cubic_residual_bound": (
        "residual bound",
        lambda: solve_cubic_depressed(CubicCoeffs(1.0, 10.0)),
    ),
}


@pytest.mark.parametrize("fragment, call", CASES.values(), ids=CASES.keys())
def test_refused_with_invalid_input(fragment, call):
    with pytest.raises(InvalidInputError) as caught:
        call()
    assert not isinstance(caught.value, DegenerateSpectrumError)
    assert fragment in str(caught.value)


def _scenario(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


TWO_LEVEL = {
    "levels": [0.0, 1.0],
    "couplings": [{"i": 0, "j": 1, "g": 1.0, "omega": 1.0}],
    "initial": 0,
    "t_end": 1.0,
    "samples": 3,
}


@pytest.mark.parametrize(
    "data, out, fragment",
    [
        ({**TWO_LEVEL, "t_end": -1.0}, "out.csv", "t_end must be non-negative"),
        ([TWO_LEVEL], "out.csv", "scenario must be a JSON object"),
        (TWO_LEVEL, "missing/out.csv", "cannot write"),
    ],
    ids=["negative_t_end", "json_not_an_object", "unwritable_out"],
)
def test_cli_refusal_exits_1(tmp_path, capsys, data, out, fragment):
    out_path = tmp_path / out
    assert main(["simulate", _scenario(tmp_path, data), "--out", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and fragment in err
    assert not out_path.exists()
