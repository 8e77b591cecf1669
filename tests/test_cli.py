import contextlib
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nrabi import cli, model
from nrabi.cli import (
    Scenario,
    cmd_compare,
    cmd_eigen,
    cmd_simulate,
    cmd_verify,
    load_scenario,
    main,
    scenario_from_dict,
    scenario_to_dict,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
_CHECK = importlib.util.spec_from_file_location(
    "csv_format_check", Path(__file__).resolve().parent.parent / "scripts" / "csv_format_check.py"
)
csv_format_check = importlib.util.module_from_spec(_CHECK)
_CHECK.loader.exec_module(csv_format_check)


def read_csv(path):
    header, rows, footer = None, [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            footer.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return header, np.array(rows), footer


def reference_csv(header, rows, footer):
    """The CSV bytes a per-value ``format(v, ".17g")`` writer produces."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
    lines += [f"# {text}" for text in footer]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_scenario(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestScenarioRoundTrip:
    def test_fixture_files_round_trip(self):
        for name in (
            "two_level_rabi.json",
            "three_level_consistent.json",
            "three_level_inconsistent.json",
        ):
            scenario = load_scenario(str(SCENARIOS / name))
            again = scenario_from_dict(scenario_to_dict(scenario))
            assert again == scenario

    def test_round_trip_with_amplitudes_phases_and_method(self):
        data = {
            "levels": [0.0, 1.0, 3.0],
            "couplings": [
                {"i": 0, "j": 1, "g": 1.0, "omega": 1.0, "phi": 0.25},
                {"i": 1, "j": 2, "g": 2.0, "omega": 2.0},
                {"i": 0, "j": 2, "g": 3.0, "omega": 3.0},
            ],
            "initial": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
            "t_end": 2.5,
            "samples": 11,
            "method": "jacobi",
            "outputs": ["populations", "conditions"],
        }
        scenario = scenario_from_dict(data)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_outputs_key_is_ignored(self):
        data = json.loads((SCENARIOS / "two_level_rabi.json").read_text(encoding="utf-8"))
        scenario = scenario_from_dict({**data, "outputs": ["anything"]})
        assert scenario == scenario_from_dict(data)
        assert "outputs" not in scenario_to_dict(scenario)

    def test_initial_amplitudes_are_normalized(self):
        scenario = scenario_from_dict(
            {
                "levels": [0.0, 1.0],
                "couplings": [{"i": 0, "j": 1, "g": 1.0, "omega": 1.0}],
                "initial": [[3.0, 0.0], [0.0, 4.0]],
                "t_end": 1.0,
                "samples": 3,
            }
        )
        state = scenario.initial_state()
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0)

    def test_bad_method_rejected(self):
        with pytest.raises(Exception):
            scenario_from_dict(
                {
                    "levels": [0.0, 1.0],
                    "couplings": [{"i": 0, "j": 1, "g": 1.0, "omega": 1.0}],
                    "initial": 0,
                    "t_end": 1.0,
                    "method": "not-a-method",
                }
            )


class TestSimulate:
    def test_rabi_populations_in_csv(self, tmp_path):
        out = tmp_path / "rabi.csv"
        code = cmd_simulate(str(SCENARIOS / "two_level_rabi.json"), str(out))
        assert code == 0
        header, rows, footer = read_csv(out)
        assert header[:3] == ["t", "pop_0", "pop_1"]
        t = rows[:, 0]
        assert np.max(np.abs(rows[:, 1] - np.cos(t) ** 2)) <= 1e-8
        assert np.max(np.abs(rows[:, 2] - np.sin(t) ** 2)) <= 1e-8
        assert np.max(np.abs(rows[:, 1] + rows[:, 2] - 1.0)) <= 1e-8
        assert any(line.startswith("#") for line in footer)

    def test_inconsistent_scenario_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = cmd_simulate(str(SCENARIOS / "three_level_inconsistent.json"), str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "epsilon[0,2]" in err and "5.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_conditions_checked_once_per_run(self, tmp_path, monkeypatch, command):
        calls = []
        for module in (cli, model):
            for name in ("check_resonance", "check_consistency"):
                check = getattr(module, name)
                monkeypatch.setattr(
                    module, name, lambda *args, _check=check: calls.append(args) or _check(*args)
                )
        scenario = str(SCENARIOS / "three_level_consistent.json")
        assert main([command, scenario, "--out", str(tmp_path / "out.csv")]) == 0
        assert len(calls) == 2

    def test_inconsistent_compare_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        scenario = str(SCENARIOS / "three_level_inconsistent.json")
        assert main(["compare", scenario, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("condition check failed:\n")
        assert "consistency: VIOLATED" in err and "epsilon[0,2]" in err
        assert not out.exists()

    def test_method_agreement_jacobi_vs_lagrange(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(
            [
                "simulate",
                str(SCENARIOS / "three_level_consistent.json"),
                "--out",
                str(out_a),
                "--method",
                "jacobi",
            ]
        ) == 0
        assert main(
            [
                "simulate",
                str(SCENARIOS / "three_level_consistent.json"),
                "--out",
                str(out_b),
                "--method",
                "lagrange3",
            ]
        ) == 0
        _, rows_a, _ = read_csv(out_a)
        _, rows_b, _ = read_csv(out_b)
        assert np.max(np.abs(rows_a - rows_b)) <= 1e-9

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"levels": [0.0, 1.0],', encoding="utf-8")
        code = main(["simulate", str(path), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_amplitudes_and_times_near_the_float_max(self, tmp_path, capsys):
        # an initial state of 1e200 amplitudes is served; a t_end whose phases
        # overflow is refused by name, not by the norm check that followed
        data = json.loads((SCENARIOS / "three_level_consistent.json").read_text(encoding="utf-8"))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({**data, "initial": [[1e200, 0], [1e200, 0], [0, 0]], "samples": 3}))
        assert main(["simulate", str(path), "--out", str(tmp_path / "a.csv")]) == 0
        path.write_text(json.dumps({**data, "t_end": 1e308, "samples": 3}))
        assert main(["simulate", str(path), "--out", str(tmp_path / "b.csv")]) == 1
        assert "overflow the float range" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 1

    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "rt.csv"
        cmd_simulate(str(SCENARIOS / "three_level_consistent.json"), str(out))
        text = out.read_text(encoding="utf-8")
        assert "\r" not in text
        _, rows, _ = read_csv(out)
        # t column was produced by linspace; 17 significant digits are lossless
        expected = np.linspace(0.0, 10.0, 501)
        assert np.array_equal(rows[:, 0], expected)


    def test_footer_names_the_method_that_ran(self, tmp_path):
        out = tmp_path / "run.csv"
        scenario = str(SCENARIOS / "three_level_consistent.json")
        assert main(["simulate", scenario, "--out", str(out)]) == 0
        _, _, footer = read_csv(out)
        assert "# method = lagrange3 (auto)" in footer
        assert main(["simulate", scenario, "--out", str(out), "--method", "jacobi"]) == 0
        _, _, footer = read_csv(out)
        assert "# method = jacobi (forced)" in footer


class TestRejectsNonFiniteAndMistypedInput:
    """Each case exited 0 with NaN rows, or escaped main as a traceback."""

    @staticmethod
    def run_simulate(tmp_path, capsys, **changes):
        data = json.loads((SCENARIOS / "two_level_rabi.json").read_text(encoding="utf-8"))
        data.update(changes)
        out = tmp_path / "out.csv"
        code = main(["simulate", write_scenario(tmp_path, "bad.json", data), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        return capsys.readouterr().err

    def test_nan_t_end(self, tmp_path, capsys):
        assert "t_end" in self.run_simulate(tmp_path, capsys, t_end=float("nan"))

    def test_infinite_t_end(self, tmp_path, capsys):
        assert "t_end" in self.run_simulate(tmp_path, capsys, t_end=float("inf"))

    def test_nan_initial_amplitude(self, tmp_path, capsys):
        err = self.run_simulate(tmp_path, capsys, initial=[[float("nan"), 0.0], [1.0, 0.0]])
        assert "initial" in err

    def test_fractional_samples(self, tmp_path, capsys):
        assert "samples" in self.run_simulate(tmp_path, capsys, samples=2.7)

    @pytest.mark.parametrize("index", [0.9, True])
    def test_non_integral_coupling_index(self, tmp_path, capsys, index):
        coupling = {"i": index, "j": 1, "g": 1.0, "omega": 1.0}
        err = self.run_simulate(tmp_path, capsys, couplings=[coupling])
        assert "couplings[0].i must be an integer" in err

    def test_repeated_coupling_pair(self, tmp_path, capsys):
        # the second entry used to replace the first without a word
        couplings = [{"i": 0, "j": 1, "g": g, "omega": 1.0} for g in (1.0, 5.0)]
        err = self.run_simulate(tmp_path, capsys, couplings=couplings)
        assert "couplings[1] repeats the pair (0, 1)" in err

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"levels": ["0", "1"]}, "levels[0] must be a number"),
            ({"levels": [0.0, True]}, "levels[1] must be a number"),
            ({"t_end": "1.0"}, "t_end must be a number"),
            ({"initial": [["1", 0.0], [0.0, 0.0]]}, "initial[0][0] must be a number"),
            ({"initial": [[1.0, 0.0], [0.0, False]]}, "initial[1][1] must be a number"),
            ({"samples": "501"}, "samples must be an integer"),
        ],
    )
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, capsys, changes, message):
        # float() took each of these and the run exited 0
        assert message in self.run_simulate(tmp_path, capsys, **changes)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("g", "1e0", "couplings[0].g must be a number"),
            ("g", True, "couplings[0].g must be a number"),
            ("omega", "1", "couplings[0].omega must be a number"),
            ("phi", "0.5", "couplings[0].phi must be a number"),
            ("i", "0", "couplings[0].i must be an integer"),
            ("j", "1", "couplings[0].j must be an integer"),
        ],
    )
    def test_coupling_fields_must_be_numbers(self, tmp_path, capsys, key, value, message):
        coupling = {"i": 0, "j": 1, "g": 1.0, "omega": 1.0, key: value}
        assert message in self.run_simulate(tmp_path, capsys, couplings=[coupling])

    @pytest.mark.parametrize("levels", ["01", "013"])
    def test_levels_not_an_array(self, tmp_path, capsys, levels):
        assert "levels must be an array" in self.run_simulate(tmp_path, capsys, levels=levels)

    @pytest.mark.parametrize("initial", [True, "0", {"re": 1.0}, [1.0, 0.0]])
    def test_initial_not_an_index_or_pairs(self, tmp_path, capsys, initial):
        err = self.run_simulate(tmp_path, capsys, initial=initial)
        assert "initial must be a level index or a list of [re, im] pairs" in err

    @pytest.mark.parametrize("initial", [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
    def test_initial_amplitudes_of_the_wrong_count(self, tmp_path, capsys, initial):
        err = self.run_simulate(tmp_path, capsys, initial=initial)
        assert "initial amplitude list length must equal n" in err

    @pytest.mark.parametrize("samples", [100_001, 1e300, 10**400])
    def test_absurd_sample_counts(self, tmp_path, capsys, samples):
        # 1e300 escaped main from numpy.linspace; 10**400 overflowed float()
        assert "samples" in self.run_simulate(tmp_path, capsys, samples=samples)

    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe{}", b'{"t_end": ' + b"1" * 5000 + b"}", b"[" * 100_000]
    )
    def test_unreadable_json(self, tmp_path, capsys, raw):
        # not UTF-8, an integer past Python's digit limit, nesting past the
        # recursion limit: each escaped main as a traceback
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["simulate", str(path), "--out", str(tmp_path / "out.csv")]) == 1
        assert "unreadable JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("rtol", ["nan", "inf"])
    def test_non_finite_rtol(self, tmp_path, capsys, rtol):
        out = tmp_path / "out.csv"
        scenario = str(SCENARIOS / "two_level_rabi.json")
        assert main(["compare", scenario, "--out", str(out), "--rtol", rtol]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rel_tol" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scale, g", [(1e308, (1.7, 1.6, 1.5)), (1e308, (1.7, 1.6, 1.5, 1.4, 1.3, 1.2))], ids=["n3", "n4"]
    )
    def test_couplings_past_the_radical_solvers_range(self, tmp_path, capsys, scale, g):
        # the cubic's r ** 3 and the quartic's p ** 3 ended in an OverflowError
        # traceback at 1e150 (n = 3) and 1e70 (n = 4); Q is now solved scaled by
        # a power of two, which serves those (TestScaleFree), and only an
        # eigenvalue past the float range is refused
        n = 3 if len(g) == 3 else 4
        levels = [float(k) for k in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        couplings = [
            {"i": i, "j": j, "g": x * scale, "omega": levels[j] - levels[i]}
            for (i, j), x in zip(pairs, g)
        ]
        err = self.run_simulate(tmp_path, capsys, levels=levels, couplings=couplings, initial=0)
        assert err.startswith("error:") and "Traceback" not in err


def scaled_scenario(energies, g, k, t_end, samples=5):
    """A resonant scenario with energies and couplings times 2**k and t_end times 2**-k."""
    n = len(energies)
    levels = [math.ldexp(e, k) for e in energies]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = [
        {"i": i, "j": j, "g": math.ldexp(x, k), "omega": levels[j] - levels[i]}
        for (i, j), x in zip(pairs, g)
    ]
    return {"levels": levels, "couplings": couplings, "initial": 0,
            "t_end": math.ldexp(t_end, -k), "samples": samples}


def eigh_populations(g, n, times):
    """|exp(-itQ) e_0|^2 of the unscaled Q by numpy's eigh, one row per time."""
    q = np.zeros((n, n))
    q[np.triu_indices(n, k=1)] = g
    lam, v = np.linalg.eigh(q + q.T)
    states = (v * np.exp(-1j * np.outer(times, lam))[:, None, :]) @ v[0]
    return np.abs(states) ** 2


class TestScaleFree:
    """Couplings and energies times 2**k, t_end times 2**-k: the same populations."""

    @staticmethod
    def simulate(tmp_dir, data):
        path = write_scenario(tmp_dir, "scaled.json", data)
        out = tmp_dir / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", path, "--out", str(out)])
        return code, out, err.getvalue()

    @pytest.mark.parametrize(
        "scale, g",
        [(1e-140, (1.3, 0.7, 0.4)), (1e150, (1.3, 0.7, 0.4)), (1e70, (1.3, 0.7, 0.4, 0.9, 1.1, 0.5))],
        ids=["n3-1e-140", "n3-1e150", "n4-1e70"],
    )
    def test_served_like_the_unscaled_system(self, tmp_path, scale, g):
        # at 1e-140, c0 = 2 g1 g2 g3 underflowed and lagrange3 printed
        # populations 0.0585, 0.7342, 0.2073 at exit 0; at 1e150 and 1e70 the
        # solvers refused
        n = 3 if len(g) == 3 else 4
        energies = [0.0, 1.0, 2.5, 4.5][:n]
        data = scaled_scenario([e * scale for e in energies], [x * scale for x in g], 0, 1.0 / scale)
        code, out, err = self.simulate(tmp_path, data)
        assert code == 0, err
        _, rows, footer = read_csv(out)
        assert f"# method = lagrange{n} (auto)" in footer
        expected = eigh_populations(g, n, rows[:, 0] * scale)
        assert np.max(np.abs(rows[:, 1 : 1 + n] - expected)) <= 1e-9

    @settings(max_examples=40)
    @given(
        k=st.integers(-1000, 1000),
        n=st.sampled_from([3, 4]),
        g=st.lists(st.floats(0.0, 2.0), min_size=6, max_size=6),
        gaps=st.lists(st.floats(0.25, 3.0), min_size=3, max_size=3),
        t_end=st.floats(0.5, 10.0),
    )
    def test_any_power_of_two_scale(self, k, n, g, gaps, t_end):
        g = g[: n * (n - 1) // 2]
        energies = [0.0]
        for d in gaps[: n - 1]:
            energies.append(energies[-1] + d)
        with tempfile.TemporaryDirectory() as tmp:
            tmp_dir = Path(tmp)
            code, out, err = self.simulate(tmp_dir, scaled_scenario(energies, g, k, t_end))
            # a RuntimeWarning is an error under the suite's warning filter
            assert code in (0, 1)
            if code == 0:
                _, rows, _ = read_csv(out)
                times = np.array([math.ldexp(t, k) for t in rows[:, 0]])
                expected = eigh_populations(g, n, times)
                assert np.max(np.abs(rows[:, 1 : 1 + n] - expected)) <= 1e-9
            else:
                assert err.startswith("error:") and not out.exists()


# values of the wrong type or out of any sensible range, for any field
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.sampled_from("ijg"), st.integers(0, 3), max_size=2),
)


@st.composite
def scenario_objects(draw):
    """A resonant scenario with magnitudes up to 1e6, then a few fields broken."""
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(1e-3, 1e6), min_size=n - 1, max_size=n - 1))
    levels = np.concatenate(([0.0], np.cumsum(gaps))).tolist()
    couplings = [
        {"i": i, "j": j, "g": draw(st.floats(0.0, 1e6)), "omega": levels[j] - levels[i]}
        for i in range(n)
        for j in range(i + 1, n)
    ]
    data = {
        "levels": levels,
        "couplings": couplings,
        "initial": draw(st.integers(0, n - 1)),
        "t_end": draw(st.floats(0.0, 1e6)),
        "samples": draw(st.integers(2, 40)),
    }
    if draw(st.booleans()):
        data["method"] = draw(st.sampled_from(["auto"] + [m.value for m in cli.Method]))
    for _ in range(draw(st.integers(0, 3))):
        where = draw(st.sampled_from(["drop", "top", "coupling", "range"]))
        if where == "drop":
            data.pop(draw(st.sampled_from(sorted(data))), None)
        elif where == "top":
            fields = ["levels", "couplings", "initial", "t_end", "samples", "method"]
            data[draw(st.sampled_from(fields))] = draw(junk)
        elif where == "coupling":
            item = draw(st.sampled_from(couplings))
            key = draw(st.sampled_from(["i", "j", "g", "omega", "phi"]))
            if draw(st.booleans()):
                item.pop(key, None)
            else:
                item[key] = draw(junk)
        elif where == "range":
            key, value = draw(st.sampled_from([
                ("initial", n), ("initial", -1), ("samples", 0), ("samples", 1),
                ("t_end", -1.0), ("levels", levels[::-1]), ("couplings", couplings + couplings[:1]),
            ]))
            data[key] = value
    return data


class TestScenarioFuzz:
    @settings(max_examples=200)
    @given(scenario_objects())
    def test_simulate_exits_cleanly(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            out = Path(tmp) / "out.csv"
            code = main(["simulate", str(path), "--out", str(out)])
            assert code in (0, 1, 2)
            if code == 0:
                _, rows, _ = read_csv(out)
                assert np.isfinite(rows).all()
                n = (rows.shape[1] - 1) // 3
                assert np.max(np.abs(rows[:, 1 : 1 + n].sum(axis=1) - 1.0)) <= 1e-8


class TestVerify:
    def test_consistent_scenario(self, capsys):
        code = cmd_verify(str(SCENARIOS / "three_level_consistent.json"))
        out = capsys.readouterr().out
        assert code == 0
        assert "resonance: OK" in out and "consistency: OK" in out

    def test_detuned_scenario_lists_residual(self, capsys):
        code = cmd_verify(str(SCENARIOS / "three_level_inconsistent.json"))
        out = capsys.readouterr().out
        assert code == 2
        assert "consistency: VIOLATED" in out
        assert "epsilon[0,2]" in out

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json", encoding="utf-8")
        assert main(["verify", str(path)]) == 1


class TestEigen:
    def test_equal_couplings_three_level(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            "eq.json",
            {
                "levels": [0.0, 1.0, 2.0],
                "couplings": [
                    {"i": 0, "j": 1, "g": 1.0, "omega": 1.0},
                    {"i": 1, "j": 2, "g": 1.0, "omega": 1.0},
                    {"i": 0, "j": 2, "g": 1.0, "omega": 2.0},
                ],
                "initial": 0,
                "t_end": 1.0,
                "samples": 3,
            },
        )
        assert cmd_eigen(path) == 0
        out = capsys.readouterr().out
        values = [line.split() for line in out.splitlines() if line.strip().startswith(("0", "1", "2"))]
        spectra = [(float(row[1]), float(row[2])) for row in values if len(row) == 4]
        assert [round(a) for a, _ in spectra] == [2, -1, -1]
        assert [round(b) for _, b in spectra] == [2, -1, -1]
        # the degenerate pair has no isolated closed-form eigendirections
        assert "eigenvectors unavailable" in out
        assert "np." not in out  # eigenvalues print as plain floats

    def test_five_levels_closed_form_unavailable(self, tmp_path, capsys):
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        path = write_scenario(
            tmp_path,
            "five.json",
            {
                "levels": [0.0, 1.0, 2.0, 3.0, 4.0],
                "couplings": [
                    {"i": i, "j": j, "g": 1.0, "omega": float(j - i)} for i, j in pairs
                ],
                "initial": 0,
                "t_end": 1.0,
                "samples": 3,
            },
        )
        assert cmd_eigen(path) == 0
        out = capsys.readouterr().out
        assert "unavailable" in out
        assert "eigenvectors" not in out

    def test_near_equal_quartic_matches_jacobi(self, tmp_path, capsys):
        # one coupling 1e-6 off the others: a triple eigenvalue cluster
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        path = write_scenario(
            tmp_path,
            "near_equal.json",
            {
                "levels": [0.0, 1.0, 2.0, 3.0],
                "couplings": [
                    {"i": i, "j": j, "g": 1.0 + 1e-6 * ((i, j) == (0, 1)), "omega": float(j - i)}
                    for i, j in pairs
                ],
                "initial": 0,
                "t_end": 1.0,
                "samples": 3,
            },
        )
        assert main(["eigen", path]) == 0
        out = capsys.readouterr().out
        assert "unavailable" not in out
        rows = [line.split() for line in out.splitlines()[2:6]]
        assert [int(row[0]) for row in rows] == [0, 1, 2, 3]
        for row in rows:
            assert abs(float(row[1]) - float(row[2])) <= 1e-6
        assert main(["simulate", path, "--out", str(tmp_path / "out.csv")]) == 0

    def test_g3_zero_eigenvectors_match_closed_form(self, tmp_path, capsys):
        g1, g2 = 1.3, 0.7
        path = write_scenario(
            tmp_path,
            "g3zero.json",
            {
                "levels": [0.0, 1.0, 2.0],
                "couplings": [
                    {"i": 0, "j": 1, "g": g1, "omega": 1.0},
                    {"i": 1, "j": 2, "g": g2, "omega": 1.0},
                    {"i": 0, "j": 2, "g": 0.0, "omega": 2.0},
                ],
                "initial": 0,
                "t_end": 1.0,
                "samples": 3,
            },
        )
        assert cmd_eigen(path) == 0
        out = capsys.readouterr().out
        assert "0.707106781" in out  # the 1/sqrt(2) middle component of the top eigenvector


    def test_g01_zero_eigenvectors_and_closed_eigen3_route(self, tmp_path, capsys):
        # a V atom: level 2 driven from 0 and from 1, the 0-1 transition undriven
        path = write_scenario(
            tmp_path,
            "g01zero.json",
            {
                "levels": [0.0, 1.0, 3.0],
                "couplings": [
                    {"i": 0, "j": 1, "g": 0.0, "omega": 1.0},
                    {"i": 1, "j": 2, "g": 0.7, "omega": 2.0},
                    {"i": 0, "j": 2, "g": 1.3, "omega": 3.0},
                ],
                "initial": 0,
                "t_end": 10.0,
                "samples": 201,
            },
        )
        assert cmd_eigen(path) == 0
        out = capsys.readouterr().out
        assert "unavailable" not in out
        assert "closed-form eigenvectors (columns match the eigenvalue order):" in out
        auto, forced = tmp_path / "auto.csv", tmp_path / "forced.csv"
        assert main(["simulate", path, "--out", str(auto)]) == 0
        assert main(["simulate", path, "--out", str(forced), "--method", "closed_eigen3"]) == 0
        _, rows_auto, _ = read_csv(auto)
        _, rows_forced, footer = read_csv(forced)
        assert any("closed_eigen3" in line for line in footer)
        assert np.max(np.abs(rows_auto - rows_forced)) <= 1e-12


class TestCompare:
    def test_resonant_three_level_agreement(self, tmp_path):
        out = tmp_path / "cmp.csv"
        path = write_scenario(
            tmp_path,
            "res3.json",
            {
                "levels": [0.0, 1.0, 3.0],
                "couplings": [
                    {"i": 0, "j": 1, "g": 1.0, "omega": 1.0},
                    {"i": 1, "j": 2, "g": 2.0, "omega": 2.0},
                    {"i": 0, "j": 2, "g": 3.0, "omega": 3.0},
                ],
                "initial": 0,
                "t_end": 4.0,
                "samples": 81,
            },
        )
        assert cmd_compare(path, str(out)) == 0
        header, rows, footer = read_csv(out)
        assert header[0] == "t" and "closed_pop_0" in header and "full_pop_2" in header
        closed = rows[:, 1:4]
        rwa = rows[:, 4:7]
        assert np.max(np.abs(closed - rwa)) <= 1e-6
        assert any("max |closed - rwa|" in line for line in footer)

    def test_zero_t_end_single_row(self, tmp_path):
        out = tmp_path / "zero.csv"
        path = write_scenario(
            tmp_path,
            "zero.json",
            {
                "levels": [0.0, 1.0],
                "couplings": [{"i": 0, "j": 1, "g": 1.0, "omega": 1.0}],
                "initial": 0,
                "t_end": 0.0,
                "samples": 1,
            },
        )
        assert cmd_compare(path, str(out)) == 0
        _, rows, _ = read_csv(out)
        assert rows.shape[0] == 1
        assert np.allclose(rows[0, 1:], np.tile([1.0, 0.0], 3))

    def test_strong_drive_reports_without_asserting(self, tmp_path):
        out = tmp_path / "strong.csv"
        path = write_scenario(
            tmp_path,
            "strong.json",
            {
                "levels": [0.0, 1.0],
                "couplings": [{"i": 0, "j": 1, "g": 0.3, "omega": 1.0}],
                "initial": 0,
                "t_end": 12.0,
                "samples": 41,
            },
        )
        assert cmd_compare(path, str(out)) == 0
        _, _, footer = read_csv(out)
        deviation = [line for line in footer if "closed - full" in line]
        assert deviation  # reported, not asserted

    def test_footer_reports_integrator_effort(self, tmp_path):
        out = tmp_path / "effort.csv"
        assert cmd_compare(str(SCENARIOS / "three_level_consistent.json"), str(out)) == 0
        _, _, footer = read_csv(out)
        effort = {}
        for line in footer:
            m = re.fullmatch(
                r"# (\w+) steps accepted = (\d+), rejected = (\d+), H evaluations = (\d+)",
                line,
            )
            if m:
                effort[m[1]] = tuple(int(x) for x in m.groups()[1:])
        assert set(effort) == {"rwa", "full"}
        assert sum(e[0] for e in effort.values()) == 3481
        assert sum(e[1] for e in effort.values()) == 2
        for accepted, rejected, h_evals in effort.values():
            assert h_evals <= 5 * (accepted + rejected) + 3


class TestCsvBytes:
    SPECIALS = [-0.0, 5e-324, 1e-300, 1.0 / 3.0, 1e16, 1.2345678901234568e17,
                float("nan"), float("inf"), -float("inf")]

    @pytest.mark.parametrize("width, n_rows", [(3, 600), (97, 300)])
    def test_matches_per_value_format(self, tmp_path, width, n_rows):
        # more rows than one write chunk, specials at every column position
        rng = np.random.default_rng(width)
        size = width * n_rows
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
        values[: width * len(self.SPECIALS)] = np.repeat(self.SPECIALS, width)
        rows = values.reshape(n_rows, width)
        header = [f"c{k}" for k in range(width)]
        footer = ["first = 1", "second = 2.000e+00"]
        out = tmp_path / "golden.csv"
        cli._write_csv(str(out), header, rows, footer)
        assert out.read_bytes() == reference_csv(header, rows, footer)

    @staticmethod
    def written(rows):
        header = [f"c{k}" for k in range(rows.shape[1])]
        with tempfile.TemporaryDirectory() as where:
            out = Path(where) / "out.csv"
            cli._write_csv(str(out), header, rows, ["end"])
            assert out.read_bytes() == reference_csv(header, rows, ["end"])

    @given(arrays(np.uint64, st.tuples(st.integers(1, 40), st.integers(1, 7))))
    def test_any_bit_pattern(self, bits):
        self.written(bits.view(np.float64))

    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 7)), elements=st.one_of(
        st.floats(), st.floats(1e-98, 1e99), st.floats(-1e99, -1e-98), st.integers(-10**17, 10**17).map(float),
    )))
    def test_any_float(self, rows):
        self.written(rows)

    def test_edge_values_on_both_sides_of_chunk_edges(self):
        # 10**k and its neighbours, ties, notation switches, 3-digit exponents,
        # subnormals, signed zeros, NaN and infinities, over three chunks
        values = csv_format_check.edge_values()
        self.written(np.resize(values, (2 * cli._CSV_CHUNK_ROWS + 5, 7)))
        self.written(np.resize(values[::-1], (cli._CSV_CHUNK_ROWS + 1, 3)))

    def test_ties_round_to_even(self):
        rows = np.array([[1234567890123456.75, 1234567890123457.25, -0.0, 0.0]])
        assert cli._csv_text(rows) == b"1234567890123456.8,1234567890123457.2,-0,0\n"

    def test_exact_path_alone_gives_the_same_bytes(self, monkeypatch):
        # a band of 1/2 settles no field: every one is formatted by "%"
        monkeypatch.setattr(cli, "_TIE_BAND", 0.5)
        values = np.concatenate([csv_format_check.edge_values(), np.random.default_rng(7).standard_normal(999)])
        self.written(np.resize(values, (cli._CSV_CHUNK_ROWS + 9, 5)))

    def test_power_table_is_correctly_rounded(self):
        # _POW10[i] = 10**(16 - E) at E = _E_MAX - i, within half an ulp
        for i, value in enumerate(cli._POW10):
            error = Fraction(*value.as_integer_ratio()) - Fraction(10) ** (16 - cli._E_MAX + i)
            assert abs(error) <= Fraction(*np.spacing(value).as_integer_ratio()) / 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("scenario", sorted(p.name for p in SCENARIOS.glob("*.json")))
    def test_bundled_scenarios(self, tmp_path, monkeypatch, command, scenario):
        written = []
        real_write = cli._write_csv

        def spy(path, header, rows, footer):
            written.append((header, np.array(rows), list(footer)))
            real_write(path, header, rows, footer)

        monkeypatch.setattr(cli, "_write_csv", spy)
        out = tmp_path / "out.csv"
        code = main([command, str(SCENARIOS / scenario), "--out", str(out)])
        if "inconsistent" in scenario:
            assert code == 2 and not written and not out.exists()
            return
        assert code == 0
        (header, rows, footer), = written
        assert rows.shape == (load_scenario(str(SCENARIOS / scenario)).samples, len(header))
        assert out.read_bytes() == reference_csv(header, rows, footer)


class TestMainEntry:
    def test_usage_error_maps_to_exit_1(self, capsys):
        assert main(["simulate"]) == 1

    def test_repeated_calls_behave_like_fresh_processes(self, tmp_path, capsys):
        scenario = str(SCENARIOS / "two_level_rabi.json")
        runs = [
            ["simulate", scenario],
            ["simulate", scenario, "--out", "sim.csv", "--method", "jacobi"],
            ["compare", scenario, "--out", "cmp.csv"],
        ]
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        for where in (fresh, here):
            where.mkdir()
        expected = []
        for argv in runs:
            argv = [str(fresh / a) if a.endswith(".csv") else a for a in argv]
            proc = subprocess.run(
                [sys.executable, "-m", "nrabi.cli", *argv], capture_output=True, text=True
            )
            expected.append((proc.returncode, proc.stdout, proc.stderr))
        assert [code for code, _, _ in expected] == [1, 0, 0]
        for argv, want in zip(runs, expected):
            argv = [str(here / a) if a.endswith(".csv") else a for a in argv]
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == want
        for name in ("sim.csv", "cmp.csv"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes()

    def test_module_invocation_exit_codes(self, tmp_path):
        env_cmd = [sys.executable, "-m", "nrabi.cli"]
        ok = subprocess.run(
            env_cmd + ["verify", str(SCENARIOS / "three_level_consistent.json")],
            capture_output=True,
        )
        assert ok.returncode == 0
        bad = subprocess.run(
            env_cmd + ["verify", str(SCENARIOS / "three_level_inconsistent.json")],
            capture_output=True,
        )
        assert bad.returncode == 2


class TestCompareDroppedPhases:
    """The closed and RWA columns run phase-free, and the footer says so."""

    def _compare(self, tmp_path, phi):
        pair = {"i": 0, "j": 1, "g": 1.0, "omega": 1.0}
        if phi is not None:
            pair["phi"] = phi
        data = {"levels": [0.0, 1.0], "couplings": [pair], "initial": 0, "t_end": 1.0, "samples": 11}
        out = tmp_path / "cmp.csv"
        assert cmd_compare(write_scenario(tmp_path, "s.json", data), str(out)) == 0
        return out

    def test_phased_footer_names_the_phase_free_columns(self, tmp_path):
        _, _, footer = read_csv(self._compare(tmp_path, 0.5))
        assert footer[-1] == "# closed and rwa are phase-free: the drive phases act on full only"

    @pytest.mark.parametrize("phi", [None, 0.0])
    def test_phase_free_output_has_no_phase_line(self, tmp_path, phi):
        text = self._compare(tmp_path, phi).read_bytes()
        assert b"phase" not in text
        assert text == self._compare(tmp_path, None).read_bytes()
