import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("levels", ["01", "013"])
    def test_levels_not_an_array(self, tmp_path, capsys, levels):
        assert "levels must be an array" in self.run_simulate(tmp_path, capsys, levels=levels)

    @pytest.mark.parametrize("initial", [True, "0", {"re": 1.0}, [1.0, 0.0]])
    def test_initial_not_an_index_or_pairs(self, tmp_path, capsys, initial):
        err = self.run_simulate(tmp_path, capsys, initial=initial)
        assert "initial must be a level index or a list of [re, im] pairs" in err

    @pytest.mark.parametrize("rtol", ["nan", "inf"])
    def test_non_finite_rtol(self, tmp_path, capsys, rtol):
        out = tmp_path / "out.csv"
        scenario = str(SCENARIOS / "two_level_rabi.json")
        assert main(["compare", scenario, "--out", str(out), "--rtol", rtol]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rel_tol" in err
        assert "Traceback" not in err
        assert not out.exists()


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

    def test_radical_solver_refusal_is_reported(self, tmp_path, capsys):
        # a real symmetric Q whose quartic the radical solver will not certify
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
        rows = [line.split() for line in out.splitlines()]
        assert sum(row[1:2] == ["unavailable"] for row in rows) == 4
        assert "closed-form spectrum unavailable: " in out
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


class TestMainEntry:
    def test_usage_error_maps_to_exit_1(self, capsys):
        assert main(["simulate"]) == 1

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
