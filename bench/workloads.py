"""Seeded inputs, operations and oracle checks for the benchmark workloads.

Every workload turns ``(name, seed)`` into an endless, deterministic stream of
operations. One operation is the unit a user waits for: one in-process
``nrabi simulate`` or ``nrabi compare`` run, or ``model.full_solution`` at a
few times on each of a batch of freshly drawn systems. ``nrabi`` receives
only the inputs generated here.

The oracles are the benchmark's own and share no code with the package: the
closed-form trajectory is checked against ``U(t) V exp(-it Lambda) V^T psi0``
with ``V, Lambda`` from ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import itertools
import json
import zlib
from collections import Counter
from pathlib import Path

import numpy as np

AMP_TOL = 1e-9  # acceptance criterion 3a: amplitudes against an oracle
POP_SUM_TOL = 1e-8  # acceptance criterion 9b: |sum(populations) - 1| in the CSV
RWA_TOL = 1e-6  # acceptance criterion 1b: max |closed - rwa| in a compare CSV

# The sweep op of closed_form draws SWEEP_SYSTEMS fresh systems with
# independent random couplings, n following (3, 4, 4), and solves each at a
# few random times: nothing is shared between systems, so work that a solver
# amortises over many times of one Q cannot pay off here. An n = 3 system
# samples more times so that systems of both sizes cost about the same.
#
# Near-equal couplings are what lasers of nominally equal intensity give.
# Automatic dispatch can send them to the Lagrange route, whose result then
# misses the oracle or fails the state norm check (the dispatch threshold of
# ROADMAP item 4). A benchmark op must not fail, so they are not timed;
# instead every closed_form run also solves a fixed, seeded batch of them
# outside the timed region and reports how many miss the same 1e-9 oracle
# check. Relative spread is log-uniform in [1e-7, 1e-4]; n alternates 3, 4.
SWEEP_N = (3, 4, 4)
SWEEP_TIMES = {3: 12, 4: 8}
SWEEP_SYSTEMS = 72
NEAR_SPREAD = (1e-7, 1e-4)
NEAR_PROBE_SYSTEMS = 24

# Seeded scenarios of closed_form and their sample counts. The counts (and
# SWEEP_SYSTEMS) make every seeded op and the sweep cost about the same as the
# n = 4 scenario, so that 9 of the 11 ops of a round form one cluster of
# latencies and the median and tail both fall inside it, not in a gap between
# clusters. At n >= 5 Jacobi is re-run per sample (~n^2 rotations each), so
# samples shrink with n.
SMALL_N_SAMPLES = {"seeded_n3": 801, "seeded_n4": 501, "equal_coupling": 1401}
LARGE_N_SAMPLES = {5: 160, 8: 52, 12: 18, 20: 6, 32: 2}


class OpFailed(Exception):
    """An op's output missed its check: ``OpFailed(kind, detail)``."""

    @property
    def kind(self) -> str:
        return self.args[0]


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


# ---------------------------------------------------------------- inputs


def _pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def draw_energies(rng, n: int) -> np.ndarray:
    """Strictly increasing level energies starting at 0, gaps in [0.5, 1.5]."""
    return np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))))


def draw_couplings(rng, n: int, kind: str = "random", spread: float = 0.0) -> dict:
    """Couplings per level pair.

    ``random``: independent in [0.5, 2]. ``equal``: one value g0 for every
    pair. ``near``: g0 * (1 + spread * u) with u rescaled to span exactly
    [-1/2, 1/2], so (max - min) / g0 equals ``spread``.
    """
    pairs = _pairs(n)
    if kind == "random":
        return {p: float(g) for p, g in zip(pairs, rng.uniform(0.5, 2.0, len(pairs)))}
    g0 = float(rng.uniform(0.5, 2.0))
    if kind == "equal":
        return {p: g0 for p in pairs}
    u = rng.uniform(-1.0, 1.0, len(pairs))
    u = (u - u.min()) / (u.max() - u.min()) - 0.5
    return {p: g0 * (1.0 + spread * float(x)) for p, x in zip(pairs, u)}


def draw_state(rng, n: int) -> np.ndarray:
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def scenario_dict(energies, couplings, psi0, t_end: float, samples: int) -> dict:
    """A resonant scenario in the CLI's JSON schema (omega_ij = E_j - E_i)."""
    return {
        "levels": [float(e) for e in energies],
        "couplings": [
            {"i": i, "j": j, "g": g, "omega": float(energies[j] - energies[i])}
            for (i, j), g in sorted(couplings.items())
        ],
        "initial": [[float(a.real), float(a.imag)] for a in psi0],
        "t_end": float(t_end),
        "samples": int(samples),
    }


def seeded_scenario(rng, n: int, kind: str, t_end: float, samples: int) -> dict:
    energies = draw_energies(rng, n)
    return scenario_dict(energies, draw_couplings(rng, n, kind), draw_state(rng, n), t_end, samples)


# ---------------------------------------------------------------- oracle


def _system_arrays(scenario: dict):
    """Q, the accumulated frame frequencies and psi0 read straight from the JSON."""
    n = len(scenario["levels"])
    q = np.zeros((n, n))
    omega = {}
    for item in scenario["couplings"]:
        i, j = sorted((int(item["i"]), int(item["j"])))
        q[i, j] = q[j, i] = float(item["g"])
        omega[(i, j)] = float(item["omega"])
    acc = np.concatenate(([0.0], np.cumsum([omega[(j - 1, j)] for j in range(1, n)])))
    initial = scenario["initial"]
    if isinstance(initial, int):
        psi0 = np.zeros(n, dtype=complex)
        psi0[initial] = 1.0
    else:
        psi0 = np.array([complex(re, im) for re, im in initial])
        psi0 /= np.linalg.norm(psi0)
    return q, acc, psi0


def oracle_amplitudes(q: np.ndarray, acc: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """psi(t) = U(t) V exp(-it Lambda) V^T psi0 for every t, shape (T, n)."""
    times = np.asarray(times, dtype=float)
    lam, vec = np.linalg.eigh(q)
    coeff = vec.T @ psi0
    amps = (np.exp(-1j * np.outer(times, lam)) * coeff) @ vec.T
    return amps * np.exp(-1j * np.outer(times, acc))


def _sample_times(scenario: dict) -> np.ndarray:
    if scenario["t_end"] == 0.0:
        return np.array([0.0])
    return np.linspace(0.0, scenario["t_end"], scenario.get("samples", 1001))


def _read_csv(path: Path, rows: int, cols: int) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    if data.shape != (rows, cols):
        raise OpFailed("csv shape", f"{data.shape}, expected {(rows, cols)}")
    if not np.isfinite(data).all():
        raise OpFailed("non-finite", "value in CSV")
    return data


# ---------------------------------------------------------------- operations


class CliOp:
    """One in-process ``nrabi.cli.main`` run on a scenario file."""

    layer = "cli.cmd"

    def __init__(self, cli, command: str, scenario_path: Path, scenario: dict, out_path: Path):
        self.kind = scenario_path.stem
        self.cli = cli
        self.command = command
        self.argv = [command, str(scenario_path), "--out", str(out_path)]
        self.scenario = scenario
        self.out_path = out_path
        self.n = len(scenario["levels"])
        self.times = _sample_times(scenario)
        self._expected = None

    def run(self):
        return self.cli.main(self.argv)

    def check(self, rc) -> None:
        if rc != 0:
            raise OpFailed("exit code", str(rc))
        n = self.n
        data = _read_csv(self.out_path, len(self.times), 1 + 3 * n)
        if self.command == "compare":
            gap = float(np.max(np.abs(data[:, 1 : 1 + n] - data[:, 1 + n : 1 + 2 * n])))
            if gap > RWA_TOL:
                raise OpFailed("closed vs rwa", f"{gap:.3e} > {RWA_TOL:.0e}")
            return
        if self._expected is None:
            self._expected = oracle_amplitudes(*_system_arrays(self.scenario), self.times)
        if float(np.max(np.abs(data[:, 0] - self.times))) > 1e-12 * max(1.0, self.times[-1]):
            raise OpFailed("sample times", "differ from the scenario grid")
        pop_err = float(np.max(np.abs(data[:, 1 : 1 + n].sum(axis=1) - 1.0)))
        if pop_err > POP_SUM_TOL:
            raise OpFailed("population sum", f"{pop_err:.3e}")
        amps = data[:, 1 + n :: 2] + 1j * data[:, 2 + n :: 2]
        amp_err = float(np.max(np.abs(amps - self._expected)))
        if amp_err > AMP_TOL:
            raise OpFailed("oracle", f"amplitude error {amp_err:.3e} against eigh")


class SweepOp:
    """``model.full_solution`` at a few times on each of a list of systems.

    ``systems`` holds ``(system, psi0, times, oracle)`` with ``oracle`` the
    arguments of ``oracle_amplitudes`` except the times.
    """

    layer = "op"

    def __init__(self, kind, model, systems):
        self.kind = kind
        self.model = model
        self.systems = systems

    def run(self):
        # looked up on the module at call time so the tracer's patch applies
        full_solution = self.model.full_solution
        return [[full_solution(system, psi0, t) for t in times] for system, psi0, times, _ in self.systems]

    def check(self, solved) -> None:
        for states, (_, _, times, oracle) in zip(solved, self.systems):
            amps = np.array([s.amplitudes for s in states])
            if not np.isfinite(amps).all():
                raise OpFailed("non-finite", "amplitude")
            err = float(np.max(np.abs(amps - oracle_amplitudes(*oracle, times))))
            if err > AMP_TOL:
                raise OpFailed("oracle", f"amplitude error {err:.3e} against eigh")


# ---------------------------------------------------------------- workloads


def _write(workdir: Path, name: str, scenario: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


def _bundled(root: Path, name: str):
    path = root / "scenarios" / f"{name}.json"
    return path, json.loads(path.read_text(encoding="utf-8"))


def _cli_ops(nrabi, command, scenarios, workdir):
    cli = nrabi["cli"]
    return [
        CliOp(cli, command, path, scenario, workdir / f"{name}.{command}.csv")
        for name, path, scenario in scenarios
    ]


def _seeded_scenarios(rng, workdir: Path):
    """Fresh seeded n = 3, 4 and equal-coupling scenarios, then n = 5..32."""
    scenarios = []
    n_equal = int(rng.choice((3, 4)))
    for name, n, kind in (("seeded_n3", 3, "random"), ("seeded_n4", 4, "random"), ("equal_coupling", n_equal, "equal")):
        scenario = seeded_scenario(rng, n, kind, t_end=10.0, samples=SMALL_N_SAMPLES[name])
        scenarios.append((name, _write(workdir, name, scenario), scenario))
    for n, samples in LARGE_N_SAMPLES.items():
        scenario = seeded_scenario(rng, n, "random", t_end=5.0, samples=samples)
        scenarios.append((f"seeded_n{n}", _write(workdir, f"seeded_n{n}", scenario), scenario))
    return scenarios


def _draw_system(model, rng, n: int, couplings: dict) -> tuple:
    energies = draw_energies(rng, n)
    psi = draw_state(rng, n)
    times = [float(t) for t in np.sort(rng.uniform(0.5, 10.0, SWEEP_TIMES[n]))]
    system = model.LevelSystem.resonant(energies, couplings)
    q = np.zeros((n, n))
    for (i, j), g in couplings.items():
        q[i, j] = q[j, i] = g
    return system, model.StateVector(psi), times, (q, energies - energies[0], psi)


def closed_form(nrabi, rng, workdir: Path, root: Path):
    """Each round: simulate the bundled scenarios and freshly drawn seeded ones,
    then one sweep of fresh systems.

    Drawing the seeded systems afresh every round makes a run's latencies
    average over many systems: the cost of a Jacobi run, for one, moves with
    the matrix by tens of percent.
    """
    model = nrabi["model"]
    bundled = [(name, *_bundled(root, name)) for name in ("two_level_rabi", "three_level_consistent")]
    bundled = _cli_ops(nrabi, "simulate", bundled, workdir)
    while True:
        yield from bundled
        yield from _cli_ops(nrabi, "simulate", _seeded_scenarios(rng, workdir), workdir)
        systems = []
        for k in range(SWEEP_SYSTEMS):
            n = SWEEP_N[k % len(SWEEP_N)]
            systems.append(_draw_system(model, rng, n, draw_couplings(rng, n, "random")))
        yield SweepOp("sweep", model, systems)


def compare_rk4(nrabi, rng, workdir: Path, root: Path):
    # The seeded system integrates over a short span: its RK4 step count moves
    # with the seed by about +-15 %, so it is kept well below the bundled
    # two-level op, and the median and the tail latency both fall on bundled
    # scenarios, whose cost no seed changes.
    scenarios = [(name, *_bundled(root, name)) for name in ("two_level_rabi", "three_level_consistent")]
    scenario = seeded_scenario(rng, 4, "random", t_end=1.5, samples=51)
    scenarios.append(("seeded_n4", _write(workdir, "seeded_n4", scenario), scenario))
    return _cli_ops(nrabi, "compare", scenarios, workdir)


def near_equal_probe(nrabi, seed: int) -> dict:
    """Solve the seeded near-equal batch untimed; count the systems that miss the check."""
    model = nrabi["model"]
    rng = rng_for("near_equal", seed)
    lo, hi = np.log10(NEAR_SPREAD[0]), np.log10(NEAR_SPREAD[1])
    reasons: Counter = Counter()
    for k in range(NEAR_PROBE_SYSTEMS):
        n = 3 + k % 2
        couplings = draw_couplings(rng, n, "near", float(10.0 ** rng.uniform(lo, hi)))
        op = SweepOp(f"n{n}_near", model, [_draw_system(model, rng, n, couplings)])
        try:
            op.check(op.run())
        except OpFailed as exc:
            reasons[f"{op.kind}: {exc.kind}"] += 1
        except Exception as exc:  # the defect mostly surfaces as a raised norm check
            reasons[f"{op.kind}: raised {type(exc).__name__}"] += 1
    return {"systems": NEAR_PROBE_SYSTEMS, "defects": sum(reasons.values()), "reasons": dict(reasons)}


class Workload:
    """A named op stream and the number of ops in one round.

    A round holds each scenario once (and, for ``closed_form``, one sweep);
    timed loops run whole rounds and traced counts are per round. ``probe``, if
    set, runs once per run outside the timed region and its result is
    reported beside the metrics. The reason for each workload is recorded in
    BENCHMARK.json.
    """

    def __init__(self, name: str, build, round_size: int, probe=None):
        self.name = name
        self.build = build
        self.round_size = round_size
        self.probe = probe

    def ops(self, nrabi, seed: int, workdir: Path, root: Path):
        """A fresh, endless op iterator; the same seed gives the same ops."""
        built = self.build(nrabi, rng_for(self.name, seed), workdir, root)
        return itertools.cycle(built) if isinstance(built, list) else built


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_form", closed_form, 5 + len(LARGE_N_SAMPLES) + 1, near_equal_probe),
        Workload("compare_rk4", compare_rk4, 3),
    )
}
