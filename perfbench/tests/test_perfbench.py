"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.t += 2.0

    def middle():
        clock.t += 1.0
        leaf()
        leaf()
        clock.t += 0.5

    def top():
        clock.t += 3.0
        middle()

    leaf = tr.wrap("m.leaf", leaf)
    middle = tr.wrap("m.middle", middle)
    top = tr.wrap("m.top", top)
    top()
    rec = tr.records
    assert (rec["m.leaf"].calls, rec["m.leaf"].self_s) == (2, 4.0)
    assert (rec["m.middle"].calls, rec["m.middle"].self_s) == (1, 1.5)
    assert (rec["m.top"].calls, rec["m.top"].self_s) == (1, 3.0)
    # self times partition the outermost span
    assert sum(r.self_s for r in rec.values()) == clock.t


def test_span_closes_when_the_function_raises():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def boom():
        clock.t += 1.0
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            boom()
        clock.t += 1.0

    boom = tr.wrap("m.boom", boom)
    tr.wrap("m.outer", outer)()
    assert tr.records["m.boom"].self_s == 1.0
    assert tr.records["m.outer"].self_s == 1.0
    tr.reset()
    assert tr.records["m.outer"].calls == 0


@pytest.fixture
def fake_package():
    """A two-module stand-in for biximp: cli imports a function by name."""
    pkg = types.ModuleType("fakebx")
    pkg.__path__ = []
    bx = types.ModuleType("fakebx.biexciton")
    exec("def phi_samples():\n    return 1\n"
         "def log_cosh(x):\n    return x\n"
         "class ModeBasis:\n    def __init__(self, p):\n        self.p = p\n"
         "    def band_edges(self):\n        return 0\n", bx.__dict__)
    cli = types.ModuleType("fakebx.cli")
    mods = {"fakebx": pkg, "fakebx.biexciton": bx, "fakebx.cli": cli}
    sys.modules.update(mods)
    exec("from fakebx.biexciton import phi_samples\n"
         "def cmd(x):\n    return phi_samples()\n"
         "COMMANDS = {'c': cmd}\n"
         "def main(argv=None):\n    return COMMANDS['c'](argv)\n", cli.__dict__)
    yield pkg, bx, cli
    for name in mods:
        sys.modules.pop(name, None)


def test_install_wraps_definitions_imports_and_tables(fake_package):
    pkg, bx, cli = fake_package
    tr = tracer.Tracer()
    tr.install(pkg)
    assert cli.main() == 1
    bx.ModeBasis(3).band_edges()
    calls = {name: rec.calls for name, rec in tr.records.items()}
    assert calls["cli.main"] == 1
    assert calls["cli.cmd"] == 1            # reached only through COMMANDS
    assert calls["biexciton.phi_samples"] == 1   # through cli's imported name
    assert calls["biexciton.ModeBasis"] == 1
    assert calls["biexciton.ModeBasis.band_edges"] == 1
    assert "biexciton.log_cosh" not in calls     # inner helper stays unwrapped
    assert cli.phi_samples is bx.phi_samples


def test_absent_traced_function_is_reported_not_fatal():
    records = {"cli.main": {"calls": 1, "self_s": 0.5, "keys": []}}
    traced = [{"records": records, "wall_s": 1.0, "bytes_out": 10}]
    values, bases = run.layer_metrics("pole_spectra", traced, [{"wall_s": 0.8}], 0)
    assert values["scattering.s_function.calls"] == 0
    assert values["trace.absent"] == len(run.TRACED) - 1
    assert "scattering.s_function" in bases["absent"]
    assert values["layer.cli.self_s"] == 0.5
    assert math.isclose(values["trace.overhead_s"], 0.2)
    assert set(values) <= set(run.per_layer_units())


def test_useful_ratio_bases():
    from biximp import ModelParams
    a = ModelParams(N=40, J=1.0, D=4.1, V0=1.0)
    b = a.replace(V0=-3.0)
    c = a.replace(D=5.0)
    keys = [repr(tracer.basis_key(None, p)) for p in (a, b, c, a)]
    assert len(set(keys)) == 2              # V0 does not change the basis
    dims = [tracer.pair_dim(ModelParams(N=n, J=1.0, D=4.1)) for n in (40, 40, 60)]
    assert dims == [780, 780, 1770]
    records = {"biexciton.ModeBasis": {"calls": 4, "self_s": 0.0, "keys": keys},
               "pairbasis.diagonalize_full": {"calls": 3, "self_s": 0.0, "keys": dims}}
    traced = [{"records": records, "wall_s": 1.0, "bytes_out": 0}]
    values, bases = run.layer_metrics("exact_arbiter", traced, [{"wall_s": 1.0}], 3)
    assert values["biexciton.ModeBasis.useful_ratio"] == 0.5
    assert bases["biexciton.ModeBasis.useful_ratio"] == [2, 4]
    assert values["pairbasis.diagonalize_full.useful_ratio"] == 1.0
    assert values["pairbasis.dense_bytes_computed"] == 8 * (2 * 780 ** 2 + 1770 ** 2)


# ---------------------------------------------------------------------------
# failure counting


class RaisingCli:
    def __init__(self, exc):
        self.exc = exc

    def main(self, argv):
        raise self.exc


def test_escaped_exception_is_a_failed_task(tmp_path):
    task = workloads.Task("t", "bic", {"model": {"N": 8}})
    for exc in (ValueError("bad N"), RuntimeError("not PSD"), SystemExit(3)):
        code, error, _, _ = worker.run_task(RaisingCli(exc), task, tmp_path / "t")
        assert error is not None and type(exc).__name__ in error
        res = [{"id": "t", "exit": code, "error": error, "user_warnings": 0, "stderr": ""}]
        worker.verify([task], res, tmp_path, None)
        assert res[0]["failed"] and "exception escaped main" in res[0]["problems"][0]


def test_fail_frac_counts_tasks_and_crashed_rounds():
    ok = {"failed": False, "problems": [], "user_warnings": 2, "id": "a"}
    bad = {"failed": True, "problems": ["exit code 1"], "user_warnings": 0, "id": "b"}
    rounds = [{"tasks": [ok, ok]}, {"tasks": [ok, bad]}, None]
    attempted, failed, problems, warned = run.tally(rounds, 2)
    assert (attempted, failed, warned) == (6, 3, 6)
    assert problems == ["b: exit code 1", "worker crashed or timed out"]


# ---------------------------------------------------------------------------
# oracle


def _write(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


def test_reference_tolerances(tmp_path):
    _write(tmp_path / "bic_classification.csv", ["index", "energy", "decay_r", "type"],
           [["3", "1.0", "0.5", "fully_bound"]])
    np.array([0.5, -0.5, math.nan]).tofile(tmp_path / "bic_amplitude.f64")
    ref = oracle.summarize(tmp_path)
    assert oracle.compare_reference(ref, tmp_path) == []

    _write(tmp_path / "bic_classification.csv", ["index", "energy", "decay_r", "type"],
           [["3", "1.0000000000001", "0.5000001", "fully_bound"]])
    np.array([-0.5, 0.5, math.nan]).tofile(tmp_path / "bic_amplitude.f64")  # sign flip
    assert oracle.compare_reference(ref, tmp_path) == []

    for row in (["3", "1.000001", "0.5", "fully_bound"],     # float beyond 1e-9
                ["4", "1.0", "0.5", "fully_bound"],          # integer column
                ["3", "1.0", "0.5", "free_biexciton"]):      # label
        _write(tmp_path / "bic_classification.csv", ["index", "energy", "decay_r", "type"],
               [row])
        assert oracle.compare_reference(ref, tmp_path)


def test_timeseries_matches_to_1e12(tmp_path):
    header = ["t", "entropy_bits", "norm", "energy", "reflected_prob"]
    _write(tmp_path / "wavepacket_timeseries.csv", header, [["0", "0.2", "1", "-4.6", "nan"]])
    ref = oracle.summarize(tmp_path)
    _write(tmp_path / "wavepacket_timeseries.csv", header,
           [["0", "0.2", "1", "-4.6000000000005", "nan"]])
    assert oracle.compare_reference(ref, tmp_path) == []
    _write(tmp_path / "wavepacket_timeseries.csv", header,
           [["0", "0.2", "1", "-4.600000000005", "nan"]])
    assert oracle.compare_reference(ref, tmp_path)


def test_invariants_catch_out_of_range_counts(tmp_path):
    task = workloads.Task("pd", "phase-diagram",
                          {"model": {"N": 8, "J": 1.0, "D": 4.0},
                           "phase_diagram": {"n_D": 1, "n_V0": 2}})
    _write(tmp_path / "phase_diagram.csv", ["D", "V0", "count"],
           [["4", "1", "2"], ["4", "2", "-1"]])
    assert oracle.check_invariants(task, tmp_path) == []
    _write(tmp_path / "phase_diagram.csv", ["D", "V0", "count"],
           [["4", "1", "9"], ["4", "2", "-1"]])
    assert oracle.check_invariants(task, tmp_path)
    (tmp_path / "phase_diagram.csv").unlink()
    assert "unreadable" in oracle.check_invariants(task, tmp_path)[0]


def test_ring_hamiltonian_matches_the_package():
    from biximp import ModelParams, exciton_site_hamiltonian
    p = ModelParams(N=10, J=-1.0, D=5.0, E0=3.0, V0=2.5)
    assert np.array_equal(oracle.ring_hamiltonian(10, -1.0, 3.0, 2.5),
                          exciton_site_hamiltonian(p))


def test_default_seed_is_the_listed_configuration():
    wp = workloads.tasks("packet_split")[0].config["wavepacket"]
    assert wp["dK0"] == math.pi / 24
    assert workloads.tasks("phase_sweep")[0].config["phase_diagram"]["D_min"] == 2.1
    for name in workloads.WORKLOADS:
        base, other = workloads.tasks(name, 0), workloads.tasks(name, 7)
        assert [t.id for t in base] == [t.id for t in other]
        assert base[0].config != other[0].config
        assert workloads.tasks(name, 7)[0].config == other[0].config


# ---------------------------------------------------------------------------
# whole runs


def _run(args, cwd=ROOT, bench=BENCH):
    proc = subprocess.run([sys.executable, str(bench / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)
    return proc


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", "0", "--small"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines[-2]
    assert result["attempted"] == run.MIN_ROUNDS * len(workloads.tasks(workload, small=True))
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    gaps = json.loads(lines[-3])["known_gaps"]
    assert gaps["poles_N60_exit"] == 1 and "hyperbolic overflow" in gaps["poles_N60_message"]
    assert abs(gaps["bic_N40_gap_to_E_b1"] - 3.27e-4) < 5e-6


def test_smoke_traced_run():
    proc = _run(["--workload", "exact_arbiter", "--seed", "2", "--seconds", "0",
                 "--trace", "1", "--small"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["pairbasis.diagonalize_full.calls"] == 4     # bic twice, find_bic_state twice
    assert m["pairbasis.diagonalize_full.useful_ratio"] == 0.5
    assert m["trace.absent"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "phase_sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
