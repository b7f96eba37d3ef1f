"""Command-line surface: configs in, deterministic CSV out, exit codes."""

import contextlib
import csv
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biximp.cli import main


def write_cfg(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


BASE = {"model": {"N": 40, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 4.0}}


def test_missing_config_exit_code(tmp_path):
    assert main(["exciton", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_malformed_config(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("just a string")
    assert main(["exciton", "--config", str(path)]) == 2


def test_malformed_model_value_exit_code(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"model": {"N": "abc", "J": 1.0, "D": 4.1}})
    assert main(["exciton", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_malformed_phase_diagram_value_exit_code(tmp_path):
    cfg = dict(BASE)
    cfg["phase_diagram"] = {"D_min": 4.1, "D_max": 6.0, "n_D": "x",
                            "V0_min": -4.0, "V0_max": 4.0, "n_V0": 3}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["phase-diagram", "--config", path, "--out", str(tmp_path)]) == 2


def test_malformed_wavepacket_value_exit_code(tmp_path):
    cfg = {"model": {"N": 40, "J": -1.0, "D": -4.5, "V0": 0.5474},
           "wavepacket": {"K0": "fast", "dK0": 0.1,
                          "t_start": -30.0, "t_end": -25.0}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["wavepacket", "--config", path, "--out", str(tmp_path)]) == 2


def test_malformed_poles_value_exit_code(tmp_path, capsys):
    for bad in ({"n_scan": "many"}, {"n_scan": -3}, {"n_scan": 0}, {"n_scan": 2.5},
                {"K_doubleprime_max": float("nan")}, {"K_doubleprime_max": -1.0}):
        cfg = dict(BASE, poles=dict({"K_doubleprime_max": 1.0, "n_scan": 40}, **bad))
        path = write_cfg(tmp_path / "c.yaml", cfg)
        assert main(["poles", "--config", path, "--out", str(tmp_path)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error: poles section") and err.count("\n") == 1
    assert not (tmp_path / "pole_scan.csv").exists()


def test_malformed_bic_value_exit_code(tmp_path, capsys):
    for bad in ({"flag_tolerance": "tight"}, {"flag_tolerance": float("nan")},
                {"flag_tolerance": -0.05}, {"flag_tolerance": float("inf")},
                {"dump_amplitudes": "no"}, {"dump_amplitudes": 0},
                {"dump_amplitudes": None}):
        cfg = dict(BASE, bic=bad)
        path = write_cfg(tmp_path / "c.yaml", cfg)
        assert main(["bic", "--config", path, "--out", str(tmp_path)]) == 2, bad
        err = capsys.readouterr().err
        assert err.startswith("config error: bic section") and err.count("\n") == 1
    assert not (tmp_path / "bic_classification.csv").exists()


PACKET = {"model": {"N": 40, "J": -1.0, "D": -4.5, "E0": 0.0, "V0": 0.5474},
          "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                         "t_start": -30.0, "t_end": -25.0}}
PHASE = {"D_min": 4.1, "D_max": 6.0, "n_D": 2, "V0_min": -4.0, "V0_max": 4.0,
         "n_V0": 3}
BOOLEAN_NUMBERS = (
    [("exciton", "model", key, True) for key in ("N", "J", "D", "E0", "V0")]
    + [("phase-diagram", "phase_diagram", key, True) for key in PHASE]
    + [("poles", "poles", "K_doubleprime_max", True),
       ("poles", "poles", "n_scan", True),
       ("bic", "bic", "flag_tolerance", True)]
    + [("wavepacket", "wavepacket", key, True)
       for key in ("K0", "dK0", "t_start", "t_end", "sample_dt", "r_offset",
                   "split_target")]
    + [("wavepacket", "wavepacket", "snapshots", [-28.0, True])])


def _config_error(tmp_path, capsys, command, name, key, value):
    """Run `command` with `value` at section `name`, key `key`: it must exit
    2 with one config-error line and write nothing.  Returns the line."""
    cfg = PACKET if command == "wavepacket" else dict(BASE, phase_diagram=PHASE)
    cfg = {sec: dict(vals) for sec, vals in cfg.items()}
    cfg.setdefault(name, {})[key] = value
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} section")
    assert err.count("\n") == 1
    assert not any(out.iterdir())
    return err


@pytest.mark.parametrize("command, name, key, value", BOOLEAN_NUMBERS)
def test_boolean_number_exit_code(tmp_path, capsys, command, name, key, value):
    """A YAML boolean where a number belongs is a config error, not 1."""
    assert "boolean" in _config_error(tmp_path, capsys, command, name, key, value)


NON_FINITE_NUMBERS = (
    ("bic", "model", "E0", float("nan")),
    ("biexciton-spectrum", "model", "V0", float("nan")),
    ("wavepacket", "wavepacket", "t_end", float("inf")),
    ("bic", "model", "D", float("inf")),
    ("biexciton-spectrum", "model", "D", float("inf")),
    ("biexciton-spectrum", "model", "E0", float("-inf")),
    ("phase-diagram", "phase_diagram", "D_max", float("nan")),
    ("exciton", "model", "N", float("inf")))


@pytest.mark.parametrize("command, name, key, value", NON_FINITE_NUMBERS)
def test_non_finite_number_exit_code(tmp_path, capsys, command, name, key, value):
    """NaN or +-inf where a number belongs is a config error: no traceback,
    no exit 0 with garbage written, no misleading regime message."""
    _config_error(tmp_path, capsys, command, name, key, value)


def test_regime_violation_exit_code(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml",
                    {"model": {"N": 40, "J": 1.0, "D": 2.0, "V0": 4.0}})
    assert main(["biexciton-spectrum", "--config", cfg,
                 "--out", str(tmp_path)]) == 3


def test_exciton_command(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", {
        "model": {"N": 40, "J": 1.0, "D": 5.0, "E0": 1000.0, "V0": 2.5},
        "exciton": {"sign_cases": True},
    })
    assert main(["exciton", "--config", cfg, "--out", str(tmp_path)]) == 0
    outs = sorted(p.name for p in tmp_path.glob("exciton_*.csv"))
    assert len([n for n in outs if "bound_profile" not in n]) == 4
    text = (tmp_path / "exciton_J+V+.csv").read_text().splitlines()
    assert text[0] == "branch,k_real,k_imag,energy,bound_flag"
    assert any(line.endswith(",true") for line in text[1:])


def test_exciton_v0_zero_no_bound(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", {
        "model": {"N": 40, "J": 1.0, "D": 5.0, "V0": 0.0}})
    assert main(["exciton", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "exciton.csv").read_text()
    assert ",true" not in text


def test_biexciton_spectrum_command(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", BASE)
    assert main(["biexciton-spectrum", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "biexciton_spectrum.csv").read_text().splitlines()
    assert len(lines) == 41
    assert sum(line.endswith(",true") for line in lines[1:]) == 4
    assert (tmp_path / "bound_a_profile.f64").exists()


def test_determinism(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", BASE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["biexciton-spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["biexciton-spectrum", "--config", cfg, "--out", str(out2)]) == 0
    a = (out1 / "biexciton_spectrum.csv").read_bytes()
    b = (out2 / "biexciton_spectrum.csv").read_bytes()
    assert a == b


def test_phase_diagram_command(tmp_path):
    cfg = dict(BASE)
    cfg["phase_diagram"] = {"D_min": 4.1, "D_max": 6.0, "n_D": 2,
                            "V0_min": -4.0, "V0_max": 4.0, "n_V0": 3}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["phase-diagram", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "phase_diagram.csv").read_text().splitlines()
    assert lines[0] == "D,V0,count"
    assert len(lines) == 7
    rows = [line.split(",") for line in lines[1:]]
    v0_zero = [r for r in rows if float(r[1]) == 0.0]
    assert all(int(r[2]) == 0 for r in v0_zero)


def test_poles_independent_of_n(tmp_path):
    """The pole and its distance to the projected bound state do not move
    with the ring length (the K' = pi/2 branch reaches deep continuations)."""
    summaries = []
    for N in (40, 60, 100):
        cfg = {"model": {"N": N, "J": 1.0, "D": 4.0, "E0": 0.0, "V0": 0.25},
               "poles": {"K_doubleprime_max": 1.5, "n_scan": 200}}
        out = tmp_path / f"N{N}"
        assert main(["poles", "--config", write_cfg(tmp_path / f"N{N}.yaml", cfg),
                     "--out", str(out)]) == 0
        with open(out / "pole_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        summaries.append([[float(r[c]) for c in ("K_doubleprime_pole", "E_pole", "rel_err")]
                          for r in rows])
    ref = np.array(summaries[0])
    for summary in summaries[1:]:
        np.testing.assert_allclose(summary, ref, rtol=1e-9, atol=0.0)


def test_poles_command(tmp_path):
    cfg = dict(BASE)
    cfg["model"] = {"N": 40, "J": 1.0, "D": 4.0, "V0": 0.25}
    cfg["poles"] = {"K_doubleprime_max": 1.0, "n_scan": 40}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["poles", "--config", path, "--out", str(tmp_path),
                 "--plots"]) == 0
    summary = (tmp_path / "pole_summary.csv").read_text().splitlines()
    assert len(summary) == 3
    rel = [float(line.split(",")[-1]) for line in summary[1:]]
    assert max(rel) < 0.05
    assert (tmp_path / "pole_scan.gp").exists()


def test_bic_command(tmp_path):
    cfg = dict(BASE)
    cfg["model"] = {"N": 40, "J": 1.0, "D": 4.1, "V0": 8.0}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["bic", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bic_classification.csv").read_text().splitlines()
    assert lines[0].startswith("index,energy,type")
    assert any("fully_bound" in line for line in lines[1:])
    grid = np.fromfile(tmp_path / "bic_amplitude.f64")
    assert grid.size == 80 * 21


def test_bic_dump_off_and_zero_tolerance(tmp_path):
    cfg = {"model": {"N": 12, "J": 1.0, "D": 4.1, "V0": 8.0},
           "bic": {"flag_tolerance": 0.0, "dump_amplitudes": False}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["bic", "--config", path, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "bic_classification.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["mismatch_flag"] == "true" for r in rows)
    assert not (tmp_path / "bic_amplitude.f64").exists()


def test_wavepacket_command(tmp_path):
    cfg = {"model": {"N": 40, "J": -1.0, "D": -4.5, "E0": 0.0, "V0": 0.5474},
           "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                          "t_start": -30.0, "t_end": -25.0,
                          "snapshots": [-28.0]}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["wavepacket", "--config", path, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "wavepacket_timeseries.csv").read_text().splitlines()
    assert lines[0] == "t,entropy_bits,norm,energy,reflected_prob"
    assert len(lines) == 7
    assert (tmp_path / "snapshot_psi2_t-28.0.f64").exists()


def test_wavepacket_split_target_below_free_reflection(tmp_path):
    # about 3% of the packet reflects at V0 = 0, so a 1% target has no
    # sign change to bracket; the calibration must still finish
    cfg = {"model": {"N": 40, "J": -1.0, "D": -4.5, "E0": 0.0, "V0": 0.0},
           "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                          "t_start": -30.0, "t_end": -25.0,
                          "calibrate_v0": True, "split_target": 0.01}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["wavepacket", "--config", path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "wavepacket_timeseries.csv").exists()


def test_wavepacket_regime_refusal(tmp_path):
    cfg = {"model": {"N": 40, "J": 1.0, "D": 4.0, "V0": 1.0},
           "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                          "t_start": -30.0, "t_end": 0.0}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["wavepacket", "--config", path, "--out", str(tmp_path)]) == 3


def test_json_format(tmp_path):
    import json
    cfg = write_cfg(tmp_path / "c.yaml", BASE)
    assert main(["biexciton-spectrum", "--config", cfg, "--out",
                 str(tmp_path), "--format", "json"]) == 0
    text = (tmp_path / "biexciton_spectrum.json").read_text()

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    data = json.loads(text, parse_constant=reject)
    assert len(data) == 40
    # scattering rows have no dominant K: written as null, not NaN
    assert any(row["dominant_K"] is None for row in data)
    assert all(row["dominant_K"] is not None for row in data
               if row["bound_flag"])


def test_src_raises_only_package_errors():
    """No bare RuntimeError/ValueError: main maps only BiximpError to exit codes."""
    import ast
    from pathlib import Path

    import biximp

    bad = []
    for path in sorted(Path(biximp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) in ("RuntimeError", "ValueError"):
                    bad.append(f"{path.name}:{node.lineno}")
    assert bad == []


SMALL_RUNS = {
    "biexciton-spectrum": {"model": {"N": 16, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 4.0}},
    "exciton": {"model": {"N": 16, "J": 1.0, "D": 5.0, "E0": 1000.0, "V0": 2.5},
                "exciton": {"sign_cases": True}},
    "poles": {"model": {"N": 8, "J": 1.0, "D": 4.0, "E0": 0.0, "V0": 1.0},
              "poles": {"K_doubleprime_max": 1.5, "n_scan": 20}},
    "phase-diagram": {"model": {"N": 8, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 4.0},
                      "phase_diagram": {"D_min": 2.1, "D_max": 6.0, "n_D": 3,
                                        "V0_min": -5.0, "V0_max": 5.0, "n_V0": 3}},
    "wavepacket": {"model": {"N": 12, "J": -1.0, "D": -4.5, "E0": 0.0, "V0": 0.0},
                   "wavepacket": {"K0": 1.1780972450961724, "dK0": 0.1308996938995747,
                                  "t_start": -30.0, "t_end": -20.0, "sample_dt": 1.0,
                                  "calibrate_v0": True, "snapshots": [-30.0]}},
    "bic": {"model": {"N": 8, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 8.0},
            "bic": {"flag_tolerance": 0.05}},
}


def test_commands_run_without_scipy(tmp_path):
    """A fresh process runs every command without importing scipy, whose
    import alone would cost more than most runs compute."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import biximp

    argvs = []
    for command, cfg in SMALL_RUNS.items():
        out = tmp_path / command
        out.mkdir()
        argvs.append([command, "--config", write_cfg(out / "c.yaml", cfg),
                      "--out", str(out)])
    script = ("import json, sys\n"
              "from biximp.cli import main\n"
              f"codes = [main(argv) for argv in {argvs!r}]\n"
              "print(json.dumps([codes, sorted(m for m in sys.modules\n"
              "    if m == 'scipy' or m.startswith('scipy.'))]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(biximp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    codes, scipy_modules = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(SMALL_RUNS)
    assert scipy_modules == []


# any float, NaN and +-inf included, or one of the model's own scale
FUZZ_VALUES = st.floats() | st.floats(-10.0, 10.0)


@contextlib.contextmanager
def fuzzed_run(command, cfg):
    """Run one fuzzed config; it must end in a known exit code, never a
    traceback, and a failure prints one line.  Yields the output
    directory for the caller's checks of the files written."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([command, "--config", write_cfg(Path(tmp) / "c.yaml", cfg),
                         "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
        yield out


def read_csv(path, header):
    """Rows of a CSV that has the given header and a value in every column."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == header
    assert all(None not in row and None not in row.values() for row in rows)
    return rows


@settings(max_examples=100, deadline=None)
# J^2 and (D - V0)^2 overflow in the closed form; D V0 = J^2 = 0 after
# underflow; eigh does not converge; sqrt2 J overflows in the even block
@example(N=4, J=1e200, D=4.1, V0=8.0, E0=0.0, tol=0.05, dump=True)
@example(N=4, J=1.0, D=1e200, V0=-1e200, E0=0.0, tol=0.05, dump=True)
@example(N=6, J=1e-300, D=0.0, V0=2.0, E0=0.0, tol=0.05, dump=True)
@example(N=8, J=-0.213, D=-0.825, V0=2.1155826100356427e292, E0=1e-300,
         tol=0.05, dump=False)
@example(N=4, J=1e308, D=4.1, V0=8.0, E0=0.0, tol=0.05, dump=True)
@given(N=st.sampled_from((4, 6, 8, 10, 12)), J=FUZZ_VALUES, D=FUZZ_VALUES,
       V0=FUZZ_VALUES, E0=FUZZ_VALUES,
       tol=st.floats() | st.sampled_from((0.0, 0.05)),
       dump=st.booleans())
def test_bic_config_fuzz(N, J, D, V0, E0, tol, dump):
    """Any bic config ends in a known exit code, never a traceback; a
    failure prints one line, and every file written is valid."""
    cfg = {"model": {"N": N, "J": J, "D": D, "E0": E0, "V0": V0},
           "bic": {"flag_tolerance": tol, "dump_amplitudes": dump}}
    with fuzzed_run("bic", cfg) as out:
        table = out / "bic_classification.csv"
        if table.exists():
            rows = read_csv(table, ["index", "energy", "type", "in_continuum",
                                    "schmidt_number", "decay_r", "decay_s",
                                    "mismatch_flag"])
            for row in rows:
                assert int(row["index"]) >= 0 and math.isfinite(float(row["energy"]))
        grid = out / "bic_amplitude.f64"
        if grid.exists():
            assert np.fromfile(grid).size == 2 * N * (N // 2 + 1)


@settings(max_examples=100, deadline=None)
# J^2 overflows in the reflection amplitude; a run that finds both poles
@example(N=40, J=1e200, D=4.0, V0=0.25, E0=0.0, kpp_max=1.5, n_scan=20)
@example(N=8, J=1.0, D=4.0, V0=1.0, E0=0.0, kpp_max=1.5, n_scan=20)
@given(N=st.sampled_from((4, 6, 8, 10, 12)), J=FUZZ_VALUES, D=FUZZ_VALUES,
       V0=FUZZ_VALUES, E0=FUZZ_VALUES,
       kpp_max=st.floats() | st.floats(0.01, 3.0), n_scan=st.integers(-2, 50))
def test_poles_config_fuzz(N, J, D, V0, E0, kpp_max, n_scan):
    """Any poles config ends in a known exit code, never a traceback; a
    failure prints one line, and every CSV written parses."""
    cfg = {"model": {"N": N, "J": J, "D": D, "E0": E0, "V0": V0},
           "poles": {"K_doubleprime_max": kpp_max, "n_scan": n_scan}}
    with fuzzed_run("poles", cfg) as out:
        for name, header, n_rows in (
                ("pole_scan.csv", ["K_prime", "K_doubleprime", "V0", "abs_R_b"],
                 2 * n_scan),
                ("pole_summary.csv", ["branch", "K_doubleprime_pole", "E_pole",
                                      "E_numeric", "rel_err"], 2)):
            if (out / name).exists():
                rows = read_csv(out / name, header)
                values = np.array([list(row.values()) for row in rows], dtype=float)
                assert values.shape == (n_rows, len(header))


@settings(max_examples=100, deadline=None)
@given(N=st.sampled_from((4, 6, 8, 10, 12, 40)), J=FUZZ_VALUES, D=FUZZ_VALUES,
       V0=FUZZ_VALUES, E0=FUZZ_VALUES, sign_cases=st.booleans())
def test_exciton_config_fuzz(N, J, D, V0, E0, sign_cases):
    """Any exciton config ends in a known exit code, never a traceback; a
    failure prints one line, and every CSV written parses."""
    cfg = {"model": {"N": N, "J": J, "D": D, "E0": E0, "V0": V0},
           "exciton": {"sign_cases": sign_cases}}
    with fuzzed_run("exciton", cfg) as out:
        for table in out.glob("exciton*.csv"):
            if table.name.endswith("_bound_profile.csv"):
                rows = read_csv(table, ["site", "amplitude"])
                assert np.array([list(row.values()) for row in rows],
                                dtype=float).shape == (N, 2)
            else:
                rows = read_csv(table, ["branch", "k_real", "k_imag", "energy",
                                        "bound_flag"])
                np.array([[row["k_real"], row["k_imag"], row["energy"]]
                          for row in rows], dtype=float)
                assert {row["bound_flag"] for row in rows} <= {"true", "false"}


@settings(max_examples=100, deadline=None)
# 4 V0 / N overflows: M holds NaN, which must fail the Hermiticity check
@example(N=4, J=1.0, D_over_J=4.1, V0=1e308, E0=0.0)
@given(N=st.sampled_from((4, 6, 8, 10, 12, 40)), J=FUZZ_VALUES,
       D_over_J=st.floats() | st.floats(2.0, 8.0), V0=FUZZ_VALUES, E0=FUZZ_VALUES)
def test_biexciton_spectrum_config_fuzz(N, J, D_over_J, V0, E0):
    """Any biexciton-spectrum config ends in a known exit code, never a
    traceback; a failure prints one line, and every file written is valid.
    D is drawn relative to J, so that many configs are in the regime."""
    cfg = {"model": {"N": N, "J": J, "D": J * D_over_J, "E0": E0, "V0": V0}}
    with fuzzed_run("biexciton-spectrum", cfg) as out:
        table = out / "biexciton_spectrum.csv"
        if table.exists():
            rows = read_csv(table, ["mu", "energy", "dominant_K", "class",
                                    "decay_rate", "bound_flag"])
            assert [int(row["mu"]) for row in rows] == list(range(N))
            bound = 0
            for row in rows:
                assert math.isfinite(float(row["energy"]))
                assert row["bound_flag"] in ("true", "false")
                is_bound = row["bound_flag"] == "true"
                bound += is_bound
                assert row["class"] in (("near_zero", "near_half_pi") if is_bound
                                        else ("scattering",))
                assert math.isfinite(float(row["dominant_K"])) == is_bound
            profiles = list(out.glob("bound_*_profile.f64"))
            assert len(profiles) == bound
            for grid in profiles:
                assert np.fromfile(grid).size == 2 * N


@pytest.mark.parametrize("command, section, want", [
    ("biexciton-spectrum", {}, 1),
    ("phase-diagram", {"phase_diagram": {"D_min": 4.1, "D_max": 4.1, "n_D": 1,
                                         "V0_min": 1e308, "V0_max": 1e308,
                                         "n_V0": 1}}, 0)])
def test_overflowing_v0_exit_code(tmp_path, capsys, command, section, want):
    """V0 = 1e308 overflows 4 V0 / N, which leaves NaN in M: the
    Hermiticity check refuses it, so biexciton-spectrum exits 1 with one
    line and the phase-diagram cell keeps -1 without a word."""
    cfg = dict({"model": {"N": 4, "J": 1.0, "D": 4.1, "V0": 1e308}}, **section)
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == want
    err = capsys.readouterr().err
    if want:
        assert err == "numerical failure: projected Hamiltonian not Hermitian: nan\n"
    else:
        assert err == ""
        rows = read_csv(tmp_path / "phase_diagram.csv", ["D", "V0", "count"])
        assert [row["count"] for row in rows] == ["-1"]


@settings(max_examples=100, deadline=None)
# every cell's V0 overflows 4 V0 / N: the cell keeps -1
@example(N=4, J=1.0, d_range=(4.1, 4.1), v0_range=(1e308, 1e308), n_D=1, n_V0=1)
@given(N=st.sampled_from((4, 6, 8, 10, 12)), J=FUZZ_VALUES,
       d_range=st.tuples(FUZZ_VALUES, FUZZ_VALUES),
       v0_range=st.tuples(FUZZ_VALUES, FUZZ_VALUES),
       n_D=st.integers(-1, 4), n_V0=st.integers(-1, 4))
def test_phase_diagram_config_fuzz(N, J, d_range, v0_range, n_D, n_V0):
    """Any phase-diagram config ends in a known exit code, never a
    traceback; a failure prints one line, and the CSV written has one
    row per cell with a count of at least -1."""
    cfg = {"model": {"N": N, "J": J, "D": 4.1, "E0": 0.0, "V0": 0.0},
           "phase_diagram": {"D_min": d_range[0], "D_max": d_range[1], "n_D": n_D,
                             "V0_min": v0_range[0], "V0_max": v0_range[1],
                             "n_V0": n_V0}}
    with fuzzed_run("phase-diagram", cfg) as out:
        table = out / "phase_diagram.csv"
        if table.exists():
            rows = read_csv(table, ["D", "V0", "count"])
            assert len(rows) == n_D * n_V0
            for row in rows:
                assert math.isfinite(float(row["D"]))
                assert math.isfinite(float(row["V0"]))
                assert int(row["count"]) >= -1
