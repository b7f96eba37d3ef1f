"""Command-line surface: configs in, deterministic CSV out, exit codes."""

import csv

import numpy as np
import pytest
import yaml

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


@pytest.mark.parametrize("command, name, key, value", BOOLEAN_NUMBERS)
def test_boolean_number_exit_code(tmp_path, capsys, command, name, key, value):
    """A YAML boolean where a number belongs is a config error, not 1."""
    cfg = PACKET if command == "wavepacket" else dict(BASE, phase_diagram=PHASE)
    cfg = {sec: dict(vals) for sec, vals in cfg.items()}
    cfg.setdefault(name, {})[key] = value
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name} section") and "boolean" in err
    assert err.count("\n") == 1
    assert not any(out.iterdir())


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
