"""Command-line surface: configs in, deterministic CSV out, exit codes."""

import contextlib
import csv
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biximp import ModelParams, cli, pairbasis, projected
from biximp.cli import KEYS, MAX_COUNT, main


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


def test_malformed_model_value_exit_code(tmp_path, capsys):
    # a model section that is not a mapping is malformed too
    for model in ({"N": "abc", "J": 1.0, "D": 4.1}, 5, [1, 2], None, "abc"):
        cfg = write_cfg(tmp_path / "c.yaml", {"model": model})
        assert main(["exciton", "--config", cfg, "--out", str(tmp_path)]) == 2, model
        err = capsys.readouterr().err
        assert err.startswith("config error: model section") and err.count("\n") == 1


def test_malformed_phase_diagram_value_exit_code(tmp_path):
    cfg = dict(BASE)
    cfg["phase_diagram"] = {"D_min": 4.1, "D_max": 6.0, "n_D": "x",
                            "V0_min": -4.0, "V0_max": 4.0, "n_V0": 3}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["phase-diagram", "--config", path, "--out", str(tmp_path)]) == 2


def test_malformed_wavepacket_value_exit_code(tmp_path, capsys):
    # calibrate_v0 takes YAML booleans only: the string "false" is truthy;
    # snapshots is a list of distinct times: a string was read as one time
    # per character, and a repeated time wrote its files twice;
    # split_target is a reflected probability, in [0, 1]
    for key, value in (("K0", "fast"), ("K0", "abc"), ("calibrate_v0", "false"),
                       ("calibrate_v0", "no"), ("calibrate_v0", 1),
                       ("calibrate_v0", None), ("snapshots", "35"),
                       ("snapshots", [-28.0, -28]), ("snapshots", [-28.0, "-2.8e1"]),
                       ("split_target", -0.5), ("split_target", 1.5)):
        _config_error(tmp_path, capsys, "wavepacket", "wavepacket", key, value)


def test_malformed_exciton_value_exit_code(tmp_path, capsys):
    for value in ("no", "false", 0, None):
        _config_error(tmp_path, capsys, "exciton", "exciton", "sign_cases", value)


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
    assert not out.exists()
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


@pytest.mark.parametrize("command, name, key, text, value", [
    # PyYAML reads an unquoted 1e-3 (no dot in the mantissa) as a string
    ("bic", "bic", "flag_tolerance", "1e-3", 0.001),
    ("wavepacket", "wavepacket", "K0", '"1.0"', 1.0)])
def test_numeric_string_is_a_number(tmp_path, command, name, key, text, value):
    """A config number written as a numeric string runs as that number:
    every output is byte-identical to the run with the YAML float."""
    cfg = {sec: dict(vals) for sec, vals in SMALL_RUNS[command].items()}
    cfg[name][key] = "@"        # replaced by the spelling in the file text
    outputs = []
    for spelled, read_as in ((text, str), (repr(value), float)):
        run = tmp_path / read_as.__name__
        run.mkdir()
        path = run / "c.yaml"
        path.write_text(yaml.safe_dump(cfg).replace("'@'", spelled))
        assert isinstance(yaml.safe_load(path.read_text())[name][key], read_as)
        out = run / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1] != {}


MISSPELLED_KEYS = (
    ("biexciton-spectrum", "model", "v0", 4.0),
    ("exciton", "exciton", "sign_case", True),
    ("biexciton-spectrum", "biexciton_spectrum", "N", 16),
    ("phase-diagram", "phase_diagram", "n_d", 3),
    ("poles", "poles", "nscan", 20),
    ("bic", "bic", "flag_tol", 0.1),
    ("wavepacket", "wavepacket", "KO", 1.0))


@pytest.mark.parametrize("command, name, key, value", MISSPELLED_KEYS)
def test_unknown_key_exit_code(tmp_path, capsys, command, name, key, value):
    """A key the section does not read is a config error: `v0` for `V0`
    would otherwise run the impurity-free model and exit 0."""
    err = _config_error(tmp_path, capsys, command, name, key, value)
    assert f"unknown key(s) ['{key}']" in err


@pytest.mark.parametrize("command, name, key", [
    ("poles", "poles", "n_scan"), ("phase-diagram", "phase_diagram", "n_D"),
    ("phase-diagram", "phase_diagram", "n_V0")])
def test_grid_count_above_cap_exit_code(tmp_path, capsys, command, name, key):
    """A grid count above MAX_COUNT is refused before any grid is allocated."""
    assert str(MAX_COUNT) in _config_error(tmp_path, capsys, command, name, key,
                                           MAX_COUNT + 1)


@pytest.mark.parametrize("command, name, key, value", [
    ("exciton", "model", "N", 40.7), ("phase-diagram", "phase_diagram", "n_D", 2.5),
    ("phase-diagram", "phase_diagram", "n_V0", 0)])
def test_integer_key_exit_code(tmp_path, capsys, command, name, key, value):
    """An integer key takes only an integer, never a truncated float, and
    a phase-diagram axis needs at least one point: N 40.7 and n_D 2.5 ran
    as 40 and 2, and n_V0 0 wrote a header-only table, all with exit 0."""
    _config_error(tmp_path, capsys, command, name, key, value)


@pytest.mark.parametrize("command, name, key, value", [
    ("poles", "poles", "n_scan", 1), ("poles", "poles", "K_doubleprime_max", 1.0e-3),
    ("wavepacket", "wavepacket", "split_target", math.nextafter(1.0, 2.0))])
def test_config_bound_refused(tmp_path, capsys, command, name, key, value):
    """Just outside its bound a value is refused: n_scan needs 2 points,
    K_doubleprime_max must exceed 1e-3, and split_target is at most 1."""
    assert key in _config_error(tmp_path, capsys, command, name, key, value)


@pytest.mark.parametrize("command, name, key, value", [
    ("poles", "poles", "n_scan", 2), ("poles", "poles", "K_doubleprime_max", 1.001e-3),
    ("wavepacket", "wavepacket", "split_target", 1.0)])
def test_config_bound_accepted(tmp_path, command, name, key, value):
    """On or just inside its bound a value runs (exit 0): a calibrated
    split_target of 1 may warn that it is out of reach, but it runs."""
    cfg = {sec: dict(vals) for sec, vals in SMALL_RUNS[command].items()}
    cfg[name][key] = value
    path = write_cfg(tmp_path / "c.yaml", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_snapshot_names_from_parsed_time(tmp_path):
    """A snapshot file is named by the parsed time, so -28 and -28.0
    give the same name."""
    cfg = {sec: dict(vals) for sec, vals in PACKET.items()}
    cfg["wavepacket"]["snapshots"] = [-28, -26.5]
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main(["wavepacket", "--config", path, "--out", str(out)]) == 0
    assert sorted(f.name for f in out.glob("snapshot_modes_*")) == [
        "snapshot_modes_t-26.5.f64", "snapshot_modes_t-28.0.f64"]


def test_out_of_memory_exit_code(monkeypatch, tmp_path, capsys):
    """A command that runs out of memory exits 2 with one line, not a
    traceback (bic at N = 4000 asks numpy for 116 TiB)."""
    def bic(params, sec, out):
        raise MemoryError("Unable to allocate 116. TiB for an array")

    monkeypatch.setitem(cli.COMMANDS, "bic", bic)
    path = write_cfg(tmp_path / "c.yaml", BASE)
    assert main(["bic", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory: Unable to allocate") and err.count("\n") == 1


def test_plots_with_json_exit_code(tmp_path, capsys):
    """--plots scripts read CSV, so with --format json they are refused
    before anything is written."""
    cfg = write_cfg(tmp_path / "c.yaml", dict(BASE, phase_diagram=PHASE))
    out = tmp_path / "out"
    assert main(["phase-diagram", "--config", cfg, "--out", str(out), "--plots",
                 "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --plots") and err.count("\n") == 1
    assert not out.exists()


def test_readme_config_keys():
    """Every section of README's example configuration holds only keys
    that cli.KEYS lists for it, and reads through cli.section: a
    documented value of the wrong type or out of bounds fails here, so
    the documentation cannot drift."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```yaml\n")
    assert len(blocks) == 2
    cfg = yaml.safe_load(blocks[1].split("```")[0])
    assert set(cfg) == set(KEYS) - {"biexciton_spectrum"}
    for name, sec in cfg.items():
        assert set(sec) <= set(KEYS[name]), name
        cli.section(cfg, name)


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


def test_exciton_sign_cases_at_v0_zero(tmp_path):
    """The four sign cases keep four names when V0 = 0 has no sign."""
    cfg = write_cfg(tmp_path / "c.yaml", {
        "model": {"N": 16, "J": 1.0, "D": 5.0, "V0": 0.0},
        "exciton": {"sign_cases": True}})
    assert main(["exciton", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "exciton_J+V+.csv", "exciton_J+V-.csv", "exciton_J-V+.csv",
        "exciton_J-V-.csv"]


def test_exciton_out_directory_named_csv(tmp_path):
    """An output directory whose name contains ".csv" is not renamed."""
    cfg = write_cfg(tmp_path / "c.yaml", dict(BASE, exciton={"sign_cases": True}))
    out = tmp_path / "res.csv.d"
    assert main(["exciton", "--config", cfg, "--out", str(out), "--plots"]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"exciton_J+V+.csv", "exciton_J+V+_bound_profile.csv",
            "exciton_J+V+.gp"} <= names and len(names) == 12
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["res.csv.d"]


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


def test_poles_numeric_energy_scales_with_j(tmp_path):
    """The band gate of the numeric pole partner scales with |J|: the
    model at J = 1 (D = 4, V0 = 1e-4) and the same model times 1e-4,
    where the states split off the band by about 5e-10, give the same
    E_numeric / lambda and rel_err on both branches."""
    summaries = []
    for lam in (1.0, 1e-4):
        cfg = {"model": {"N": 40, "J": lam, "D": 4 * lam, "E0": 0.0,
                         "V0": 1e-4 * lam},
               "poles": {"n_scan": 5}}
        out = tmp_path / f"lam{lam:g}"
        assert main(["poles", "--config", write_cfg(tmp_path / f"{lam:g}.yaml", cfg),
                     "--out", str(out)]) == 0
        with open(out / "pole_summary.csv") as fh:
            summaries.append([[float(r["E_numeric"]) / lam, float(r["rel_err"])]
                              for r in csv.DictReader(fh)])
    ref, scaled = np.array(summaries)
    assert np.isfinite(ref).all()
    np.testing.assert_allclose(scaled, ref, rtol=1e-6, atol=0.0)


def test_poles_builds_one_basis(monkeypatch, tmp_path):
    """Both V0 signs share one ModeBasis and one impurity overlap:
    neither depends on V0."""
    from biximp import projected
    from biximp.biexciton import ModeBasis
    init, overlap = ModeBasis.__init__, projected.impurity_overlap
    calls = {"ModeBasis": 0, "impurity_overlap": 0}

    def counted_init(self, *args, **kwargs):
        calls["ModeBasis"] += 1
        init(self, *args, **kwargs)

    def counted_overlap(*args):
        calls["impurity_overlap"] += 1
        return overlap(*args)

    monkeypatch.setattr(ModeBasis, "__init__", counted_init)
    monkeypatch.setattr(projected, "impurity_overlap", counted_overlap)
    cfg = {"model": {"N": 40, "J": 1.0, "D": 4.0, "V0": 0.25},
           "poles": {"K_doubleprime_max": 1.0, "n_scan": 40}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["poles", "--config", path, "--out", str(tmp_path)]) == 0
    assert calls == {"ModeBasis": 1, "impurity_overlap": 1}


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


def test_bic_solves_once(tmp_path, monkeypatch):
    """Classification and amplitude dump share one pair spectrum."""
    solve = pairbasis.diagonalize_full
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pairbasis, "diagonalize_full", counted)
    cfg = {"model": {"N": 12, "J": 1.0, "D": 4.1, "V0": 8.0},
           "bic": {"dump_amplitudes": True}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["bic", "--config", path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bic_amplitude.f64").exists()
    assert len(calls) == 1


def test_bic_classifies_each_row_once(monkeypatch, tmp_path):
    """The dumped state is one of the rows: a run makes one batched
    classify_states call, holding as many states as
    bic_classification.csv has rows, and classifies nothing for the
    dump.  Its classifications, from the scattered candidate columns
    alone, equal bit for bit those of the same columns of the full
    eigenvector matrix."""
    calls, results = [], []
    classify_states = pairbasis.classify_states

    def counted(classify):
        def call(energies, states, *args, **kwargs):
            calls.append((classify.__name__, np.atleast_2d(states.T).shape[0]))
            results.append(classify(energies, states, *args, **kwargs))
            return results[-1]
        return call

    monkeypatch.setattr(pairbasis, "classify_states", counted(pairbasis.classify_states))
    monkeypatch.setattr(pairbasis, "classify_state", counted(pairbasis.classify_state))
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    cfg = {"model": {"N": p.N, "J": p.J, "D": p.D, "V0": p.V0},
           "bic": {"dump_amplitudes": True}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["bic", "--config", path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bic_amplitude.f64").exists()
    with open(tmp_path / "bic_classification.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and calls == [("classify_states", len(rows))]
    basis, spec = pairbasis.diagonalize_full(p)
    idx = [int(r["index"]) for r in rows]
    assert results == [classify_states(spec.energies[idx], spec.states[:, idx], p, basis)]


def test_bic_scatters_each_candidate_once(monkeypatch, tmp_path):
    """A bic run scatters each candidate eigenvector onto the pair basis
    once: the classification and the BIC search read one candidate
    matrix, so the sector scatters (projected._scatter) write as many
    columns as bic_classification.csv has rows, the dumped state among
    them."""
    scattered = []
    scatter = projected._scatter

    def counted(u, cols, *args):
        scattered.append(len(cols))
        return scatter(u, cols, *args)

    monkeypatch.setattr(projected, "_scatter", counted)
    cfg = {"model": {"N": 40, "J": 1.0, "D": 4.1, "V0": 8.0},
           "bic": {"dump_amplitudes": True}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["bic", "--config", path, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "bic_amplitude.f64").exists()
    with open(tmp_path / "bic_classification.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and sum(scattered) == len(rows)


def test_bic_holds_one_spectrum(tmp_path):
    """A bic run at N = 40 peaks below one dense L x L matrix of 8 L^2
    bytes (L = N(N-1)/2): the spectrum stays in its two sector blocks
    and only the candidate eigenvectors are scattered onto the pair
    basis.  It peaks at 0.82 x; scattering every eigenvector into one
    L x L matrix peaks at 1.83 x."""
    N = 40
    L = N * (N - 1) // 2
    cfg = {"model": {"N": N, "J": 1.0, "D": 4.1, "V0": 8.0},
           "bic": {"dump_amplitudes": True}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    tracemalloc.start()
    try:
        code = main(["bic", "--config", path, "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * L * L, peak / (8 * L * L)


def test_classifying_every_state_holds_one_spectrum():
    """Classifying all L states of the N = 40 pair spectrum in one
    classify_states call stays under 2.5 eigenvector matrices of 8 L^2
    bytes: the batch is chunked, so its arrays stay small beside the
    spectrum and all its columns."""
    p = ModelParams(N=40, J=1.0, D=4.1, V0=8.0)
    L = 40 * 39 // 2
    tracemalloc.start()
    try:
        basis, spec = pairbasis.diagonalize_full(p)
        classes = pairbasis.classify_states(spec.energies, spec.states, p, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(classes) == L
    assert peak <= 2.5 * 8 * L * L, peak / (8 * L * L)


def test_bic_dump_off_and_zero_tolerance(tmp_path):
    cfg = {"model": {"N": 12, "J": 1.0, "D": 4.1, "V0": 8.0},
           "bic": {"flag_tolerance": 0.0, "dump_amplitudes": False}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["bic", "--config", path, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "bic_classification.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["mismatch_flag"] == "true" for r in rows)
    assert not (tmp_path / "bic_amplitude.f64").exists()


def test_bic_failure_writes_nothing(tmp_path, capsys):
    """At N = 4 no pair eigenvalue lies within BIC_WINDOW of E_b1, so the
    BIC search fails: the run exits 1 with one line and makes no --out,
    where it used to leave bic_classification.csv behind."""
    cfg = {"model": {"N": 4, "J": 1.0, "D": 4.1, "V0": 8.0}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main(["bic", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: no eigenvalue within") and err.count("\n") == 1
    assert not out.exists()


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


def test_wavepacket_builds_one_packet(tmp_path):
    """The calibration and the run share one initial packet, so a packet
    clipped by the zone boundary warns once."""
    cfg = {"model": {"N": 40, "J": -1.0, "D": -4.5, "E0": 0.0, "V0": 0.0},
           "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                          "t_start": -30.0, "t_end": -25.0,
                          "calibrate_v0": True}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["wavepacket", "--config", path, "--out", str(tmp_path)]) == 0
    clipped = [w for w in caught if "packet clipped" in str(w.message)]
    assert len(clipped) == 1


def test_wavepacket_calibration_ignores_model_v0(tmp_path):
    """A calibrated run replaces the model's V0, so only D is checked
    before it: the README packet with model V0 = 100 (far above 5 |D|)
    runs and writes the bytes of the same run with V0 = 0."""
    packet = {"K0": 3 * np.pi / 8, "dK0": np.pi / 24, "t_start": -30.0,
              "t_end": 60.0, "sample_dt": 1.0, "calibrate_v0": True,
              "snapshots": [-30.0, 35.0, 54.0]}
    written = []
    for v0 in (0.0, 100.0):
        cfg = {"model": {"N": 40, "J": -1.0, "D": -4.5, "E0": 0.0, "V0": v0},
               "wavepacket": packet}
        out = tmp_path / f"V{v0:g}"
        path = write_cfg(tmp_path / f"V{v0:g}.yaml", cfg)
        assert main(["wavepacket", "--config", path, "--out", str(out)]) == 0
        written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert len(written[0]) == 13
    assert written[0] == written[1]


def test_wavepacket_regime_refusal(tmp_path):
    cfg = {"model": {"N": 40, "J": 1.0, "D": 4.0, "V0": 1.0},
           "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                          "t_start": -30.0, "t_end": 0.0}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["wavepacket", "--config", path, "--out", str(tmp_path)]) == 3


def test_wavepacket_band_refusal_makes_no_directory(tmp_path, capsys):
    """At |D| <= 4|J| the pair band meets the two-exciton continuum: the
    run is refused with exit 3 and one line before its first write, so
    --out is never made."""
    cfg = {"model": {"N": 40, "J": -1.0, "D": -4.0, "V0": 1.0},
           "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                          "t_start": -30.0, "t_end": -25.0}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main(["wavepacket", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("regime violation: wavepacket run needs |D| > 4|J|")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("J, D, V0, code", [
    (-1.0, -4.5, -2.0, 3),   # capture band [-4.828, -0.828]: it meets [-4.944, -4.5]
    (-1.0, -4.5, -1.0, 0),   # capture band [-4.236, -0.236]: clear of the packet
    (1.0, 4.5, 2.0, 3)])     # the mirror of the first
def test_wavepacket_capture_refusal(tmp_path, capsys, J, D, V0, code):
    """A fixed V0 of D's sign binds one exciton to the impurity; with the
    other free, that capture band (2E0 + sgn(V0) hypot(V0, 2J) +- 2|J|)
    can meet the packet's pair band, here [-4.944, -4.5] over
    K0 +- 3 dK0.  The projected run cannot see that channel, so such a
    run is refused with exit 3 and one line, and makes no --out."""
    cfg = {"model": {"N": 40, "J": J, "D": D, "E0": 0.0, "V0": V0},
           "wavepacket": {"K0": 3 * np.pi / 8, "dK0": np.pi / 24,
                          "t_start": -30.0, "t_end": -25.0}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    assert main(["wavepacket", "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("regime violation: ") and "capture band" in err
        assert err.count("\n") == 1
        assert not out.exists()
    else:
        assert (out / "wavepacket_timeseries.csv").exists()


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


def test_spectra_build_no_projected_matrix(tmp_path, monkeypatch):
    """biexciton-spectrum and poles solve from (basis, G, V0): with
    potential_matrix refused they exit 0 and write the same files, while
    wavepacket, which propagates, still builds M through it."""
    from biximp import projected

    def run(command, tag):
        out = tmp_path / command / tag
        path = write_cfg(tmp_path / f"{command}.yaml", SMALL_RUNS[command])
        assert main([command, "--config", path, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    spectra = ("biexciton-spectrum", "poles")
    want = {command: run(command, "free") for command in spectra}
    calls, potential_matrix = [], projected.potential_matrix

    def refused(*args):
        calls.append(args)
        raise AssertionError("the projected matrix M was built")

    monkeypatch.setattr(projected, "potential_matrix", refused)
    for command in spectra:
        assert run(command, "refused") == want[command]
    assert not calls
    monkeypatch.setattr(projected, "potential_matrix",
                        lambda *args: calls.append(args) or potential_matrix(*args))
    run("wavepacket", "counted")
    assert calls


def test_calibrated_run_solves_one_complex_eigh(tmp_path, monkeypatch):
    """A calibrated wavepacket run solves the complex eigh of M once, for
    the recorded run, and builds M once: its calibration trials solve
    the real sector blocks."""
    from biximp import projected

    eighs, matrices = [], []
    checked_eigh, potential_matrix = projected.checked_eigh, projected.potential_matrix
    monkeypatch.setattr(projected, "checked_eigh", lambda M, *args: eighs.append(
        np.iscomplexobj(M)) or checked_eigh(M, *args))
    monkeypatch.setattr(projected, "potential_matrix", lambda *args: matrices.append(
        args) or potential_matrix(*args))
    path = write_cfg(tmp_path / "wavepacket.yaml", SMALL_RUNS["wavepacket"])
    assert main(["wavepacket", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert eighs.count(True) == 1 and eighs.count(False) > 1
    assert len(matrices) == 1


def test_commands_run_without_scipy(tmp_path):
    """A fresh process runs every command without importing scipy, whose
    import alone would cost more than most runs compute, or numpy.ma,
    which np.unique imports on its first call (about 1.7 MiB)."""
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
              "    if any(m == p or m.startswith(p + '.')\n"
              "           for p in ('scipy', 'numpy.ma')))]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(biximp.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    codes, modules = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(SMALL_RUNS)
    assert modules == []


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
# V0 / 2J near the float maximum: sinh overflows in the bound-root bracket
@example(N=4, J=1.1125369292536007e-308, D=0.0, V0=2.0, E0=0.0, sign_cases=False)
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
# 4 V0 / N overflows: the M it would make is not finite, which the gate refuses
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


# the one stderr line of each command whose model V0 = 1e308 overflows
OVERFLOW_ERRORS = {
    "biexciton-spectrum": "numerical failure: projected Hamiltonian at V0 = 1e+308: "
                          "not finite\n",
    "poles": "numerical failure: 2 D V0 overflows for D = 4.1, V0 = 1e+308\n",
    "wavepacket": "regime violation: wavepacket run needs |V0| not large "
                  "compared to |D|\n",
}


@pytest.mark.parametrize("command, section, want", [
    ("biexciton-spectrum", {}, 1),
    ("phase-diagram", {"phase_diagram": {"D_min": 4.1, "D_max": 4.1, "n_D": 1,
                                         "V0_min": 1e308, "V0_max": 1e308,
                                         "n_V0": 1}}, 0),
    ("exciton", {}, 0),
    ("poles", {}, 1),
    ("bic", {}, 0),
    ("wavepacket", {"wavepacket": {"K0": 3 * math.pi / 8, "dK0": math.pi / 24,
                                   "t_start": -30.0, "t_end": 60.0}}, 3)])
def test_overflowing_v0_exit_code(tmp_path, capsys, command, section, want):
    """V0 = 1e308 overflows 4 V0 / N and 2 D V0.  The M it would make is
    not finite, which the gate refuses, so biexciton-spectrum exits 1 and
    the phase-diagram cell keeps -1 without a word; poles refuses 2 D V0
    (exit 1) and an uncalibrated wavepacket |V0| > 5 |D| (exit 3), each
    with one line and no warning; exciton and bic run."""
    cfg = dict({"model": {"N": 8, "J": 1.0, "D": 4.1, "V0": 1e308}}, **section)
    path = write_cfg(tmp_path / "c.yaml", cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == want
    assert capsys.readouterr().err == OVERFLOW_ERRORS.get(command, "")
    assert not caught
    if command == "phase-diagram":
        rows = read_csv(tmp_path / "phase_diagram.csv", ["D", "V0", "count"])
        assert [row["count"] for row in rows] == ["-1"]


@pytest.mark.parametrize("sample_dt", (1.0e-300, 1e-6))
def test_oversized_time_grid_exit_code(tmp_path, capsys, sample_dt):
    """A time grid of more than MAX_SAMPLES samples is refused before
    any array is made: exit 3 with one line, and no output file."""
    cfg = {"model": {"N": 8, "J": -1.0, "D": -4.5, "V0": 0.5},
           "wavepacket": {"K0": 3 * math.pi / 8, "dK0": math.pi / 24, "t_start": 0.0,
                          "t_end": 90.0, "sample_dt": sample_dt}}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    assert main(["wavepacket", "--config", path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("regime violation: time grid of ") and err.count("\n") == 1
    assert "MAX_SAMPLES = 10000" in err
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("N, packet", [
    (12, {"t_start": 0.0, "t_end": 1e308, "sample_dt": 1e305}),
    (40, {"t_start": -30.0, "t_end": -29.0, "snapshots": [1e308]})],
    ids=["time_grid", "snapshot"])
def test_overflowing_phase_exit_code(tmp_path, capsys, N, packet):
    """A time whose phase E (t - t0) overflows ends the run with exit 1
    and one line, with no numpy warning and no --out made: the time
    grid used to end in a LinAlgError traceback, the snapshot in four
    all-NaN grids and then in a time series left behind."""
    cfg = {"model": {"N": N, "J": -1.0, "D": -4.5, "V0": 0.5},
           "wavepacket": dict({"K0": 3 * math.pi / 8, "dK0": 0.13}, **packet)}
    path = write_cfg(tmp_path / "c.yaml", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["wavepacket", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("numerical failure: phase E (t - t0) "
                                       "overflows for |t - t0| up to 1e+308\n")
    assert not [w for w in caught if not issubclass(w.category, UserWarning)]
    assert not out.exists()


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


@settings(max_examples=100, deadline=None)
# the mirrored README packet: J > 0, so it arrives from r > 0
@example(N=12, J=1.0, D_over_J=4.5, V0=0.0, E0=0.0, K0=3 * math.pi / 8,
         dK0=math.pi / 24, r_offset=None, t_start=-2.0, duration=4.0,
         sample_dt=1.0, calibrate=True, target=0.5, snapshots=[0.0])
# a strong impurity inside the regime (|V0| <= 5 |D|)
@example(N=8, J=1.0, D_over_J=2.5e5, V0=1e6, E0=0.0, K0=3 * math.pi / 8,
         dK0=math.pi / 24, r_offset=None, t_start=-2.0, duration=2.0,
         sample_dt=1.0, calibrate=False, target=0.5, snapshots=[-1.0])
# a zero sample_dt; a Gaussian that underflows on every mode of the N = 8
# grid; a dK0 whose square overflows (the flat packet); an r_offset whose
# phase K r_offset overflows
@example(N=8, J=1.0, D_over_J=5.0, V0=0.0, E0=0.0, K0=1.0, dK0=0.1,
         r_offset=None, t_start=0.0, duration=1.0, sample_dt=0.0,
         calibrate=False, target=0.5, snapshots=[])
@example(N=8, J=1.0, D_over_J=5.0, V0=0.0, E0=0.0, K0=1.0, dK0=0.00390625,
         r_offset=None, t_start=0.0, duration=1.0, sample_dt=1.0,
         calibrate=False, target=0.5, snapshots=[])
@example(N=8, J=1.0, D_over_J=5.0, V0=0.0, E0=0.0, K0=0.0, dK0=1.3407807929942597e154,
         r_offset=None, t_start=0.0, duration=1.0, sample_dt=1.0,
         calibrate=False, target=0.5, snapshots=[0.5])
@example(N=8, J=1.0, D_over_J=5.0, V0=0.0, E0=0.0, K0=0.5, dK0=0.2,
         r_offset=1.7e308, t_start=0.0, duration=2.0, sample_dt=1.0,
         calibrate=False, target=0.5, snapshots=[])
# time grids of 4e300 and 4e6 samples, above MAX_SAMPLES
@example(N=8, J=1.0, D_over_J=5.0, V0=0.0, E0=0.0, K0=0.5, dK0=0.2,
         r_offset=None, t_start=0.0, duration=4.0, sample_dt=1.0e-300,
         calibrate=False, target=0.5, snapshots=[])
@example(N=8, J=1.0, D_over_J=5.0, V0=0.0, E0=0.0, K0=0.5, dK0=0.2,
         r_offset=None, t_start=0.0, duration=4.0, sample_dt=1e-6,
         calibrate=False, target=0.5, snapshots=[])
@given(N=st.sampled_from((8, 10, 12)), J=FUZZ_VALUES,
       D_over_J=st.floats() | st.floats(4.1, 6.0), V0=FUZZ_VALUES, E0=FUZZ_VALUES,
       K0=st.floats() | st.floats(-1.2, 1.2), dK0=st.floats() | st.floats(0.05, 0.4),
       r_offset=st.none() | FUZZ_VALUES,
       t_start=st.floats(-5.0, 5.0), duration=st.floats(0.0, 4.0),
       sample_dt=st.floats(0.5, 2.0),
       calibrate=st.booleans(), target=st.floats() | st.floats(0.0, 1.0),
       snapshots=st.lists(st.floats(-5.0, 10.0), max_size=2))
def test_wavepacket_config_fuzz(N, J, D_over_J, V0, E0, K0, dK0, r_offset,
                                t_start, duration, sample_dt, calibrate,
                                target, snapshots):
    """Any wavepacket config ends in a known exit code, never a traceback;
    a failure prints one line, and every file written is valid.  The time
    range stays short, so a run samples a few times at most; D is drawn
    relative to J, so that many configs are in the regime."""
    packet = {"K0": K0, "dK0": dK0, "t_start": t_start,
              "t_end": t_start + duration, "sample_dt": sample_dt,
              "calibrate_v0": calibrate, "split_target": target,
              "snapshots": snapshots}
    if r_offset is not None:
        packet["r_offset"] = r_offset
    cfg = {"model": {"N": N, "J": J, "D": J * D_over_J, "E0": E0, "V0": V0},
           "wavepacket": packet}
    with fuzzed_run("wavepacket", cfg) as out:
        table = out / "wavepacket_timeseries.csv"
        if table.exists():
            rows = read_csv(table, ["t", "entropy_bits", "norm", "energy",
                                    "reflected_prob"])
            values = np.array([list(row.values()) for row in rows], dtype=float)
            assert len(values) == len(np.arange(t_start, t_start + duration + 1e-9,
                                                sample_dt))
            if len(values):
                t, s, norm, _, refl = values.T
                assert np.isfinite(t).all()
                assert ((s > -1e-12) & (s < math.log2(2 * N) + 1e-12)).all()
                assert (np.abs(norm - 1.0) < 1e-10).all()
                assert (np.isnan(refl) | ((refl > -1e-12) & (refl < 1 + 1e-12))).all()
        for t in snapshots:
            for name, size in (("psi2", 2 * N * (2 * N - 1)), ("rho_diag", 2 * N),
                               ("contrast", 4 * N * N), ("modes", N)):
                grid = out / f"snapshot_{name}_t{t}.f64"
                if grid.exists():
                    assert np.fromfile(grid).size == size
