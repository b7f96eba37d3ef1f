"""Command-line interface: every computation as a configured, reproducible run.

Configuration is a single YAML file with a `model` section (N, J, D,
E0, V0) plus one section per command; see README for the schema.  All
computations are deterministic, so identical configurations give
byte-identical CSV output.  Exit codes: 0 ok, 1 numerical failure,
2 configuration/IO error, 3 regime violation.
"""

import argparse
import math
import operator
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from . import dynamics, pairbasis, projected, scattering
from .biexciton import ModeBasis
from .csvio import write_grid_binary, write_gnuplot_script, write_table
from .errors import BiximpError, ConfigError, NumericalError, RegimeError
from .exciton import solve_exciton_spectrum
from .params import ModelParams


def load_config(path):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigError("config must be a mapping with a 'model' section")
    return cfg


@contextmanager
def parsing(name):
    """Turn a bad or missing value of section `name` into ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} section: bad or missing {exc}") from exc


def number(value, kind=float):
    """`kind(value)` for a config number, with YAML booleans rejected first
    (float(True), int(True) and operator.index(True) all read them as 1)
    and NaN or +-inf rejected for a float read: no computation takes them.
    An int read of a non-finite float fails in `kind` itself."""
    if isinstance(value, bool):
        raise TypeError(f"number (got boolean {value})")
    x = kind(value)
    if kind is float and not math.isfinite(x):
        raise TypeError(f"number (got non-finite {x})")
    return x


def model_from_config(cfg, **overrides):
    m = dict(cfg["model"])
    m.update(overrides)
    with parsing("model"):
        return ModelParams(N=number(m["N"], int), J=number(m["J"]),
                           D=number(m["D"]), E0=number(m.get("E0", 0.0)),
                           V0=number(m.get("V0", 0.0)))


def section(cfg, name, default=None):
    val = cfg.get(name, default if default is not None else {})
    if not isinstance(val, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return val


# ---------------------------------------------------------------------------
# commands


def cmd_exciton(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    sec = section(cfg, "exciton")
    sign_cases = sec.get("sign_cases", False)
    combos = [(params.J, params.V0)]
    if sign_cases:
        combos = [(sj * abs(params.J), sv * abs(params.V0))
                  for sj in (1, -1) for sv in (1, -1)]
    for j, v in combos:
        p = params.replace(J=j, V0=v)
        spec = solve_exciton_spectrum(p)
        tag = f"J{'+' if j > 0 else '-'}V{'+' if v > 0 else '-'}"
        name = out / f"exciton_{tag}.csv" if sign_cases else out / "exciton.csv"
        write_table(name, ("branch", "k_real", "k_imag", "energy", "bound_flag"),
                    spec.rows(), fmt)
        if spec.bound is not None:
            prof = spec.bound.amplitude_profile
            write_table(Path(str(name).replace(".csv", "_bound_profile.csv")),
                        ("site", "amplitude"),
                        list(zip(p.sites, prof)), fmt)
        if plots:
            write_gnuplot_script(Path(str(name).replace(".csv", ".gp")),
                                 name.name, "2:4", "exciton spectrum")
    return 0


def cmd_biexciton_spectrum(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    params.validate_biexciton_regime()
    ph = projected.build_projected_hamiltonian(params)
    spec = projected.diagonalize_projected(ph)
    recs = projected.classify_bound_states(spec, ph.modes)
    rows = []
    bound_idx = {r.state_index: r for r in recs}
    for mu in range(len(spec)):
        r = bound_idx.get(mu)
        rows.append((mu, spec.energies[mu],
                     r.dominant_K if r else math.nan,
                     r.re_K_class if r else "scattering",
                     r.decay_rate if r else 0.0,
                     r is not None))
    write_table(out / "biexciton_spectrum.csv",
                ("mu", "energy", "dominant_K", "class", "decay_rate", "bound_flag"),
                rows, fmt)
    for r in recs:
        _, psi = projected.cm_amplitude(spec.states[:, r.state_index], ph.modes)
        write_grid_binary(out / f"bound_{r.label}_profile.f64",
                          np.abs(psi) ** 2)
    if plots:
        write_gnuplot_script(out / "biexciton_spectrum.gp",
                             "biexciton_spectrum.csv", "1:2",
                             "projected spectrum")
    return 0


def cmd_phase_diagram(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    sec = section(cfg, "phase_diagram")
    with parsing("phase_diagram"):
        d_vals = np.linspace(number(sec["D_min"]), number(sec["D_max"]),
                             number(sec["n_D"], int))
        v_vals = np.linspace(number(sec["V0_min"]), number(sec["V0_max"]),
                             number(sec["n_V0"], int))
    counts = projected.phase_diagram(d_vals, v_vals, params)
    rows = [(d_vals[i], v_vals[j], counts[i, j])
            for i in range(len(d_vals)) for j in range(len(v_vals))]
    write_table(out / "phase_diagram.csv", ("D", "V0", "count"), rows, fmt)
    if plots:
        write_gnuplot_script(out / "phase_diagram.gp", "phase_diagram.csv",
                             "1:2:3", "bound-state count")
    return 0


def cmd_poles(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    sec = section(cfg, "poles")
    with parsing("poles"):
        kpp_max = number(sec.get("K_doubleprime_max", 2.0))
        n_scan = number(sec.get("n_scan", 200), operator.index)
    if n_scan < 2 or not 1e-3 < kpp_max < math.inf:
        raise ConfigError(f"poles section: need integer n_scan >= 2 and finite "
                          f"K_doubleprime_max > 1e-3, got {n_scan}, {kpp_max}")
    kpp = np.linspace(1e-3, kpp_max, n_scan)
    rows = []
    for branch, v0 in ((0.0, abs(params.V0)), (math.pi / 2, -abs(params.V0))):
        amp = np.abs(scattering.biexciton_reflection_amplitude(
            branch + 1j * kpp, params.replace(V0=v0)))
        rows += [(branch, k, v0, a) for k, a in zip(kpp, amp)]
    write_table(out / "pole_scan.csv",
                ("K_prime", "K_doubleprime", "V0", "abs_R_b"), rows, fmt)

    summary = []
    for v0 in (abs(params.V0), -abs(params.V0)):
        p = params.replace(V0=v0)
        pole = scattering.find_pole(p)
        ph = projected.build_projected_hamiltonian(p)
        spec = projected.diagonalize_projected(ph)
        lo, hi = ph.modes.band_edges()
        out_band = [(e, max(lo - e, e - hi)) for e in spec.energies
                    if e < lo - 1e-9 or e > hi + 1e-9]
        if out_band:
            e_num = max(out_band, key=lambda t: t[1])[0]
            rel = abs(pole.energy - e_num) / abs(e_num - 2 * p.E0)
        else:
            e_num, rel = math.nan, math.nan
        summary.append((pole.K_prime, pole.K_doubleprime, pole.energy,
                        e_num, rel))
    write_table(out / "pole_summary.csv",
                ("branch", "K_doubleprime_pole", "E_pole", "E_numeric", "rel_err"),
                summary, fmt)
    if plots:
        write_gnuplot_script(out / "pole_scan.gp", "pole_scan.csv", "2:4",
                             "reflection amplitude scan")
    return 0


def cmd_bic(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    sec = section(cfg, "bic")
    with parsing("bic"):
        tol = number(sec.get("flag_tolerance", 5e-2))
    dump = sec.get("dump_amplitudes", True)
    if not (0.0 <= tol < math.inf and isinstance(dump, bool)):
        raise ConfigError(f"bic section: need finite flag_tolerance >= 0 and "
                          f"boolean dump_amplitudes, got {tol}, {dump!r}")
    basis, spec = pairbasis.diagonalize_full(params)
    try:
        e1, e2 = pairbasis.bic_energies(params)
    except BiximpError:
        e1 = e2 = math.nan
    rows = []
    for idx in range(len(spec)):
        e = spec.energies[idx]
        near = min(abs(e - e1), abs(e - e2)) if not math.isnan(e1) else math.inf
        if near > 0.5:     # only analyze candidates near the closed forms
            continue
        cls = pairbasis.classify_state(e, spec.states[:, idx], params, basis)
        rows.append((idx, e, cls.type, cls.in_continuum, cls.schmidt_number,
                     cls.decay_r, cls.decay_s, near > tol))
    write_table(out / "bic_classification.csv",
                ("index", "energy", "type", "in_continuum", "schmidt_number",
                 "decay_r", "decay_s", "mismatch_flag"), rows, fmt)
    if dump and rows:
        _, vec, _ = pairbasis.find_bic_state(params)
        write_grid_binary(out / "bic_amplitude.f64",
                          pairbasis.folded_amplitudes(vec, basis))
    return 0


def cmd_wavepacket(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    sec = section(cfg, "wavepacket")
    with parsing("wavepacket"):
        r_offset = sec.get("r_offset")
        config = dynamics.WavepacketConfig(
            K0=number(sec["K0"]), dK0=number(sec["dK0"]),
            t_start=number(sec["t_start"]), t_end=number(sec["t_end"]),
            sample_dt=number(sec.get("sample_dt", 1.0)),
            r_offset=None if r_offset is None else number(r_offset))
        target = number(sec.get("split_target", 0.5))
        snapshots = [(t, number(t)) for t in sec.get("snapshots", [])]
    dynamics.validate_dynamics_regime(params)
    # one basis and impurity overlap serve the calibration and the run:
    # neither depends on V0
    modes = ModeBasis(params)
    G = projected.impurity_overlap(modes)
    if sec.get("calibrate_v0", False):
        v0 = dynamics.calibrate_v0(params, config, target=target,
                                   modes=modes, overlap=G)
        params = params.replace(V0=v0)
    ph = projected.build_projected_hamiltonian(params, modes=modes, overlap=G)
    traj = dynamics.run_trajectory(params, config, ph)
    write_table(out / "wavepacket_timeseries.csv",
                ("t", "entropy_bits", "norm", "energy", "reflected_prob"),
                [(s.t, s.entropy, s.norm, s.energy, s.reflected)
                 for s in traj.samples], fmt)
    for t_snap, t in snapshots:
        st = dynamics.propagate(traj.initial, ph, t)
        _, _, psi = dynamics.realspace_amplitude(st, ph.modes)
        write_grid_binary(out / f"snapshot_psi2_t{t_snap}.f64", np.abs(psi) ** 2)
        rho = dynamics.reduced_density(st, ph.modes)
        write_grid_binary(out / f"snapshot_rho_diag_t{t_snap}.f64",
                          rho.diagonal())
        write_grid_binary(out / f"snapshot_contrast_t{t_snap}.f64",
                          dynamics.contrast(rho))
        write_grid_binary(out / f"snapshot_modes_t{t_snap}.f64",
                          dynamics.mode_distribution(st))
    if plots:
        write_gnuplot_script(out / "wavepacket.gp", "wavepacket_timeseries.csv",
                             "1:2", "entanglement entropy")
    return 0


COMMANDS = {
    "exciton": cmd_exciton,
    "biexciton-spectrum": cmd_biexciton_spectrum,
    "phase-diagram": cmd_phase_diagram,
    "poles": cmd_poles,
    "bic": cmd_bic,
    "wavepacket": cmd_wavepacket,
}


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="biximp",
        description="Biexciton-impurity scattering on a ring lattice")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="YAML configuration file")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument("--plots", action="store_true",
                    help="emit companion gnuplot scripts")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out, args.format, args.plots)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
