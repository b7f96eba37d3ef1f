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


def flag(sec, name, key, default):
    """The YAML boolean `key` of section `name`; anything else, such as
    the string "false" that Python would read as true, is a ConfigError."""
    value = sec.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{name} section: {key} must be a boolean, got {value!r}")
    return value


def model_from_config(cfg):
    with parsing("model"):
        m = cfg["model"]
        return ModelParams(N=number(m["N"], int), J=number(m["J"]),
                           D=number(m["D"]), E0=number(m.get("E0", 0.0)),
                           V0=number(m.get("V0", 0.0)))


def section(cfg, name):
    val = cfg.get(name, {})
    if not isinstance(val, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return val


# ---------------------------------------------------------------------------
# commands


def cmd_exciton(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    cases = [("", params)]
    if flag(section(cfg, "exciton"), "exciton", "sign_cases", False):
        # the tag names the sign multipliers, so V0 = 0 still gives 4 files
        signs = ((1, "+"), (-1, "-"))
        cases = [(f"_J{a}V{b}", params.replace(J=sj * abs(params.J),
                                                V0=sv * abs(params.V0)))
                 for sj, a in signs for sv, b in signs]
    for tag, p in cases:
        spec = solve_exciton_spectrum(p)
        name = out / f"exciton{tag}.csv"
        write_table(name, ("branch", "k_real", "k_imag", "energy", "bound_flag"),
                    spec.rows(), fmt)
        if spec.bound is not None:
            prof = spec.bound.amplitude_profile
            write_table(name.with_name(f"{name.stem}_bound_profile.csv"),
                        ("site", "amplitude"),
                        list(zip(p.sites, prof)), fmt)
        if plots:
            write_gnuplot_script(name.with_suffix(".gp"),
                                 name.name, "2:4", "exciton spectrum")
    return 0


def cmd_biexciton_spectrum(cfg, out, fmt, plots):
    params = model_from_config(cfg)
    # classified from the basis (whose build checks the regime) and the
    # spectrum: M is freed once solved
    modes = ModeBasis(params)
    spec = projected.diagonalize_projected(projected.build_projected_hamiltonian(
        params, modes, projected.impurity_overlap(modes)))
    recs = projected.classify_bound_states(spec, modes)
    rows = [(mu, e, math.nan, "scattering", 0.0, False)
            for mu, e in enumerate(spec.energies)]
    for r in recs:
        rows[r.state_index] = (r.state_index, r.energy, r.dominant_K,
                               r.re_K_class, r.decay_rate, True)
    write_table(out / "biexciton_spectrum.csv",
                ("mu", "energy", "dominant_K", "class", "decay_rate", "bound_flag"),
                rows, fmt)
    for r in recs:
        _, psi = projected.cm_amplitude(spec.states[:, r.state_index], modes)
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
    rows, summary = [], []
    modes = G = None
    for v0 in (abs(params.V0), -abs(params.V0)):
        p = params.replace(V0=v0)
        # the scan runs the branch the pole is solved on
        branch = scattering.pole_branch(p)
        amp = np.abs(scattering.biexciton_reflection_amplitude(branch + 1j * kpp, p))
        rows += [(branch, k, v0, a) for k, a in zip(kpp, amp)]
        pole = scattering.find_pole(p)
        if modes is None:
            # one basis and impurity overlap serve both signs: neither
            # depends on V0
            modes = ModeBasis(p)
            G = projected.impurity_overlap(modes)
        spec = projected.diagonalize_projected(
            projected.build_projected_hamiltonian(p, modes, G))
        lo, hi = modes.band_edges()
        e = spec.energies[modes.out_of_band(spec.energies)]
        if len(e):
            # the outermost state: the first of the largest band splits
            e_num = e[np.argmax(np.maximum(lo - e, e - hi))]
            rel = abs(pole.energy - e_num) / abs(e_num - 2 * p.E0)
        else:
            e_num, rel = math.nan, math.nan
        summary.append((pole.K_prime, pole.K_doubleprime, pole.energy,
                        e_num, rel))
    write_table(out / "pole_scan.csv",
                ("K_prime", "K_doubleprime", "V0", "abs_R_b"), rows, fmt)
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
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"bic section: need finite flag_tolerance >= 0, got {tol}")
    dump = flag(sec, "bic", "dump_amplitudes", True)
    basis, spec = pairbasis.diagonalize_full(params)
    try:
        e1, e2 = pairbasis.bic_energies(params)
    except BiximpError:
        e1 = e2 = math.nan
    e = spec.energies
    near = np.minimum(np.abs(e - e1), np.abs(e - e2))
    rows = []
    # only candidates near the closed forms are analyzed; NaN selects none
    for idx in np.flatnonzero(near <= 0.5):
        cls = pairbasis.classify_state(e[idx], spec.states[:, idx], params, basis)
        rows.append((idx, e[idx], cls.type, cls.in_continuum, cls.schmidt_number,
                     cls.decay_r, cls.decay_s, near[idx] > tol))
    write_table(out / "bic_classification.csv",
                ("index", "energy", "type", "in_continuum", "schmidt_number",
                 "decay_r", "decay_s", "mismatch_flag"), rows, fmt)
    if dump and rows:
        # the state is one of the rows, so it is classified there already
        _, vec = pairbasis.find_bic_state(params, basis, spec)
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
    calibrate = flag(sec, "wavepacket", "calibrate_v0", False)
    dynamics.validate_dynamics_regime(params)
    # one basis, impurity overlap and initial packet serve the
    # calibration and the run: none depends on V0
    modes = ModeBasis(params)
    G = projected.impurity_overlap(modes)
    u0 = dynamics.init_wavepacket(config, modes)
    if calibrate:
        v0 = dynamics.calibrate_v0(modes, G, u0, config.K0, target)
        params = params.replace(V0=v0)
    ph = projected.build_projected_hamiltonian(params, modes, G)
    write_table(out / "wavepacket_timeseries.csv",
                ("t", "entropy_bits", "norm", "energy", "reflected_prob"),
                [(s.t, s.entropy, s.norm, s.energy, s.reflected)
                 for s in dynamics.run_trajectory(ph, u0, config)], fmt)
    for t_snap, t in snapshots:
        st = dynamics.propagate(u0, ph, t)
        _, _, psi = dynamics.realspace_amplitude(st, modes)
        write_grid_binary(out / f"snapshot_psi2_t{t_snap}.f64", np.abs(psi) ** 2)
        rho = dynamics.reduced_density(st, modes)
        write_grid_binary(out / f"snapshot_rho_diag_t{t_snap}.f64",
                          np.real(np.diag(rho)))
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
