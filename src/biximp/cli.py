"""Command-line interface: every computation as a configured, reproducible run.

Configuration is a single YAML file with a `model` section (N, J, D,
E0, V0) plus one section per command; see README for the schema.  All
computations are deterministic, so identical configurations give
byte-identical CSV output.  Exit codes: 0 ok, 1 numerical failure,
2 configuration/IO error or out of memory, 3 regime violation.
"""

import argparse
import math
import operator
import sys
from pathlib import Path

import numpy as np
import yaml

from . import dynamics, pairbasis, projected, scattering
from .biexciton import ModeBasis
from .csvio import write_grid_binary, write_gnuplot_script, write_table
from .errors import BiximpError, ConfigError, NumericalError, RegimeError
from .exciton import solve_exciton_spectrum
from .params import ModelParams

MAX_COUNT = 10_000  # per grid axis (n_scan, n_D, n_V0), as dynamics.MAX_SAMPLES


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


def real(value):
    """A finite float or numeric string; a YAML boolean (float reads 1) is refused."""
    if isinstance(value, bool):
        raise TypeError(f"need a number, got boolean {value}")
    if not math.isfinite(x := float(value)):
        raise TypeError(f"need a finite number, got {x}")
    return x


def integer(value):
    """An integer; a float, 40.0 too, is refused rather than truncated."""
    if isinstance(value, bool):
        raise TypeError(f"need an integer, got boolean {value}")
    return operator.index(value)


def boolean(value):
    """A YAML boolean; the string "false", true to Python, is refused."""
    if not isinstance(value, bool):
        raise TypeError(f"need a boolean, got {value!r}")
    return value


def times(value):
    """A list of distinct finite times; a string is no list of its characters."""
    if not isinstance(value, list) or len(set(ts := [real(t) for t in value])) < len(ts):
        raise TypeError(f"need a list of distinct times, got {value!r}")
    return ts


def within(read, lo, hi):
    """The reader `read` that also refuses a value outside [lo, hi]."""
    def reader(value):
        if not lo <= (x := read(value)) <= hi:
            raise TypeError(f"need a value in [{lo!r}, {hi!r}], got {x!r}")
        return x
    return reader


# section (a command's name, "-" as "_") -> key -> (reader, default), the one place that
# types, bounds and defaults a config key: ... marks a required key, None an optional one.
KEYS = {
    "model": {"N": (integer, ...), "J": (real, ...), "D": (real, ...),
              "E0": (real, 0.0), "V0": (real, 0.0)},
    "exciton": {"sign_cases": (boolean, False)},
    "biexciton_spectrum": {},
    "phase_diagram": {"D_min": (real, ...), "D_max": (real, ...),
                      "n_D": (within(integer, 1, MAX_COUNT), ...),
                      "V0_min": (real, ...), "V0_max": (real, ...),
                      "n_V0": (within(integer, 1, MAX_COUNT), ...)},
    "poles": {"K_doubleprime_max": (within(real, math.nextafter(1e-3, 1.0), math.inf), 2.0),
              "n_scan": (within(integer, 2, MAX_COUNT), 200)},
    "bic": {"flag_tolerance": (within(real, 0.0, math.inf), 5e-2),
            "dump_amplitudes": (boolean, True)},
    "wavepacket": {"K0": (real, ...), "dK0": (real, ...), "t_start": (real, ...),
                   "t_end": (real, ...), "sample_dt": (real, 1.0), "r_offset": (real, None),
                   "split_target": (within(real, 0.0, 1.0), 0.5),
                   "calibrate_v0": (boolean, False), "snapshots": (times, [])},
}


def section(cfg, name):
    """Section `name` of `cfg` ({} when absent), typed and defaulted by KEYS[name]."""
    raw = cfg.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} section: must be a mapping, got {raw!r}")
    if unknown := sorted(map(str, set(raw) - set(KEYS[name]))):
        raise ConfigError(f"{name} section: unknown key(s) {unknown}, known: {list(KEYS[name])}")
    typed = {}
    for key, (read, default) in KEYS[name].items():
        if (value := raw.get(key, default)) is ...:
            raise ConfigError(f"{name} section: missing key {key}")
        try:
            typed[key] = None if value is None and default is None else read(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} section: {key}: {exc}") from exc
    return typed


class Output:
    """The one place that names output files in the --out directory:
    tables as `stem.csv` or `stem.json`, binary grids as `stem.f64`, and
    under --plots a gnuplot script `script.gp` that reads `stem.csv`.
    The directory is made at the first write, so a run refused or failing
    before it leaves none."""

    def __init__(self, directory, fmt, plots):
        if plots and fmt != "csv":
            raise ConfigError("--plots writes gnuplot scripts of CSV: use --format csv")
        self.directory, self.fmt, self.plots = Path(directory), fmt, plots

    def _path(self, name):
        """directory / name, the directory made if it is not there yet."""
        self.directory.mkdir(parents=True, exist_ok=True)
        return self.directory / name

    def table(self, stem, header, rows):
        write_table(self._path(f"{stem}.{self.fmt}"), header, rows, self.fmt)

    def grid(self, stem, array):
        write_grid_binary(self._path(f"{stem}.f64"), array)

    def plot(self, script, stem, columns, title):
        if self.plots:
            write_gnuplot_script(self._path(f"{script}.gp"), f"{stem}.csv",
                                 columns, title)


# ---------------------------------------------------------------------------
# commands


def cmd_exciton(params, sec, out):
    cases = [("exciton", params)]
    if sec["sign_cases"]:
        # the name tags the sign multipliers, so V0 = 0 still gives 4 files
        signs = ((1, "+"), (-1, "-"))
        cases = [(f"exciton_J{a}V{b}", params.replace(J=sj * abs(params.J),
                                                       V0=sv * abs(params.V0)))
                 for sj, a in signs for sv, b in signs]
    for stem, p in cases:
        spec = solve_exciton_spectrum(p)
        out.table(stem, ("branch", "k_real", "k_imag", "energy", "bound_flag"),
                  spec.rows())
        if spec.bound is not None:
            out.table(f"{stem}_bound_profile", ("site", "amplitude"),
                      list(zip(p.sites, spec.bound.amplitude_profile)))
        out.plot(stem, stem, "2:4", "exciton spectrum")


def cmd_biexciton_spectrum(params, sec, out):
    # classified from the basis (whose build checks the regime) and the
    # spectrum, solved without building M
    modes = ModeBasis(params)
    spec = projected.diagonalize_projected(projected.build_projected_hamiltonian(
        modes, projected.impurity_overlap(modes), params.V0))
    recs = projected.classify_bound_states(spec, modes)
    rows = [(mu, e, math.nan, "scattering", 0.0, False)
            for mu, e in enumerate(spec.energies)]
    for r in recs:
        rows[r.state_index] = (r.state_index, r.energy, r.dominant_K,
                               r.re_K_class, r.decay_rate, True)
    out.table("biexciton_spectrum", ("mu", "energy", "dominant_K", "class",
                                     "decay_rate", "bound_flag"), rows)
    for r, u in zip(recs, spec.columns([r.state_index for r in recs]).T):
        _, psi = projected.cm_amplitude(u, modes)
        out.grid(f"bound_{r.label}_profile", np.abs(psi) ** 2)
    out.plot("biexciton_spectrum", "biexciton_spectrum", "1:2", "projected spectrum")


def cmd_phase_diagram(params, sec, out):
    d_vals = np.linspace(sec["D_min"], sec["D_max"], sec["n_D"])
    v_vals = np.linspace(sec["V0_min"], sec["V0_max"], sec["n_V0"])
    counts = projected.phase_diagram(d_vals, v_vals, params)
    rows = [(d_vals[i], v_vals[j], counts[i, j])
            for i in range(len(d_vals)) for j in range(len(v_vals))]
    out.table("phase_diagram", ("D", "V0", "count"), rows)
    out.plot("phase_diagram", "phase_diagram", "1:2:3", "bound-state count")


def cmd_poles(params, sec, out):
    kpp = np.linspace(1e-3, sec["K_doubleprime_max"], sec["n_scan"])
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
            projected.build_projected_hamiltonian(modes, G, v0))
        e = spec.energies[modes.out_of_band(spec.energies)]
        if len(e):
            # the outermost state: the first of the largest band splits
            e_num = e[np.argmax(modes.band_split(e))]
            rel = abs(pole.energy - e_num) / abs(e_num - 2 * p.E0)
        else:
            e_num, rel = math.nan, math.nan
        summary.append((pole.K_prime, pole.K_doubleprime, pole.energy,
                        e_num, rel))
    out.table("pole_scan", ("K_prime", "K_doubleprime", "V0", "abs_R_b"), rows)
    out.table("pole_summary", ("branch", "K_doubleprime_pole", "E_pole",
                               "E_numeric", "rel_err"), summary)
    out.plot("pole_scan", "pole_scan", "2:4", "reflection amplitude scan")


def cmd_bic(params, sec, out):
    basis, spec = pairbasis.diagonalize_full(params)
    try:
        e1, e2 = pairbasis.bic_energies(params)
    except BiximpError:
        e1 = e2 = math.nan
    e = spec.energies
    near = np.minimum(np.abs(e - e1), np.abs(e - e2))
    # only candidates near the closed forms are scattered (once) and analyzed; NaN selects none
    idx = np.flatnonzero(near <= 0.5)
    U = spec.columns(idx)
    rows = [(i, e[i], c.type, c.in_continuum, c.schmidt_number, c.decay_r, c.decay_s,
             near[i] > sec["flag_tolerance"])
            for i, c in zip(idx, pairbasis.classify_states(e[idx], U, params, basis))]
    # the BIC search can fail, so it runs before any file is written
    grid = None
    if sec["dump_amplitudes"] and rows:  # candidates: all within BIC_WINDOW of E_b1, E_b2
        _, vec = pairbasis.find_bic_state(
            params, basis, projected.SpectrumResult(e[idx], lambda k: U[:, k]))
        grid = pairbasis.folded_amplitudes(vec, basis)
    out.table("bic_classification",
              ("index", "energy", "type", "in_continuum", "schmidt_number",
               "decay_r", "decay_s", "mismatch_flag"), rows)
    if grid is not None:
        out.grid("bic_amplitude", grid)


def cmd_wavepacket(params, sec, out):
    config = dynamics.WavepacketConfig(sec["K0"], sec["dK0"], sec["t_start"], sec["t_end"],
                                       sec["sample_dt"], sec["r_offset"])
    calibrate = sec["calibrate_v0"]
    # a calibrated run replaces the model's V0: only D is checked here
    dynamics.validate_packet_regime(params.replace(V0=0.0) if calibrate else params, config)
    # one basis, impurity overlap and initial packet serve the
    # calibration and the run: none depends on V0
    modes = ModeBasis(params)
    G = projected.impurity_overlap(modes)
    u0 = dynamics.init_wavepacket(config, modes)
    v0 = (dynamics.calibrate_v0(modes, G, u0, config.K0, sec["split_target"]) if calibrate
          else params.V0)
    ph = projected.build_projected_hamiltonian(modes, G, v0)
    # every snapshot state is computed, and can fail, before any file is written
    states = [dynamics.propagate(u0, ph, t) for t in sec["snapshots"]]
    out.table("wavepacket_timeseries",
              ("t", "entropy_bits", "norm", "energy", "reflected_prob"),
              [(s.t, s.entropy, s.norm, s.energy, s.reflected)
               for s in dynamics.run_trajectory(ph, u0, config)])
    for t, st in zip(sec["snapshots"], states):
        out.grid(f"snapshot_psi2_t{t}",    # unnamed: freed before rho is built
                 np.abs(dynamics.realspace_amplitude(st, modes)[2]) ** 2)
        rho = dynamics.reduced_density(st, modes)
        out.grid(f"snapshot_rho_diag_t{t}", np.real(np.diag(rho)))
        out.grid(f"snapshot_contrast_t{t}", dynamics.contrast(rho))
        out.grid(f"snapshot_modes_t{t}", dynamics.mode_distribution(st))
    out.plot("wavepacket", "wavepacket_timeseries", "1:2", "entanglement entropy")


# each command's function; perfbench's tracer rebinds these values
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
                    help="emit companion gnuplot scripts (CSV format only)")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
        # every key is read before --out is made: a config error writes nothing
        params = ModelParams(**section(cfg, "model"))
        sec = section(cfg, args.command.replace("-", "_"))
        COMMANDS[args.command](params, sec, Output(args.out, args.format, args.plots))
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
