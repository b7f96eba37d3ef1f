"""Correctness checks on the files a biximp CLI call wrote.

Two kinds of check feed the benchmark's failure count:

- invariants, checked for every seed: row counts, count ranges, norm and
  energy drift along a trajectory, the exciton spectrum against a direct
  diagonalization of the ring Hamiltonian, the BIC state near E_b1, ...
- references, checked for the default seed only: every output file
  against the summary recorded from the parent code (see record.py).

Tolerances for reference comparison:

- labels, flags and the integer columns (count, index, mu, site) match
  exactly;
- the wavepacket time series matches to 1e-12 absolute;
- ring-decay fit outputs (decay_rate, decay_r, decay_s) match to 1e-5
  relative: the bounded minimizer leaves them loose at the 1e-7 level,
  and they move that much between BLAS thread counts;
- every other float column matches to 1e-9 relative (1e-12 absolute);
- binary grids match on length, NaN count and 256 evenly spaced samples
  to 1e-9 of their largest magnitude; the BIC amplitude grid is an
  eigenvector and may flip its global sign.
"""

import csv
import gzip
import json
import math
from pathlib import Path

import numpy as np

INTEGER_COLUMNS = {"count", "index", "mu", "site"}
FIT_COLUMNS = {"decay_rate", "decay_r", "decay_s"}
BIC_TYPES = {"free_biexciton", "cm_bound_pair", "one_exciton_bound", "fully_bound",
             "unclassified", "unclassified-symmetric"}
SAMPLES = 256
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_table(path):
    """CSV as a list of {column: text} dicts."""
    header, rows = read_csv(path)
    return [dict(zip(header, r)) for r in rows]


def read_grid(path):
    return np.fromfile(path, dtype="<f8")


def _float(text):
    try:
        return float(text)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# invariants


def _model(task):
    m = task.config["model"]
    return int(m["N"]), float(m["J"]), float(m["D"]), float(m.get("E0", 0.0)), \
        float(m.get("V0", 0.0))


def ring_hamiltonian(N, J, E0, V0):
    """The exciton site Hamiltonian: hopping J on the N-ring, V0 at site 0."""
    H = np.diag(np.full(N, E0))
    idx = np.arange(N)
    H[idx, (idx + 1) % N] = J
    H[(idx + 1) % N, idx] = J
    H[N // 2 - 1, N // 2 - 1] += V0      # sites run -N/2+1 .. N/2
    return H


def bic_closed_form(J, D, E0, V0):
    """(E_b1, E_b2) of the doubly-bound states."""
    den = 2.0 * (D * V0 - J * J)
    disc = math.sqrt(4.0 * J * J + (D - V0) ** 2)
    return (2.0 * E0 + D * V0 * (D + V0 - disc) / den,
            2.0 * E0 + D * V0 * (D + V0 + disc) / den)


def _check_exciton(task, out):
    N, J, _, E0, V0 = _model(task)
    problems = []
    for sj in (1, -1):
        for sv in (1, -1):
            tag = f"J{'+' if sj > 0 else '-'}V{'+' if sv > 0 else '-'}"
            rows = read_table(out / f"exciton_{tag}.csv")
            if len(rows) != N:
                problems.append(f"exciton_{tag}: {len(rows)} states, expected {N}")
                continue
            got = np.sort([float(r["energy"]) for r in rows])
            want = np.linalg.eigvalsh(ring_hamiltonian(N, sj * abs(J), E0, sv * abs(V0)))
            err = float(np.max(np.abs(got - want)))
            if err > 1e-9 * max(1.0, abs(E0) + 2 * abs(J) + abs(V0)):
                problems.append(f"exciton_{tag}: spectrum off eigvalsh by {err:.2e}")
            if sum(r["bound_flag"] == "true" for r in rows) != 1:
                problems.append(f"exciton_{tag}: not exactly one bound state")
            prof = np.array([float(r["amplitude"]) for r in
                             read_table(out / f"exciton_{tag}_bound_profile.csv")])
            if len(prof) != N or abs(float(np.sum(prof ** 2)) - 1.0) > 1e-12:
                problems.append(f"exciton_{tag}: bound profile not unit norm over N sites")
    return problems


def _check_biexciton_spectrum(task, out):
    N = _model(task)[0]
    rows = read_table(out / "biexciton_spectrum.csv")
    problems = []
    if [int(r["mu"]) for r in rows] != list(range(N)):
        return [f"biexciton_spectrum: expected states mu = 0..{N - 1}"]
    e = np.array([float(r["energy"]) for r in rows])
    if not np.all(np.isfinite(e)) or np.any(np.diff(e) < 0):
        problems.append("biexciton_spectrum: energies not finite and ascending")
    bound = [r for r in rows if r["bound_flag"] == "true"]
    if any((r["class"] == "scattering") == (r["bound_flag"] == "true") for r in rows):
        problems.append("biexciton_spectrum: class and bound_flag disagree")
    if any(r["class"] not in ("near_zero", "near_half_pi") for r in bound):
        problems.append("biexciton_spectrum: unknown bound-state class")
    profiles = sorted(out.glob("bound_*_profile.f64"))
    if len(profiles) != len(bound):
        problems.append(f"biexciton_spectrum: {len(profiles)} profiles for "
                        f"{len(bound)} bound states")
    for p in profiles:
        g = read_grid(p)
        if len(g) != 2 * N or not np.all(np.isfinite(g)) or g.min() < 0:
            problems.append(f"{p.name}: expected {2 * N} finite values >= 0")
    return problems


def _check_phase_diagram(task, out):
    N = _model(task)[0]
    grid = task.config["phase_diagram"]
    rows = read_table(out / "phase_diagram.csv")
    if len(rows) != grid["n_D"] * grid["n_V0"]:
        return [f"phase_diagram: {len(rows)} cells, expected {grid['n_D'] * grid['n_V0']}"]
    counts = [int(r["count"]) for r in rows]
    bad = [c for c in counts if not -1 <= c <= N]
    return [f"phase_diagram: counts outside [-1, {N}]: {bad[:5]}"] if bad else []


def _check_poles(task, out):
    n_scan = task.config["poles"]["n_scan"]
    problems = []
    scan = read_table(out / "pole_scan.csv")
    if len(scan) != 2 * n_scan:
        problems.append(f"pole_scan: {len(scan)} rows, expected {2 * n_scan}")
    if any(not float(r["abs_R_b"]) >= 0.0 for r in scan):
        problems.append("pole_scan: |R_b| negative or NaN")
    summary = read_table(out / "pole_summary.csv")
    branches = sorted(float(r["branch"]) for r in summary)
    if len(summary) != 2 or abs(branches[0]) > 0 or abs(branches[1] - math.pi / 2) > 1e-15:
        problems.append("pole_summary: expected one pole on each of K' = 0, pi/2")
    for r in summary:
        kpp, e = float(r["K_doubleprime_pole"]), float(r["E_pole"])
        if not (0.0 < kpp < 4.0 and math.isfinite(e)):
            problems.append(f"pole_summary: bad pole K''={kpp}, E={e}")
    return problems


def _check_bic(task, out):
    N, J, D, E0, V0 = _model(task)
    tol = float(task.config["bic"]["flag_tolerance"])
    e1, e2 = bic_closed_form(J, D, E0, V0)
    rows = read_table(out / "bic_classification.csv")
    problems = []
    for r in rows:
        e = float(r["energy"])
        near = min(abs(e - e1), abs(e - e2))
        if r["type"] not in BIC_TYPES:
            problems.append(f"bic: unknown type {r['type']!r}")
        if (r["in_continuum"] == "true") != (abs(e - 2 * E0) <= 4 * abs(J)):
            problems.append(f"bic: in_continuum wrong at E={e}")
        if (r["mismatch_flag"] == "true") != (near > tol) or near > 0.5:
            problems.append(f"bic: mismatch_flag or candidate window wrong at E={e}")
    if task.expect_bic and not any(
            r["type"] == "fully_bound" and abs(float(r["energy"]) - e1) <= tol
            for r in rows):
        problems.append(f"bic: no fully_bound state within {tol} of E_b1 = {e1:.6f}")
    if rows:
        g = read_grid(out / "bic_amplitude.f64")
        if len(g) != 2 * N * (N // 2 + 1) or abs(float(np.sum(g ** 2)) - 1.0) > 1e-10:
            problems.append("bic_amplitude: wrong size or not unit norm")
    return problems


def _check_wavepacket(task, out):
    N = _model(task)[0]
    wp = task.config["wavepacket"]
    rows = read_table(out / "wavepacket_timeseries.csv")
    n_t = len(np.arange(wp["t_start"], wp["t_end"] + 1e-9, wp["sample_dt"]))
    if len(rows) != n_t:
        return [f"wavepacket: {len(rows)} samples, expected {n_t}"]
    problems = []
    norm = np.array([float(r["norm"]) for r in rows])
    energy = np.array([float(r["energy"]) for r in rows])
    ent = np.array([float(r["entropy_bits"]) for r in rows])
    refl = np.array([float(r["reflected_prob"]) for r in rows])
    if np.max(np.abs(norm - 1.0)) > 1e-10:
        problems.append(f"wavepacket: norm drift {np.max(np.abs(norm - 1.0)):.2e}")
    drift = float(np.max(np.abs(energy - energy[0])))
    if drift > 1e-9 * max(1.0, abs(energy[0])):
        problems.append(f"wavepacket: energy drift {drift:.2e}")
    if not np.all(np.isfinite(ent)) or ent.min() < -1e-12:
        problems.append("wavepacket: entropy negative or not finite")
    ok = refl[~np.isnan(refl)]      # NaN while the partition is ill-defined
    if ok.size and (ok.min() < -1e-12 or ok.max() > 1 + 1e-12):
        problems.append("wavepacket: reflected probability outside [0, 1]")
    for t in wp.get("snapshots", []):
        sizes = {"psi2": 2 * N * (2 * N - 1), "rho_diag": 2 * N,
                 "contrast": 4 * N * N, "modes": N}
        for kind, n in sizes.items():
            g = read_grid(out / f"snapshot_{kind}_t{t}.f64")
            if len(g) != n:
                problems.append(f"snapshot_{kind}_t{t}: {len(g)} values, expected {n}")
            elif kind in ("psi2", "rho_diag", "modes") and abs(g.sum() - 1.0) > 1e-9:
                problems.append(f"snapshot_{kind}_t{t}: weights sum to {g.sum():.12f}")
    return problems


INVARIANTS = {
    "exciton": _check_exciton,
    "biexciton-spectrum": _check_biexciton_spectrum,
    "phase-diagram": _check_phase_diagram,
    "poles": _check_poles,
    "bic": _check_bic,
    "wavepacket": _check_wavepacket,
}


def check_invariants(task, out):
    """Problems found in the outputs of one task (empty when correct)."""
    try:
        return INVARIANTS[task.command](task, Path(out))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{task.command}: unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# references


def summarize(out):
    """Reference summary of every file under one task's output directory."""
    summary = {}
    for path in sorted(Path(out).iterdir()):
        if path.suffix == ".csv":
            header, rows = read_csv(path)
            summary[path.name] = {"header": header, "rows": rows}
        elif path.suffix == ".f64":
            g = read_grid(path)
            idx = np.unique(np.linspace(0, len(g) - 1, SAMPLES).astype(int)) \
                if len(g) else np.zeros(0, dtype=int)
            summary[path.name] = {"n": len(g), "nan": int(np.isnan(g).sum()),
                                  "index": idx.tolist(),
                                  "sample": [None if math.isnan(v) else float(v)
                                             for v in g[idx]]}
    return summary


def _close(a, b, rtol, atol):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * abs(b)


def _column_tolerance(name, col):
    """(rtol, atol) for a float column of one output file."""
    if name == "wavepacket_timeseries.csv":
        return 0.0, 1e-12
    if col in FIT_COLUMNS:
        return 1e-5, 1e-9
    return 1e-9, 1e-12


def _compare_csv(name, ref, got):
    header, rows = got
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        return [f"{name}: header or row count differs from reference"]
    for i, (rr, gr) in enumerate(zip(ref["rows"], rows)):
        for col, rv, gv in zip(header, rr, gr):
            fr, fg = _float(rv), _float(gv)
            if col in INTEGER_COLUMNS or fr is None or fg is None:
                ok = rv == gv
            else:
                ok = _close(fg, fr, *_column_tolerance(name, col))
            if not ok:
                return [f"{name}: row {i} column {col}: {gv} != reference {rv}"]
    return []


def _compare_grid(name, ref, got):
    if len(got) != ref["n"] or int(np.isnan(got).sum()) != ref["nan"]:
        return [f"{name}: length or NaN count differs from reference"]
    want = np.array([math.nan if v is None else v for v in ref["sample"]])
    have = got[np.array(ref["index"], dtype=int)]
    scale = float(np.nanmax(np.abs(want))) if np.any(~np.isnan(want)) else 0.0
    signs = (1.0, -1.0) if name == "bic_amplitude.f64" else (1.0,)
    for sign in signs:
        diff = np.abs(sign * have - want)
        if np.array_equal(np.isnan(have), np.isnan(want)) and \
                np.all(diff[~np.isnan(want)] <= 1e-9 * scale):
            return []
    return [f"{name}: samples differ from reference"]


def compare_reference(ref, out):
    """Problems comparing one task's output directory with its reference."""
    out = Path(out)
    names = sorted(p.name for p in out.iterdir() if p.suffix in (".csv", ".f64"))
    if names != sorted(ref):
        return [f"output files {names} differ from reference {sorted(ref)}"]
    problems = []
    for name in names:
        if name.endswith(".csv"):
            problems += _compare_csv(name, ref[name], read_csv(out / name))
        else:
            problems += _compare_grid(name, ref[name], read_grid(out / name))
    return problems


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_references(workload):
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save_references(workload, refs):
    REFERENCE_DIR.mkdir(exist_ok=True)
    data = json.dumps(refs, sort_keys=True, separators=(",", ":")).encode()
    with open(reference_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(data)
