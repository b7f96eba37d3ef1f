"""biximp benchmark: time the CLI end to end on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program measured is the biximp under ../src of
this file's directory, imported from source.  Every sample is a fresh
interpreter (worker.py) that imports biximp, makes one untimed warm-up
CLI call, then runs the workload's CLI calls in process.  A round is
started while it can end within S seconds, and at least MIN_ROUNDS are
run; each round's outputs are checked (oracle.py), and the first round
runs the known-gap probes after its timed calls.  The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, each the median over rounds
(setup_s too: every round sets up afresh).
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics from the traced ones (tracer.py), including the
tracing overhead: traced wall_s minus untraced wall_s.

Lines before the last carry the environment, the known-gap probe and
per-round details.  Exit code 2 means the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
TIME_LIMIT_S = 170.0      # the whole run, every process included

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}

# (traced function, counters reported for it)
TRACED = (
    ("biexciton.ModeBasis", ("calls", "self_s")),
    ("biexciton.phi_samples", ("self_s",)),
    ("biexciton.solve_relative_decay", ("calls", "self_s")),
    ("projected.build_projected_hamiltonian", ("calls",)),
    ("projected.potential_matrix", ("self_s",)),
    ("projected.ProjectedHamiltonian.eigensystem", ("calls", "self_s")),
    ("projected.classify_bound_states", ("self_s",)),
    ("projected.ring_decay_profile", ("self_s",)),
    ("projected.fit_ring_decay", ("calls", "self_s")),
    ("scattering.s_function", ("calls", "self_s")),
    ("scattering.find_pole", ("self_s",)),
    ("scattering.biexciton_reflection_amplitude", ("self_s",)),
    ("exciton.solve_exciton_spectrum", ("self_s",)),
    ("pairbasis.diagonalize_full", ("calls", "self_s")),
    ("pairbasis.build_pair_hamiltonian", ("self_s",)),
    ("pairbasis.classify_state", ("calls", "self_s")),
    ("pairbasis.reflection_expectation", ("self_s",)),
    ("pairbasis.folded_amplitudes", ("calls", "self_s")),
    ("pairbasis.schmidt_number", ("self_s",)),
    ("pairbasis.find_bic_state", ("self_s",)),
    ("dynamics.calibrate_v0", ("self_s",)),
    ("dynamics.run_trajectory", ("self_s",)),
    ("dynamics.propagate", ("calls", "self_s")),
    ("dynamics.reduced_density", ("calls", "self_s")),
    ("dynamics.split_ratio", ("self_s",)),
    ("dynamics.realspace_amplitude", ("self_s",)),
    ("dynamics.contrast", ("self_s",)),
    ("csvio.write_table", ("self_s",)),
    ("csvio.write_grid_binary", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("cli.load_config", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{fn}.{c}": UNITS[c] for fn, counters in TRACED for c in counters}
    units.update({
        "biexciton.ModeBasis.useful_ratio": "1",
        "pairbasis.diagonalize_full.useful_ratio": "1",
        "pairbasis.dense_bytes_computed": "B",
        "csvio.bytes_out": "B",
    })
    units.update({f"layer.{layer}.self_s": "s" for layer in tracer.LAYERS})
    units.update({
        "trace.self_total_s": "s",
        "trace.dominant_share": "1",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.absent": "count",
        "fail_frac": "1",
        "user_warnings": "count",
    })
    return units


# ---------------------------------------------------------------------------
# samples


class Sampler:
    """Starts worker processes under one deadline, each with its own output directory."""

    def __init__(self, workload, seed, small=False):
        self.workload, self.seed, self.small = workload, seed, small
        self.start = time.monotonic()
        self.work_dir = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
        self.n = 0

    def elapsed(self):
        return time.monotonic() - self.start

    def spawn(self, mode, probe=False):
        """One worker; returns its result dict, or None if it failed."""
        self.n += 1
        out = self.work_dir / f"{mode}{self.n}"
        timeout = max(1.0, TIME_LIMIT_S - self.elapsed())
        t = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--spawned", repr(t), "--out", str(out)]
        if probe:
            cmd.append("--probe")
        if self.small:
            cmd.append("--small")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            print(f"worker {mode} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
        except ValueError:
            pass
        print(f"worker {mode} exited {proc.returncode} without a result", file=sys.stderr)
        return None

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        try:
            self.work_dir.parent.rmdir()
        except OSError:
            pass


def tally(rounds, n_tasks):
    """(attempted, failed, problems, user_warnings) over rounds; None = crashed."""
    attempted = failed = warned = 0
    problems = []
    for r in rounds:
        attempted += n_tasks
        if r is None:
            failed += n_tasks
            problems.append("worker crashed or timed out")
            continue
        for t in r["tasks"]:
            failed += t["failed"]
            warned += t["user_warnings"]
            problems += [f"{t['id']}: {p}" for p in t["problems"]]
    return attempted, failed, problems, warned


def median_of(rounds, key):
    return statistics.median(r[key] for r in rounds if r is not None)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(workload, traced, untraced, n_bic):
    """Per-layer metrics (medians over traced rounds) and the bases of their ratios."""
    ok = [r for r in traced if r is not None]

    def med(f):
        return statistics.median(f(r) for r in ok)

    def record(r, name):      # a function renamed or removed later reads as never called
        return r["records"].get(name, {"calls": 0, "self_s": 0.0, "keys": []})

    values = {f"{fn}.{c}": med(lambda r: record(r, fn)[c])
              for fn, counters in TRACED for c in counters}
    absent = sorted(fn for fn, _ in TRACED if fn not in ok[0]["records"])

    keys = record(ok[0], "biexciton.ModeBasis")["keys"]
    values["biexciton.ModeBasis.useful_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    dims = record(ok[0], "pairbasis.diagonalize_full")["keys"]
    values["pairbasis.diagonalize_full.useful_ratio"] = n_bic / len(dims) if dims else 0.0
    values["pairbasis.dense_bytes_computed"] = sum(8 * d * d for d in dims if isinstance(d, int))
    values["csvio.bytes_out"] = med(lambda r: r["bytes_out"])

    for layer in tracer.LAYERS:
        values[f"layer.{layer}.self_s"] = med(
            lambda r: tracer.layer_self_time(r["records"])[layer])
    dominant = workloads.DOMINANT_LAYERS[workload]
    total = med(lambda r: sum(x["self_s"] for x in r["records"].values()))
    values["trace.self_total_s"] = total
    values["trace.dominant_share"] = med(
        lambda r: sum(tracer.layer_self_time(r["records"])[layer] for layer in dominant)
        / max(sum(x["self_s"] for x in r["records"].values()), 1e-300))
    values["trace.wall_s"] = med(lambda r: r["wall_s"])
    values["trace.untraced_wall_s"] = median_of(untraced, "wall_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.absent"] = len(absent)
    bases = {"biexciton.ModeBasis.useful_ratio": [len(set(keys)), len(keys)],
             "pairbasis.diagonalize_full.useful_ratio": [n_bic, len(dims)],
             "trace.dominant_share": [list(dominant), total],
             "absent": absent}
    return values, bases


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced-size smoke variant (no reference comparison)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "biximp" / "cli.py").is_file():
        print(f"no biximp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    s = Sampler(args.workload, args.seed, small=args.small)
    try:
        return measure(s, args)
    finally:
        s.close()


def measure(s, args):
    tasks = workloads.tasks(args.workload, args.seed, small=args.small)
    min_rounds = 1 if args.trace else MIN_ROUNDS
    untraced, traced = [], []
    while True:
        t0 = s.elapsed()
        untraced.append(s.spawn("round", probe=not untraced))
        if args.trace:
            traced.append(s.spawn("traced"))
        step = s.elapsed() - t0
        if untraced[-1] is None or (len(untraced) >= min_rounds
                                    and s.elapsed() + step > args.seconds):
            break
    timed = [r for r in (traced if args.trace else untraced) if r is not None]
    if untraced[0] is None or not timed:
        print("no round completed; see the worker errors above", file=sys.stderr)
        return 1
    print(json.dumps({"environment": untraced[0]["environment"]}))
    print(json.dumps({"known_gaps": untraced[0]["probes"]}))

    rounds = untraced + traced
    attempted, failed, problems, warned = tally(rounds, len(tasks))
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": [r and {k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
                         for r in rounds],
              "task_wall_s": [r and {t["id"]: t["wall_s"] for t in r["tasks"]} for r in rounds],
              "fail_frac": failed / attempted, "user_warnings_per_round": warned / len(rounds),
              "problems": problems[:20], "elapsed_s": s.elapsed()}
    if args.trace:
        n_bic = sum(t.command == "bic" for t in tasks)
        values, detail["bases"] = layer_metrics(args.workload, traced, untraced, n_bic)
        values["fail_frac"] = detail["fail_frac"]
        values["user_warnings"] = detail["user_warnings_per_round"]
        units = per_layer_units()
    else:
        values = {k: median_of(untraced, k) for k in END_TO_END}
        units = END_TO_END
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
