"""One fresh interpreter of the benchmark: set up, run a workload, report.

Usage (started by run.py, one process per round):

    python3 worker.py --root DIR --workload NAME --seed N --mode MODE
                      --spawned T --out DIR [--probe] [--small]

The worker imports biximp from DIR/src, makes one untimed warm-up CLI
call, then times the workload's CLI calls; MODE `traced` installs span
tracing first.  T is the time.monotonic() reading taken just before the
process was started, so setup_s includes the interpreter's own start-up.
--probe also runs the known-gap probes and records the environment,
after the timed calls.  The result is one JSON line on stdout.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy
import scipy
import yaml

import oracle
import tracer
import workloads


def import_biximp(root):
    """Import biximp from the checkout's src/ and nowhere else."""
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import biximp
    import biximp.cli
    if not Path(biximp.__file__).resolve().is_relative_to(src):
        raise ImportError(f"biximp imported from {biximp.__file__}, not {src}")
    return biximp


def write_config(task, out):
    """Create the task's output directory and config; returns the CLI arguments."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = out.parent / f"{out.name}.yaml"
    cfg.write_text(yaml.safe_dump(task.config))
    return [task.command, "--config", str(cfg), "--out", str(out)]


def call_main(cli, argv):
    """One in-process CLI call.

    Returns (exit_code, error, user_warnings, stderr_text).  Any exception
    escaping `main`, SystemExit included, is caught and reported as error.
    """
    err = io.StringIO()
    code, error = None, None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            error = f"SystemExit({exc.code!r})"
        except Exception as exc:
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    n_user = sum(issubclass(w.category, UserWarning) for w in caught)
    return code, error, n_user, err.getvalue()


def run_task(cli, task, out):
    """One untimed CLI call with only --config and --out."""
    return call_main(cli, write_config(task, out))


def run_workload(cli, tasks, out_dir):
    """Time each CLI call; returns per-task results and the summed wall and CPU time."""
    argvs = [write_config(task, out_dir / task.id) for task in tasks]
    results = []
    wall = cpu = 0.0
    for task, argv in zip(tasks, argvs):
        c0, t0 = time.process_time(), time.perf_counter()
        code, error, n_user, stderr = call_main(cli, argv)
        dt = time.perf_counter() - t0
        wall += dt
        cpu += time.process_time() - c0
        results.append({"id": task.id, "exit": code, "error": error, "wall_s": dt,
                        "user_warnings": n_user, "stderr": stderr.strip()[-300:]})
    return results, wall, cpu


def verify(tasks, results, out_dir, references):
    """Attach correctness problems to each task result (after timing)."""
    for task, res in zip(tasks, results):
        problems = []
        if res["error"] is not None:
            problems.append(f"exception escaped main: {res['error']}")
        elif res["exit"] != 0:
            problems.append(f"exit code {res['exit']}: {res['stderr']}")
        else:
            out = out_dir / task.id
            problems += oracle.check_invariants(task, out)
            if references is not None:
                ref = references.get(task.id)
                problems += (oracle.compare_reference(ref, out) if ref is not None
                             else ["no reference recorded for this task"])
        res["problems"] = problems
        res["failed"] = bool(problems)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("round", "traced"))
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true", help="run the known-gap probes after timing")
    ap.add_argument("--small", action="store_true", help="reduced-size smoke variant")
    args = ap.parse_args(argv)

    out_dir = Path(args.out)
    biximp = import_biximp(args.root)
    tr = None
    if args.mode == "traced":
        tr = tracer.Tracer(key_hooks=tracer.KEY_HOOKS)
        tr.install(biximp)
    # the warm-up is traced too when tracing, but its records are dropped below
    run_task(biximp.cli, workloads.WARMUP, out_dir / "warmup")
    result = {"setup_s": time.monotonic() - args.spawned}
    if tr is not None:
        tr.reset()
    tasks = workloads.tasks(args.workload, args.seed, small=args.small)
    results, wall, cpu = run_workload(biximp.cli, tasks, out_dir)
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb())
    result["bytes_out"] = sum(p.stat().st_size for t in tasks
                              for p in (out_dir / t.id).rglob("*") if p.is_file())
    if tr is not None:
        result["records"] = {name: {"calls": rec.calls, "self_s": rec.self_s,
                                    "keys": [k if isinstance(k, int) else repr(k)
                                             for k in rec.keys]}
                             for name, rec in tr.records.items()}
    references = None
    if args.seed == workloads.DEFAULT_SEED and not args.small:
        references = oracle.load_references(args.workload)
    verify(tasks, results, out_dir, references)
    result["tasks"] = results
    if args.probe:
        result["probes"] = probe(biximp.cli, out_dir)
        result["environment"] = environment(args.root)
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def probe(cli, out_dir):
    """Known gaps: reported on every run, never counted as failures."""
    poles, bic = workloads.PROBES
    code, error, _, stderr = run_task(cli, poles, out_dir / poles.id)
    report = {"poles_N60_exit": code, "poles_N60_message": error or stderr.strip()}
    code, error, _, _ = run_task(cli, bic, out_dir / bic.id)
    gap = None
    if code == 0 and error is None:
        m = bic.config["model"]
        e1, _ = oracle.bic_closed_form(m["J"], m["D"], m["E0"], m["V0"])
        rows = oracle.read_table(out_dir / bic.id / "bic_classification.csv")
        gaps = [abs(float(r["energy"]) - e1) for r in rows if r["type"] == "fully_bound"]
        gap = min(gaps) if gaps else None
    report["bic_N40_gap_to_E_b1"] = gap
    return report


def environment(root):
    """Versions, the BLAS as loaded in a workload process, and the code measured."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "yaml": yaml.__version__,
           "blas": f"{blas.get('name')} {blas.get('version')}",
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
           "blas_threads": None}
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        env["blas_threads"] = fn()
    root = Path(root)
    env["src_lines"] = sum(len(p.read_text().splitlines())
                           for p in (root / "src").rglob("*.py"))
    env["git_commit"] = None          # the benchmark may run from a plain export
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
            env["git_commit"] = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


if __name__ == "__main__":
    sys.exit(main())
