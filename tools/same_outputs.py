"""Check that two source trees give byte-identical CLI outputs.

    python3 tools/same_outputs.py PARENT_TREE [--seeds 0 3]

PARENT_TREE is a directory holding src/biximp, for example a
`git archive` of the parent commit.  Every task of the four benchmark
workloads (perfbench/workloads.py) at each seed, and the known-gap
PROBES once, runs through the cli.main of PARENT_TREE and of this
checkout: one fresh interpreter per tree, with
PYTHONDONTWRITEBYTECODE=1, each run from the same relative paths in a
temporary directory of its own.  Per task the exit code, the error,
stderr, the UserWarning count and the sha256 of every file written are
compared.  Each difference is printed; the exit code is 1 on any
difference, 0 when all agree, and 2 when a tree could not be run.
perfbench is imported, never changed: the tasks, the configs and the
in-process CLI call are its worker's own (worker.run_task).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

FIELDS = ("exit", "error", "user_warnings", "stderr")


def collect(tree, seeds):
    """{run name: its FIELDS and {file: sha256}} for every task, run in
    this process through the cli.main of `tree`, under the working
    directory."""
    import worker
    import workloads

    cli = worker.import_biximp(tree).cli
    runs = [(f"seed {seed}", task) for seed in seeds
            for name in workloads.WORKLOADS for task in workloads.tasks(name, seed)]
    runs += [("probes", task) for task in workloads.PROBES]
    found = {}
    for group, task in runs:
        out = Path(group.replace(" ", "")) / task.id
        found[f"{group} {task.id}"] = run = dict(zip(FIELDS, worker.run_task(cli, task, out)))
        run["files"] = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.rglob("*")) if p.is_file()}
    return found


def run_tree(tree, seeds):
    """collect(tree, seeds) in a fresh interpreter; None when it fails."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, __file__, str(Path(tree).resolve()), "--collect",
             "--seeds", *map(str, seeds)],
            cwd=tmp, capture_output=True, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        print(f"{tree}: exit {proc.returncode}\n{proc.stderr.strip()}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def differences(old, new):
    """One line per field, file or run that differs between two collects."""
    lines = []
    for run in sorted(old.keys() | new.keys()):
        if run not in old or run not in new:
            lines.append(f"{run}: only in {'parent' if run in old else 'change'}")
            continue
        a, b = old[run], new[run]
        lines += [f"{run}: {f} {a[f]!r} -> {b[f]!r}" for f in FIELDS if a[f] != b[f]]
        for name in sorted(a["files"].keys() | b["files"].keys()):
            ha, hb = a["files"].get(name), b["files"].get(name)
            if ha != hb:
                lines.append(f"{run}: {name} {ha or 'missing'} -> {hb or 'missing'}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="source tree to compare with, holding src/biximp")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    ap.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.collect:
        print(json.dumps(collect(args.parent, args.seeds)))
        return 0
    old, new = run_tree(args.parent, args.seeds), run_tree(ROOT, args.seeds)
    if old is None or new is None:
        return 2
    lines = differences(old, new)
    for line in lines:
        print(line)
    n_files = sum(len(r["files"]) for r in new.values())
    print(f"{len(new)} runs, {n_files} files, seeds {args.seeds}: "
          f"{len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
