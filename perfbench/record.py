"""Record the default-seed reference outputs from the current code.

    python3 perfbench/record.py [WORKLOAD ...]

Writes references/<workload>.json.gz, which the benchmark compares
every default-seed run against.  Re-record only when a change is meant
to alter the outputs, and say so in the change.
"""

import shutil
import sys
from pathlib import Path

import oracle
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent


def record(workload):
    cli = worker.import_biximp(ROOT).cli
    out_dir = ROOT / ".bench_out" / "record" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    refs = {}
    for task in workloads.tasks(workload):
        out = out_dir / task.id
        code, error, _, stderr = worker.run_task(cli, task, out)
        if code != 0 or error is not None:
            raise SystemExit(f"{task.id}: exit {code}, {error or stderr}")
        problems = oracle.check_invariants(task, out)
        if problems:
            raise SystemExit(f"{task.id}: {problems}")
        refs[task.id] = oracle.summarize(out)
    oracle.save_references(workload, refs)
    shutil.rmtree(out_dir.parent, ignore_errors=True)
    print(f"{workload}: {len(refs)} tasks -> {oracle.reference_path(workload)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
