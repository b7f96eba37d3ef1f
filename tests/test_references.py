"""The benchmark's seed-0 tasks, run through the CLI, give the outputs
recorded in perfbench/references.

Each task of the four workloads (perfbench/workloads.py) runs in
process, and perfbench/oracle.py checks what it wrote: its invariants,
and every file against the recorded reference at the oracle's own
tolerances.  The benchmark modules are read, never changed.
"""

import sys
from pathlib import Path

import pytest
import yaml

from biximp import biexciton
from biximp.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_match_references(tmp_path, workload):
    refs = oracle.load_references(workload)
    problems = {}
    for task in workloads.tasks(workload):
        out, cfg = tmp_path / task.id, tmp_path / f"{task.id}.yaml"
        cfg.write_text(yaml.safe_dump(task.config))
        assert main([task.command, "--config", str(cfg), "--out", str(out)]) == 0, task.id
        found = oracle.check_invariants(task, out) + oracle.compare_reference(refs[task.id], out)
        if found:
            problems[task.id] = found
    assert not problems


def test_phase_sweep_runs_both_basis_forms(tmp_path, monkeypatch):
    """The seed-0 phase_sweep grids build bases of both forms that
    default_method picks from N and D/J: the exact finite-N root and its
    large-N limit.  So the benchmark times both branches of ModeBasis."""
    picked, pick = [], biexciton.default_method
    monkeypatch.setattr(biexciton, "default_method",
                        lambda params: picked.append(pick(params)) or picked[-1])
    for task in workloads.tasks("phase_sweep"):
        cfg = tmp_path / f"{task.id}.yaml"
        cfg.write_text(yaml.safe_dump(task.config))
        assert main([task.command, "--config", str(cfg), "--out", str(tmp_path / task.id)]) == 0
    assert set(picked) == {"exact", "large_n"}
