"""tools/same_outputs.py names every field, file and run that differs."""

import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import same_outputs  # noqa: E402


def test_differences_lists_each_change():
    old = {"seed 0 bic_N40_V8": {"exit": 0, "error": None, "user_warnings": 0, "stderr": "",
                                 "files": {"bic_classification.csv": "aa", "bic_amplitude.f64": "bb"}},
           "probes probe_poles_N60": {"exit": 0, "error": None, "user_warnings": 2,
                                      "stderr": "", "files": {"pole_scan.csv": "cc"}}}
    assert same_outputs.differences(old, copy.deepcopy(old)) == []
    new = copy.deepcopy(old)
    run = new["seed 0 bic_N40_V8"]
    run.update(exit=1, stderr="numerical failure: x\n")
    run["files"]["bic_classification.csv"] = "ab"
    del run["files"]["bic_amplitude.f64"]
    new["probes probe_poles_N60"]["user_warnings"] = 3
    new["seed 3 extra"] = old["seed 0 gone"] = old["probes probe_poles_N60"]
    assert same_outputs.differences(old, new) == [
        "probes probe_poles_N60: user_warnings 2 -> 3",
        "seed 0 bic_N40_V8: exit 0 -> 1",
        "seed 0 bic_N40_V8: stderr '' -> 'numerical failure: x\\n'",
        "seed 0 bic_N40_V8: bic_amplitude.f64 bb -> missing",
        "seed 0 bic_N40_V8: bic_classification.csv aa -> ab",
        "seed 0 gone: only in parent",
        "seed 3 extra: only in change",
    ]
