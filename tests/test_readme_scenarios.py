"""The README's reference scenarios write the bytes recorded for them.

Each config of README's "Reproducing the reference datasets" table (the
V0 contrasts of `biexciton-spectrum` and `bic` included, the model
section of README's example configuration where a row gives none) runs
through `cli.main` at its README N, and the sha256 of every file it
writes is compared with RECORDED.  This pins byte identity, which the
oracle's tolerances in tests/test_references.py do not.

The table holds the bytes of one numpy/BLAS build: a build whose
rounding differs fails here while its outputs still pass the oracle.
To re-record, run this file as a script from the repository root,

    PYTHONPATH=src python tests/test_readme_scenarios.py

and paste the table it prints over RECORDED, after checking the change
of every file it names against the previous outputs.
"""

import hashlib
import math
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from biximp.cli import main

EXAMPLE_MODEL = {"N": 40, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 4.0}
README_PACKET = {"K0": 3 * math.pi / 8, "dK0": math.pi / 24,
                 "t_start": -30.0, "t_end": 60.0, "sample_dt": 1.0,
                 "calibrate_v0": True, "split_target": 0.5,
                 "snapshots": [-30.0, 35.0, 54.0]}

SCENARIOS = {
    "exciton": ("exciton", {
        "model": {"N": 40, "J": 1.0, "D": 5.0, "E0": 1000.0, "V0": 2.5},
        "exciton": {"sign_cases": True}}),
    "biexciton_spectrum_V+4": ("biexciton-spectrum", {
        "model": {"N": 40, "J": 1.0, "D": 4.1, "E0": 1000.0, "V0": 4.0}}),
    "biexciton_spectrum_V-4": ("biexciton-spectrum", {
        "model": {"N": 40, "J": 1.0, "D": 4.1, "E0": 1000.0, "V0": -4.0}}),
    "phase_diagram": ("phase-diagram", {
        "model": EXAMPLE_MODEL,
        "phase_diagram": {"D_min": 2.1, "D_max": 6.0, "n_D": 20,
                          "V0_min": -5.0, "V0_max": 5.0, "n_V0": 20}}),
    "poles": ("poles", {
        "model": {"N": 40, "J": 1.0, "D": 4.0, "V0": 0.25},
        "poles": {"K_doubleprime_max": 1.5, "n_scan": 200}}),
    "bic_V8": ("bic", {
        "model": {"N": 40, "J": 1.0, "D": 4.1, "V0": 8.0},
        "bic": {"flag_tolerance": 0.05}}),
    "bic_V1": ("bic", {
        "model": {"N": 40, "J": 1.0, "D": 4.1, "V0": 1.0},
        "bic": {"flag_tolerance": 0.05}}),
    "wavepacket": ("wavepacket", {
        "model": {"N": 40, "J": -1.0, "D": -4.5, "V0": 0.0},
        "wavepacket": README_PACKET}),
}

RECORDED = {
    "exciton": {
        "exciton_J+V+.csv":
            "0c1e7b9732e9e920d49d895ffbbab69aed815bc9fb8e1069c5e9c34efe215bde",
        "exciton_J+V+_bound_profile.csv":
            "f9f4a61ba204cb4d44c846f150b387ec6c04518d5629f2bfa23b8693c075cb16",
        "exciton_J+V-.csv":
            "bfdb51989dedaa191af488f31d73d63ba2d24827c8943e9740b778d9d272337d",
        "exciton_J+V-_bound_profile.csv":
            "f9f4a61ba204cb4d44c846f150b387ec6c04518d5629f2bfa23b8693c075cb16",
        "exciton_J-V+.csv":
            "a149a9ada76ff555632819bdd69c52d66e6e89de2efb7861ba67aa70ca1f82e5",
        "exciton_J-V+_bound_profile.csv":
            "f9f4a61ba204cb4d44c846f150b387ec6c04518d5629f2bfa23b8693c075cb16",
        "exciton_J-V-.csv":
            "7f20cf8e119ee46260fecd3152e9a6a33fd7106e74af2c398bfa895b557a7a87",
        "exciton_J-V-_bound_profile.csv":
            "f9f4a61ba204cb4d44c846f150b387ec6c04518d5629f2bfa23b8693c075cb16",
    },
    "biexciton_spectrum_V+4": {
        "biexciton_spectrum.csv":
            "8126a6f27f635c7c1e87c85cf2e2f2b43e2696c306895925f19af6ebfde89e11",
        "bound_a_profile.f64":
            "b8ab04c63c971a8d48c1dbae57f99f68a826974b1b969954f7220c2b583af122",
        "bound_b_profile.f64":
            "85e4e66887a535450d606c39367908f34160b54ca6979bc2323630b48c4d332a",
        "bound_c_profile.f64":
            "2ea9c3c1a58e0470a485a44dc7829f40dc27b5322927d1c0c18f7ce03be56063",
        "bound_d_profile.f64":
            "c3932f2c23611aaa4ee11ab554d40d7697b2f1f38a0ddb18ad641f860619e5de",
    },
    "biexciton_spectrum_V-4": {
        "biexciton_spectrum.csv":
            "d0a34f1d6e9c865ce5296bc986d4ba3f02edbaef95597e54cb38432782c1423c",
        "bound_e_profile.f64":
            "23796359551c6a9a0a78da95f2a973f9f72b8d765332728ff47dde8e1fd5aeb8",
        "bound_f_profile.f64":
            "8ec6704453dea09896a060476717bcdfe301eb7ee0e30a43ded1fb870b6491c6",
    },
    "phase_diagram": {
        "phase_diagram.csv":
            "aa5944781729af85fda4b39c3cd0a6c0376e2ba8e373cdff7661ffa41971e565",
    },
    "poles": {
        "pole_scan.csv":
            "cdf1b532ff20bc5ac2e12b8c9b2814a6b631b982a022b638eb60a8115dcf73c9",
        "pole_summary.csv":
            "9aa715590f95332556a59d3d04bf7b1ad68d0b69dcb4c0f9a4d00564c3175745",
    },
    "bic_V8": {
        "bic_amplitude.f64":
            "86db1635849e9676a9ee38f6eaac1c844d3e1feeef37d0c396390991ea7326e3",
        "bic_classification.csv":
            "32c6880b9436e9a26c91b87b7a21816f8304b9454004ab4a0c92fa420189bf15",
    },
    "bic_V1": {
        "bic_amplitude.f64":
            "8844a87836175719d6a61d42f8a4ff0b20f4914841f2a07cceff0f95dd092b86",
        "bic_classification.csv":
            "5366e0fb999d6c4e60967f4e391d769169860f031f1251beb8cf82dc68d60f0a",
    },
    "wavepacket": {
        "snapshot_contrast_t-30.0.f64":
            "da897f13eea9d7bc619dc1f3ef96f4fa31e81828fab90790836987c0d5a7eb87",
        "snapshot_contrast_t35.0.f64":
            "b9c56a970fd2e49c205e1c5f07612814fce7aca89bf67435dd98330423d8d493",
        "snapshot_contrast_t54.0.f64":
            "b38cdf6ebca4546c0f06f4ee48b6b4496b13c835c505af5256ef49e33e5bd2ab",
        "snapshot_modes_t-30.0.f64":
            "f2b7c2cd451e2b065c86e3080dec4a3b6b0d767c31b3e48fc9155ca855905f63",
        "snapshot_modes_t35.0.f64":
            "4459df57a9725d3231f79f00af60300efac251f64af0b3976e7588db2be144fd",
        "snapshot_modes_t54.0.f64":
            "94c38f305d832ad6a0ad08d1205248b2c02dc2a1e7b9104a28b3cc80f73a03d0",
        "snapshot_psi2_t-30.0.f64":
            "c39c42b8b481e2e84a4f935b47e627c86a17ea59b5a0c862c36739baf7436531",
        "snapshot_psi2_t35.0.f64":
            "d3e6609d14b30fc63602006cfa15b38104462431e080bbbc1a3bc9946061ed1b",
        "snapshot_psi2_t54.0.f64":
            "8749d8f93e6e647b585e112594530b59193e90acbeeadeacd380fe97ac357dc7",
        "snapshot_rho_diag_t-30.0.f64":
            "c27fbdefe8740e82914cd2caea51e01e19707a852c9842fe2c5d7f829337d9be",
        "snapshot_rho_diag_t35.0.f64":
            "bd9a5fc649828ecf32e1f2cbd4551decf2f0046c1b6b47df215e2e160a00cb03",
        "snapshot_rho_diag_t54.0.f64":
            "cb5c534a7756879a787c9aa53fb58ffb0cd611ce099f9cebbc4d511c7eab2b6f",
        "wavepacket_timeseries.csv":
            "b9bf9caf2a477cdc40b157c22148cc3256d6d3a8088bd31aa8d1e4b9590cf699",
    },
}


def run_scenario(name, workdir):
    """{file name: sha256} of everything scenario `name` writes."""
    command, cfg = SCENARIOS[name]
    path, out = Path(workdir) / f"{name}.yaml", Path(workdir) / name
    path.write_text(yaml.safe_dump(cfg))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0, name
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


@pytest.mark.filterwarnings("ignore:packet clipped")
@pytest.mark.parametrize("name", SCENARIOS)
def test_readme_scenario_bytes(tmp_path, name):
    assert run_scenario(name, tmp_path) == RECORDED[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: run_scenario(name, tmp) for name in SCENARIOS}
    sys.stdout.write("RECORDED = {\n")
    for name, files in table.items():
        sys.stdout.write(f'    "{name}": {{\n')
        for f, digest in files.items():
            sys.stdout.write(f'        "{f}":\n            "{digest}",\n')
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
