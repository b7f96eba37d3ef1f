"""The four benchmark workloads as lists of biximp CLI tasks.

Each task is one `biximp <command> --config <yaml> --out <dir>` call.
The seed changes parameter values only, never N, grid sizes or the
number of tasks, so every seed does the same amount of work.  Seed 0
is the default: exactly the configuration listed here, whose outputs
are compared with the recorded references.

Why each workload exists (which layer does most of its work):

- phase_sweep:   biexciton (basis builds, phi_samples) and projected
                 (fits, small eigh); 500 basis builds for 30 distinct D.
- packet_split:  dynamics (reduced density, split ratio) and the basis
                 rebuilds of calibrate_v0; few bases, each eigensystem
                 reused for ~90 propagations.
- exact_arbiter: pairbasis (dense eigh, dict-based classify/fold loops);
                 the only workload whose memory grows as N^4.
- pole_spectra:  scattering.s_function's scalar loop, exciton, and the
                 most CLI calls and table writes (cli, csvio).
"""

import math
import random
from dataclasses import dataclass

WORKLOADS = ("phase_sweep", "packet_split", "exact_arbiter", "pole_spectra")
DEFAULT_SEED = 0

# layers that should carry most of each workload's traced self time
DOMINANT_LAYERS = {
    "phase_sweep": ("biexciton", "projected"),
    "packet_split": ("dynamics", "biexciton"),
    "exact_arbiter": ("pairbasis",),
    "pole_spectra": ("scattering",),
}

README_PACKET = {"K0": 3 * math.pi / 8, "dK0": math.pi / 24,
                 "t_start": -30.0, "t_end": 60.0, "sample_dt": 1.0,
                 "calibrate_v0": True, "snapshots": [-30.0, 35.0, 54.0]}


@dataclass
class Task:
    """One CLI call; `expect_bic` asks the oracle for the BIC state near E_b1."""

    id: str
    command: str
    config: dict
    expect_bic: bool = False


class _Jitter:
    """Seeded parameter offsets; the default seed gives none."""

    def __init__(self, workload, seed):
        self.rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")

    def __call__(self, value, width):
        """value shifted by up to width / 2 either way."""
        if self.rng is None:
            return value
        return round(value + width * (self.rng.random() - 0.5), 6)

    def below(self, value, width):
        """value lowered by up to width, for values that sit at an edge."""
        if self.rng is None:
            return value
        return round(value - width * self.rng.random(), 6)


def _phase_sweep(j, small):
    sizes = ((8, 5, 5), (12, 3, 3)) if small else ((40, 20, 20), (100, 10, 10))
    tasks = []
    for N, n_d, n_v in sizes:
        grid = {"D_min": j(2.1, 0.05), "D_max": j(6.0, 0.2), "n_D": n_d,
                "V0_min": j(-5.0, 0.2), "V0_max": j(5.0, 0.2), "n_V0": n_v}
        tasks.append(Task(f"phase_diagram_N{N}", "phase-diagram",
                          {"model": {"N": N, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 4.0},
                           "phase_diagram": grid}))
    return tasks


def _packet_split(j, small):
    tasks = []
    for N in ((12,) if small else (40, 200)):
        # K0 + 3 dK0 sits exactly on the zone edge pi/2, so dK0 may only shrink
        packet = dict(README_PACKET, dK0=j.below(README_PACKET["dK0"], 0.005))
        if small:
            packet.update(t_end=-20.0, snapshots=[-30.0])
        tasks.append(Task(f"wavepacket_N{N}", "wavepacket",
                          {"model": {"N": N, "J": -1.0, "D": j(-4.5, 0.2),
                                     "E0": 0.0, "V0": 0.0},
                           "wavepacket": packet}))
    return tasks


def _exact_arbiter(j, small):
    cases = ((8, 8.0), (8, 1.0)) if small else ((40, 8.0), (40, 1.0), (60, 8.0))
    tasks = []
    for N, v0 in cases:
        # E_b1 = 3.98 at D = 4.1, V0 = 8 is just inside the continuum edge 4|J|
        # and grows with D and V0, so both may only decrease
        tasks.append(Task(f"bic_N{N}_V{v0:g}", "bic",
                          {"model": {"N": N, "J": 1.0, "D": j.below(4.1, 0.1), "E0": 0.0,
                                     "V0": j.below(v0, 0.05 * v0)},
                           "bic": {"flag_tolerance": 0.05}},
                          # V0 = 8 is the BIC case; V0 = 1 is the README contrast
                          expect_bic=v0 > 4.0 and not small))
    return tasks


def _pole_spectra(j, small):
    sizes = (8, 16) if small else (40, 400)
    tasks = []
    for N in sizes:
        tasks.append(Task(f"exciton_N{N}", "exciton",
                          {"model": {"N": N, "J": 1.0, "D": 5.0, "E0": 1000.0,
                                     "V0": j(2.5, 0.2)},
                           "exciton": {"sign_cases": True}}))
    for N in sizes:
        for sign in (1, -1):
            tasks.append(Task(f"biexciton_spectrum_N{N}_V{'+' if sign > 0 else '-'}",
                              "biexciton-spectrum",
                              {"model": {"N": N, "J": 1.0, "D": j(4.1, 0.1),
                                         "E0": 1000.0, "V0": sign * j(4.0, 0.2)}}))
    n_scan = 20 if small else 200
    for D in ((4.0,) if small else (3.0, 4.0, 5.0, 6.0)):
        for v0 in (0.25, 1.0):
            tasks.append(Task(f"poles_D{D:g}_V{v0:g}", "poles",
                              {"model": {"N": 8 if small else 40, "J": 1.0,
                                         "D": j(D, 0.1), "E0": 0.0,
                                         "V0": j(v0, 0.05 * v0)},
                               "poles": {"K_doubleprime_max": 1.5, "n_scan": n_scan}}))
    return tasks


_TASK_LISTS = {"phase_sweep": _phase_sweep, "packet_split": _packet_split,
             "exact_arbiter": _exact_arbiter, "pole_spectra": _pole_spectra}


def tasks(workload, seed=DEFAULT_SEED, small=False):
    """Task list of a workload; `small` gives the reduced-size smoke variant."""
    return _TASK_LISTS[workload](_Jitter(workload, seed), small)


# One untimed call before timing starts, the same for every workload, so
# that setup_s compares across workloads and BLAS and lazy imports are warm.
WARMUP = Task("warmup", "biexciton-spectrum",
              {"model": {"N": 16, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 4.0}})

# Known gaps: run untimed after the timed work, reported and never gated.
PROBES = (
    # the K' = pi/2 branch overflows at N >= 60 (D = 4, V0 = -0.25)
    Task("probe_poles_N60", "poles",
         {"model": {"N": 60, "J": 1.0, "D": 4.0, "E0": 0.0, "V0": 0.25},
          "poles": {"K_doubleprime_max": 1.5, "n_scan": 200}}),
    # the exact BIC sits 3.27e-4 from the closed form E_b1 at every N tried
    Task("probe_bic_N40", "bic",
         {"model": {"N": 40, "J": 1.0, "D": 4.1, "E0": 0.0, "V0": 8.0},
          "bic": {"flag_tolerance": 0.05}}),
)
