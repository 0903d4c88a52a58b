"""Workload definitions: the configs each workload runs, made from a seed.

Every config starts from a bundled config of the package and changes only
sizes and values drawn from the workload seed, so the same seed always
gives byte-identical configs. Each config also carries the counts the
benchmark derives from it: grid/sweep points and probe samples written,
and the calls the traced run should see on the paths that scale with them.

The same generator, given the frozen copy of the package in reference/,
makes the reference probes that run next to the live ops, so the run can
tell how fast the host was while it measured (see NOTES.md).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BUNDLED = ("cavity_spectrum", "trap_map", "noise_sweep", "scattering_sweep",
           "rabi", "spin_echo", "squeezing")

WARM = {"cold-bundled": False, "scaled-sweeps": True, "long-rabi": True,
        "echo-scan": True}

# Nominal seconds per cycle (one untraced op of each config and its
# reference probe) on the 2-vCPU host where the benchmark was defined, at
# the seed code. They fix how many cycles a run of a given --seconds makes,
# so the op count, and the rank each percentile is read at, never depends
# on the speed of the code.
CYCLE_S = {"cold-bundled": 11.0, "scaled-sweeps": 2.2, "long-rabi": 1.1,
           "echo-scan": 0.95}

# Median wall time of each reference probe (the workload's config run by
# the frozen copy), and of a fresh interpreter importing the frozen copy's
# qndsim.cli, on the defining host. They only set the scale the reported
# times are read at; see NOTES.md.
PROBE_NOMINAL_S = {
    "cold-bundled": {"cavity_spectrum": 0.650, "trap_map": 0.690,
                     "noise_sweep": 0.655, "scattering_sweep": 0.670,
                     "rabi": 0.645, "spin_echo": 0.645, "squeezing": 0.645},
    "scaled-sweeps": {"trap_map": 0.410, "noise_sweep": 0.290,
                      "scattering_sweep": 0.350},
    "long-rabi": {"rabi": 0.500},
    "echo-scan": {"spin_echo": 0.420},
}
SETUP_NOMINAL_S = 0.590


@dataclass
class Config:
    name: str
    scenario: str
    body: dict
    points: int = 0          # grid and sweep points written
    samples: int = 0         # probe samples written
    periods: int = 0         # probe periods the spin engine steps through
    # (span name, parent span) -> calls expected per op
    expected_calls: dict = field(default_factory=dict)
    path: Path | None = None


def _bundled(src: Path, stem: str) -> dict:
    return json.loads((src / "qndsim" / "configs" / f"{stem}.json")
                      .read_text(encoding="utf-8"))


def _samples_per_trace(duration_us: float, rate_khz: float) -> int:
    return int(duration_us * rate_khz * 1e-3 + 1e-9) + 1


def _describe(stem: str, body: dict) -> Config:
    scenario = body["scenario"]
    cfg = Config(stem, scenario, body)
    if scenario == "cavity-spectrum":
        cfg.points = (body["cavity"]["max_transverse_order"] + 1) ** 2
    elif scenario == "trap-map":
        n = body["grid"]["points_per_axis"]
        cfg.points = n ** 3
        cfg.expected_calls[("trap.potential_at", "cli.main")] = n ** 3
    elif scenario == "noise-sweep":
        cfg.points = body["sweep"]["points"]
        cfg.expected_calls[("heterodyne.demodulated_signal", "cli.main")] = \
            cfg.points + 1
    elif scenario == "scattering-sweep":
        cfg.points = body["sweep"]["points"]
        cfg.expected_calls[("atoms.ProbeTuning.from_powers", "cli.main")] = \
            cfg.points
    elif scenario == "rabi":
        rate = body["probe_gate"]["repetition_rate_khz"]
        cfg.samples = _samples_per_trace(
            body["drive"]["duration_ms"] * 1e3, rate)
        cfg.periods = cfg.samples - 1
        cfg.expected_calls[("atoms.evolve", "harness.run_sequence")] = \
            cfg.periods
        cfg.expected_calls[("heterodyne.atomic_phase",
                            "harness.run_sequence")] = cfg.samples
    elif scenario == "spin-echo":
        per = _samples_per_trace(body["echo"]["total_duration_us"],
                                 body["probe_gate"]["repetition_rate_khz"])
        cfg.samples = per * len(body["echo"]["detunings_hz"])
        cfg.periods = (per - 1) * len(body["echo"]["detunings_hz"])
        cfg.expected_calls[("heterodyne.atomic_phase",
                            "harness.run_sequence")] = cfg.samples
        cfg.expected_calls[("harness.build_spin_echo", "cli.main")] = \
            len(body["echo"]["detunings_hz"])
    return cfg


def generate(workload: str, seed: int, src: Path, small: bool) -> list[Config]:
    """Configs for one workload, in their base order.

    ``small`` selects the smallest sizes, for the self-test.
    """
    rng = np.random.default_rng(seed)
    run_seed = int(rng.integers(0, 2**31 - 1))
    configs: list[tuple[str, dict]] = []
    if workload == "cold-bundled":
        for stem in BUNDLED:
            body = _bundled(src, stem)
            body["seed"] = run_seed
            configs.append((stem, body))
    elif workload == "scaled-sweeps":
        trap = _bundled(src, "trap_map")
        trap["trap"]["power_per_arm_w"] = round(float(rng.uniform(150, 250)), 3)
        trap["grid"]["half_span_um"] = round(float(rng.uniform(100, 200)), 3)
        trap["grid"]["points_per_axis"] = 5 if small else 25
        noise = _bundled(src, "noise_sweep")
        noise["probe"]["ram_asymmetry"] = round(float(rng.uniform(0.005, 0.02)), 5)
        noise["sweep"]["phi_at_rad"] = round(float(rng.uniform(0.05, 0.25)), 4)
        noise["sweep"]["path_error_max_um"] = round(float(rng.uniform(50, 150)), 3)
        noise["sweep"]["points"] = 101 if small else 30_000
        scat = _bundled(src, "scattering_sweep")
        scat["tuning"]["expansion_rate_hz"] = round(float(rng.uniform(100, 140)), 3)
        scat["sweep"]["detuning_min_linewidths"] = round(float(rng.uniform(0.3, 1.0)), 4)
        scat["sweep"]["detuning_max_linewidths"] = round(float(rng.uniform(8, 12)), 4)
        scat["sweep"]["points"] = 101 if small else 30_000
        configs = [("trap_map", trap), ("noise_sweep", noise),
                   ("scattering_sweep", scat)]
    elif workload == "long-rabi":
        rabi = _bundled(src, "rabi")
        rabi["seed"] = run_seed
        rabi["drive"]["duration_ms"] = 2.0 if small else 100.0
        configs = [("rabi", rabi)]
    elif workload == "echo-scan":
        echo = _bundled(src, "spin_echo")
        echo["seed"] = run_seed
        n = 4 if small else 200
        echo["echo"]["detunings_hz"] = [
            round(float(d), 3) for d in np.sort(rng.uniform(-2000, 2000, n))]
        configs = [("spin_echo", echo)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for _, body in configs:
        body.pop("out_dir", None)
    return [_describe(stem, body) for stem, body in configs]


def warmup(workload: str, src: Path) -> list[Config]:
    """Bundled-size configs of the workload's scenarios, run untimed first
    so lazy set-up inside the warmed worker is done before timing."""
    stems = {"scaled-sweeps": ("trap_map", "noise_sweep", "scattering_sweep"),
             "long-rabi": ("rabi",), "echo-scan": ("spin_echo",)}[workload]
    return [_describe(f"warmup_{s}", _bundled(src, s)) for s in stems]
