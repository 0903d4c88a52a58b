"""Command line front end: config ingestion, dispatch, CSV/JSON emission.

Configs are JSON with unit-suffixed field names (waist_um, carrier_power_uw)
so a number can never silently change meaning. Every run writes its data
artifacts plus a manifest carrying the seed and a hash of the semantically
meaningful config fields; re-running a config with the same seed reproduces
every output byte for byte.

Exit codes: 0 success, 2 config error (with line/field diagnostics),
3 physics/regime error during a run, 1 internal error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .atoms import (
    EnsembleState,
    ProbeTuning,
    RabiModel,
    cavity_enhancement,
    light_shift,
    scattering_rate,
    squeezing_estimate,
)
from .cavity import CavityGeometry, solve_mode, transverse_spectrum
from .constants import C, K_B
from .errors import (
    ConfigError,
    DomainError,
    FitDiverged,
    NotAMinimum,
    QndSimError,
    RegimeError,
    StepError,
    UnstableCavity,
)
from .harness import (
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    build_spin_echo,
    fit_damped_sine,
    mid_pulse_amplitude,
    run_sequence,
    write_fit_json,
    write_trace_csv,
)
from .heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    demodulated_signal,
    interferometer_length_signal,
    length_noise_signal,
    noise_rejection_ratio,
)
from .trap import DipoleTrapConfig, potential_at, trap_depth, trap_frequencies

SCHEMA_VERSION = 1
SCENARIOS = (
    "cavity-spectrum",
    "trap-map",
    "noise-sweep",
    "scattering-sweep",
    "rabi",
    "spin-echo",
    "squeezing",
)
SMALL_PHASE_LIMIT = 0.3
SMALL_BETA_LIMIT = 0.3

# keys that don't change what is simulated: out_dir is placement, the seed
# is recorded in the manifest as its own field, description is annotation
NON_SEMANTIC_KEYS = ("out_dir", "seed", "description")

_TOP_LEVEL_KEYS = ("schema_version", "scenario", "seed", "out_dir",
                   "description")
_SECTION_BY_SCENARIO = {
    "cavity-spectrum": ("cavity",),
    "trap-map": ("trap", "grid"),
    "noise-sweep": ("probe", "detector", "sweep"),
    "scattering-sweep": ("tuning", "sweep"),
    "rabi": ("drive", "probe_gate", "ensemble", "detector", "options"),
    "spin-echo": ("echo", "probe_gate", "ensemble", "detector", "options"),
    "squeezing": ("squeezing",),
}
_OPTIONAL_SECTIONS = {"detector", "options", "grid"}


# --------------------------------------------------------------- plumbing

def _fmt(value: float) -> str:
    return repr(float(value))


def _load_config(path: str) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set {pair!r}: expected key.path=value")
        dotted, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        keys = dotted.split(".")
        for key in keys[:-1]:
            nxt = node.setdefault(key, {})
            if not isinstance(nxt, dict):
                raise ConfigError(
                    f"--set {dotted}: {key} is not a config section")
            node = nxt
        node[keys[-1]] = value
    return cfg


def config_hash(cfg: dict) -> str:
    """Hash of the semantically meaningful config content."""
    trimmed = {k: v for k, v in cfg.items() if k not in NON_SEMANTIC_KEYS}
    canon = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(
                cell if isinstance(cell, str) else _fmt(cell)
                for cell in row) + "\n")


# ------------------------------------------------------------- validation

class _Checker:
    """Accumulates field-path diagnostics over one config."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.problems: list[str] = []

    def complain(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    def section(self, name: str, known: tuple[str, ...]) -> dict:
        sec = self.cfg.get(name)
        if sec is None:
            return {}
        if not isinstance(sec, dict):
            self.complain(name, "must be a JSON object")
            return {}
        for key in sec:
            if key not in known:
                self.complain(f"{name}.{key}", "unknown field")
        return sec

    def require(self, secname: str, key: str) -> None:
        sec = self.cfg.get(secname)
        if isinstance(sec, dict) and key not in sec:
            self.complain(f"{secname}.{key}", "required field is missing")

    def number(self, sec: dict, secname: str, key: str, default,
               minimum=None, maximum=None, exclusive_min=False):
        value = sec.get(key, default)
        path = f"{secname}.{key}"
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            self.complain(path, "must be a number")
            return default
        if minimum is not None:
            if exclusive_min and value <= minimum:
                self.complain(path, f"must be > {minimum}")
            elif not exclusive_min and value < minimum:
                self.complain(path, f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            self.complain(path, f"must be <= {maximum}")
        return float(value)

    def integer(self, sec: dict, secname: str, key: str, default,
                minimum=None, maximum=None):
        value = sec.get(key, default)
        path = f"{secname}.{key}"
        if not isinstance(value, int) or isinstance(value, bool):
            self.complain(path, "must be an integer")
            return default
        if minimum is not None and value < minimum:
            self.complain(path, f"must be >= {minimum}")
        if maximum is not None and value > maximum:
            self.complain(path, f"must be <= {maximum}")
        return value


def _scenario_list(cfg: dict) -> list[str]:
    raw = cfg.get("scenario")
    if isinstance(raw, str):
        return [raw]
    if isinstance(raw, list):
        return list(raw)
    return []


def validate_config(cfg: dict) -> list[str]:
    """Schema plus no-execution physics-regime checks; returns diagnostics."""
    chk = _Checker(cfg)
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        chk.complain("schema_version",
                     f"must be {SCHEMA_VERSION}, got {version!r}")
    raw = cfg.get("scenario")
    if raw is None:
        chk.complain("scenario", "required field is missing")
        scenarios = []
    elif isinstance(raw, str):
        scenarios = [raw]
    elif isinstance(raw, list):
        scenarios = []
        for i, name in enumerate(raw):
            if not isinstance(name, str):
                chk.complain(f"scenario[{i}]", "must be a string")
            else:
                scenarios.append(name)
    else:
        chk.complain("scenario", "must be a string or list of strings")
        scenarios = []
    for name in scenarios:
        if name not in SCENARIOS:
            chk.complain("scenario",
                         f"unknown scenario {name!r}; "
                         f"choices: {', '.join(SCENARIOS)}")
    scenarios = [s for s in scenarios if s in SCENARIOS]

    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        chk.complain("seed", "must be a nonnegative integer")
    if "out_dir" in cfg and not isinstance(cfg["out_dir"], str):
        chk.complain("out_dir", "must be a string")
    if "description" in cfg and not isinstance(cfg["description"], str):
        chk.complain("description", "must be a string")

    allowed = set(_TOP_LEVEL_KEYS)
    for name in scenarios:
        allowed.update(_SECTION_BY_SCENARIO[name])
    for key in cfg:
        if key not in allowed:
            chk.complain(key, "unknown field")
    for name in scenarios:
        for section in _SECTION_BY_SCENARIO[name]:
            if section not in cfg and section not in _OPTIONAL_SECTIONS:
                chk.complain(section,
                             f"section required by scenario {name!r} "
                             "is missing")
        _VALIDATORS[name](chk)
    return chk.problems


def _validate_cavity(chk: _Checker) -> None:
    sec = chk.section("cavity", (
        "fsr_mhz", "mirror_radius_mm", "fold_angle_deg", "segment_ratio",
        "astigmatism_factor", "wavelength_nm", "max_transverse_order"))
    chk.number(sec, "cavity", "fsr_mhz", 976.2, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "cavity", "mirror_radius_mm", 100.0, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "cavity", "fold_angle_deg", 45.0, minimum=0.0,
               maximum=90.0, exclusive_min=True)
    chk.number(sec, "cavity", "segment_ratio", math.sqrt(2.0), minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "cavity", "astigmatism_factor", 1.020, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "cavity", "wavelength_nm", 1560.0, minimum=0.0,
               exclusive_min=True)
    chk.integer(sec, "cavity", "max_transverse_order", 5, minimum=0,
                maximum=50)


def _validate_trap(chk: _Checker) -> None:
    sec = chk.section("trap", (
        "power_per_arm_w", "waist_par_um", "waist_perp_um",
        "backscatter_depth"))
    chk.number(sec, "trap", "power_per_arm_w", 200.0, minimum=0.0)
    chk.require("trap", "waist_par_um")
    chk.require("trap", "waist_perp_um")
    chk.number(sec, "trap", "waist_par_um", 93.1, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "trap", "waist_perp_um", 129.8, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "trap", "backscatter_depth", 0.0, minimum=0.0,
               maximum=0.999999)
    grid = chk.section("grid", ("half_span_um", "points_per_axis"))
    chk.number(grid, "grid", "half_span_um", 150.0, minimum=0.0,
               exclusive_min=True)
    chk.integer(grid, "grid", "points_per_axis", 13, minimum=2, maximum=101)


def _detector_fields(chk: _Checker) -> DetectorModel | None:
    sec = chk.section("detector", (
        "sensitivity_a_per_w", "transimpedance_v_per_a", "buffer_gain",
        "load_ohm", "bandwidth_mhz", "kappa_e_uw"))
    eta = chk.number(sec, "detector", "sensitivity_a_per_w", 0.5,
                     minimum=0.0, exclusive_min=True)
    rf = chk.number(sec, "detector", "transimpedance_v_per_a", 1466.0,
                    minimum=0.0, exclusive_min=True)
    g = chk.number(sec, "detector", "buffer_gain", 2.0, minimum=0.0,
                   exclusive_min=True)
    load = chk.number(sec, "detector", "load_ohm", 50.0, minimum=0.0,
                      exclusive_min=True)
    bw = chk.number(sec, "detector", "bandwidth_mhz", 1.0, minimum=0.0,
                    exclusive_min=True)
    ke = chk.number(sec, "detector", "kappa_e_uw", 165.0, minimum=0.0)
    if chk.problems:
        return None
    return DetectorModel(sensitivity=eta, transimpedance=rf, buffer_gain=g,
                         load=load, bandwidth=bw * 1e6, kappa_e=ke * 1e-6)


def _validate_noise(chk: _Checker) -> None:
    sec = chk.section("probe", (
        "carrier_power_uw", "sideband_power_nw", "modulation_depth",
        "modulation_frequency_ghz", "ram_asymmetry", "path_length_m",
        "beam_waist_um", "carrier_detuning_ghz"))
    chk.number(sec, "probe", "carrier_power_uw", 120.0, minimum=0.0)
    chk.number(sec, "probe", "sideband_power_nw", 76.0, minimum=0.0)
    beta = chk.number(sec, "probe", "modulation_depth", 0.025, minimum=0.0)
    if beta > SMALL_BETA_LIMIT:
        chk.complain("probe.modulation_depth",
                     f"{beta} outside the two-sideband regime "
                     f"(must be <= {SMALL_BETA_LIMIT})")
    chk.number(sec, "probe", "modulation_frequency_ghz", 2.808, minimum=0.0,
               exclusive_min=True)
    ram = chk.number(sec, "probe", "ram_asymmetry", 0.01)
    if abs(ram) >= 1:
        chk.complain("probe.ram_asymmetry", "must satisfy |eps| < 1")
    chk.number(sec, "probe", "path_length_m", 1.0, minimum=0.0)
    chk.require("probe", "beam_waist_um")
    chk.number(sec, "probe", "beam_waist_um", 245.0, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "probe", "carrier_detuning_ghz", -2.808)
    _detector_fields(chk)
    sweep = chk.section("sweep", (
        "phi_at_rad", "path_error_max_um", "points",
        "reference_wavelength_um"))
    phi = chk.number(sweep, "sweep", "phi_at_rad", 0.1)
    if abs(phi) > SMALL_PHASE_LIMIT:
        chk.complain("sweep.phi_at_rad",
                     f"|{phi}| outside the small-phase regime "
                     f"(must be <= {SMALL_PHASE_LIMIT})")
    chk.number(sweep, "sweep", "path_error_max_um", 100.0, minimum=0.0,
               exclusive_min=True)
    chk.integer(sweep, "sweep", "points", 41, minimum=2, maximum=100001)
    chk.number(sweep, "sweep", "reference_wavelength_um", 1.0, minimum=0.0,
               exclusive_min=True)


def _validate_scattering(chk: _Checker) -> None:
    sec = chk.section("tuning", (
        "carrier_power_uw", "sideband_power_nw", "waist_um",
        "modulation_frequency_ghz", "expansion_rate_hz"))
    chk.number(sec, "tuning", "carrier_power_uw", 120.0, minimum=0.0)
    chk.number(sec, "tuning", "sideband_power_nw", 76.0, minimum=0.0)
    chk.require("tuning", "waist_um")
    chk.number(sec, "tuning", "waist_um", 245.0, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "tuning", "modulation_frequency_ghz", 2.808,
               minimum=0.0, exclusive_min=True)
    chk.number(sec, "tuning", "expansion_rate_hz", 120.0, minimum=0.0)
    sweep = chk.section("sweep", (
        "detuning_min_linewidths", "detuning_max_linewidths", "points"))
    lo = chk.number(sweep, "sweep", "detuning_min_linewidths", 0.5)
    hi = chk.number(sweep, "sweep", "detuning_max_linewidths", 10.0)
    if hi <= lo:
        chk.complain("sweep.detuning_max_linewidths",
                     "must exceed detuning_min_linewidths")
    chk.integer(sweep, "sweep", "points", 96, minimum=2, maximum=100001)


def _gate_fields(chk: _Checker) -> None:
    sec = chk.section("probe_gate", (
        "repetition_rate_khz", "pulse_duration_us",
        "sideband_detuning_linewidths", "carrier_power_uw",
        "sideband_power_nw", "waist_um", "modulation_frequency_ghz",
        "backaction"))
    rep = chk.number(sec, "probe_gate", "repetition_rate_khz", 100.0,
                     minimum=0.0, exclusive_min=True)
    dur = chk.number(sec, "probe_gate", "pulse_duration_us", 1.25,
                     minimum=0.0, exclusive_min=True)
    if rep * 1e3 * dur * 1e-6 > 1:
        chk.complain("probe_gate.pulse_duration_us",
                     "probe duty cycle exceeds 1")
    chk.number(sec, "probe_gate", "sideband_detuning_linewidths", 7.9)
    pc = chk.number(sec, "probe_gate", "carrier_power_uw", 70.0, minimum=0.0)
    ps = chk.number(sec, "probe_gate", "sideband_power_nw", 90.0,
                    minimum=0.0)
    chk.require("probe_gate", "waist_um")
    chk.number(sec, "probe_gate", "waist_um", 800.0, minimum=0.0,
               exclusive_min=True)
    chk.number(sec, "probe_gate", "modulation_frequency_ghz", 2.5,
               minimum=0.0, exclusive_min=True)
    if "backaction" in sec and not isinstance(sec["backaction"], bool):
        chk.complain("probe_gate.backaction", "must be true or false")
    if pc > 0:
        beta = math.sqrt(ps * 1e-9 / (pc * 1e-6))
        if beta > SMALL_BETA_LIMIT:
            chk.complain("probe_gate.sideband_power_nw",
                         f"implied modulation depth {beta:.3g} outside the "
                         f"two-sideband regime (<= {SMALL_BETA_LIMIT})")
    elif ps > 0:
        chk.complain("probe_gate.carrier_power_uw",
                     "carrier power must be positive when the sideband "
                     "carries power")


def _ensemble_fields(chk: _Checker) -> None:
    sec = chk.section("ensemble", ("atom_number", "cloud_rms_um"))
    chk.number(sec, "ensemble", "atom_number", 1e7, minimum=0.0)
    chk.number(sec, "ensemble", "cloud_rms_um", 300.0, minimum=0.0)


def _phi_regime_check(chk: _Checker) -> None:
    gate = chk.cfg.get("probe_gate", {})
    ens = chk.cfg.get("ensemble", {})
    if not isinstance(gate, dict) or not isinstance(ens, dict):
        return
    delta = gate.get("sideband_detuning_linewidths", 7.9)
    n_at = ens.get("atom_number", 1e7)
    waist = gate.get("waist_um", 800.0)
    rms = ens.get("cloud_rms_um", 300.0)
    values = (delta, n_at, waist, rms)
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        return
    if waist <= 0 or n_at < 0 or rms < 0:
        return
    from .constants import GAMMA_D2_FREQ
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phi = atomic_phase(delta * GAMMA_D2_FREQ, n_at, waist * 1e-6,
                           rms * 1e-6)
    if abs(phi) > SMALL_PHASE_LIMIT:
        chk.complain(
            "ensemble.atom_number",
            f"predicted dispersive phase {phi:.3f} rad exceeds the "
            f"small-phase regime ({SMALL_PHASE_LIMIT} rad) at this probe "
            "geometry and detuning")


def _validate_rabi(chk: _Checker) -> None:
    drive = chk.section("drive", (
        "rabi_frequency_khz", "detuning_hz", "duration_ms",
        "residual_damping_hz", "inhomogeneity"))
    chk.number(drive, "drive", "rabi_frequency_khz", 6.6, minimum=0.0)
    chk.number(drive, "drive", "detuning_hz", 0.0)
    chk.number(drive, "drive", "duration_ms", 2.0, minimum=0.0,
               exclusive_min=True)
    chk.number(drive, "drive", "residual_damping_hz", 90.0, minimum=0.0)
    chk.number(drive, "drive", "inhomogeneity", 0.162, minimum=0.0)
    _gate_fields(chk)
    _ensemble_fields(chk)
    _detector_fields(chk)
    options = chk.section("options", ("noiseless", "fit_window_ms"))
    if "noiseless" in options and not isinstance(options["noiseless"], bool):
        chk.complain("options.noiseless", "must be true or false")
    chk.number(options, "options", "fit_window_ms", 0.8, minimum=0.0,
               exclusive_min=True)
    _phi_regime_check(chk)


def _validate_spin_echo(chk: _Checker) -> None:
    echo = chk.section("echo", (
        "pi_duration_us", "total_duration_us", "gap_us", "detunings_hz",
        "residual_damping_hz"))
    pi_us = chk.number(echo, "echo", "pi_duration_us", 74.5, minimum=0.0,
                       exclusive_min=True)
    total = chk.number(echo, "echo", "total_duration_us", 500.0,
                       minimum=0.0, exclusive_min=True)
    gap = echo.get("gap_us")
    if gap is not None:
        if not isinstance(gap, (int, float)) or isinstance(gap, bool):
            chk.complain("echo.gap_us", "must be a number or null")
        elif gap < 0:
            chk.complain("echo.gap_us", "must be >= 0")
    elif total < 2 * pi_us:
        chk.complain("echo.total_duration_us",
                     "too short to hold two pi pulse equivalents")
    dets = echo.get("detunings_hz", [0.0, 1000.0, 1200.0, 1800.0])
    if not isinstance(dets, list) or not dets:
        chk.complain("echo.detunings_hz", "must be a nonempty list")
    else:
        for i, d in enumerate(dets):
            if not isinstance(d, (int, float)) or isinstance(d, bool):
                chk.complain(f"echo.detunings_hz[{i}]", "must be a number")
    chk.number(echo, "echo", "residual_damping_hz", 0.0, minimum=0.0)
    _gate_fields(chk)
    _ensemble_fields(chk)
    _detector_fields(chk)
    options = chk.section("options", ("noiseless",))
    if "noiseless" in options and not isinstance(options["noiseless"], bool):
        chk.complain("options.noiseless", "must be true or false")
    _phi_regime_check(chk)


def _validate_squeezing(chk: _Checker) -> None:
    sec = chk.section("squeezing", (
        "phase_per_atom_rad", "atom_number", "photon_number", "finesse"))
    chk.number(sec, "squeezing", "phase_per_atom_rad", 1e-5)
    chk.number(sec, "squeezing", "atom_number", 1e6, minimum=0.0)
    chk.number(sec, "squeezing", "photon_number", 1e5, minimum=0.0)
    fin = sec.get("finesse")
    if fin is not None and (not isinstance(fin, (int, float))
                            or isinstance(fin, bool) or fin <= 0):
        chk.complain("squeezing.finesse", "must be a positive number or null")


_VALIDATORS = {
    "cavity-spectrum": _validate_cavity,
    "trap-map": _validate_trap,
    "noise-sweep": _validate_noise,
    "scattering-sweep": _validate_scattering,
    "rabi": _validate_rabi,
    "spin-echo": _validate_spin_echo,
    "squeezing": _validate_squeezing,
}


# ---------------------------------------------------------------- runners

def _run_cavity_spectrum(cfg: dict, out: Path, seed: int) -> list[str]:
    sec = cfg.get("cavity", {})
    geom = CavityGeometry(
        round_trip_length=C / (sec.get("fsr_mhz", 976.2) * 1e6),
        mirror_radius=sec.get("mirror_radius_mm", 100.0) * 1e-3,
        fold_angle=math.radians(sec.get("fold_angle_deg", 45.0)),
        segment_ratio=sec.get("segment_ratio", math.sqrt(2.0)),
        astigmatism_correction=sec.get("astigmatism_factor", 1.020),
        wavelength=sec.get("wavelength_nm", 1560.0) * 1e-9,
    )
    order = sec.get("max_transverse_order", 5)
    rows = transverse_spectrum(geom, order, order)
    _write_csv(out / "spectrum.csv", "m,n,offset_hz",
               ((str(m), str(n), off) for m, n, off in rows))
    mode = solve_mode(geom)
    _write_json(out / "mode.json", {
        "waist_par_um": mode.waist_par * 1e6,
        "waist_perp_um": mode.waist_perp * 1e6,
        "rayleigh_par_mm": mode.rayleigh_par * 1e3,
        "rayleigh_perp_mm": mode.rayleigh_perp * 1e3,
        "fsr_mhz": mode.fsr / 1e6,
        "linewidth_khz": mode.linewidth / 1e3,
        "finesse": mode.finesse,
    })
    return ["spectrum.csv", "mode.json"]


def _run_trap_map(cfg: dict, out: Path, seed: int) -> list[str]:
    sec = cfg.get("trap", {})
    trap = DipoleTrapConfig(
        power_per_arm=sec.get("power_per_arm_w", 200.0),
        waist_par=sec.get("waist_par_um", 93.1) * 1e-6,
        waist_perp=sec.get("waist_perp_um", 129.8) * 1e-6,
        backscatter_depth=sec.get("backscatter_depth", 0.0),
    )
    grid = cfg.get("grid", {})
    half = grid.get("half_span_um", 150.0) * 1e-6
    n = grid.get("points_per_axis", 13)
    axis = np.linspace(-half, half, n)

    def rows():
        for x in axis:
            for y in axis:
                for z in axis:
                    u = potential_at(trap, (x, y, z))
                    yield (x * 1e6, y * 1e6, z * 1e6, u / K_B * 1e6)

    _write_csv(out / "trap_map.csv", "x_um,y_um,z_um,potential_uk", rows())
    fx, fy, fz = trap_frequencies(trap)
    _write_json(out / "trap_summary.json", {
        "depth_uk": trap_depth(trap) / K_B * 1e6,
        "frequency_x_hz": fx,
        "frequency_y_hz": fy,
        "frequency_z_hz": fz,
    })
    return ["trap_map.csv", "trap_summary.json"]


def _noise_probe(sec: dict) -> ModulatedProbe:
    return ModulatedProbe(
        carrier_power=sec.get("carrier_power_uw", 120.0) * 1e-6,
        modulation_depth=sec.get("modulation_depth", 0.025),
        modulation_frequency=2 * math.pi
        * sec.get("modulation_frequency_ghz", 2.808) * 1e9,
        ram_asymmetry=sec.get("ram_asymmetry", 0.01),
        carrier_detuning=sec.get("carrier_detuning_ghz", -2.808) * 1e9,
        sideband_power=sec.get("sideband_power_nw", 76.0) * 1e-9,
        beam_waist=sec.get("beam_waist_um", 245.0) * 1e-6,
        path_length=sec.get("path_length_m", 1.0),
    )


def _detector(cfg: dict) -> DetectorModel:
    sec = cfg.get("detector", {})
    return DetectorModel(
        sensitivity=sec.get("sensitivity_a_per_w", 0.5),
        transimpedance=sec.get("transimpedance_v_per_a", 1466.0),
        buffer_gain=sec.get("buffer_gain", 2.0),
        load=sec.get("load_ohm", 50.0),
        bandwidth=sec.get("bandwidth_mhz", 1.0) * 1e6,
        kappa_e=sec.get("kappa_e_uw", 165.0) * 1e-6,
    )


def _run_noise_sweep(cfg: dict, out: Path, seed: int) -> list[str]:
    probe = _noise_probe(cfg.get("probe", {}))
    det = _detector(cfg)
    sweep = cfg.get("sweep", {})
    phi = sweep.get("phi_at_rad", 0.1)
    span = sweep.get("path_error_max_um", 100.0) * 1e-6
    points = sweep.get("points", 41)
    wavelength = sweep.get("reference_wavelength_um", 1.0) * 1e-6
    triple = PhaseShiftTriple(phi_plus=phi)
    base = demodulated_signal(probe, triple, det)

    def rows():
        for pe in np.linspace(-span, span, points):
            pe = float(pe)
            full = demodulated_signal(probe, triple, det, path_error=pe)
            yield (pe,
                   full - base,
                   length_noise_signal(probe, phi, det, pe),
                   interferometer_length_signal(probe, det, pe, wavelength))

    _write_csv(out / "noise_sweep.csv",
               "path_error_m,demodulated_shift_v,budget_v,reference_v",
               rows())
    _write_json(out / "noise_rejection.json", {
        "phi_at_rad": phi,
        "ram_asymmetry": probe.ram_asymmetry,
        "modulation_wavelength_m": probe.modulation_wavelength,
        "reference_wavelength_m": wavelength,
        "rejection_ratio": noise_rejection_ratio(probe, phi, wavelength),
    })
    return ["noise_sweep.csv", "noise_rejection.json"]


def _run_scattering_sweep(cfg: dict, out: Path, seed: int) -> list[str]:
    sec = cfg.get("tuning", {})
    sweep = cfg.get("sweep", {})
    lo = sweep.get("detuning_min_linewidths", 0.5)
    hi = sweep.get("detuning_max_linewidths", 10.0)
    points = sweep.get("points", 96)
    expansion = sec.get("expansion_rate_hz", 120.0)

    def rows():
        for delta in np.linspace(lo, hi, points):
            tuning = ProbeTuning.from_powers(
                carrier_power=sec.get("carrier_power_uw", 120.0) * 1e-6,
                sideband_power=sec.get("sideband_power_nw", 76.0) * 1e-9,
                waist=sec.get("waist_um", 245.0) * 1e-6,
                sideband_detuning=float(delta),
                modulation_frequency=sec.get("modulation_frequency_ghz",
                                             2.808) * 1e9,
            )
            yield (float(delta), scattering_rate(tuning, expansion))

    _write_csv(out / "scattering_sweep.csv",
               "sideband_detuning_linewidths,decay_rate_hz", rows())
    return ["scattering_sweep.csv"]


def _gate_and_probe(cfg: dict) -> tuple[ProbeGate, ModulatedProbe, bool]:
    sec = cfg.get("probe_gate", {})
    pc = sec.get("carrier_power_uw", 70.0) * 1e-6
    ps = sec.get("sideband_power_nw", 90.0) * 1e-9
    waist = sec.get("waist_um", 800.0) * 1e-6
    mod_ghz = sec.get("modulation_frequency_ghz", 2.5)
    delta = sec.get("sideband_detuning_linewidths", 7.9)
    backaction = sec.get("backaction", True)
    tuning = ProbeTuning.from_powers(
        carrier_power=pc, sideband_power=ps, waist=waist,
        sideband_detuning=delta, modulation_frequency=mod_ghz * 1e9)
    if not backaction:
        # pure sampling clock: no scattering, no light shift; microwave
        # detunings are then relative to the dressed resonance
        tuning = replace(tuning, sideband_intensity=0.0,
                         carrier_intensity=0.0)
    gate = ProbeGate(
        repetition_rate=sec.get("repetition_rate_khz", 100.0) * 1e3,
        pulse_duration=sec.get("pulse_duration_us", 1.25) * 1e-6,
        tuning=tuning,
    )
    probe = ModulatedProbe(
        carrier_power=pc,
        modulation_depth=math.sqrt(ps / pc) if pc > 0 else 0.0,
        modulation_frequency=2 * math.pi * mod_ghz * 1e9,
        carrier_detuning=-mod_ghz * 1e9,
        sideband_power=ps,
        beam_waist=waist,
    )
    return gate, probe, backaction


def _ensemble(cfg: dict) -> EnsembleState:
    sec = cfg.get("ensemble", {})
    return EnsembleState.all_lower(
        sec.get("atom_number", 1e7),
        cloud_rms=sec.get("cloud_rms_um", 300.0) * 1e-6)


def _run_rabi(cfg: dict, out: Path, seed: int) -> list[str]:
    drive_sec = cfg.get("drive", {})
    options = cfg.get("options", {})
    gate, probe, backaction = _gate_and_probe(cfg)
    det = _detector(cfg)
    shift = light_shift(gate.tuning, gate.duty_cycle) if backaction else 0.0
    template = RabiModel(
        rabi_frequency=2 * math.pi
        * drive_sec.get("rabi_frequency_khz", 6.6) * 1e3,
        detuning=drive_sec.get("detuning_hz", 0.0),
        carrier_light_shift=shift,
        inhomogeneity=drive_sec.get("inhomogeneity", 0.162),
        residual_damping=drive_sec.get("residual_damping_hz", 90.0),
        probe_repetition_rate=gate.repetition_rate,
        probe_pulse_duration=gate.pulse_duration,
    )
    seq = PulseSequence(
        (MicrowavePulse(template.rabi_frequency,
                        drive_sec.get("duration_ms", 2.0) * 1e-3,
                        detuning=template.detuning),),
        probe=gate)
    trace = run_sequence(seq, _ensemble(cfg), probe, det, seed=seed,
                         template=template,
                         noiseless=options.get("noiseless", False))
    write_trace_csv(trace, out / "rabi_trace.csv")
    artifacts = ["rabi_trace.csv"]
    window = options.get("fit_window_ms", 0.8) * 1e-3
    try:
        fit = fit_damped_sine(trace, window=window)
    except FitDiverged as exc:
        _write_json(out / "rabi_fit.json", {
            "error": f"fit diverged: {exc}",
            "seed": seed,
            "config_hash": trace.metadata["config_hash"],
        })
    else:
        write_fit_json(fit, out / "rabi_fit.json", extra={
            "seed": seed,
            "config_hash": trace.metadata["config_hash"],
            "fit_window_s": window,
        })
    artifacts.append("rabi_fit.json")
    return artifacts


def _run_spin_echo(cfg: dict, out: Path, seed: int) -> list[str]:
    echo = cfg.get("echo", {})
    options = cfg.get("options", {})
    gate, probe, backaction = _gate_and_probe(cfg)
    det = _detector(cfg)
    detunings = echo.get("detunings_hz", [0.0, 1000.0, 1200.0, 1800.0])
    gap_us = echo.get("gap_us")
    shift = light_shift(gate.tuning, gate.duty_cycle) if backaction else 0.0
    template = RabiModel(
        carrier_light_shift=shift,
        residual_damping=echo.get("residual_damping_hz", 0.0),
        probe_repetition_rate=gate.repetition_rate,
        probe_pulse_duration=gate.pulse_duration,
    )
    init = _ensemble(cfg)
    noiseless = options.get("noiseless", True)
    traces = []
    for i, delta in enumerate(detunings):
        seq = build_spin_echo(
            pi_duration=echo.get("pi_duration_us", 74.5) * 1e-6,
            total_duration=echo.get("total_duration_us", 500.0) * 1e-6,
            detuning=float(delta),
            gap=None if gap_us is None else gap_us * 1e-6,
            probe=gate)
        trace = run_sequence(seq, init, probe, det, seed=seed + i,
                             template=template, noiseless=noiseless)
        traces.append((float(delta), seq, trace))

    def trace_rows():
        for delta, _, trace in traces:
            for t, v in zip(trace.times, trace.signal):
                yield (delta, float(t), float(v))

    _write_csv(out / "spin_echo_traces.csv", "detuning_hz,time_s,signal_v",
               trace_rows())
    amps = [(delta, mid_pulse_amplitude(trace, seq),
             float(np.max(np.abs(trace.signal))))
            for delta, seq, trace in traces]
    # the measured figure's normalization is unspecified, so emit both: per
    # trace (against that trace's own peak) and global (against the
    # zero-detuning amplitude, falling back to the largest one)
    by_det = {d: a for d, a, _ in amps}
    global_ref = by_det.get(0.0, max(a for _, a, _ in amps))

    def amp_rows():
        for delta, amp, peak in amps:
            yield (delta, amp,
                   amp / global_ref if global_ref > 0 else 0.0,
                   amp / peak if peak > 0 else 0.0)

    _write_csv(out / "spin_echo_amplitudes.csv",
               "detuning_hz,amplitude_v,normalized_global,"
               "normalized_per_trace", amp_rows())
    return ["spin_echo_traces.csv", "spin_echo_amplitudes.csv"]


def _run_squeezing(cfg: dict, out: Path, seed: int) -> list[str]:
    sec = cfg.get("squeezing", {})
    phi = sec.get("phase_per_atom_rad", 1e-5)
    n_at = sec.get("atom_number", 1e6)
    n_ph = sec.get("photon_number", 1e5)
    kappa_sq, xi_sq = squeezing_estimate(phi, n_at, n_ph)
    payload = {
        "phase_per_atom_rad": phi,
        "atom_number": n_at,
        "photon_number": n_ph,
        "kappa_squared": kappa_sq,
        "xi_squared": xi_sq,
        "xi_squared_db": 10 * math.log10(xi_sq) if xi_sq > 0 else None,
    }
    finesse = sec.get("finesse")
    if finesse is not None:
        payload["finesse"] = finesse
        payload["snr_gain_in_cavity"] = cavity_enhancement(finesse, 1.0)
    _write_json(out / "squeezing.json", payload)
    return ["squeezing.json"]


_RUNNERS = {
    "cavity-spectrum": _run_cavity_spectrum,
    "trap-map": _run_trap_map,
    "noise-sweep": _run_noise_sweep,
    "scattering-sweep": _run_scattering_sweep,
    "rabi": _run_rabi,
    "spin-echo": _run_spin_echo,
    "squeezing": _run_squeezing,
}


# ------------------------------------------------------------ subcommands

def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set or [])
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(
            f"{args.config}: invalid configuration\n  "
            + "\n  ".join(problems))
    scenarios = _scenario_list(cfg)
    if not scenarios:
        print("nothing to run: empty scenario list")
        return 0
    out = Path(cfg.get("out_dir", "artifacts"))
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.get("seed", 0)
    artifacts: list[str] = []
    for name in scenarios:
        artifacts.extend(_RUNNERS[name](cfg, out, seed))
    _write_json(out / "manifest.json", {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenarios,
        "seed": seed,
        "config_sha256": config_hash(cfg),
        "versions": {
            "qndsim": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "artifacts": artifacts,
    })
    for name in artifacts + ["manifest.json"]:
        print(out / name)
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set or [])
    problems = validate_config(cfg)
    if problems:
        raise ConfigError(
            f"{args.config}: invalid configuration\n  "
            + "\n  ".join(problems))
    print(f"{args.config}: ok")
    return 0


def _cmd_list_scenarios(args) -> int:
    for name in SCENARIOS:
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Simulations of heterodyne non-demolition probing of "
                    "cold atoms: cavity modes, dipole trap, detection "
                    "chain, spin dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario config")
    run.add_argument("config", help="path to a JSON config file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's random seed")
    run.add_argument("--out", default=None,
                     help="override the config's output directory")
    run.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                     help="override one config field (repeatable)")
    run.set_defaults(func=_cmd_run)

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("config", help="path to a JSON config file")
    val.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                     help="override one config field (repeatable)")
    val.set_defaults(func=_cmd_validate)

    ls = sub.add_parser("list-scenarios", help="list scenario names")
    ls.set_defaults(func=_cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RegimeError, StepError, DomainError, UnstableCavity,
            NotAMinimum) as exc:
        print(f"physics error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except QndSimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
