"""Command line front end: config ingestion, dispatch, CSV/JSON emission.

Configs are JSON with unit-suffixed field names (waist_um, carrier_power_uw)
so a number can never silently change meaning. FIELDS gives each field its
kind, default and bounds. A config resolves against it either to field-path
diagnostics or to typed values with every default filled in, which the
runners read and the manifest's config hash covers; an omitted default and
the same value written out hash alike. NaN and Infinity are rejected with
their field path, and no run writes a non-finite number into an artifact.
Re-running a config with the same seed reproduces every output byte for
byte.

`validate`, and `run` before it, checks the regimes: probe duty cycle,
modulation depth, zero carrier power beside sideband power, RAM, small phase
(at the full atom number for rabi and spin-echo), echo window, a probe clock
tick inside the echo's pi pulse, the 1 s sequence cap, the budget of 10^6 probe
samples per sequence and per scan, and sweep order. It does so by building the
set-up of noise-sweep, scattering-sweep, rabi and spin-echo, which the run then
reuses. The run may still fail (exit 3) in a kernel, an output check, or the
scalar set-up it builds itself: that of cavity-spectrum, trap-map and
squeezing, and the scattering sweep's probe tuning.

Exit codes: 0 success, 2 config error (with line/field diagnostics),
3 physics/regime error during a run, 1 internal error.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

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
    QndSimError,
    RegimeError,
)
from .harness import (
    MAX_PROBE_SAMPLES,
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    build_spin_echo,
    fit_damped_sine,
    mid_pulse_amplitudes,
    run_scan,
    run_sequence,
    write_csv,
    write_trace_csv,
)
from .heterodyne import (
    DetectorModel,
    ModulatedProbe,
    PhaseShiftTriple,
    atomic_phase,
    check_small_phase,
    demodulated_signal,
    interferometer_length_signal,
    length_noise_signal,
    noise_rejection_ratio,
)
from .trap import DipoleTrapConfig, potential_at, trap_depth, trap_frequencies

SCHEMA_VERSION = 1

# keys that don't change what is simulated: out_dir is placement, the seed
# is recorded in the manifest as its own field, description is annotation
NON_SEMANTIC_KEYS = ("out_dir", "seed", "description")

_TOP_LEVEL_KEYS = ("schema_version", "scenario", *NON_SEMANTIC_KEYS)
_OPTIONAL_SECTIONS = {"detector", "options", "grid"}


# ------------------------------------------------------------ field table

NUMBER = "number"
INTEGER = "integer"
BOOL = "bool"
NULLABLE = "number or null"
NUMBER_LIST = "number list"
REQUIRED = "required"
POSITIVE = ("> 0.0",)
NONNEGATIVE = (">= 0.0",)
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


@dataclass(frozen=True)
class _Field:
    section: str
    key: str
    kind: str
    default: object     # REQUIRED, or the value an omitted field takes
    bounds: tuple = ()  # "<op> <limit>" strings, each read "must be ..."


_DETECTOR = (
    _Field("detector", "sensitivity_a_per_w", NUMBER, 0.5, POSITIVE),
    _Field("detector", "transimpedance_v_per_a", NUMBER, 1466.0, POSITIVE),
    _Field("detector", "buffer_gain", NUMBER, 2.0, POSITIVE),
    _Field("detector", "load_ohm", NUMBER, 50.0, POSITIVE),
    _Field("detector", "bandwidth_mhz", NUMBER, 1.0, POSITIVE),
    _Field("detector", "kappa_e_uw", NUMBER, 165.0, NONNEGATIVE),
)
_GATE_AND_ENSEMBLE = (
    _Field("probe_gate", "repetition_rate_khz", NUMBER, 100.0, POSITIVE),
    _Field("probe_gate", "pulse_duration_us", NUMBER, 1.25, POSITIVE),
    _Field("probe_gate", "sideband_detuning_linewidths", NUMBER, 7.9),
    _Field("probe_gate", "carrier_power_uw", NUMBER, 70.0, NONNEGATIVE),
    _Field("probe_gate", "sideband_power_nw", NUMBER, 90.0, NONNEGATIVE),
    _Field("probe_gate", "waist_um", NUMBER, REQUIRED, POSITIVE),
    _Field("probe_gate", "modulation_frequency_ghz", NUMBER, 2.5, POSITIVE),
    _Field("probe_gate", "backaction", BOOL, True),
    _Field("ensemble", "atom_number", NUMBER, 1e7, NONNEGATIVE),
    _Field("ensemble", "cloud_rms_um", NUMBER, 300.0, NONNEGATIVE),
)

# Every field each scenario reads. Scenarios share a section by its name:
# a scenario list accepts the union of their keys in it, and each scenario
# fills in its own defaults.
FIELDS = {
    "cavity-spectrum": (
        _Field("cavity", "fsr_mhz", NUMBER, 976.2, POSITIVE),
        _Field("cavity", "mirror_radius_mm", NUMBER, 100.0, POSITIVE),
        _Field("cavity", "fold_angle_deg", NUMBER, 45.0,
               ("> 0.0", "<= 90.0")),
        _Field("cavity", "segment_ratio", NUMBER, math.sqrt(2.0), POSITIVE),
        _Field("cavity", "astigmatism_factor", NUMBER, 1.020, POSITIVE),
        _Field("cavity", "wavelength_nm", NUMBER, 1560.0, POSITIVE),
        _Field("cavity", "max_transverse_order", INTEGER, 5,
               (">= 0", "<= 50")),
    ),
    "trap-map": (
        _Field("trap", "power_per_arm_w", NUMBER, 200.0, NONNEGATIVE),
        _Field("trap", "waist_par_um", NUMBER, REQUIRED, POSITIVE),
        _Field("trap", "waist_perp_um", NUMBER, REQUIRED, POSITIVE),
        _Field("trap", "backscatter_depth", NUMBER, 0.0,
               (">= 0.0", "<= 0.999999")),
        _Field("grid", "half_span_um", NUMBER, 150.0, POSITIVE),
        _Field("grid", "points_per_axis", INTEGER, 13, (">= 2", "<= 101")),
    ),
    "noise-sweep": (
        _Field("probe", "carrier_power_uw", NUMBER, 120.0, NONNEGATIVE),
        _Field("probe", "sideband_power_nw", NUMBER, 76.0, NONNEGATIVE),
        _Field("probe", "modulation_depth", NUMBER, 0.025, NONNEGATIVE),
        _Field("probe", "modulation_frequency_ghz", NUMBER, 2.808, POSITIVE),
        _Field("probe", "ram_asymmetry", NUMBER, 0.01),
        _Field("probe", "path_length_m", NUMBER, 1.0, NONNEGATIVE),
        _Field("probe", "beam_waist_um", NUMBER, REQUIRED, POSITIVE),
        _Field("probe", "carrier_detuning_ghz", NUMBER, -2.808),
        *_DETECTOR,
        _Field("sweep", "phi_at_rad", NUMBER, 0.1),
        _Field("sweep", "path_error_max_um", NUMBER, 100.0, POSITIVE),
        _Field("sweep", "points", INTEGER, 41, (">= 2", "<= 100001")),
        _Field("sweep", "reference_wavelength_um", NUMBER, 1.0, POSITIVE),
    ),
    "scattering-sweep": (
        _Field("tuning", "carrier_power_uw", NUMBER, 120.0, NONNEGATIVE),
        _Field("tuning", "sideband_power_nw", NUMBER, 76.0, NONNEGATIVE),
        _Field("tuning", "waist_um", NUMBER, REQUIRED, POSITIVE),
        _Field("tuning", "modulation_frequency_ghz", NUMBER, 2.808, POSITIVE),
        _Field("tuning", "expansion_rate_hz", NUMBER, 120.0, NONNEGATIVE),
        _Field("sweep", "detuning_min_linewidths", NUMBER, 0.5),
        _Field("sweep", "detuning_max_linewidths", NUMBER, 10.0),
        _Field("sweep", "points", INTEGER, 96, (">= 2", "<= 100001")),
    ),
    "rabi": (
        _Field("drive", "rabi_frequency_khz", NUMBER, 6.6, NONNEGATIVE),
        _Field("drive", "detuning_hz", NUMBER, 0.0),
        _Field("drive", "duration_ms", NUMBER, 2.0, POSITIVE),
        _Field("drive", "residual_damping_hz", NUMBER, 90.0, NONNEGATIVE),
        _Field("drive", "inhomogeneity", NUMBER, 0.162, NONNEGATIVE),
        *_GATE_AND_ENSEMBLE,
        *_DETECTOR,
        _Field("options", "noiseless", BOOL, False),
        _Field("options", "fit_window_ms", NUMBER, 0.8, POSITIVE),
    ),
    "spin-echo": (
        _Field("echo", "pi_duration_us", NUMBER, 74.5, POSITIVE),
        _Field("echo", "total_duration_us", NUMBER, 500.0, POSITIVE),
        _Field("echo", "gap_us", NULLABLE, None, (">= 0",)),
        _Field("echo", "detunings_hz", NUMBER_LIST,
               (0.0, 1000.0, 1200.0, 1800.0)),
        _Field("echo", "residual_damping_hz", NUMBER, 0.0, NONNEGATIVE),
        *_GATE_AND_ENSEMBLE,
        *_DETECTOR,
        _Field("options", "noiseless", BOOL, True),
    ),
    "squeezing": (
        _Field("squeezing", "phase_per_atom_rad", NUMBER, 1e-5),
        _Field("squeezing", "atom_number", NUMBER, 1e6, NONNEGATIVE),
        _Field("squeezing", "photon_number", NUMBER, 1e5, NONNEGATIVE),
        _Field("squeezing", "finesse", NULLABLE, None, ("> 0",)),
    ),
}
SCENARIOS = tuple(FIELDS)


# --------------------------------------------------------------- plumbing

def _load_config(path: str, overrides: list[str]) -> dict:
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
    for pair in overrides:
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


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise RegimeError(f"{path.name}: non-finite value in output") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _scipy_version() -> str:
    """scipy.__version__, read from scipy/version.py without importing scipy."""
    namespace: dict = {}
    exec(Path(importlib.util.find_spec("scipy").origin).with_name("version.py").read_bytes(),
         namespace)
    return namespace["version"]


_VERSIONS = {"qndsim": __version__, "numpy": np.__version__, "scipy": _scipy_version()}


# ------------------------------------------------------------- resolution

def _number(path: str, value, bounds: tuple, noun: str, complain):
    """``value`` as a finite float, complaining unless it is one in bounds
    (json reads NaN and Infinity as floats: they fail here)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        complain(path, f"must be {noun}")
        return None
    try:
        number = float(value)
    except OverflowError:     # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        complain(path, "must be a finite number")
        return None
    for bound in bounds:
        op, limit = bound.split()
        if not _COMPARE[op](number, float(limit)):
            complain(path, f"must be {bound}")
    return number


def _typed(row: _Field, sec: dict | None, complain):
    """One field's value, typed and checked, or its default if omitted.

    ``sec`` is None for an absent or malformed section, reported once.
    """
    path = f"{row.section}.{row.key}"
    if sec is not None and row.key in sec:
        value = sec[row.key]
    elif row.default != REQUIRED:
        value = row.default
    else:
        if sec is not None:
            complain(path, "required field is missing")
        return None
    if row.kind == BOOL:
        if not isinstance(value, bool):
            complain(path, "must be true or false")
            return None
        return value
    if row.kind == NUMBER_LIST:
        if not isinstance(value, (list, tuple)) or not value:
            complain(path, "must be a nonempty list")
            return None
        return [_number(f"{path}[{i}]", x, (), "a number", complain)
                for i, x in enumerate(value)]
    if row.kind == NULLABLE and value is None:
        return None
    if row.kind == INTEGER and (not isinstance(value, int)
                                or isinstance(value, bool)):
        complain(path, "must be an integer")
        return None
    noun = "a number or null" if row.kind == NULLABLE else "a number"
    number = _number(path, value, row.bounds, noun, complain)
    # integers stay int: they count grid points and spectrum orders
    return value if row.kind == INTEGER and number is not None else number


def _resolve(cfg: dict) -> tuple[dict, dict, list[str]]:
    """The config resolved against FIELDS, its set-ups, and its diagnostics.

    Beside the scenario list, seed and output directory, the resolved config
    maps each scenario to ``{section: {key: value}}`` for every field it
    reads. Only when it is complete, without diagnostics, do the set-ups run
    over it; what each built is kept outside the hashed config.
    """
    problems: list[str] = []

    def complain(path: str, message: str) -> None:
        problems.append(f"{path}: {message}")

    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        complain("schema_version",
                 f"must be {SCHEMA_VERSION}, got {version!r}")
    raw = cfg.get("scenario")
    listed = [raw] if isinstance(raw, str) else raw
    if not isinstance(listed, list):
        complain("scenario", "required field is missing" if raw is None
                 else "must be a string or list of strings")
        listed = []
    scenarios: list[str] = []
    for i, name in enumerate(listed):
        if not isinstance(name, str):
            complain(f"scenario[{i}]", "must be a string")
        elif name not in SCENARIOS:
            complain("scenario", f"unknown scenario {name!r}; "
                                 f"choices: {', '.join(SCENARIOS)}")
        elif name in scenarios:
            complain("scenario", f"{name!r} is listed more than once")
        else:
            scenarios.append(name)
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        complain("seed", "must be a nonnegative integer")
    for key in ("out_dir", "description"):
        if key in cfg and not isinstance(cfg[key], str):
            complain(key, "must be a string")

    resolved = {"schema_version": SCHEMA_VERSION, "scenario": scenarios,
                "seed": seed, "out_dir": cfg.get("out_dir", "artifacts")}
    known: dict[str, set] = {}
    for name in scenarios:
        values = resolved[name] = {}
        for row in FIELDS[name]:
            known.setdefault(row.section, set()).add(row.key)
            if row.section not in cfg \
                    and row.section not in _OPTIONAL_SECTIONS:
                complain(row.section, f"section required by scenario "
                                      f"{name!r} is missing")
            sec = cfg.get(row.section)
            values.setdefault(row.section, {})[row.key] = _typed(
                row, sec if isinstance(sec, dict) else None, complain)
    for section, sec in cfg.items():
        if section in _TOP_LEVEL_KEYS:
            continue
        if section not in known:
            complain(section, "unknown field")
        elif not isinstance(sec, dict):
            complain(section, "must be a JSON object")
        else:
            for key in sec:
                if key not in known[section]:
                    complain(f"{section}.{key}", "unknown field")
    setups = {name: _check_regimes(name, resolved[name], complain)
              for name in (() if problems else scenarios)}
    # scenarios that share a section report its problems once
    return resolved, setups, list(dict.fromkeys(problems))


def validate_config(cfg: dict) -> list[str]:
    """Schema plus no-execution physics-regime checks; returns diagnostics."""
    return _resolve(cfg)[2]


def config_hash(cfg: dict) -> str:
    """Hash of the resolved config without its non-semantic keys.

    Raises ConfigError, as `_checked` does, for a config that does not resolve.
    """
    return _resolved_hash(_checked(cfg, "config")[0])


def _resolved_hash(resolved: dict) -> str:
    semantic = {k: v for k, v in resolved.items()
                if k not in NON_SEMANTIC_KEYS}
    canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------- set-ups
# A set-up builds what its runner needs before any kernel runs, yielding the
# section it builds next, and returns it; validation builds it and the run
# reuses it. An error names the field _BLAME finds by that section and the
# words of its message, else the section: a constructor alone does not name
# it (ModulatedProbe raises DomainError for RAM as for a zero waist).

_BLAME = {
    ("probe", "two-sideband"): "probe.modulation_depth",
    ("probe", "ram_asymmetry"): "probe.ram_asymmetry",
    ("probe", "small-phase"): "sweep.phi_at_rad",
    ("sweep", "detuning_min"): "sweep.detuning_max_linewidths",
    ("probe_gate", "duty cycle exceeds"): "probe_gate.pulse_duration_us",
    ("probe_gate", "two-sideband"): "probe_gate.sideband_power_nw",
    ("probe_gate", "carrier power must"): "probe_gate.carrier_power_uw",
    ("probe_gate", "small-phase"): "ensemble.atom_number",
    ("drive", "probe samples"): "probe_gate.repetition_rate_khz",
    ("echo", "gaps would be negative"): "echo.total_duration_us",
    ("echo", "scan budget"): "echo.detunings_hz",
    ("echo", "probe samples"): "probe_gate.repetition_rate_khz",
    ("echo", "no sample inside the pi pulse"): "probe_gate.repetition_rate_khz",
}


def _detector(sec: dict) -> DetectorModel:
    return DetectorModel(
        sensitivity=sec["sensitivity_a_per_w"],
        transimpedance=sec["transimpedance_v_per_a"],
        buffer_gain=sec["buffer_gain"],
        load=sec["load_ohm"],
        bandwidth=sec["bandwidth_mhz"] * 1e6,
        kappa_e=sec["kappa_e_uw"] * 1e-6,
    )


def _noise_sweep_setup(v: dict):
    yield "probe"
    sec = v["probe"]
    probe = ModulatedProbe(
        carrier_power=sec["carrier_power_uw"] * 1e-6,
        modulation_depth=sec["modulation_depth"],
        modulation_frequency=2 * math.pi * sec["modulation_frequency_ghz"] * 1e9,
        ram_asymmetry=sec["ram_asymmetry"],
        carrier_detuning=sec["carrier_detuning_ghz"] * 1e9,
        sideband_power=sec["sideband_power_nw"] * 1e-9,
        beam_waist=sec["beam_waist_um"] * 1e-6,
        path_length=sec["path_length_m"],
    )
    det = _detector(v["detector"])
    check_small_phase(v["sweep"]["phi_at_rad"])
    return probe, det


def _scattering_sweep_setup(v: dict):
    yield "sweep"
    sweep = v["sweep"]
    if sweep["detuning_max_linewidths"] <= sweep["detuning_min_linewidths"]:
        raise DomainError("must exceed detuning_min_linewidths")


def _probed_setup(v: dict) -> tuple[ProbeGate, ModulatedProbe, float,
                                    EnsembleState, DetectorModel]:
    """Probe clock, probe beam, its light shift, ensemble and detector, once
    the phase of all N atoms is checked: more than the walk ever detects."""
    sec = v["probe_gate"]
    pc = sec["carrier_power_uw"] * 1e-6
    ps = sec["sideband_power_nw"] * 1e-9
    waist = sec["waist_um"] * 1e-6
    mod_ghz = sec["modulation_frequency_ghz"]
    tuning = ProbeTuning.from_powers(
        carrier_power=pc, sideband_power=ps, waist=waist,
        sideband_detuning=sec["sideband_detuning_linewidths"],
        modulation_frequency=mod_ghz * 1e9)
    if not sec["backaction"]:
        # pure sampling clock: no scattering, no light shift; microwave
        # detunings are then relative to the dressed resonance
        tuning = replace(tuning, sideband_intensity=0.0,
                         carrier_intensity=0.0)
    gate = ProbeGate(
        repetition_rate=sec["repetition_rate_khz"] * 1e3,
        pulse_duration=sec["pulse_duration_us"] * 1e-6,
        tuning=tuning,
    )
    # zero tests read the unit-free raw fields: an SI underflow is no zero
    if sec["carrier_power_uw"] == 0 and sec["sideband_power_nw"] > 0:
        raise DomainError("carrier power must be positive when the sideband "
                          "carries power")
    probe = ModulatedProbe(
        carrier_power=pc,
        modulation_depth=math.sqrt(ps / pc) if sec["carrier_power_uw"] > 0
        else 0.0,
        modulation_frequency=2 * math.pi * mod_ghz * 1e9,
        carrier_detuning=-mod_ghz * 1e9,
        sideband_power=ps,
        beam_waist=waist,
    )
    shift = light_shift(tuning, gate.duty_cycle) if sec["backaction"] else 0.0
    ens = EnsembleState.all_lower(v["ensemble"]["atom_number"],
                                  cloud_rms=v["ensemble"]["cloud_rms_um"] * 1e-6)
    det = _detector(v["detector"])
    check_small_phase(atomic_phase(tuning.sideband_detuning * tuning.linewidth,
                                   ens.atom_number, probe.beam_waist,
                                   ens.cloud_rms, linewidth=tuning.linewidth))
    return gate, probe, shift, ens, det


def _rabi_setup(v: dict):
    yield "probe_gate"
    gate, probe, shift, ens, det = _probed_setup(v)
    yield "drive"
    drive = v["drive"]
    pulse = MicrowavePulse(2 * math.pi * drive["rabi_frequency_khz"] * 1e3,
                           drive["duration_ms"] * 1e-3, detuning=drive["detuning_hz"])
    return PulseSequence((pulse,), probe=gate), probe, shift, ens, det


def _spin_echo_setup(v: dict):
    yield "probe_gate"
    gate, probe, shift, ens, det = _probed_setup(v)
    yield "echo"
    echo = v["echo"]
    gap = None if echo["gap_us"] is None else echo["gap_us"] * 1e-6
    seqs = [build_spin_echo(pi_duration=echo["pi_duration_us"] * 1e-6,
                            total_duration=echo["total_duration_us"] * 1e-6,
                            detuning=delta, gap=gap, probe=gate)
            for delta in echo["detunings_hz"]]
    periods = len(seqs) * seqs[0].total_duration * gate.repetition_rate
    if periods > MAX_PROBE_SAMPLES:    # the walk holds every trace at once
        raise DomainError(f"{len(seqs)} traces span {periods:.7g} probe periods, over the "
                          f"scan budget of {MAX_PROBE_SAMPLES} samples")
    return seqs, probe, shift, ens, det


_SETUPS = {"noise-sweep": _noise_sweep_setup, "rabi": _rabi_setup,
           "scattering-sweep": _scattering_sweep_setup, "spin-echo": _spin_echo_setup}


def _check_regimes(name: str, v: dict, complain):
    """What scenario ``name``'s set-up builds from ``v``: None where it has no
    set-up, or after complaining of the error that stopped it."""
    steps, section = _SETUPS.get(name, lambda v: iter(()))(v), None
    try:
        while True:
            section = next(steps)
    except StopIteration as built:
        return built.value
    except (ArithmeticError, ValueError, QndSimError) as exc:
        for (at, words), path in _BLAME.items():
            if at == section and words in str(exc):
                return complain(path, str(exc))
        complain(section, "regime checks cannot be evaluated at these values "
                          f"({type(exc).__name__}: {exc})")


# ---------------------------------------------------------------- runners
# Each runner takes one scenario's resolved values and what its set-up built
# (see _resolve), None for a scenario without one.

def _run_cavity_spectrum(v: dict, setup, out: Path, seed: int) -> list[str]:
    sec = v["cavity"]
    geom = CavityGeometry(
        round_trip_length=C / (sec["fsr_mhz"] * 1e6),
        mirror_radius=sec["mirror_radius_mm"] * 1e-3,
        fold_angle=math.radians(sec["fold_angle_deg"]),
        segment_ratio=sec["segment_ratio"],
        astigmatism_correction=sec["astigmatism_factor"],
        wavelength=sec["wavelength_nm"] * 1e-9,
    )
    order = sec["max_transverse_order"]
    write_csv(out / "spectrum.csv", "m,n,offset_hz",
              [map(np.array, zip(*transverse_spectrum(geom, order)))])
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


def _run_trap_map(v: dict, setup, out: Path, seed: int) -> list[str]:
    sec = v["trap"]
    trap = DipoleTrapConfig(
        power_per_arm=sec["power_per_arm_w"],
        waist_par=sec["waist_par_um"] * 1e-6,
        waist_perp=sec["waist_perp_um"] * 1e-6,
        backscatter_depth=sec["backscatter_depth"],
    )
    half = v["grid"]["half_span_um"] * 1e-6
    axis = np.linspace(-half, half, v["grid"]["points_per_axis"])
    iy, iz = (i.ravel() for i in np.indices((axis.size, axis.size)))
    um = axis * 1e6
    # one x-plane per call: a whole-cube grid would hold several cube-sized
    # temporaries at once
    write_csv(out / "trap_map.csv", "x_um,y_um,z_um,potential_uk",
              (((um, np.full(iy.size, i)), (um, iy), (um, iz),
                potential_at(trap, (x, axis[iy], axis[iz])) / K_B * 1e6)
               for i, x in enumerate(axis)))
    fx, fy, fz = trap_frequencies(trap)
    _write_json(out / "trap_summary.json", {
        "depth_uk": trap_depth(trap) / K_B * 1e6,
        "frequency_x_hz": fx,
        "frequency_y_hz": fy,
        "frequency_z_hz": fz,
    })
    return ["trap_map.csv", "trap_summary.json"]


def _run_noise_sweep(v: dict, setup, out: Path, seed: int) -> list[str]:
    sweep = v["sweep"]
    probe, det = setup
    phi = sweep["phi_at_rad"]
    span = sweep["path_error_max_um"] * 1e-6
    wavelength = sweep["reference_wavelength_um"] * 1e-6
    triple = PhaseShiftTriple(phi_plus=phi)
    base = demodulated_signal(probe, triple, det)
    pe = np.linspace(-span, span, sweep["points"])
    write_csv(out / "noise_sweep.csv",
              "path_error_m,demodulated_shift_v,budget_v,reference_v",
              [(pe, demodulated_signal(probe, triple, det, path_error=pe) - base,
                length_noise_signal(probe, phi, det, pe),
                interferometer_length_signal(probe, det, pe, wavelength))])
    _write_json(out / "noise_rejection.json", {
        "phi_at_rad": phi,
        "ram_asymmetry": probe.ram_asymmetry,
        "modulation_wavelength_m": probe.modulation_wavelength,
        "reference_wavelength_m": wavelength,
        "rejection_ratio": noise_rejection_ratio(probe, phi, wavelength),
    })
    return ["noise_sweep.csv", "noise_rejection.json"]


def _run_scattering_sweep(v: dict, setup, out: Path, seed: int) -> list[str]:
    sec, sweep = v["tuning"], v["sweep"]
    delta = np.linspace(sweep["detuning_min_linewidths"],
                        sweep["detuning_max_linewidths"], sweep["points"])
    tuning = ProbeTuning.from_powers(
        carrier_power=sec["carrier_power_uw"] * 1e-6,
        sideband_power=sec["sideband_power_nw"] * 1e-9,
        waist=sec["waist_um"] * 1e-6, sideband_detuning=delta,
        modulation_frequency=sec["modulation_frequency_ghz"] * 1e9)
    write_csv(out / "scattering_sweep.csv",
              "sideband_detuning_linewidths,decay_rate_hz",
              [(delta, scattering_rate(tuning, sec["expansion_rate_hz"]))])
    return ["scattering_sweep.csv"]


def _run_rabi(v: dict, setup, out: Path, seed: int) -> list[str]:
    drive = v["drive"]
    seq, probe, shift, ens, det = setup
    template = RabiModel(
        carrier_light_shift=shift,
        inhomogeneity=drive["inhomogeneity"],
        residual_damping=drive["residual_damping_hz"],
    )
    trace = run_sequence(seq, ens, probe, det, seed=seed, template=template,
                         noiseless=v["options"]["noiseless"])
    write_trace_csv(trace, out / "rabi_trace.csv")
    window = v["options"]["fit_window_ms"] * 1e-3
    try:
        fit = fit_damped_sine(trace, window=window)
    except FitDiverged as exc:
        print(f"warning: rabi fit diverged: {exc}", file=sys.stderr)
        _write_json(out / "rabi_fit.json",
                    {"error": f"fit diverged: {exc}", "seed": seed})
    else:
        _write_json(out / "rabi_fit.json",
                    {**vars(fit), "seed": seed, "fit_window_s": window})
    return ["rabi_trace.csv", "rabi_fit.json"]


def _run_spin_echo(v: dict, setup, out: Path, seed: int) -> list[str]:
    echo = v["echo"]
    seqs, probe, shift, ens, det = setup
    template = RabiModel(carrier_light_shift=shift,
                         residual_damping=echo["residual_damping_hz"])
    times, signals, _ = run_scan(seqs, ens, probe, det, seed=seed, template=template,
                                 noiseless=v["options"]["noiseless"])
    deltas = np.array(echo["detunings_hz"])
    rows, samples = (i.ravel() for i in np.indices(signals.shape))
    write_csv(out / "spin_echo_traces.csv", "detuning_hz,time_s,signal_v",
              [((deltas, rows), (times, samples), signals.ravel())])
    amps = mid_pulse_amplitudes(times, signals, seqs[0])
    peaks = np.abs(signals).max(axis=1)
    # the measured figure's normalization is unspecified, so emit both: per
    # trace (against that trace's own peak) and global (against the last
    # zero-detuning amplitude, falling back to the largest one)
    at_zero = amps[deltas == 0.0]
    ref = at_zero[-1] if at_zero.size else amps.max()
    write_csv(out / "spin_echo_amplitudes.csv",
              "detuning_hz,amplitude_v,normalized_global,normalized_per_trace",
              [(deltas, amps, amps / ref if ref > 0 else np.zeros_like(amps),
                np.divide(amps, peaks, out=np.zeros_like(amps), where=peaks > 0))])
    return ["spin_echo_traces.csv", "spin_echo_amplitudes.csv"]


def _run_squeezing(v: dict, setup, out: Path, seed: int) -> list[str]:
    sec = v["squeezing"]
    kappa_sq, xi_sq = squeezing_estimate(
        sec["phase_per_atom_rad"], sec["atom_number"], sec["photon_number"])
    # the inputs are echoed, the finesse only when one is given
    payload = {key: x for key, x in sec.items() if x is not None}
    payload.update({
        "kappa_squared": kappa_sq,
        "xi_squared": xi_sq,
        "xi_squared_db": 10 * math.log10(xi_sq) if xi_sq > 0 else None,
    })
    if sec["finesse"] is not None:
        payload["snr_gain_in_cavity"] = cavity_enhancement(sec["finesse"], 1.0)
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

def _checked(cfg: dict, source: str) -> tuple[dict, dict]:
    """Resolved config and set-ups, or ConfigError listing every diagnostic."""
    resolved, setups, problems = _resolve(cfg)
    if problems:
        raise ConfigError(
            f"{source}: invalid configuration\n  " + "\n  ".join(problems))
    return resolved, setups


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    resolved, setups = _checked(cfg, args.config)
    scenarios = resolved["scenario"]
    if not scenarios:
        print("nothing to run: empty scenario list")
        return 0
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    seed = resolved["seed"]
    artifacts: list[str] = []
    for name in scenarios:
        try:
            artifacts.extend(_RUNNERS[name](resolved[name], setups[name], out, seed))
        except ArithmeticError as exc:
            # an overflow or a zero division in a runner's scalar set-up is a
            # physics error at these values, like the regime checks' ones
            raise DomainError(
                f"{name}: {type(exc).__name__}: {exc}") from exc
    _write_json(out / "manifest.json", {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenarios,
        "seed": seed,
        "config_sha256": _resolved_hash(resolved),
        "versions": _VERSIONS,
        "artifacts": artifacts,
    })
    for name in artifacts + ["manifest.json"]:
        print(out / name)
    return 0


def _cmd_validate(args) -> int:
    _checked(_load_config(args.config, args.set or []), args.config)
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
    run.set_defaults(func=_cmd_run)
    val = sub.add_parser("validate", help="check a config without running")
    val.set_defaults(func=_cmd_validate)
    for cmd in (run, val):
        cmd.add_argument("config", help="path to a JSON config file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's random seed")
    run.add_argument("--out", default=None,
                     help="override the config's output directory")
    for cmd in (run, val):
        cmd.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                         help="override one config field (repeatable)")

    ls = sub.add_parser("list-scenarios", help="list scenario names")
    ls.set_defaults(func=_cmd_list_scenarios)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # no numpy warning: the models' and writers' finiteness checks decide
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QndSimError as exc:
        print(f"physics error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:   # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
