"""Command line front end: config ingestion, dispatch, CSV/JSON emission.

Configs are JSON with unit-suffixed field names (waist_um, carrier_power_uw)
so a number can never silently change meaning. FIELDS gives each field its
kind, default and bounds; a default or bound that a model record shares is
read from constants.APPARATUS or constants.LIMITS, and the record checks the
bound too. A config resolves against FIELDS either to field-path diagnostics
or to typed values in config units with every default filled in, which the
manifest's config hash covers; an omitted default and the same value written
out hash alike. The scenarios read its SI view (constants.to_si): each value
times its unit suffix's factor, under the model attribute it sets.
NaN and Infinity are rejected with their field path, and no run writes a
non-finite number into an artifact. Re-running a config with the same seed
reproduces every output byte for byte.

`validate`, and `run` before it, checks the regimes: probe duty cycle,
modulation depth, zero carrier power beside sideband power, small phase (at
the full atom number for rabi and spin-echo), echo window, a probe clock tick
inside the echo's pi pulse, the 1 s sequence cap, the budget of 10^6 probe
samples per sequence and per scan, a Rabi drive that leaves the probe's shift
damping undefined, and sweep order. It does so by running each scenario, a
generator, up to the None it yields once its set-up is built; the run resumes
it there. The run may still fail (exit 3) in a kernel, an output check, or the
scalar set-up after that marker: that of cavity-spectrum, trap-map and
squeezing, and the scattering sweep's probe tuning.

numpy is imported only by code that computes with arrays: the modules trap
and harness, the array functions of atoms and heterodyne, and the scenarios
trap-map and spin-echo and any sweep longer than SCALAR_SWEEP_POINTS points;
a shorter sweep is evaluated point by point with math. So help,
list-scenarios, schema errors, validation of every scenario but rabi and
spin-echo, and cavity-spectrum, squeezing and bundled-size sweep runs never
load it, and hashlib is imported only for the manifest's config hash.
At exit a command freezes the heap (gc.freeze), so no final collection walks it.
The argument parser is built once per process; each call parses its own argv
into a fresh namespace, so no argument carries from one call to the next.

Exit codes: 0 success, 2 config error (with line/field diagnostics),
3 physics/regime error during a run, 1 internal error.
"""
from __future__ import annotations

import argparse
import atexit
import functools
import gc
import importlib.util
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .constants import (APPARATUS, COMPARE, C, K_B, LIMITS, NONNEGATIVE, POSITIVE, Record,
                        replace, to_si)
from .errors import ConfigError, DomainError, FitDiverged, QndSimError, RegimeError

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


class _Field(Record):
    section: str
    key: str
    kind: str
    default: object     # REQUIRED, APPARATUS (its value there) or an omitted field's value
    bounds: tuple = ()  # LIMITS (its bounds there) or "<op> <limit>" strings read "must be ..."

    def __post_init__(self) -> None:
        for name, table in (("default", APPARATUS), ("bounds", LIMITS)):
            if getattr(self, name) is table:
                object.__setattr__(self, name, table[self.key])


_DETECTOR = (
    _Field("detector", "sensitivity_a_per_w", NUMBER, APPARATUS, LIMITS),
    _Field("detector", "transimpedance_v_per_a", NUMBER, APPARATUS, LIMITS),
    _Field("detector", "buffer_gain", NUMBER, APPARATUS, LIMITS),
    _Field("detector", "load_ohm", NUMBER, APPARATUS, LIMITS),
    _Field("detector", "bandwidth_mhz", NUMBER, APPARATUS, LIMITS),
    _Field("detector", "kappa_e_uw", NUMBER, APPARATUS, LIMITS),
)
_GATE_AND_ENSEMBLE = (
    _Field("probe_gate", "repetition_rate_khz", NUMBER, APPARATUS, LIMITS),
    _Field("probe_gate", "pulse_duration_us", NUMBER, APPARATUS, LIMITS),
    _Field("probe_gate", "sideband_detuning_linewidths", NUMBER, 7.9),
    _Field("probe_gate", "carrier_power_uw", NUMBER, 70.0, LIMITS),
    _Field("probe_gate", "sideband_power_nw", NUMBER, 90.0, LIMITS),
    _Field("probe_gate", "waist_um", NUMBER, REQUIRED, POSITIVE),
    _Field("probe_gate", "modulation_frequency_ghz", NUMBER, 2.5, LIMITS),
    _Field("probe_gate", "backaction", BOOL, True),
    _Field("ensemble", "atom_number", NUMBER, 1e7, LIMITS),
    _Field("ensemble", "cloud_rms_um", NUMBER, 300.0, LIMITS),
)

# Every field each scenario reads. Scenarios share a section by its name:
# a scenario list accepts the union of their keys in it, and each scenario
# fills in its own defaults.
FIELDS = {
    "cavity-spectrum": (
        _Field("cavity", "fsr_mhz", NUMBER, APPARATUS, POSITIVE),
        _Field("cavity", "mirror_radius_mm", NUMBER, APPARATUS, LIMITS),
        _Field("cavity", "fold_angle_deg", NUMBER, APPARATUS, LIMITS),
        _Field("cavity", "segment_ratio", NUMBER, APPARATUS, LIMITS),
        _Field("cavity", "astigmatism_factor", NUMBER, APPARATUS, POSITIVE),
        _Field("cavity", "wavelength_nm", NUMBER, APPARATUS, LIMITS),
        _Field("cavity", "max_transverse_order", INTEGER, 5,
               (">= 0", "<= 50")),
    ),
    "trap-map": (
        _Field("trap", "power_per_arm_w", NUMBER, APPARATUS, LIMITS),
        _Field("trap", "waist_par_um", NUMBER, REQUIRED, LIMITS),
        _Field("trap", "waist_perp_um", NUMBER, REQUIRED, LIMITS),
        _Field("trap", "backscatter_depth", NUMBER, 0.0, LIMITS),
        _Field("grid", "half_span_um", NUMBER, 150.0, POSITIVE),
        _Field("grid", "points_per_axis", INTEGER, 13, (">= 2", "<= 101")),
    ),
    "noise-sweep": (
        _Field("probe", "carrier_power_uw", NUMBER, APPARATUS, LIMITS),
        _Field("probe", "sideband_power_nw", NUMBER, APPARATUS, LIMITS),
        _Field("probe", "modulation_depth", NUMBER, APPARATUS, LIMITS),
        _Field("probe", "modulation_frequency_ghz", NUMBER, APPARATUS, LIMITS),
        _Field("probe", "ram_asymmetry", NUMBER, APPARATUS, LIMITS),
        _Field("probe", "path_length_m", NUMBER, APPARATUS, LIMITS),
        _Field("probe", "beam_waist_um", NUMBER, REQUIRED, LIMITS),
        _Field("probe", "carrier_detuning_ghz", NUMBER, APPARATUS),
        *_DETECTOR,
        _Field("sweep", "phi_at_rad", NUMBER, 0.1),
        _Field("sweep", "path_error_max_um", NUMBER, 100.0, POSITIVE),
        _Field("sweep", "points", INTEGER, 41, (">= 2", "<= 100001")),
        _Field("sweep", "reference_wavelength_um", NUMBER, APPARATUS, POSITIVE),
    ),
    "scattering-sweep": (
        _Field("tuning", "carrier_power_uw", NUMBER, APPARATUS, LIMITS),
        _Field("tuning", "sideband_power_nw", NUMBER, APPARATUS, LIMITS),
        _Field("tuning", "waist_um", NUMBER, REQUIRED, POSITIVE),
        _Field("tuning", "modulation_frequency_ghz", NUMBER, APPARATUS, LIMITS),
        _Field("tuning", "expansion_rate_hz", NUMBER, APPARATUS, NONNEGATIVE),
        _Field("sweep", "detuning_min_linewidths", NUMBER, 0.5),
        _Field("sweep", "detuning_max_linewidths", NUMBER, 10.0),
        _Field("sweep", "points", INTEGER, 96, (">= 2", "<= 100001")),
    ),
    "rabi": (
        _Field("drive", "rabi_frequency_khz", NUMBER, APPARATUS, LIMITS),
        _Field("drive", "detuning_hz", NUMBER, 0.0),
        _Field("drive", "duration_ms", NUMBER, 2.0, LIMITS),
        _Field("drive", "residual_damping_hz", NUMBER, APPARATUS, LIMITS),
        _Field("drive", "inhomogeneity", NUMBER, APPARATUS, LIMITS),
        *_GATE_AND_ENSEMBLE,
        *_DETECTOR,
        _Field("options", "noiseless", BOOL, False),
        _Field("options", "fit_window_ms", NUMBER, 0.8, POSITIVE),
    ),
    "spin-echo": (
        _Field("echo", "pi_duration_us", NUMBER, APPARATUS, POSITIVE),
        _Field("echo", "total_duration_us", NUMBER, APPARATUS, POSITIVE),
        _Field("echo", "gap_us", NULLABLE, None, (">= 0",)),
        _Field("echo", "detunings_hz", NUMBER_LIST,
               (0.0, 1000.0, 1200.0, 1800.0)),
        _Field("echo", "residual_damping_hz", NUMBER, 0.0, LIMITS),
        *_GATE_AND_ENSEMBLE,
        *_DETECTOR,
        _Field("options", "noiseless", BOOL, True),
    ),
    "squeezing": (
        _Field("squeezing", "phase_per_atom_rad", NUMBER, 1e-5),
        _Field("squeezing", "atom_number", NUMBER, 1e6, LIMITS),
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


CSV_BLOCK_ROWS = 4096


def _lines(columns) -> str:
    """The CSV lines of equal-length lists of cell strings: one join of the
    cells, which slice assignment interleaves with their commas and newlines."""
    width = len(columns)
    parts = ([None, ","] * (width - 1) + [None, "\n"]) * len(columns[0])
    for j, cells in enumerate(columns):
        parts[2 * j::2 * width] = cells
    return "".join(parts)


def _cells(chunk) -> list:
    """Cell strings of a slice of a column: the repr of each number of a list
    or an array, or the cells of an object array, strings (_gathered)."""
    if isinstance(chunk, list):
        return list(map(repr, chunk))
    cells = chunk.tolist()
    return cells if chunk.dtype == object else list(map(repr, cells))


def write_csv(path, header: str, blocks) -> None:
    """CSV of a header line and the rows of ``blocks``, each a tuple of
    equal-length columns, so a large table can come one slab at a time.

    A column is an array or a list of cells, or a pair ``(values, index)`` of
    arrays giving cells ``values[index]`` (a tuple is a pair): each value is
    formatted once per item of ``blocks``, and the cells are gathered as
    strings, an object array, so no cell costs a Python call. A cell is the
    repr of a Python number, as an array's tolist() gives: floats round-trip,
    integers stay integral. Rows are written CSV_BLOCK_ROWS at a time, the
    text of each such block one join of its cells, commas and newlines
    (_lines). Raises RegimeError naming the first row holding a NaN or an
    infinity, the only numbers whose repr holds an "n"; a value no row holds
    is unchecked.
    """
    path, row = Path(path), 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            columns = [_gathered(*column) if isinstance(column, tuple) else column
                       for column in columns]
            rows = len(columns[0]) if columns else 0
            for start in range(0, rows, CSV_BLOCK_ROWS):
                fh.write(_finite(path, row + start, _lines(
                    [_cells(column[start:start + CSV_BLOCK_ROWS]) for column in columns])))
            row += rows


def _gathered(values, index):
    """The cells ``values[index]`` as an object array of strings, each
    distinct value formatted once."""
    import numpy as np
    return np.array(list(map(repr, values.tolist())), dtype=object)[index]


def _finite(path: Path, row: int, text: str) -> str:
    """``text``, the lines of the rows after ``row``, or RegimeError naming
    the first that holds an "n", so a NaN or an infinity."""
    if "n" in text:
        lines = text.split("\n")
        bad = next(i for i, line in enumerate(lines) if "n" in line)
        raise RegimeError(f"{path.name}: non-finite value in row {row + bad + 1}: {lines[bad]}")
    return text


def _mirror_cells(front, back):
    """Cells of ``front`` and of ``back``, whose k-th value is the mirror of
    ``front[k]`` (one fewer at an odd table's centre row), each in row order:
    of lists, each value's repr; of arrays, a mirror pair formatted once."""
    if isinstance(front, list):
        return _cells(front), _cells(back)[::-1]
    import numpy as np
    bits = front[:back.size].view(np.int64) ^ back.view(np.int64)
    flipped = ((bits == np.iinfo(np.int64).min) & ~np.isnan(back)).tolist()
    cells = list(map(repr, front.tolist()))
    mirrored = [(s[1:] if s[0] == "-" else "-" + s) if flip else repr(x)
                for s, flip, x in zip(cells, flipped, back.tolist())]
    return cells, mirrored[::-1]


def write_mirrored_csv(path, header: str, columns) -> None:
    """``write_csv(path, header, [columns])`` for equal-length columns, float64
    arrays or lists of floats, whose row i mirrors row n-1-i: of arrays, a
    cell whose value is the bitwise negation of its mirror cell's (NaN never
    is) is that cell's text with its sign flipped, as repr gives it, so the
    pair is formatted once.

    Rows go CSV_BLOCK_ROWS // 8 mirror pairs at a time from both ends inward:
    the first half is written at once, the later half held as text, which
    the small chunks leave room for.
    """
    path, n = Path(path), len(columns[0])
    half, later = (n + 1) // 2, []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, half, CSV_BLOCK_ROWS // 8):
            stop = min(start + CSV_BLOCK_ROWS // 8, half)
            mirror = max(n - stop, half)   # the later rows mirroring these
            front, back = zip(*(_mirror_cells(x[start:stop], x[mirror:n - start][::-1])
                                for x in columns))
            fh.write(_finite(path, start, _lines(front)))
            later.append((mirror, _lines(back)))
        for row, text in reversed(later):
            fh.write(_finite(path, row, text))


def _distinct(values):
    """The (values, index) pair of a float64 array's distinct bit patterns,
    which keep 0.0 and -0.0 apart, unlike its distinct values."""
    import numpy as np
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64), index


def _mirrored_axis(half: float, n: int):
    """``np.linspace(-half, half, n)`` made exactly antisymmetric: its
    non-negative half, centred on +0.0 for odd n, after that half negated
    and reversed, so mirror-image points hold negated bits."""
    import numpy as np
    upper = np.linspace(-half, half, n)[n // 2:]
    if n % 2:
        upper[0] = 0.0
    return np.concatenate((-upper[n % 2:][::-1], upper))


def _mirrored_points(half: float, n: int) -> list:
    """``_mirrored_axis(half, n)`` as a list of floats, bit for bit, without numpy."""
    upper = _linspace(-half, half, n)[n // 2:]
    if n % 2:
        upper[0] = 0.0
    return [-x for x in reversed(upper[n % 2:])] + upper


def _linspace(start: float, stop: float, n: int) -> list:
    """``np.linspace(start, stop, n)`` for n >= 2 as a list of floats, bit for
    bit: ``i * step + start``, or ``i / (n - 1) * span + start`` where the step
    underflows to 0, and the last point ``stop``. A span past the float
    range is infinite, as numpy's: its first point is NaN, 0 * inf."""
    span = stop - start
    step = span / (n - 1)
    points = ([i * step + start for i in range(n)] if step != 0
              else [i / (n - 1) * span + start for i in range(n)])
    points[-1] = stop
    return points


# A sweep of at most this many points is evaluated point by point with math
# and never imports numpy; a longer one takes the array path. The choice reads
# the point count alone. Point by point, with its CSV cells, a noise-sweep
# point took 4.8 us and a scattering-sweep point 8.3 us, against 115-160 ms
# for a cold `import numpy` measured alongside (2-vCPU Xeon host, Python
# 3.11, numpy 2.4): this many points cost at most 8 ms, and a warm process,
# whose array path costs next to nothing, loses no more than that.
SCALAR_SWEEP_POINTS = 1000


def _each(f, points):
    """``f`` at every sweep point: one call per float of a list, one on an array."""
    return [f(x) for x in points] if isinstance(points, list) else f(points)


def _version(package: str) -> str:
    """package.__version__, read from the package's version.py, which a
    versioneer build alone makes import the package (numpy before 2.0)."""
    spec = importlib.util.find_spec(package)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {package!r}", name=package)
    namespace = {"__name__": f"{package}.version", "__package__": package}
    exec(Path(spec.origin).with_name("version.py").read_bytes(), namespace)
    return namespace.get("__version__", namespace["version"])


_VERSIONS = {"qndsim": __version__, "numpy": _version("numpy"), "scipy": _version("scipy")}


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
        if not COMPARE[op](number, float(limit)):
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
    """The config resolved against FIELDS, its paused scenarios and diagnostics.

    Beside the scenario list, seed and output directory, the resolved config
    maps each scenario to ``{section: {key: value}}`` for every field it
    reads. Only when it is complete, without diagnostics, is each scenario
    run up to its built set-up (_check_regimes); what that holds is kept
    outside the hashed config.
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
    runs = {name: _check_regimes(name, resolved[name], Path(resolved["out_dir"]), seed, complain)
            for name in (() if problems else scenarios)}
    # scenarios that share a section report its problems once
    return resolved, runs, list(dict.fromkeys(problems))


def validate_config(cfg: dict) -> list[str]:
    """Schema plus no-execution physics-regime checks; returns diagnostics."""
    return _resolve(cfg)[-1]


def config_hash(cfg: dict) -> str:
    """Hash of the resolved config without its non-semantic keys.

    Raises ConfigError, as `_checked` does, for a config that does not resolve.
    """
    return _resolved_hash(_checked(cfg, "config")[0])


def _resolved_hash(resolved: dict) -> str:
    semantic = {k: v for k, v in resolved.items()
                if k not in NON_SEMANTIC_KEYS}
    canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    import hashlib    # OpenSSL's _hashlib: only a run's manifest needs it
    return hashlib.sha256(canon.encode()).hexdigest()


# -------------------------------------------------------------- scenarios
# A scenario is a generator of its config values, their SI view, the output
# directory and the seed. Before any kernel runs it yields the section it
# builds next, then None once its set-up is built: validation stops there and
# writes nothing, and the run resumes it, which returns the artifacts written.
# It reads the SI view, and the config-unit values where a wider product
# (2*pi*f_ghz*1e9) needs them. An error before the None names the field
# _BLAME finds by that section and the words of its message, or the one
# whose record bound (constants.LIMITS) fails, else the section. A
# scenario imports the model modules it uses where it uses them.

_BLAME = {
    ("probe", "two-sideband"): "probe.modulation_depth",
    ("probe", "small-phase"): "sweep.phi_at_rad",
    ("sweep", "detuning_min"): "sweep.detuning_max_linewidths",
    ("probe_gate", "duty cycle exceeds"): "probe_gate.pulse_duration_us",
    ("probe_gate", "two-sideband"): "probe_gate.sideband_power_nw",
    ("probe_gate", "carrier power must"): "probe_gate.carrier_power_uw",
    ("probe_gate", "waist must be positive"): "probe_gate.waist_um",
    ("probe_gate", "small-phase"): "ensemble.atom_number",
    ("drive", "shift damping undefined"): "drive.rabi_frequency_khz",
    ("drive", "probe samples"): "probe_gate.repetition_rate_khz",
    ("drive", "over the maximum"): "drive.duration_ms",
    ("echo", "gaps would be negative"): "echo.total_duration_us",
    ("echo", "over the maximum"):    # a given gap, not the total duration, sets the length
        lambda v: "echo.total_duration_us" if v["echo"]["gap_us"] is None else "echo.gap_us",
    ("echo", "scan budget"): "echo.detunings_hz",
    ("echo", "probe samples"): "probe_gate.repetition_rate_khz",
    ("echo", "no sample inside the pi pulse"): "probe_gate.repetition_rate_khz",
}


def _cavity_spectrum(v: dict, si: dict, out: Path, seed: int):
    yield None
    from .cavity import CavityGeometry, solve_mode, transverse_spectrum
    sec = si["cavity"]
    geom = CavityGeometry(
        round_trip_length=C / sec["fsr"],
        mirror_radius=sec["mirror_radius"],
        fold_angle=sec["fold_angle"],
        segment_ratio=sec["segment_ratio"],
        astigmatism_correction=sec["astigmatism_factor"],
        wavelength=sec["wavelength"],
    )
    order = sec["max_transverse_order"]
    write_csv(out / "spectrum.csv", "m,n,offset_hz",
              [map(list, zip(*transverse_spectrum(geom, order)))])
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


def _trap_map(v: dict, si: dict, out: Path, seed: int):
    yield None
    import numpy as np
    from .trap import DipoleTrapConfig, potential_at, trap_depth, trap_frequencies
    trap = DipoleTrapConfig(**si["trap"])
    axis = _mirrored_axis(si["grid"]["half_span"], si["grid"]["points_per_axis"])
    iy, iz = (i.ravel() for i in np.indices((axis.size, axis.size)))
    um = axis * 1e6
    # one x-plane per call: a whole-cube grid would hold several cube-sized
    # temporaries at once; the grid's mirror symmetry repeats potentials
    write_csv(out / "trap_map.csv", "x_um,y_um,z_um,potential_uk",
              (((um, np.full(iy.size, i)), (um, iy), (um, iz),
                _distinct(potential_at(trap, (x, axis[iy], axis[iz])) / K_B * 1e6))
               for i, x in enumerate(axis)))
    fx, fy, fz = trap_frequencies(trap)
    _write_json(out / "trap_summary.json", {
        "depth_uk": trap_depth(trap) / K_B * 1e6,
        "frequency_x_hz": fx,
        "frequency_y_hz": fy,
        "frequency_z_hz": fz,
    })
    return ["trap_map.csv", "trap_summary.json"]


def _noise_sweep(v: dict, si: dict, out: Path, seed: int):
    from .heterodyne import (DetectorModel, ModulatedProbe, PhaseShiftTriple, check_small_phase,
                             demodulated_signal, interferometer_length_signal,
                             length_noise_signal, noise_rejection_ratio)
    yield "probe"
    probe = ModulatedProbe(**{**si["probe"], "modulation_frequency":
                              2 * math.pi * v["probe"]["modulation_frequency_ghz"] * 1e9})
    det = DetectorModel(**si["detector"])
    sweep = si["sweep"]
    phi = sweep["phi_at_rad"]
    check_small_phase(phi)
    yield None
    wavelength = sweep["reference_wavelength"]
    triple = PhaseShiftTriple(phi_plus=phi)
    base = demodulated_signal(probe, triple, det)
    n = sweep["points"]
    pe = (_mirrored_points if n <= SCALAR_SWEEP_POINTS else _mirrored_axis)(
        sweep["path_error_max"], n)
    # each column whole before the next, so an error is the array path's;
    # K*pe/lambda commutes with negation, so the budget and reference are odd
    write_mirrored_csv(out / "noise_sweep.csv",
                       "path_error_m,demodulated_shift_v,budget_v,reference_v",
                       (pe, _each(lambda x: demodulated_signal(probe, triple, det, path_error=x)
                                  - base, pe),
                        _each(lambda x: length_noise_signal(probe, phi, det, x), pe),
                        _each(lambda x: interferometer_length_signal(probe, det, x, wavelength),
                              pe)))
    _write_json(out / "noise_rejection.json", {
        "phi_at_rad": phi,
        "ram_asymmetry": probe.ram_asymmetry,
        "modulation_wavelength_m": probe.modulation_wavelength,
        "reference_wavelength_m": wavelength,
        "rejection_ratio": noise_rejection_ratio(probe, phi, wavelength),
    })
    return ["noise_sweep.csv", "noise_rejection.json"]


def _scattering_sweep(v: dict, si: dict, out: Path, seed: int):
    yield "sweep"
    if v["sweep"]["detuning_max_linewidths"] <= v["sweep"]["detuning_min_linewidths"]:
        raise DomainError("must exceed detuning_min_linewidths")
    yield None
    from .atoms import ProbeTuning, scattering_rate
    sec, sweep = si["tuning"], si["sweep"]
    lo, hi, n = sweep["detuning_min_linewidths"], sweep["detuning_max_linewidths"], sweep["points"]
    if n <= SCALAR_SWEEP_POINTS:
        delta = _linspace(lo, hi, n)
    else:
        import numpy as np
        delta = np.linspace(lo, hi, n)
    write_csv(out / "scattering_sweep.csv",
              "sideband_detuning_linewidths,decay_rate_hz",
              [(delta, _each(lambda d: scattering_rate(ProbeTuning.from_powers(
                  carrier_power=sec["carrier_power"], sideband_power=sec["sideband_power"],
                  waist=sec["waist"], sideband_detuning=d,
                  modulation_frequency=sec["modulation_frequency"]), sec["expansion_rate"]),
                  delta))])
    return ["scattering_sweep.csv"]


def _probed_setup(v: dict, si: dict) -> tuple:
    """Probe clock, probe beam, its light shift, ensemble and detector, once
    the phase of all N atoms is checked: more than the walk ever detects."""
    from .atoms import EnsembleState, ProbeTuning, light_shift
    from .harness import ProbeGate, sideband_phase
    from .heterodyne import DetectorModel, ModulatedProbe, check_small_phase
    raw, sec = v["probe_gate"], si["probe_gate"]
    pc, ps, waist = sec["carrier_power"], sec["sideband_power"], sec["waist"]
    tuning = ProbeTuning.from_powers(
        carrier_power=pc, sideband_power=ps, waist=waist,
        sideband_detuning=sec["sideband_detuning_linewidths"],
        modulation_frequency=sec["modulation_frequency"])
    if not sec["backaction"]:
        # pure sampling clock: no scattering, no light shift; microwave
        # detunings are then relative to the dressed resonance
        tuning = replace(tuning, sideband_intensity=0.0,
                         carrier_intensity=0.0)
    gate = ProbeGate(repetition_rate=sec["repetition_rate"],
                     pulse_duration=sec["pulse_duration"], tuning=tuning)
    if pc == 0 and ps > 0:
        raise DomainError("carrier power must be positive when the sideband "
                          "carries power")
    probe = ModulatedProbe(
        carrier_power=pc,
        modulation_depth=math.sqrt(ps / pc) if pc > 0 else 0.0,
        modulation_frequency=2 * math.pi * raw["modulation_frequency_ghz"] * 1e9,
        carrier_detuning=-sec["modulation_frequency"],
        sideband_power=ps,
        beam_waist=waist,
    )
    shift = light_shift(tuning, gate.duty_cycle) if sec["backaction"] else 0.0
    ens = EnsembleState.all_lower(si["ensemble"]["atom_number"],
                                  cloud_rms=si["ensemble"]["cloud_rms"])
    det = DetectorModel(**si["detector"])
    check_small_phase(sideband_phase(gate, probe, ens.atom_number, ens.cloud_rms))
    return gate, probe, shift, ens, det


def _rabi(v: dict, si: dict, out: Path, seed: int):
    from .atoms import RabiModel, damping_rate
    from .harness import MicrowavePulse, PulseSequence, fit_damped_sine, run_sequence
    yield "probe_gate"
    gate, probe, shift, ens, det = _probed_setup(v, si)
    yield "drive"
    drive = si["drive"]
    pulse = MicrowavePulse(2 * math.pi * v["drive"]["rabi_frequency_khz"] * 1e3,
                           drive["duration"], detuning=drive["detuning"])
    template = RabiModel(carrier_light_shift=shift, inhomogeneity=drive["inhomogeneity"],
                         residual_damping=drive["residual_damping"])
    damping_rate(replace(template, rabi_frequency=pulse.rabi_frequency), 0.0)   # the walk's drive
    seq = PulseSequence((pulse,), probe=gate)
    yield None
    trace = run_sequence(seq, ens, probe, det, seed=seed, template=template,
                         noiseless=si["options"]["noiseless"])
    write_csv(out / "rabi_trace.csv", "time_s,signal_v", [(trace.times, trace.signal)])
    window = si["options"]["fit_window"]
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


def _spin_echo(v: dict, si: dict, out: Path, seed: int):
    import numpy as np
    from .atoms import RabiModel
    from .harness import MAX_PROBE_SAMPLES, build_spin_echo, mid_pulse_amplitudes, run_scan
    yield "probe_gate"
    gate, probe, shift, ens, det = _probed_setup(v, si)
    yield "echo"
    echo = si["echo"]
    # one echo for every detuning: none of its checks depends on the detuning
    seq = build_spin_echo(pi_duration=echo["pi_duration"],
                          total_duration=echo["total_duration"], gap=echo["gap"], probe=gate)
    traces = len(echo["detunings"])
    periods = traces * seq.total_duration * gate.repetition_rate
    if periods > MAX_PROBE_SAMPLES:    # the walk holds every trace at once
        raise DomainError(f"{traces} traces span {periods:.7g} probe periods, over the "
                          f"scan budget of {MAX_PROBE_SAMPLES} samples")
    yield None
    template = RabiModel(carrier_light_shift=shift,
                         residual_damping=echo["residual_damping"])
    times, signals, _ = run_scan(seq, echo["detunings"], ens, probe, det, seed=seed,
                                 template=template, noiseless=si["options"]["noiseless"])
    deltas = np.array(echo["detunings"])
    rows, samples = (i.ravel() for i in np.indices(signals.shape))
    # free evolution without noise or back-action holds Jz, so gap samples repeat
    write_csv(out / "spin_echo_traces.csv", "detuning_hz,time_s,signal_v",
              [((deltas, rows), (times, samples), _distinct(signals.ravel()))])
    amps = mid_pulse_amplitudes(times, signals, seq)
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


def _squeezing(v: dict, si: dict, out: Path, seed: int):
    yield None
    from .atoms import cavity_enhancement, squeezing_estimate
    sec = si["squeezing"]     # no field has a unit: the SI view is the config
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


_SCENARIOS = {
    "cavity-spectrum": _cavity_spectrum,
    "trap-map": _trap_map,
    "noise-sweep": _noise_sweep,
    "scattering-sweep": _scattering_sweep,
    "rabi": _rabi,
    "spin-echo": _spin_echo,
    "squeezing": _squeezing,
}


def _check_regimes(name: str, v: dict, out: Path, seed: int, complain):
    """Scenario ``name`` at values ``v``, paused once its set-up is built, or
    None after complaining of the error that stopped it."""
    si = {section: dict(to_si(key, x) for key, x in sec.items()) for section, sec in v.items()}
    steps, section = _SCENARIOS[name](v, si, out, seed), None
    try:
        while (step := next(steps)) is not None:
            section = step
        return steps
    except (ArithmeticError, ValueError, QndSimError) as exc:
        for (at, words), path in _BLAME.items():
            if at == section and words in str(exc):
                return complain(path(v) if callable(path) else path, str(exc))
        # a record's bound: "<stem> must be <op> <limit>, got <value>"
        stem, _, bound = str(exc).partition(" must be ")
        keys = [key for key in v[section] if to_si(key, None)[0] == stem]
        if keys and bound.partition(" ")[0] in COMPARE:
            return complain(f"{section}.{keys[0]}", str(exc))
        complain(section, "regime checks cannot be evaluated at these values "
                          f"({type(exc).__name__}: {exc})")


# ------------------------------------------------------------ subcommands

def _checked(cfg: dict, source: str) -> tuple[dict, dict]:
    """Resolved config and paused scenarios, or ConfigError listing every diagnostic."""
    resolved, runs, problems = _resolve(cfg)
    if problems:
        raise ConfigError(
            f"{source}: invalid configuration\n  " + "\n  ".join(problems))
    return resolved, runs


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    resolved, runs = _checked(cfg, args.config)
    scenarios = resolved["scenario"]
    if not scenarios:
        print("nothing to run: empty scenario list")
        return 0
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    for name in scenarios:
        try:
            next(runs[name])
        except StopIteration as done:
            artifacts.extend(done.value)
        except ArithmeticError as exc:
            # an overflow or a zero division in a run's scalar set-up is a
            # physics error at these values, like the regime checks' ones
            raise DomainError(
                f"{name}: {type(exc).__name__}: {exc}") from exc
    _write_json(out / "manifest.json", {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenarios,
        "seed": resolved["seed"],
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: a parse changes none of its state."""
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Simulations of heterodyne non-demolition probing of cold atoms: "
                    "cavity modes, dipole trap, detection chain, spin dynamics.")
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
    """Run one command and return its exit code; freeze the heap at process exit."""
    # exit-time collections would walk ~22k loaded objects that the ending process frees anyway
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = _parser().parse_args(argv)
    try:
        # no RuntimeWarning, numpy's for floating point: finiteness checks decide
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QndSimError as exc:
        print(f"physics error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:   # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
