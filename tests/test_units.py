"""Unit conversion and apparatus defaults, each stated once.

The oracle keeps the hand conversions the scenarios of `cli` once wrote,
field by field, as its reference: for every scenario that builds models,
each recorded model call gets the same arguments, bit for bit, at any field
value. A call is recorded when `cli` makes it; the last one of a scenario
stops the run, so no kernel runs. Then a config that leaves out an
apparatus field builds the model's own default, equal field for field, and
the unit table holds the suffixes and factors the README lists, `_deg`
converting as `math.radians` does, bit for bit.
"""
import inspect
import json
import math
import shutil
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qndsim
import qndsim.cli as cli
from qndsim import atoms, cavity, harness, heterodyne, trap
from qndsim.cli import FIELDS, NULLABLE, NUMBER, main
from qndsim.constants import APPARATUS, DEFAULTS, UNITS, Record, to_si

CONFIG_DIR = Path(qndsim.__file__).parent / "configs"
BUILDERS = {"cavity-spectrum": "cavity_spectrum", "trap-map": "trap_map",
            "noise-sweep": "noise_sweep", "scattering-sweep": "scattering_sweep",
            "rabi": "rabi", "spin-echo": "spin_echo"}


class Stop(Exception):
    """Raised by a scenario's last recorded call."""


# (owner, name, last): the calls whose arguments carry fields; a class
# records its construction
RECORDED = (
    (heterodyne, "DetectorModel", False),
    (heterodyne, "ModulatedProbe", False),
    (heterodyne, "interferometer_length_signal", True),
    (atoms.ProbeTuning, "from_powers", False),
    (atoms.EnsembleState, "all_lower", False),
    (atoms, "RabiModel", False),
    (atoms, "scattering_rate", True),
    (harness, "ProbeGate", False),
    (harness, "MicrowavePulse", False),
    (harness, "build_spin_echo", False),
    (harness, "fit_damped_sine", True),
    (harness, "run_scan", True),
    (cavity, "CavityGeometry", True),
    (trap, "DipoleTrapConfig", False),
    (trap, "potential_at", True),
    (cli, "_mirrored_axis", False),
    (cli, "_mirrored_points", False),
)


ANY = object()   # a reference argument that is not compared


def bits(x):
    """``x`` as comparable bits; any model object stands for every other."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(map(bits, x))
    if isinstance(x, dict):
        return {key: bits(value) for key, value in x.items()}
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return "object"


def arguments(func, args, kwargs) -> dict:
    """The bits of each argument of ``func(*args, **kwargs)`` but ANY; a
    record's construction, by its class or its ``__init__``, binds its own
    fields, a default where an argument is left out."""
    if func is Record.__init__:
        func, args = type(args[0]), args[1:]
    if isinstance(func, type) and issubclass(func, Record):
        given = {**func._defaults, **dict(zip(func._fields, args)), **kwargs}
        assert len(args) <= len(func._fields) and given.keys() == set(func._fields)
        bound = {name: given[name] for name in func._fields}
    else:
        signature = inspect.signature(func).bind(*args, **kwargs)
        signature.apply_defaults()
        bound = signature.arguments
    return {key: bits(x) for key, x in bound.items() if x is not ANY and key != "self"}


@contextmanager
def recording():
    """The calls of RECORDED that `cli` makes inside, as {name: arguments}."""
    calls = {}

    def recorder(name, real, last):
        def record(*args, **kwargs):
            caller = sys._getframe(1)
            while caller.f_code.co_filename == __file__:
                caller = caller.f_back
            if caller.f_globals["__name__"] == cli.__name__:   # not a model's own call
                assert name not in calls, f"{name} called twice"
                calls[name] = arguments(real, args, kwargs)
                if last:
                    raise Stop(name)
            return real(*args, **kwargs)
        return record

    with pytest.MonkeyPatch.context() as mp:
        for owner, name, last in RECORDED:
            real = getattr(owner, name)
            if isinstance(real, type):      # isinstance still sees the class
                mp.setattr(real, "__init__", recorder(name, real.__init__, last))
            elif inspect.ismethod(real):    # a classmethod
                record = recorder(name, real, last)
                mp.setattr(owner, name, classmethod(lambda cls, *a, _record=record, **k:
                                                    _record(*a, **k)))
            else:
                mp.setattr(owner, name, recorder(name, real, last))
        # the rabi trace is not walked: the fit window is recorded instead
        mp.setattr(harness, "run_sequence", lambda *a, **k: SimpleNamespace(
            times=np.array([0.0, 1.0]), signal=np.zeros(2)))
        yield calls


def reference(name: str, v: dict) -> dict:
    """The recorded calls of scenario ``name`` at resolved values ``v``, with
    their arguments converted by hand, as `cli` converted them."""
    calls = {}

    def call(func, *args, **kwargs):
        calls[func.__name__] = arguments(func, args, kwargs)

    def detector(d):
        call(heterodyne.DetectorModel,
             sensitivity=d["sensitivity_a_per_w"],
             transimpedance=d["transimpedance_v_per_a"],
             buffer_gain=d["buffer_gain"],
             load=d["load_ohm"],
             bandwidth=d["bandwidth_mhz"] * 1e6,
             kappa_e=d["kappa_e_uw"] * 1e-6)

    def probed(s, ens):
        pc, ps = s["carrier_power_uw"] * 1e-6, s["sideband_power_nw"] * 1e-9
        waist, mod_ghz = s["waist_um"] * 1e-6, s["modulation_frequency_ghz"]
        call(atoms.ProbeTuning.from_powers, carrier_power=pc, sideband_power=ps,
             waist=waist, sideband_detuning=s["sideband_detuning_linewidths"],
             modulation_frequency=mod_ghz * 1e9)
        call(harness.ProbeGate, repetition_rate=s["repetition_rate_khz"] * 1e3,
             pulse_duration=s["pulse_duration_us"] * 1e-6, tuning=ANY)
        try:
            depth = math.sqrt(ps / pc) if s["carrier_power_uw"] > 0 else 0.0
        except ZeroDivisionError:    # the set-up stops before the probe
            depth = ANY
        call(heterodyne.ModulatedProbe, carrier_power=pc, modulation_depth=depth,
             modulation_frequency=2 * math.pi * mod_ghz * 1e9,
             carrier_detuning=-mod_ghz * 1e9, sideband_power=ps, beam_waist=waist)
        call(atoms.EnsembleState.all_lower, ens["atom_number"],
             cloud_rms=ens["cloud_rms_um"] * 1e-6)
        detector(v["detector"])

    if name == "cavity-spectrum":
        s = v["cavity"]
        call(cavity.CavityGeometry,
             round_trip_length=cavity.C / (s["fsr_mhz"] * 1e6),
             mirror_radius=s["mirror_radius_mm"] * 1e-3,
             fold_angle=math.radians(s["fold_angle_deg"]),
             segment_ratio=s["segment_ratio"],
             astigmatism_correction=s["astigmatism_factor"],
             wavelength=s["wavelength_nm"] * 1e-9)
    elif name == "trap-map":
        s = v["trap"]
        call(trap.DipoleTrapConfig, power_per_arm=s["power_per_arm_w"],
             waist_par=s["waist_par_um"] * 1e-6, waist_perp=s["waist_perp_um"] * 1e-6,
             backscatter_depth=s["backscatter_depth"])
        call(cli._mirrored_axis, v["grid"]["half_span_um"] * 1e-6,
             v["grid"]["points_per_axis"])
        call(trap.potential_at, ANY, ANY)
    elif name == "noise-sweep":
        s, sweep = v["probe"], v["sweep"]
        call(heterodyne.ModulatedProbe,
             carrier_power=s["carrier_power_uw"] * 1e-6,
             modulation_depth=s["modulation_depth"],
             modulation_frequency=2 * math.pi * s["modulation_frequency_ghz"] * 1e9,
             ram_asymmetry=s["ram_asymmetry"],
             carrier_detuning=s["carrier_detuning_ghz"] * 1e9,
             sideband_power=s["sideband_power_nw"] * 1e-9,
             beam_waist=s["beam_waist_um"] * 1e-6,
             path_length=s["path_length_m"])
        detector(v["detector"])
        # a sweep of at most SCALAR_SWEEP_POINTS points takes the list of floats
        axis = (cli._mirrored_points if sweep["points"] <= cli.SCALAR_SWEEP_POINTS
                else cli._mirrored_axis)
        call(axis, sweep["path_error_max_um"] * 1e-6, sweep["points"])
        call(heterodyne.interferometer_length_signal, ANY, ANY, ANY,
             sweep["reference_wavelength_um"] * 1e-6)
    elif name == "scattering-sweep":
        s, sweep = v["tuning"], v["sweep"]
        delta = np.linspace(sweep["detuning_min_linewidths"],
                            sweep["detuning_max_linewidths"], sweep["points"])
        if sweep["points"] <= cli.SCALAR_SWEEP_POINTS:    # one tuning per point, the first recorded
            delta = delta[0].item()
        call(atoms.ProbeTuning.from_powers,
             carrier_power=s["carrier_power_uw"] * 1e-6,
             sideband_power=s["sideband_power_nw"] * 1e-9,
             waist=s["waist_um"] * 1e-6, sideband_detuning=delta,
             modulation_frequency=s["modulation_frequency_ghz"] * 1e9)
        call(atoms.scattering_rate, ANY, s["expansion_rate_hz"])
    elif name == "rabi":
        probed(v["probe_gate"], v["ensemble"])
        d = v["drive"]
        call(harness.MicrowavePulse, 2 * math.pi * d["rabi_frequency_khz"] * 1e3,
             d["duration_ms"] * 1e-3, detuning=d["detuning_hz"])
        call(atoms.RabiModel, carrier_light_shift=ANY, inhomogeneity=d["inhomogeneity"],
             residual_damping=d["residual_damping_hz"])
        call(harness.fit_damped_sine, ANY, window=v["options"]["fit_window_ms"] * 1e-3)
    elif name == "spin-echo":
        probed(v["probe_gate"], v["ensemble"])
        e = v["echo"]
        call(harness.build_spin_echo, pi_duration=e["pi_duration_us"] * 1e-6,
             total_duration=e["total_duration_us"] * 1e-6,
             gap=None if e["gap_us"] is None else e["gap_us"] * 1e-6, probe=ANY)
        call(atoms.RabiModel, carrier_light_shift=ANY,
             residual_damping=e["residual_damping_hz"])
        call(harness.run_scan, ANY, e["detunings_hz"], ANY, ANY, ANY, seed=ANY,
             template=ANY, noiseless=v["options"]["noiseless"])
    return calls


def built(tmp_dir: Path, cfg: dict) -> tuple[dict, dict]:
    """The calls recorded while running ``cfg``, and their reference."""
    path = tmp_dir / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_dir / "art"
    shutil.rmtree(out, ignore_errors=True)
    with recording() as calls:
        main(["run", str(path), "--out", str(out)])
    if not calls:       # the schema failed: no set-up ran
        return calls, {}
    resolved = cli._resolve(cfg)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = reference(cfg["scenario"], resolved[cfg["scenario"]])
    return calls, want


def bundled(stem: str) -> dict:
    return json.loads((CONFIG_DIR / f"{stem}.json").read_text())


@pytest.mark.parametrize("scenario", BUILDERS)
def test_bundled_configs_make_every_reference_call(tmp_path, scenario):
    calls, want = built(tmp_path, bundled(BUILDERS[scenario]))
    assert set(calls) == set(want)
    for name, args in calls.items():
        assert {key: args[key] for key in want[name]} == want[name], name


NUMBER_FIELDS = [(scenario, row.section, row.key) for scenario in BUILDERS
                 for row in FIELDS[scenario] if row.kind in (NUMBER, NULLABLE)]
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 1.7976931348623157e308)


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("units-oracle")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(field=st.sampled_from(NUMBER_FIELDS),
       value=st.one_of(st.sampled_from(EXTREMES),
                       st.floats(allow_nan=False, allow_infinity=False)))
@example(field=("rabi", "drive", "rabi_frequency_khz"), value=5e-324)
@example(field=("cavity-spectrum", "cavity", "fold_angle_deg"), value=1e-300)
# 2*pi*f*k and 2*pi*(f*k) differ at 2.2 for k = 1e3 and 1e9
@example(field=("rabi", "drive", "rabi_frequency_khz"), value=2.2)
@example(field=("rabi", "probe_gate", "modulation_frequency_ghz"), value=2.2)
@example(field=("noise-sweep", "probe", "modulation_frequency_ghz"), value=2.2)
def test_model_calls_match_the_hand_conversions(oracle_dir, field, value):
    scenario, section, key = field
    cfg = bundled(BUILDERS[scenario])
    cfg.setdefault(section, {})[key] = value
    calls, want = built(oracle_dir, cfg)
    for name, args in calls.items():
        assert {key: args[key] for key in want[name]} == want[name], (field, value, name)


# ------------------------------------------------------- one source each

def test_omitted_detector_fields_make_the_default_detector(tmp_path):
    cfg = bundled("noise_sweep")
    del cfg["detector"]
    calls, _ = built(tmp_path, cfg)
    assert calls["DetectorModel"] == arguments(heterodyne.DetectorModel, (), {})


def test_omitted_probe_fields_make_the_default_probe(tmp_path):
    cfg = bundled("noise_sweep")
    cfg["probe"] = {"beam_waist_um": 300.0}
    probe = built(tmp_path, cfg)[0]["ModulatedProbe"]
    del probe["beam_waist"]
    assert probe == arguments(heterodyne.ModulatedProbe, (), {"beam_waist": ANY})


def test_omitted_probe_timing_makes_the_default_probe_gate(tmp_path):
    cfg = bundled("rabi")
    del cfg["probe_gate"]["repetition_rate_khz"], cfg["probe_gate"]["pulse_duration_us"]
    gate = built(tmp_path, cfg)[0]["ProbeGate"]
    default = arguments(harness.ProbeGate, (), {})
    assert (gate["repetition_rate"], gate["pulse_duration"]) == \
        (default["repetition_rate"], default["pulse_duration"])


def test_omitted_cavity_fields_make_the_default_geometry(tmp_path):
    calls, _ = built(tmp_path, {**bundled("cavity_spectrum"), "cavity": {}})
    assert calls["CavityGeometry"] == arguments(cavity.CavityGeometry, (), {})


def test_omitted_trap_power_is_the_default_power(tmp_path):
    cfg = bundled("trap_map")
    del cfg["trap"]["power_per_arm_w"]
    calls, _ = built(tmp_path, cfg)
    assert calls["DipoleTrapConfig"]["power_per_arm"] == \
        bits(trap.DipoleTrapConfig().power_per_arm)


# ------------------------------------------------------------ the table

def test_unit_suffixes_and_their_factors():
    assert UNITS == {
        "_uw": 1e-6, "_nw": 1e-9, "_um": 1e-6, "_mm": 1e-3, "_nm": 1e-9,
        "_khz": 1e3, "_mhz": 1e6, "_ghz": 1e9, "_ms": 1e-3, "_us": 1e-6,
        "_deg": math.pi / 180,
        "_a_per_w": 1.0, "_v_per_a": 1.0, "_ohm": 1.0, "_w": 1.0, "_m": 1.0, "_hz": 1.0}
    assert to_si("sensitivity_a_per_w", 0.5) == ("sensitivity", 0.5)
    assert to_si("detunings_hz", [1.0]) == ("detunings", [1.0])
    assert to_si("gap_us", None) == ("gap", None)
    assert to_si("phi_at_rad", 0.1) == ("phi_at_rad", 0.1)
    for key, value in APPARATUS.items():
        stem, si = to_si(key, value)
        assert DEFAULTS[stem] == si


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False)))
def test_degrees_convert_as_math_radians(deg):
    assert to_si("fold_angle_deg", deg)[1].hex() == math.radians(deg).hex()


def test_apparatus_literals_live_in_the_table():
    literals = ("120e-6", "76e-9", "245e-6", "165e-6", "1.25e-6", "2.808e9", "976.2e6",
                "6.6e3", "74.5e-6", "500e-6")
    for path in Path(qndsim.__file__).parent.glob("*.py"):
        code = [line.split("#")[0] for line in path.read_text().splitlines()]
        for literal in literals:
            assert not any(literal in line for line in code), (path.name, literal)
