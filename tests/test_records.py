"""The model records: frozen, checked and printed as the frozen dataclasses
they replaced.

Each record's ``repr`` at a fixed instance is pinned to the string the
dataclass printed, so the names, order and defaults of its fields are pinned
bit for bit. A record builds by position and by keyword alike, refuses a
missing, unknown, repeated or surplus argument with TypeError, runs its
checks again on `replace`, refuses assignment and deletion, compares and
hashes by its fields and exact class, and survives a pickle round trip.
"""
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qndsim import cli
from qndsim.atoms import EnsembleState, ProbeTuning, RabiModel
from qndsim.cavity import CavityGeometry, GaussianMode
from qndsim.constants import H, Record, replace
from qndsim.errors import DomainError, RegimeError
from qndsim.harness import (
    FreeEvolution,
    MicrowavePulse,
    ProbeGate,
    PulseSequence,
    SineFit,
    Trace,
)
from qndsim.heterodyne import DetectorModel, ModulatedProbe, PhaseShiftTriple
from qndsim.trap import DipoleTrapConfig

TUNING = ("ProbeTuning(sideband_detuning=4.81, carrier_detunings=(2578835000.0, "
          "2651053000.0, 2808000000.0), sideband_intensity=0.8060491911692825, "
          "carrier_intensity=1272.7092492146564, linewidth=6066600.0, "
          "saturation_intensities=(16.67, 26.7, 61.23), branching=(0.0, 0.2, 0.5))")

# name: (a fixed instance, the repr the frozen dataclass gave it)
RECORDS = {
    "_Field": (
        lambda: cli._Field("detector", "kappa_e_uw", cli.NUMBER, cli.APPARATUS,
                           cli.NONNEGATIVE),
        "_Field(section='detector', key='kappa_e_uw', kind='number', default=165.0, "
        "bounds=('>= 0.0',))"),
    "ProbeTuning": (ProbeTuning, TUNING),
    "RabiModel": (
        RabiModel,
        "RabiModel(rabi_frequency=41469.02302738527, detuning=0.0, "
        "carrier_light_shift=1.32521403e-30, inhomogeneity=0.162, residual_damping=90.0)"),
    "EnsembleState": (
        lambda: EnsembleState(1e6, jz=-250000.0),
        "EnsembleState(atom_number=1000000.0, jx=0.0, jy=0.0, jz=-250000.0, "
        "coherent_number=1000000.0, cloud_rms=0.0)"),
    "CavityGeometry": (
        CavityGeometry,
        "CavityGeometry(round_trip_length=0.3071014730587994, mirror_radius=0.1, "
        "fold_angle=0.7853981633974483, segment_ratio=1.4142135623730951, "
        "astigmatism_correction=1.02, amplitude_reflectivity=0.99956, wavelength=1.56e-06)"),
    "GaussianMode": (
        lambda: GaussianMode(9.3e-05, 0.000129, 0.0175, 0.0336, 1.2, 1.5, 976200000.0,
                             70000.0, 14000.0),
        "GaussianMode(waist_par=9.3e-05, waist_perp=0.000129, rayleigh_par=0.0175, "
        "rayleigh_perp=0.0336, gouy_par=1.2, gouy_perp=1.5, fsr=976200000.0, "
        "linewidth=70000.0, finesse=14000.0)"),
    "DipoleTrapConfig": (
        DipoleTrapConfig,
        "DipoleTrapConfig(power_per_arm=200.0, waist_par=9.31e-05, waist_perp=0.0001298, "
        "polarizability=6.83e-39, polarizability_ratio=47.7, mass=1.4431608971290477e-25, "
        "backscatter_depth=0.0, wavelength=1.56e-06)"),
    "ModulatedProbe": (
        ModulatedProbe,
        "ModulatedProbe(carrier_power=0.00011999999999999999, modulation_depth=0.025, "
        "modulation_frequency=17643184342.56028, ram_asymmetry=0.01, "
        "carrier_detuning=-2808000000.0, sideband_power=7.6e-08, beam_waist=0.000245, "
        "path_length=1.0)"),
    "PhaseShiftTriple": (
        lambda: PhaseShiftTriple(phi_plus=-0.125),
        "PhaseShiftTriple(phi_minus=0.0, phi_carrier=0.0, phi_plus=-0.125)"),
    "DetectorModel": (
        DetectorModel,
        "DetectorModel(sensitivity=0.5, transimpedance=1466.0, buffer_gain=2.0, load=50.0, "
        "bandwidth=1000000.0, kappa_e=0.000165)"),
    "MicrowavePulse": (
        lambda: MicrowavePulse(42169.64997, 7.45e-05),
        "MicrowavePulse(rabi_frequency=42169.64997, duration=7.45e-05, detuning=0.0, "
        "phase=0.0)"),
    "FreeEvolution": (
        lambda: FreeEvolution(0.0001755, detuning=1000.0),
        "FreeEvolution(duration=0.0001755, detuning=1000.0)"),
    "ProbeGate": (
        ProbeGate,
        f"ProbeGate(repetition_rate=100000.0, pulse_duration=1.2499999999999999e-06, "
        f"tuning={TUNING})"),
    "PulseSequence": (
        lambda: PulseSequence([FreeEvolution(1e-05)], ProbeGate(pulse_duration=1e-06)),
        f"PulseSequence(segments=(FreeEvolution(duration=1e-05, detuning=0.0),), "
        f"probe=ProbeGate(repetition_rate=100000.0, pulse_duration=1e-06, tuning={TUNING}))"),
    "Trace": (
        lambda: Trace([0.0, 1e-05], [0.5, 0.25]),
        "Trace(times=array([0.e+00, 1.e-05]), signal=array([0.5 , 0.25]), final_state=None)"),
    "SineFit": (
        lambda: SineFit(6899.45, 120.5, 0.01, 0.25, 0.02, -0.5, {"frequency": 1.5}, 0.001),
        "SineFit(frequency=6899.45, damping=120.5, amplitude=0.01, phase=0.25, offset=0.02, "
        "drift=-0.5, std_errors={'frequency': 1.5}, residual_rms=0.001)"),
}
# the records whose fields are all hashable and compare to a bool
HASHABLE = sorted(set(RECORDS) - {"Trace", "SineFit"})


def fields(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_repr(name):
    make, text = RECORDS[name]
    record = make()
    assert isinstance(record, Record) and type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_position_and_keyword_build_the_same_record(name):
    record = RECORDS[name][0]()
    cls, values = type(record), fields(record)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    assert repr(by_position) == repr(by_keyword) == repr(record)
    assert name == "Trace" or vars(by_position) == vars(record)


@pytest.mark.parametrize("build", [
    lambda: EnsembleState(),                               # missing
    lambda: RabiModel(rabi_frequency_hz=1.0),              # unknown
    lambda: MicrowavePulse(1.0, 1e-5, duration=2e-5),      # repeated
    lambda: FreeEvolution(1e-5, 0.0, 3.0),                 # surplus
    lambda: replace(RabiModel(), rabi_frequency_hz=1.0),
], ids=["missing", "unknown", "repeated", "surplus", "replace-unknown"])
def test_a_wrong_argument_is_a_type_error(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("name", ["detuning", "new_attribute"])
def test_a_record_refuses_assignment_and_deletion(name):
    drive = RabiModel()
    with pytest.raises(AttributeError):
        setattr(drive, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(drive, name)
    assert vars(drive) == vars(RabiModel())


def test_replace_checks_the_record_again():
    with pytest.raises(RegimeError):
        replace(ModulatedProbe(), modulation_depth=0.5)
    with pytest.raises(DomainError):
        replace(EnsembleState(10.0), jz=6.0)
    # a check that fills a field fills it again
    assert replace(EnsembleState(10.0), coherent_number=None, atom_number=4.0) == \
        EnsembleState(4.0)


@pytest.mark.parametrize("name", HASHABLE)
def test_equality_and_hash_go_by_the_fields(name):
    record, twin = RECORDS[name][0](), RECORDS[name][0]()
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert record != tuple(fields(record).values())


@pytest.mark.parametrize("record, change", [
    (RabiModel(), {"detuning": 1e-300}),
    (EnsembleState(1e6), {"jz": -0.0}),       # -0.0 == 0.0: equal, with equal hashes
    (EnsembleState(1e6), {"cloud_rms": 1e-3}),
    (PulseSequence((FreeEvolution(1e-5),), ProbeGate()), {"probe": ProbeGate(1e3)}),
])
def test_equality_follows_the_fields(record, change):
    other = replace(record, **change)
    assert (other == record) == (fields(other) == fields(record))
    assert other == record or hash(other) != hash(record)


def test_equal_fields_of_another_class_are_not_equal():
    class Left(Record):
        x: float = 0.0

    class Right(Record):
        x: float = 0.0

    assert Left() == Left() and Left() != Right() and Left()._fields == ("x",)


def test_derived_attributes_stay_outside_the_fields():
    triple = PhaseShiftTriple(phi_minus=0.25, phi_plus=-0.5)
    assert triple.max_abs == 0.5 and "max_abs" not in triple._fields
    assert "max_abs" not in repr(triple)
    assert triple == PhaseShiftTriple(phi_minus=0.25, phi_plus=-0.5)
    # the fit's JSON is written from vars(fit): its fields, in order
    fit = RECORDS["SineFit"][0]()
    assert list(vars(fit)) == ["frequency", "damping", "amplitude", "phase", "offset",
                               "drift", "std_errors", "residual_rms"]


def test_probe_gates_share_one_immutable_default_tuning():
    assert ProbeGate().tuning is ProbeGate().tuning == ProbeTuning()


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and repr(back) == repr(record)
    assert list(vars(back)) == list(vars(record))
    if name in HASHABLE:
        assert back == record and hash(back) == hash(record)


finite = st.floats(allow_nan=False, allow_infinity=False)
drives = st.builds(
    RabiModel,
    rabi_frequency=st.floats(0.0, 1e9), detuning=finite,
    carrier_light_shift=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-H * 1e6, H * 1e6)),
    inhomogeneity=st.floats(0.0, 10.0), residual_damping=st.floats(0.0, 1e6))


@st.composite
def states(draw):
    atoms = draw(st.floats(0.0, 1e12))
    coherent = atoms * draw(st.floats(0.0, 1.0))
    # each component at most 0.28 N_coh keeps |J| under N_coh/2
    jx, jy, jz = (coherent * draw(st.floats(-0.28, 0.28)) for _ in range(3))
    return EnsembleState(atoms, jx, jy, jz, coherent, draw(st.floats(0.0, 1e-2)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(drives, states()))
def test_replace_without_changes_is_the_same_record(record):
    copy = replace(record)
    assert copy == record and hash(copy) == hash(record) and copy is not record
    assert repr(copy) == repr(record)
